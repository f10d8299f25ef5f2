"""Newton's method, parameter continuation, and real roots of cubics.

The Newton driver works on scalars, flat numpy arrays, and ScalarField
values alike, in one loop over the unknown's own algebra: a scalar unknown
stays a float, its norm is abs and its Newton step divides the residual by
the derivative; array and field unknowns use the inf-norm and a linear
solve with the Jacobian.

Every step equation of the steppers and of their backward problems is
a (v - s) - b L v + (b / eps^2) n(v) + k = 0 with L the Neumann Laplacian
(schemes.implicit_system), so every Newton Jacobian of a field has the form
a I - b L + diag(d) and is returned as a ShiftedLaplacian, whose solve picks
its method from the operator itself:

* 1D: a direct banded (tridiagonal) solve;
* 2D with b >= 0 and a + min(d) > 0 (the operator is then symmetric positive
  definite in the trapezoid inner product, the step's uniqueness condition):
  conjugate gradients in that inner product, preconditioned by an exact
  DCT-I solve of the mean-diagonal operator (a + mean(d)) I - b L;
* otherwise, or when CG misses its tolerance within a fixed iteration cap:
  a sparse LU factorization.

Plain sparse or dense Jacobians from other callers are LU-factorized.  Every
direct solve takes one round of iterative refinement when its true residual
exceeds 1e-12 relative to the right-hand side; CG stops only on a true
residual within that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError
from .fields import (
    GridSpec,
    ScalarField,
    dct1,
    laplacian_eigenvalues,
    laplacian_matrix,
    trapezoid_weights,
)

__all__ = [
    "NewtonConfig",
    "NewtonReport",
    "ShiftedLaplacian",
    "HomotopyConfig",
    "CubicRoots",
    "newton_solve",
    "homotopy_path",
    "delta_schedule",
    "real_cubic_roots",
]

_BACKTRACK_LIMIT = 40
_HALVING_LIMIT = 20
_LINEAR_RTOL = 1e-12
_CG_MAX_ITER = 60


@dataclass(frozen=True)
class NewtonConfig:
    """Newton iteration controls.

    damping is an optional backtracking factor in (0, 1]; 1 means every
    full step is accepted as-is.
    """

    tol: float = 1e-10
    max_iter: int = 50
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.damping <= 1.0):
            raise ConfigurationError("damping must lie in (0, 1]")
        if self.tol <= 0 or self.max_iter < 1:
            raise ConfigurationError("tol must be > 0 and max_iter >= 1")


@dataclass(frozen=True)
class NewtonReport:
    """Outcome of one Newton solve (or of the last solve on a continuation path).

    history holds the residual inf-norm before each accepted step and after
    the last one.  delta is continuation metadata: the parameter value the
    returned iterate belongs to, when the solve was driven by homotopy_path.
    """

    iterations: int
    residual: float
    converged: bool
    history: tuple[float, ...]
    message: str = ""
    delta: float | None = None


def _linf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _refined_solve(solve, apply, rhs: np.ndarray) -> np.ndarray:
    """solve(rhs), plus one refinement step if the true residual is too large."""
    x = solve(rhs)
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("singular or ill-conditioned Jacobian")
    resid = rhs - apply(x)
    if _linf(resid) > _LINEAR_RTOL * max(_linf(rhs), 1e-300):
        x = x + solve(resid)
    return x


@lru_cache(maxsize=None)
def _laplacian_band(grid: GridSpec) -> np.ndarray:
    """The 1D laplacian_matrix(grid) in solve_banded's (1, 1) layout; read-only."""
    lap = laplacian_matrix(grid)
    band = np.zeros((3, grid.n))
    band[0, 1:] = lap.diagonal(1)
    band[1] = lap.diagonal()
    band[2, :-1] = lap.diagonal(-1)
    band.setflags(write=False)
    return band


@dataclass(frozen=True, eq=False)
class ShiftedLaplacian:
    """The linear operator a I - b L + diag(d) on a grid, L = laplacian_matrix(grid).

    a and b are scalars and d holds one value per node.  Supports `op @ x`,
    tosparse(), todense() and solve(rhs); see the module docstring for how
    solve chooses its method.
    """

    grid: GridSpec
    a: float
    b: float
    d: np.ndarray

    @property
    def certified(self) -> bool:
        """b >= 0 and a + min(d) > 0: symmetric positive definite in the
        trapezoid inner product, so the Newton system has a unique solution."""
        return self.b >= 0.0 and self.a + float(np.min(self.d)) > 0.0

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.a * x - self.b * (laplacian_matrix(self.grid) @ x) + self.d * x

    def tosparse(self) -> sp.csr_matrix:
        return (sp.diags(self.a + self.d) - self.b * laplacian_matrix(self.grid)).tocsr()

    def todense(self) -> np.ndarray:
        return self.tosparse().toarray()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with self @ x = rhs (see the module docstring for the method)."""
        if self.grid.dim == 1:
            ab = self._band()
            return _refined_solve(
                lambda r: scipy.linalg.solve_banded((1, 1), ab, r), self.__matmul__, rhs
            )
        if self.certified:
            x = self._pcg(rhs)
            if x is not None:
                return x
        return _refined_solve(spla.splu(self.tosparse().tocsc()).solve, self.__matmul__, rhs)

    def _band(self) -> np.ndarray:
        """The tridiagonal 1D operator in solve_banded's (1, 1) layout."""
        ab = -self.b * _laplacian_band(self.grid)
        ab[1] = (self.a + ab[1]) + self.d
        return ab

    def _pcg(self, rhs: np.ndarray) -> np.ndarray | None:
        """Preconditioned CG in the trapezoid inner product; None on a miss.

        The preconditioner solves (a + mean(d)) I - b L exactly in the DCT-I
        eigenbasis of L.  Returns only an x whose true residual is within
        _LINEAR_RTOL of rhs; a recursive residual that meets the bound while
        the true one does not restarts the iteration from the true residual.
        """
        g = self.grid
        tol = _LINEAR_RTOL * _linf(rhs)
        if tol == 0.0:
            return np.zeros_like(rhs)
        w = trapezoid_weights(g)
        shape = (g.n,) * g.dim
        shift = self.a + float(np.mean(self.d))
        denom = (shift - self.b * laplacian_eigenvalues(g)) * float(2 * (g.n - 1)) ** g.dim

        def precondition(r):
            return dct1(dct1(r.reshape(shape)) / denom).ravel()

        x = np.zeros_like(rhs)
        r = rhs.copy()
        p = np.zeros_like(rhs)
        rz = 1.0
        for _ in range(_CG_MAX_ITER):
            z = precondition(r)
            rz_new = float(w @ (r * z))
            p = z + (rz_new / rz) * p
            rz = rz_new
            ap = self @ p
            pap = float(w @ (p * ap))
            if not (rz > 0.0 and pap > 0.0):  # positivity lost to roundoff or underflow
                return None
            alpha = rz / pap
            x = x + alpha * p
            r = r - alpha * ap
            if _linf(r) <= tol:
                r = rhs - self @ x
                if _linf(r) <= tol:
                    return x
                p = np.zeros_like(rhs)  # restart from the true residual
        return None


def _solve_linear(jac, rhs: np.ndarray) -> np.ndarray:
    """Solve jac @ x = rhs to a relative residual of 1e-12 (see the module docstring)."""
    if isinstance(jac, ShiftedLaplacian):
        return jac.solve(rhs)
    if sp.issparse(jac):
        return _refined_solve(spla.splu(jac.tocsc()).solve, lambda x: jac @ x, rhs)
    dense = np.atleast_2d(np.asarray(jac, dtype=float))
    lu_piv = scipy.linalg.lu_factor(dense)
    return _refined_solve(lambda b: scipy.linalg.lu_solve(lu_piv, b), lambda x: dense @ x, rhs)


def _solve_scalar(deriv, rhs: float) -> float:
    """rhs / deriv for a scalar unknown; deriv is a float or a one-element array."""
    if not isinstance(deriv, float):
        deriv = np.asarray(deriv, dtype=float).reshape(())
    d = float(deriv)
    step = rhs / d if d != 0.0 and math.isfinite(d) else math.nan
    if not math.isfinite(step):
        raise np.linalg.LinAlgError("zero or non-finite derivative, or overflowing step")
    return step


def _as_array(r) -> np.ndarray:
    return np.asarray(r, dtype=float)


# How the Newton loop treats each kind of unknown:
# (coerce a residual value, its inf-norm, solve jacobian @ step = rhs).
_SCALAR = (float, abs, _solve_scalar)
_ARRAY = (_as_array, _linf, _solve_linear)


def _newton_core(residual, jacobian, x0, cfg: NewtonConfig, algebra):
    value, norm, solve = algebra
    x = x0
    r = value(residual(x))
    rnorm = norm(r)
    history = [rnorm]
    if not math.isfinite(rnorm):
        return x0, NewtonReport(0, rnorm, False, tuple(history), "residual not finite at guess")
    if rnorm <= cfg.tol:
        return x, NewtonReport(0, rnorm, True, tuple(history))
    for it in range(1, cfg.max_iter + 1):
        try:
            step = solve(jacobian(x), -r)
        except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
            return x, NewtonReport(it - 1, rnorm, False, tuple(history), f"linear solve failed: {exc}")
        x_new = x + step
        r_new = value(residual(x_new))
        rn_new = norm(r_new)
        if cfg.damping < 1.0:
            lam, tries = 1.0, 0
            while (not math.isfinite(rn_new) or rn_new >= rnorm) and tries < _BACKTRACK_LIMIT:
                lam *= cfg.damping
                x_new = x + lam * step
                r_new = value(residual(x_new))
                rn_new = norm(r_new)
                tries += 1
        if not (math.isfinite(rn_new) and math.isfinite(norm(x_new))):
            return x, NewtonReport(it - 1, rnorm, False, tuple(history), "iterate diverged")
        x, r, rnorm = x_new, r_new, rn_new
        history.append(rnorm)
        if rnorm <= cfg.tol:
            return x, NewtonReport(it, rnorm, True, tuple(history))
    return x, NewtonReport(cfg.max_iter, rnorm, False, tuple(history), "max iterations reached")


def newton_solve(residual, jacobian, guess, cfg: NewtonConfig | None = None):
    """Solve residual(x) = 0 by Newton's method from the given guess.

    Parameters
    ----------
    residual, jacobian:
        Functions of the unknown.  For array/field unknowns the Jacobian
        returns a ShiftedLaplacian, whose solve picks a banded solve (1D),
        preconditioned CG (2D, certified positive definite) or sparse LU
        from the operator itself; or a plain square matrix, which is
        LU-factorized (sparse or dense).  For scalar unknowns it returns
        the derivative (a float or a one-element array), and each step
        divides the residual by it; a zero or non-finite derivative ends
        the solve as a failed linear solve.
    guess:
        float, flat ndarray, or ScalarField; the solution has the same type.
    cfg:
        NewtonConfig; defaults to tol=1e-10, max_iter=50, undamped.

    Returns
    -------
    (solution, NewtonReport).  Non-convergence is reported, not raised; the
    returned iterate is the last finite one.
    """
    cfg = cfg or NewtonConfig()
    if np.isscalar(guess):
        return _newton_core(residual, jacobian, float(guess), cfg, _SCALAR)
    if isinstance(guess, ScalarField):
        grid = guess.grid

        def res(v):
            out = residual(ScalarField(grid, v))
            return out.values if isinstance(out, ScalarField) else out

        x, rep = _newton_core(
            res, lambda v: jacobian(ScalarField(grid, v)), np.array(guess.values, dtype=float), cfg, _ARRAY
        )
        return ScalarField(grid, x), rep
    return _newton_core(residual, jacobian, np.array(guess, dtype=float), cfg, _ARRAY)


def fd_jacobian(residual, u, h_fd: float | None = None) -> np.ndarray:
    """Dense central-difference Jacobian of residual at u (testing utility)."""
    if isinstance(u, ScalarField):
        grid = u.grid
        base = u.values

        def f(v):
            out = residual(ScalarField(grid, v))
            return out.values if isinstance(out, ScalarField) else np.asarray(out, float)
    else:
        base = np.asarray(u, dtype=float)
        f = lambda v: np.asarray(residual(v), dtype=float)
    m = base.size
    h = h_fd if h_fd is not None else 1e-6 * (1.0 + _linf(base))
    # snap to a power of two so u +- h and the difference quotient carry no
    # representation error of their own
    h = 2.0 ** round(math.log2(h))
    jac = np.empty((m, m))
    for j in range(m):
        up = base.copy()
        dn = base.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (f(up) - f(dn)) / (2.0 * h)
    return jac


@dataclass(frozen=True)
class HomotopyConfig:
    """Continuation schedule from delta_start to delta_end.

    steps counts schedule increments (geometric when the endpoints share a
    sign, linear otherwise).  With adaptive=True a failed Newton solve
    retries on geometrically bisected sub-increments, up to 20 insertions.
    """

    delta_end: float
    delta_start: float = 1e-3
    steps: int = 32
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if not (math.isfinite(self.delta_start) and math.isfinite(self.delta_end)):
            raise ConfigurationError("delta_start and delta_end must be finite")


def delta_schedule(cfg: HomotopyConfig) -> list[float]:
    """Schedule values from delta_start to delta_end inclusive (deduplicated)."""
    a, b, m = cfg.delta_start, cfg.delta_end, cfg.steps
    if a == b:
        return [b]
    if a != 0.0 and b != 0.0 and (a > 0) == (b > 0):
        ratio = b / a
        pts = [a * ratio ** (i / m) for i in range(m + 1)]
    else:
        pts = [a + (b - a) * i / m for i in range(m + 1)]
    pts[0], pts[-1] = a, b
    return pts


def _geometric_mid(a: float, b: float) -> float:
    if a != 0.0 and b != 0.0 and (a > 0) == (b > 0):
        return math.copysign(math.sqrt(a * b), a)
    return 0.5 * (a + b)


def march_deltas(solve_at: Callable, schedule: Sequence[float], adaptive: bool):
    """Drive solve_at(delta, state) -> (state, NewtonReport) along a schedule.

    Warm-starts each solve from the previous state.  On failure, inserts
    geometric midpoints between the last good delta and the failed target
    (at most 20 insertions overall) before giving up.  Returns the final
    state and the last report, with report.delta set to the delta of the
    state actually returned.
    """
    state = None
    last_good: float | None = None
    report = NewtonReport(0, 0.0, True, (0.0,))
    budget = _HALVING_LIMIT
    for target in schedule:
        pending = [target]
        while pending:
            t = pending[-1]
            new_state, report = solve_at(t, state)
            if report.converged:
                state, last_good = new_state, t
                pending.pop()
                continue
            if not adaptive or budget == 0 or last_good is None:
                return state, replace(report, delta=last_good)
            budget -= 1
            pending.append(_geometric_mid(last_good, t))
    return state, replace(report, delta=last_good)


def homotopy_path(problem, seed, cfg: HomotopyConfig, newton_cfg: NewtonConfig | None = None):
    """March a Newton solve along the delta schedule, warm-starting each solve.

    problem(delta) must return a (residual, jacobian) pair for that delta.
    With steps=1 and delta_start == delta_end this reduces to a single
    newton_solve from the seed, bitwise identical to calling it directly.

    Returns the solution at delta_end and the last NewtonReport; on failure
    the report carries converged=False and delta = last good value, and the
    returned solution is the last good iterate (the seed if none).
    """
    ncfg = newton_cfg or NewtonConfig()

    def solve_at(delta, state):
        residual, jacobian = problem(delta)
        start = seed if state is None else state
        return newton_solve(residual, jacobian, start, ncfg)

    state, report = march_deltas(solve_at, delta_schedule(cfg), cfg.adaptive)
    if state is None:
        state = seed
    return state, report


@dataclass(frozen=True)
class CubicRoots:
    """Real roots of a real cubic, ascending, with multiplicity preserved.

    discriminant_sign is +1 (three distinct real roots), 0 (repeated root),
    or -1 (one real root); the sign is zeroed when the discriminant is
    below 1e-12 relative to its own terms.
    """

    real_roots: tuple[float, ...]
    discriminant_sign: int
    discriminant: float


def real_cubic_roots(a3: float, a2: float, a1: float, a0: float) -> CubicRoots:
    """All real roots of a3 x^3 + a2 x^2 + a1 x + a0.

    Closed-form: trigonometric branch when all roots are real, Cardano
    otherwise, each root polished by one safeguarded Newton step.  Raises
    ConfigurationError when a3 == 0.
    """
    if a3 == 0.0:
        raise ConfigurationError("leading coefficient must be nonzero")
    terms = (
        18.0 * a3 * a2 * a1 * a0,
        -4.0 * a2 ** 3 * a0,
        a2 ** 2 * a1 ** 2,
        -4.0 * a3 * a1 ** 3,
        -27.0 * a3 ** 2 * a0 ** 2,
    )
    disc = math.fsum(terms)
    scale = sum(abs(t) for t in terms)
    if abs(disc) <= 1e-12 * scale:
        sign = 0
    else:
        sign = 1 if disc > 0 else -1

    b, c, d = a2 / a3, a1 / a3, a0 / a3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0

    if sign > 0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg)
        ts = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    elif sign == 0:
        # Discriminant zero: either a triple root (p = q = 0) or a double
        # plus a simple root; p <= 0 always holds here.
        p_scale = max(1.0, abs(c), b * b / 3.0)
        if abs(p) <= 1e-9 * p_scale:
            ts = [0.0, 0.0, 0.0]
        else:
            ts = [3.0 * q / p, -1.5 * q / p, -1.5 * q / p]
    else:
        if q == 0.0:
            ts = [0.0]  # p > 0 here, so t (t^2 + p) = 0 has one real root
        else:
            big = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
            u = np.cbrt(-q / 2.0 - math.copysign(big, q))
            ts = [u - p / (3.0 * u)]

    def poly(x: float) -> float:
        return ((a3 * x + a2) * x + a1) * x + a0

    def polish(x: float) -> float:
        fp = (3.0 * a3 * x + 2.0 * a2) * x + a1
        if fp == 0.0:
            return x
        x2 = x - poly(x) / fp
        return x2 if math.isfinite(x2) and abs(poly(x2)) <= abs(poly(x)) else x

    roots = sorted(polish(t + shift) for t in ts)
    return CubicRoots(tuple(roots), sign, disc)
