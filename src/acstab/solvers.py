"""Newton's method, parameter continuation, and real roots of cubics.

Each rule is stated once, in the docstring of the function that applies it:

* newton_solve: one Newton loop on a float unknown (a float derivative) or a
  flat array (a ShiftedLaplacian Jacobian a I - b L + diag(d), the form of
  every schemes.implicit_system), its stopping rule and its inexact solves;
  _forcing: the forcing term; _newton_each: the float loop on array entries.
* ShiftedLaplacian.solve: the linear method, by grid and operator; _krylov,
  _cg, _minres and _preconditioner: the iterative solves; _refined_solve:
  the refinement and failure test of the direct solves.
* march_deltas: continuation in a parameter delta, bisection and prediction,
  under homotopy_path and robustness.preimage_field.
* _cubic_roots: closed-form real roots of cubics, on floats (real_cubic_roots)
  and on arrays (classify's constant walks).
* __getattr__: SciPy loads on the first field solve that needs it, not on
  import, so the analyses of constant states never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice, repeat
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import AnalysisError, ConfigurationError, _check_count
from .fields import (
    GridSpec,
    dct1,
    laplacian_eigenvalues,
    laplacian_matrix,
    trapezoid_weights,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "NewtonConfig",
    "NewtonReport",
    "HomotopyConfig",
    "CubicRoots",
    "newton_solve",
    "homotopy_path",
    "delta_schedule",
    "real_cubic_roots",
]

_HALVING_LIMIT = 20
_LINEAR_RTOL = 1e-12
_REFINED_RTOL = 1e-8  # a direct solve still above this relative residual after refinement fails
_KRYLOV_MAX_ITER = 60  # CG and MINRES alike
_FORCING_MAX = 0.1  # eta_0 and the cap of every forcing term
_FORCING_GAMMA = 0.9


@dataclass(frozen=True)
class NewtonConfig:
    """Newton iteration controls: the residual tolerance and the iteration cap.

    They apply alike to both kinds of unknown newton_solve takes (a float,
    whose derivative is a float, and a flat array, whose Jacobian is a
    ShiftedLaplacian); _newton_each runs each entry under the defaults.
    max_iter is an integer.  The residual is measured by abs or the inf-norm.
    """

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self) -> None:
        _check_count("max_iter", self.max_iter)
        if not (math.isfinite(self.tol) and self.tol > 0) or self.max_iter < 1:
            raise ConfigurationError(f"tol must be finite and > 0 and max_iter >= 1, got "
                                     f"tol {self.tol} and max_iter {self.max_iter}")


_DEFAULT_NEWTON = NewtonConfig()


@dataclass(frozen=True)
class NewtonReport:
    """Outcome of one Newton solve (or of the last solve on a continuation path).

    history holds the residual inf-norm before each accepted step and after
    the last one.  delta is set by continuation (march_deltas): the parameter
    value the returned iterate belongs to.
    """

    iterations: int
    residual: float
    converged: bool
    history: tuple[float, ...]
    message: str = ""
    delta: float | None = None


def __getattr__(name: str):
    """scipy (with scipy.linalg) and spla (scipy.sparse.linalg): imported on
    first access, then kept as module globals.  The solves read them through
    _scipy when they run, so a patched solvers.spla.splu is the one they call."""
    if name == "scipy":
        import scipy.linalg

        module = scipy
    elif name == "spla":
        import scipy.sparse.linalg as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = module
    return module


def _scipy(name: str):
    """solvers.<name> as it stands now: imported on first use, or as patched."""
    return globals().get(name) or __getattr__(name)


def _linf(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _refined_solve(solve, apply, rhs: np.ndarray) -> np.ndarray:
    """solve(rhs), plus one refinement step if the true residual is too large;
    LinAlgError where that residual is not finite, as it is for a non-finite x,
    or is still above _REFINED_RTOL of rhs after the refinement, as it is for
    a nearly singular operator."""
    x = solve(rhs)
    scale = max(_linf(rhs), 1e-300)
    with np.errstate(all="ignore"):
        resid = rhs - apply(x)
    rnorm = _linf(resid)
    if not math.isfinite(rnorm):
        raise np.linalg.LinAlgError("singular or ill-conditioned Jacobian")
    if rnorm > _LINEAR_RTOL * scale:
        x = x + solve(resid)
        with np.errstate(all="ignore"):
            rnorm = _linf(rhs - apply(x))
        if not rnorm <= _REFINED_RTOL * scale:
            raise np.linalg.LinAlgError(f"singular or ill-conditioned Jacobian: residual "
                                        f"{rnorm:.3g} after refinement, rhs {scale:.3g}")
    return x


_GTSV = None  # LAPACK gtsv, looked up on the first 1D solve


def _tridiagonal_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with A x = rhs, A tridiagonal in solve_banded's (1, 1) layout ab.

    The same LAPACK gtsv call, bits and errors as
    scipy.linalg.solve_banded((1, 1), ab, rhs); ab and rhs are left intact.
    """
    global _GTSV
    if _GTSV is None:
        _GTSV = _scipy("scipy").linalg.get_lapack_funcs("gtsv", dtype=np.float64)
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = _GTSV(ab[2, :-1], ab[1], ab[0, 1:], rhs)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


@dataclass(frozen=True, eq=False)
class ShiftedLaplacian:
    """The linear operator a I - b L + diag(d) on a grid, L = laplacian_matrix(grid).

    a and b are scalars and d holds one value per node.  Supports `op @ x`,
    tosparse() and solve(rhs, rtol), each through L's numpy product or
    coefficient rows.  SciPy loads only for tosparse() (scipy.sparse), and
    in solve for a 1D system (scipy.linalg's gtsv) or a 2D sparse LU
    fallback.
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
        import scipy.sparse as sp

        return (sp.diags(self.a + self.d) - self.b * laplacian_matrix(self.grid).tosparse()).tocsr()

    def solve(self, rhs: np.ndarray, rtol: float = _LINEAR_RTOL) -> np.ndarray:
        """x with self @ x = rhs, by a method picked from the operator:

        * 1D: a direct tridiagonal solve (_tridiagonal_solve);
        * 2D and certified (symmetric positive definite in the trapezoid
          inner product): preconditioned conjugate gradients;
        * every other 2D operator (self-adjoint in that inner product, but
          possibly indefinite): preconditioned MINRES (Paige and Saunders);
        * where CG or MINRES misses (_krylov): a sparse LU factorization.

        CG and MINRES stop at a true residual within max(1e-12, rtol) of rhs;
        the direct solves are exact whatever rtol is (_refined_solve).
        """
        if self.grid.dim == 1:
            ab = self._band()
            return _refined_solve(lambda r: _tridiagonal_solve(ab, r), self.__matmul__, rhs)
        x = self._krylov(rhs, rtol)
        if x is not None:
            return x
        # the 5-point pattern is symmetric: order on A + A^T, prefer diagonal pivots
        lu = _scipy("spla").splu(self.tosparse().tocsc(), permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.1, options={"SymmetricMode": True})
        return _refined_solve(lu.solve, self.__matmul__, rhs)

    def _band(self) -> np.ndarray:
        """The tridiagonal 1D operator in solve_banded's (1, 1) layout: L's
        rows, offsets (1, 0, -1) from the top."""
        ab = -self.b * laplacian_matrix(self.grid).rows[::-1]
        ab[1] = (self.a + ab[1]) + self.d
        return ab

    def _preconditioner(self, m: float):
        """The exact DCT-I solve of |M|, M = (a + m) I - b L with m = mean(d)
        (absolute value preconditioning, Vecharynski and Knyazev), which is
        positive definite and self-adjoint in the trapezoid inner product; None
        when it is singular.  On a certified operator it is M itself, since
        b >= 0 and L's eigenvalues are <= 0.
        """
        g = self.grid
        shape = (g.n,) * g.dim
        mean = (self.a + m) - self.b * laplacian_eigenvalues(g)
        denom = np.abs(mean) * float(2 * (g.n - 1)) ** g.dim
        if not denom.all():
            return None

        def precondition(r):
            return dct1(dct1(r.reshape(shape)) / denom).ravel()

        return precondition

    def _krylov(self, rhs: np.ndarray, rtol: float = _LINEAR_RTOL) -> np.ndarray | None:
        """CG on a certified operator, MINRES on any other; None on a miss.

        CG takes the operator as M + diag(d - m), M = (a + m) I - b L the
        preconditioner's, m = mean(d), and applies L only in the test of the
        true residual.  Stops within _KRYLOV_MAX_ITER iterations at the first x
        whose recursive residual is within max(_LINEAR_RTOL, rtol) of rhs, or
        whose Krylov space is invariant, and returns it only if its true
        residual is too.  Overflow raises no warning: a non-finite iterate
        fails both tests, a miss.
        """
        tol = max(_LINEAR_RTOL, rtol) * _linf(rhs)
        if tol == 0.0:
            return np.zeros_like(rhs)
        m = float(np.mean(self.d))
        precondition = self._preconditioner(m)
        if precondition is None:
            return None
        w = trapezoid_weights(self.grid)
        iterates = (_cg(self.d - m, rhs, precondition, w) if self.certified
                    else _minres(self, rhs, precondition, w))
        with np.errstate(all="ignore"):
            for x, r, invariant in islice(iterates, _KRYLOV_MAX_ITER):
                if invariant or _linf(r) <= tol:
                    return x if _linf(rhs - self @ x) <= tol else None
        return None


def _cg(deviation: np.ndarray, rhs: np.ndarray, precondition, w: np.ndarray):
    """Preconditioned CG on (M + diag(deviation)) x = rhs in the inner product
    with weights w, M the operator that precondition inverts: yields (x,
    recursive residual, False) at each iteration from x = 0, and ends where
    positivity is lost to roundoff or underflow.

    Each direction p = z + beta p_old has M z = r, so M p = r + beta M p_old
    is carried beside p and the operator's product is M p + deviation p: no
    iteration applies the Laplacian."""
    x = np.zeros_like(rhs)
    r = mp = rhs
    p = precondition(rhs)
    rz = float(w @ (r * p))
    while True:
        ap = mp + deviation * p
        pap = float(w @ (p * ap))
        if not (rz > 0.0 and pap > 0.0):
            return
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        yield x, r, False
        z = precondition(r)
        rz_old, rz = rz, float(w @ (r * z))
        beta = rz / rz_old
        p, mp = z + beta * p, r + beta * mp


def _minres(op: ShiftedLaplacian, rhs: np.ndarray, precondition, w: np.ndarray):
    """Preconditioned MINRES on op x = rhs in the inner product with weights w,
    for a self-adjoint, possibly indefinite op: yields (x, recursive residual,
    invariant) at each iteration from x = 0, the residual carried along with
    x through op applied to the search directions, and invariant once the
    Lanczos beta is 0.  Ends where positivity is lost to roundoff or not
    finite, or a plane rotation degenerates."""
    x = np.zeros_like(rhs)
    r = rhs
    q_old, q, z = None, rhs, precondition(rhs)  # q is the residual-side vector, z = M q
    beta = float(w @ (rhs * z))
    if not beta > 0.0:
        return
    beta = math.sqrt(beta)
    beta_old, dbar, epsln, phibar, cs, sn = 0.0, 0.0, 0.0, beta, -1.0, 0.0
    d_old = d = ad_old = ad = np.zeros_like(rhs)  # directions and op applied to them
    while True:
        v = z / beta
        av = op @ v
        y = av if q_old is None else av - (beta / beta_old) * q_old
        alpha = float(w @ (v * y))
        y = y - (alpha / beta) * q
        q_old, q, z = q, y, precondition(y)
        beta_old, beta = beta, float(w @ (y * z))
        if not beta >= 0.0:  # positivity lost to roundoff, or not finite
            return
        beta = math.sqrt(beta)
        # apply the previous plane rotation, then form and apply the next one
        eps_old, delta, gbar = epsln, cs * dbar + sn * alpha, sn * dbar - cs * alpha
        epsln, dbar = sn * beta, -cs * beta
        gamma = math.hypot(gbar, beta)
        if gamma == 0.0:
            return
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        d_old, d = d, (v - eps_old * d_old - delta * d) / gamma
        ad_old, ad = ad, (av - eps_old * ad_old - delta * ad) / gamma
        x = x + phi * d
        r = r - phi * ad
        yield x, r, beta == 0.0


def _forcing(rnorm: float, previous: float, tol: float) -> float:
    """Eisenstat and Walker's choice 2 forcing term after a step that took the
    residual from previous to rnorm, 0.9 (rnorm / previous)^2: raised to
    0.5 tol / rnorm (Kelley: no solve below what Newton's stopping rule
    needs), then capped at _FORCING_MAX and floored at _LINEAR_RTOL."""
    eta = max(_FORCING_GAMMA * (rnorm / previous) ** 2, 0.5 * tol / rnorm)
    return max(_LINEAR_RTOL, min(_FORCING_MAX, eta))


def _newton_each(residual, derivative, guess: np.ndarray):
    """Newton's method on independent scalar equations, one per entry of guess,
    for classify's root picks (schemes._selected_images).

    residual(x) and derivative(x) are evaluated elementwise on the 1-D array
    x.  Each entry steps as newton_solve steps a float with the default
    NewtonConfig, and stops on its own at its tol, its cap or a failed step,
    keeping its last finite iterate.  An entry that stopped is carried along
    unchanged.  Returns (x, |residual| at x) per entry.
    """
    cfg = _DEFAULT_NEWTON
    with np.errstate(all="ignore"):
        x = np.array(guess, dtype=float)
        r = np.broadcast_to(np.asarray(residual(x), dtype=float), x.shape)
        rn = np.abs(r)
        run = np.isfinite(rn) & (rn > cfg.tol)
        for _ in range(cfg.max_iter):
            if not np.count_nonzero(run):
                break
            d = derivative(x)
            step = -r / d
            x_new = x + step
            r_new = np.asarray(residual(x_new), dtype=float)
            rn_new = np.abs(r_new)
            # a finite step and derivative (inf * 0 is NaN), new iterate and residual
            ok = run & np.isfinite(step * d) & np.isfinite(rn_new) & np.isfinite(x_new)
            x, r, rn = np.where(ok, x_new, x), np.where(ok, r_new, r), np.where(ok, rn_new, rn)
            run = ok & (rn > cfg.tol)
    return x, rn


def newton_solve(residual, jacobian, guess, cfg: NewtonConfig | None = None):
    """Solve residual(x) = 0 by Newton's method from the given guess.

    Parameters
    ----------
    residual, jacobian:
        Functions of the unknown, for one of two kinds of unknown, chosen by
        the guess.  A float unknown has a float derivative as its jacobian:
        each step is -residual / derivative, and a zero or non-finite
        derivative, or a step that overflows, ends the solve as a failed
        linear solve.  A flat-array unknown has a ShiftedLaplacian Jacobian,
        whose solve picks the linear method (ShiftedLaplacian.solve); any
        other Jacobian raises.  Its steps are solved inexactly (Dembo,
        Eisenstat and Steihaug), to a relative residual eta_k: 0.1 at first,
        then _forcing's term, and 1e-12 for the rest of the solve once a step
        on an uncertified Jacobian (ShiftedLaplacian.certified false) fails
        to halve the residual: a loose solve near an indefinite or nearly
        singular Jacobian could otherwise stall Newton short of its
        tolerance.  A certified Jacobian is positive definite, so a step on
        it that fails to halve the residual comes from the nonlinearity (a
        guess far from the root), not from a loose solve, and keeps its
        forcing term.  The stopping rule is cfg.tol on the residual's abs or
        inf-norm whatever the forcing.
    guess:
        float or flat ndarray; the solution has the same kind.  A float is
        carried as np.float64, as is its residual, so residual and jacobian
        see numpy's overflow rules: inf or NaN, not OverflowError.
    cfg:
        NewtonConfig; defaults to tol=1e-10, max_iter=50.

    Returns
    -------
    (solution, NewtonReport).  Non-convergence is reported, not raised; the
    returned iterate is the last finite one.  A residual that overflows is
    reported by its norm, inf or NaN, not by a warning.
    """
    cfg = cfg or _DEFAULT_NEWTON
    scalar = np.isscalar(guess)
    if scalar:
        x, value, norm = np.float64(guess), np.float64, lambda v: abs(float(v))
    else:
        x, value, norm = np.array(guess, dtype=float), partial(np.asarray, dtype=float), _linf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = value(residual(x))
        rnorm = norm(r)
        history = [rnorm]
        iterations, eta, stalled = 0, _FORCING_MAX, False
        if not math.isfinite(rnorm):
            message, cap = "residual not finite at guess", 0
        elif rnorm <= cfg.tol:
            message, cap = "", 0
        else:
            message, cap = "max iterations reached", cfg.max_iter
        for it in range(1, cap + 1):  # a loop that runs to the cap keeps message
            try:
                if scalar:
                    d = jacobian(x)
                    step = -r / d
                    if not math.isfinite(step * d):  # inf * 0 is NaN
                        raise np.linalg.LinAlgError("zero or non-finite derivative, "
                                                    "or overflowing step")
                else:
                    op = jacobian(x)
                    step = op.solve(-r, eta)
            except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
                message = f"linear solve failed: {exc}"
                break
            x_new = x + step
            r_new = value(residual(x_new))
            rn_new = norm(r_new)
            if not (math.isfinite(rn_new) and math.isfinite(norm(x_new))):
                message = "iterate diverged"
                break
            x, r, rnorm, iterations = x_new, r_new, rn_new, it
            history.append(rnorm)
            if rnorm <= cfg.tol:
                message = ""
                break
            if not scalar:
                stalled = stalled or (rnorm > 0.5 * history[-2] and not op.certified)
                eta = _LINEAR_RTOL if stalled else _forcing(rnorm, history[-2], cfg.tol)
    report = NewtonReport(iterations, rnorm, not message, tuple(history), message)
    return (float(x) if scalar else x), report


def fd_jacobian(residual, u) -> np.ndarray:
    """Dense central-difference Jacobian of residual at the flat array u (testing utility)."""
    base = np.asarray(u, dtype=float)
    f = lambda v: np.asarray(residual(v), dtype=float)
    m = base.size
    # a step of 1e-6 (1 + |u|), snapped to a power of two so u +- h and the
    # difference quotient carry no representation error of their own
    h = 2.0 ** round(math.log2(1e-6 * (1.0 + _linf(base))))
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

    steps, an integer, counts schedule increments (geometric when the
    endpoints share a sign, linear otherwise).  march_deltas retries a failed
    Newton solve on geometrically bisected sub-increments, up to 20 insertions.
    """

    delta_end: float
    delta_start: float = 1e-3
    steps: int = 32

    def __post_init__(self) -> None:
        _check_count("steps", self.steps, 1)
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


def _predict(path: Sequence[tuple[float, object]], t: float):
    """Lagrange extrapolation to t through the last three (delta, state) pairs
    of path (a secant while it holds two), or None where it holds fewer."""
    if len(path) < 2:
        return None
    nodes, states = zip(*path[-3:])
    weights = [math.prod((t - dm) / (dj - dm) for m, dm in enumerate(nodes) if m != j)
               for j, dj in enumerate(nodes)]
    return sum(w * s for w, s in zip(weights, states))


def march_deltas(solve_at: Callable, schedule: Sequence[float], predict: bool):
    """Drive solve_at(delta, guess) -> (state, NewtonReport) along a schedule.

    With predict, continuation is predictor-corrector (Allgower and Georg,
    ch. 2): each solve starts from the Lagrange extrapolation of the last
    three converged (delta, state) pairs, a secant while only two exist, and
    from the last converged state (the warm start; None before the first)
    otherwise.  States are floats or arrays of any shape, extrapolated
    entry by entry.  A predicted attempt that fails is retried
    once from the warm start.  Without predict every solve starts from the
    warm start.  A warm-started failure inserts geometric midpoints between
    the last good delta and the failed target (at most 20 insertions overall)
    before giving up.  Returns the final state and the last report, with
    report.delta set to the delta of the state actually returned.
    """
    path: list[tuple[float, object]] = []  # the last three converged (delta, state)
    state = None
    last_good: float | None = None
    report = NewtonReport(0, 0.0, True, (0.0,))
    budget = _HALVING_LIMIT
    for target in schedule:
        pending = [target]
        while pending:
            t = pending[-1]
            guess = _predict(path, t) if predict else None
            if guess is not None:
                new_state, report = solve_at(t, guess)
            if guess is None or not report.converged:
                new_state, report = solve_at(t, state)
            if report.converged:
                state, last_good = new_state, t
                # a schedule may repeat a delta; extrapolation needs distinct ones
                path = [*(q for q in path[-2:] if q[0] != t), (t, state)]
                pending.pop()
                continue
            if budget == 0 or last_good is None:
                return state, replace(report, delta=last_good)
            budget -= 1
            pending.append(_geometric_mid(last_good, t))
    return state, replace(report, delta=last_good)


def homotopy_path(problem, seed, cfg: HomotopyConfig, newton_cfg: NewtonConfig | None = None):
    """March a Newton solve along the delta schedule (march_deltas), from the seed.

    problem(delta) must return a (residual, jacobian) pair for that delta.
    With steps=1 and delta_start == delta_end this reduces to a single
    newton_solve from the seed, bitwise identical to calling it directly.

    Returns the solution at delta_end and the last NewtonReport; on failure
    the report carries converged=False and delta = last good value, and the
    returned solution is the last good iterate (the seed if none).
    """
    def solve_at(delta, state):
        residual, jacobian = problem(delta)
        start = seed if state is None else state
        return newton_solve(residual, jacobian, start, newton_cfg)

    state, report = march_deltas(solve_at, delta_schedule(cfg), True)
    if state is None:
        state = seed
    return state, report


@dataclass(frozen=True)
class CubicRoots:
    """Real roots of a real cubic, ascending, with multiplicity preserved.

    discriminant_sign is +1 (three distinct real roots), 0 (repeated root),
    or -1 (one real root); the sign is zeroed when the discriminant is
    below 1e-12 relative to its own terms, a decision made on the exact
    sum of the terms (math.fsum) wherever a plain sum could change it.
    """

    real_roots: tuple[float, ...]
    discriminant_sign: int


def _cube(v: float) -> float:
    """v ** 3 with pow's rounding; by products past 1e100, where pow raises
    OverflowError instead of returning inf."""
    return v ** 3 if -1e100 < v < 1e100 else v * v * v


# acos and x ** 3 go through the C library entry by entry, as on Python floats:
# numpy's SIMD arccos and power round differently on some inputs, and an
# array entry must get the bits its float would.

def _cubes(x):
    """x ** 3 with pow's rounding, on a float or per entry of an array."""
    if not isinstance(x, np.ndarray):
        return _cube(float(x))
    if np.abs(x).max(initial=0.0) < 1e100:
        return np.fromiter(map(math.pow, x.tolist(), repeat(3.0)), float, x.size)
    return np.fromiter(map(_cube, x.tolist()), float, x.size)


def _acos(x):
    """math.acos on a float, or per entry of an array."""
    if not isinstance(x, np.ndarray):
        return math.acos(float(x))
    return np.fromiter(map(math.acos, x.tolist()), float, x.size)


def _exact_discriminant(a3: float, a2: float, a1: float, a0: float) -> tuple[float, float]:
    """(discriminant, scale): math.fsum of the terms, and their absolute values summed."""
    terms = (
        18.0 * a3 * a2 * a1 * a0,
        -4.0 * a2 ** 3 * a0,
        a2 ** 2 * a1 ** 2,
        -4.0 * a3 * a1 ** 3,
        -27.0 * a3 ** 2 * a0 ** 2,
    )
    return math.fsum(terms), sum(abs(t) for t in terms)


_TWO_PI_K = tuple(2.0 * math.pi * k for k in range(3))


def _rows(v, rows):
    """v at the given rows: v itself when it is a float."""
    return v[rows] if isinstance(v, np.ndarray) else v


def _mask(rows: np.ndarray):
    """rows as an index: None when no entry is set, every row when all are."""
    count = np.count_nonzero(rows)
    if count == 0:
        return None
    return slice(None) if count == rows.size else rows


def _where(cond, a, b):
    """a where cond holds, else b: np.where on arrays, a plain choice on a single bool."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _trig(p, q, b, c):
    """Columns t of the three real roots of t^3 + p t + q, p < 0: the trigonometric form."""
    m = 2.0 * np.sqrt(-p / 3.0)
    theta = _acos(np.minimum(1.0, np.maximum(-1.0, 3.0 * q / (p * m))))
    return [m * np.cos((theta - k) / 3.0) for k in _TWO_PI_K]


def _double(p, q, b, c):
    """Columns t of the roots of t^3 + p t + q at a zero discriminant: a triple root
    (p = q = 0) or a double plus a simple root; p <= 0 here."""
    p_scale = np.maximum(np.maximum(1.0, np.abs(c)), b * b / 3.0)
    triple = np.abs(p) <= 1e-9 * p_scale
    double = _where(triple, 0.0, -1.5 * q / p)
    return [_where(triple, 0.0, 3.0 * q / p), double, double]


def _cardano(p, q, b, c):
    """Column t of the one real root of t^3 + p t + q at a negative discriminant
    (Cardano); p > 0 when q = 0, so t (t^2 + p) = 0 has t = 0."""
    big = np.sqrt(q * q / 4.0 + _cubes(p) / 27.0)
    u = np.cbrt(q * -0.5 - np.copysign(big, q))  # q * -0.5 is -q / 2.0 to the bit
    return [_where(q == 0.0, 0.0, u - p / (3.0 * u))]


def _polish(x, a3, a2, a1, a0):
    """x after one Newton step on the cubic, kept where it does not increase |poly|;
    a zero derivative gives a non-finite step, which is not taken."""

    def poly(x):
        return ((a3 * x + a2) * x + a1) * x + a0

    px = poly(x)
    x2 = x - px / ((3.0 * a3 * x + 2.0 * a2) * x + a1)
    return _where((x2 - x2 == 0.0) & (abs(poly(x2)) <= abs(px)), x2, x)  # x2 - x2 == 0: finite


def _cubic_roots(a3, a2, a1, a0):
    """Real roots of a3 x^3 + a2 x^2 + a1 x + a0, a3 != 0, by real_cubic_roots' method.

    Each coefficient is a float or a 1-D array, the arrays of one length n.
    With an array among them, returns (roots, sign) per entry: roots of
    shape (n, 3), each row ascending with NaN after its real roots, and sign
    the discriminant sign of CubicRoots; a row whose coefficients are not
    finite, whose discriminant overflows, whose p underflows to 0 in the
    trigonometric form, or whose Cardano square root rounds to a negative
    argument is all NaN.  With floats only, roots is the
    ascending tuple of real roots (empty or NaN for such a cubic) and sign a
    number.  Both run the same arithmetic, so every entry gets the bits it
    would get alone.
    """
    arrays = isinstance(a0, np.ndarray) or isinstance(a1, np.ndarray) or isinstance(a2, np.ndarray)
    with np.errstate(all="ignore"):
        if not arrays:  # numpy floats: a zero divisor gives inf instead of raising
            a3, a2, a1, a0 = np.float64(a3), np.float64(a2), np.float64(a1), np.float64(a0)
        terms = (-4.0 * a3 * (a1 * a1 * a1), -27.0 * (a3 * a3) * (a0 * a0))
        if isinstance(a2, np.ndarray) or a2 != 0.0:  # the terms in a2 vanish when it is 0.0
            terms += (18.0 * a3 * a2 * a1 * a0, -4.0 * (a2 * a2 * a2) * a0, (a2 * a2) * (a1 * a1))
        disc = sum(terms[1:], terms[0])
        scale = sum(map(abs, terms[1:]), abs(terms[0]))
        tol = 1e-12 * scale
        # the plain sum is within 1e-14 of scale of math.fsum's; recompute where that could
        # move the discriminant across the threshold
        near = abs(abs(disc) - tol) <= 0.1 * tol
        if np.count_nonzero(near):
            if arrays:
                for i in np.flatnonzero(near):
                    coeffs = (float(_rows(a, i)) for a in (a3, a2, a1, a0))
                    disc[i], scale[i] = _exact_discriminant(*coeffs)
            else:
                disc, scale = map(np.float64, _exact_discriminant(*map(float, (a3, a2, a1, a0))))
            tol = 1e-12 * scale
        three, one = disc > tol, disc < -tol

        b, c, d = a2 / a3, a1 / a3, a0 / a3
        p = c - b * b / 3.0
        q = 2.0 * _cubes(b) / 27.0 - b * c / 3.0 + d
        shift = -b / 3.0
        if not arrays:
            finite = scale - scale == 0.0
            branch = _trig if three else _cardano if one else _double if finite else None
            cols = branch(p, q, b, c) if branch else []
            roots = sorted(float(_polish(t + shift, a3, a2, a1, a0)) for t in cols)
            return tuple(roots), int(three) - int(one)
        t = np.full((disc.size, 3), np.nan)
        branches = [(three, _trig), (one, _cardano)]
        if np.count_nonzero(three) + np.count_nonzero(one) < disc.size:
            branches.append((~(three | one) & (scale - scale == 0.0), _double))  # finite scale
        for rows, branch in branches:
            rows = _mask(rows)
            if rows is not None:
                for j, col in enumerate(branch(*(_rows(v, rows) for v in (p, q, b, c)))):
                    t[rows, j] = col
        a3, a2, a1, a0, shift = (np.reshape(a, (-1, 1)) if isinstance(a, np.ndarray) else a
                                 for a in (a3, a2, a1, a0, shift))
        x = _polish(t + shift, a3, a2, a1, a0)
    return np.sort(x, axis=1, kind="stable"), three * 1 - one


def real_cubic_roots(a3: float, a2: float, a1: float, a0: float) -> CubicRoots:
    """All real roots of a3 x^3 + a2 x^2 + a1 x + a0.

    Closed-form: trigonometric branch when all roots are real, Cardano
    otherwise, each root polished by one safeguarded Newton step.  It is
    _cubic_roots on floats, the same arithmetic that classify runs on whole
    arrays of constants.  Raises ConfigurationError when a3 == 0 and
    AnalysisError when a root is not finite: a coefficient is not finite,
    the discriminant overflows, p underflows to 0 in the trigonometric form,
    or rounding makes Cardano's square root negative.
    """
    if a3 == 0.0:
        raise ConfigurationError("leading coefficient must be nonzero")
    roots, sign = _cubic_roots(float(a3), float(a2), float(a1), float(a0))
    if not (roots and all(map(math.isfinite, roots))):
        raise AnalysisError(f"cubic ({a3!r}, {a2!r}, {a1!r}, {a0!r}) has no finite closed-form "
                            "roots: a coefficient is not finite, or the closed form over- or underflows")
    return CubicRoots(roots, sign)
