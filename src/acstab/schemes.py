"""Implicit time steppers for the Allen-Cahn equation.

All schemes advance phi_t = F(phi) with F(phi) = Lap(phi) - (phi^3 - phi) / eps^2:

* ``be``     backward Euler, first order;
* ``cn``     Crank-Nicolson (trapezoid), second order;
* ``modcn``  a modified Crank-Nicolson whose nonlinearity is averaged as
  (phi1 + phi0)(phi1^2 + phi0^2)/4 with the expansive term -phi0/eps^2 kept
  explicit; its next step is unique for every time step;
* ``dirk``   diagonally implicit Runge-Kutta from a supplied tableau
  (the bundled two-stage tableau is second order and L-stable).

Every implicit solve in the package -- each scheme's step, each DIRK stage,
and the backward problems of ``robustness`` -- is one equation in the
unknown v:

    a (v - s) - b Lap(v) + (b / eps^2) n(v) + k = 0,

with n(v) = v^3 - v, or (v + w)(v^2 + w^2) / 2 for MODCN's partner state w.
``implicit_system`` builds its residual and ShiftedLaplacian Jacobian; each
caller only chooses (a, s, b, k, w).  Newton's method solves it from the
previous solution (or previous stage).  Constant fields stay constant, and
on constants the equation is the cubic ``constant_cubic`` (with scalar
residual ``constant_residual``), so ``scalar_map`` solves every scheme's
restriction to constants exactly.  ``mode_slope`` is the equation's
Jacobian on one Laplacian eigenmode at a constant; every linearization in
``robustness`` and ``stability`` is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import (
    ACParams,
    ButcherTableau,
    DIRK2_TABLEAU,
    ScalarField,
    ac_force,
    center_value,
    field_l2,
    laplacian_matrix,
)
from .solvers import (
    NewtonConfig,
    NewtonReport,
    ShiftedLaplacian,
    newton_solve,
    real_cubic_roots,
)

__all__ = [
    "SchemeKind",
    "BE",
    "CN",
    "MODCN",
    "DIRK2",
    "parse_scheme",
    "StepReport",
    "StepSummary",
    "Trajectory",
    "implicit_system",
    "constant_residual",
    "mode_slope",
    "constant_cubic",
    "step_system",
    "dirk_stage_system",
    "dirk_step",
    "step",
    "simulate",
    "scalar_map",
]

MERGE_TOL = 1e-8  # absolute dedupe tolerance for coincident scalar images and preimages


@dataclass(frozen=True)
class SchemeKind:
    """A scheme tag ('be', 'cn', 'modcn', 'dirk') plus tableau for 'dirk'."""

    tag: str
    tableau: ButcherTableau | None = None

    def __post_init__(self) -> None:
        if self.tag not in ("be", "cn", "modcn", "dirk"):
            raise ConfigurationError(f"unknown scheme tag {self.tag!r}")
        if self.tag == "dirk" and self.tableau is None:
            raise ConfigurationError("dirk scheme needs a ButcherTableau")
        if self.tag != "dirk" and self.tableau is not None:
            raise ConfigurationError(f"scheme {self.tag!r} takes no tableau")

    @property
    def label(self) -> str:
        if self.tag == "dirk":
            return f"dirk{self.tableau.stages}"
        return self.tag


BE = SchemeKind("be")
CN = SchemeKind("cn")
MODCN = SchemeKind("modcn")
DIRK2 = SchemeKind("dirk", DIRK2_TABLEAU)

_BY_NAME = {"be": BE, "cn": CN, "modcn": MODCN, "dirk2": DIRK2}


def parse_scheme(name: str) -> SchemeKind:
    """Map a CLI-style name (be, cn, modcn, dirk2) to its SchemeKind."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ConfigurationError(f"unknown scheme {name!r}") from None


@dataclass(frozen=True)
class StepReport:
    """Newton reports for one time step, one entry per implicit stage."""

    stage_reports: tuple[NewtonReport, ...]

    @property
    def success(self) -> bool:
        return all(r.converged for r in self.stage_reports)


def implicit_system(grid, p: ACParams, a, s, b, k=0.0, partner=None):
    """(residual, jacobian) of a (v - s) - b Lap(v) + (b / eps^2) n(v) + k = 0 in v.

    n(v) = v^3 - v, or (v + w)(v^2 + w^2) / 2 with w = partner (MODCN's
    averaged nonlinearity).  s, k and partner are scalars or node arrays.
    The Jacobian is the ShiftedLaplacian a I - b L + diag((b / eps^2) n'(v)).
    """
    lap = laplacian_matrix(grid)
    g = b * (1.0 / p.eps2)

    def residual(v):
        return a * (v - s) - b * (lap @ v) + g * _nonlinearity(v, partner) + k

    def jacobian(v):
        return ShiftedLaplacian(grid, a, b, g * _nonlinearity_slope(v, partner))

    return residual, jacobian


def _nonlinearity(v, w):
    return v ** 3 - v if w is None else 0.5 * (v + w) * (v * v + w * w)


def _nonlinearity_slope(v, w):
    return 3.0 * v * v - 1.0 if w is None else 0.5 * (3.0 * v * v + 2.0 * v * w + w * w)


def constant_residual(p: ACParams, a, s, b, k=0.0, partner=None):
    """(f, f') of implicit_system's equation on constants, where Lap vanishes."""
    g = b * (1.0 / p.eps2)

    def f(x):
        return a * (x - s) + g * _nonlinearity(x, partner) + k

    def fp(x):
        return a + g * _nonlinearity_slope(x, partner)

    return f, fp


def mode_slope(p: ACParams, a, s, b, k=0.0, partner=None):
    """slope(x, m): Jacobian of implicit_system's equation at the constant x on
    the mode -Lap u = m u, i.e. f'(x) + b m with f' from constant_residual."""
    fp = constant_residual(p, a, s, b, k, partner)[1]
    return lambda x, m=0.0: fp(x) + b * m


def constant_cubic(p: ACParams, a, s, b, k=0.0, partner=None) -> tuple[float, float, float, float]:
    """Monic cubic whose real roots are the constant solutions of implicit_system."""
    g = b * (1.0 / p.eps2)
    if partner is None:
        return 1.0, 0.0, a / g - 1.0, (k - a * s) / g
    w = partner
    return 1.0, w, w * w + 2.0 * a / g, w ** 3 + 2.0 * (k - a * s) / g


def _step_terms(kind: SchemeKind, v0, lap_v0, p: ACParams):
    """implicit_system's (a, s, b, k, partner) for one be/cn/modcn step from v0.

    lap_v0 is Lap(v0): 0.0 on constants.
    """
    idt, ie2 = 1.0 / p.dt, 1.0 / p.eps2
    if kind.tag == "be":
        return idt, v0, 1.0, 0.0, None
    if kind.tag == "cn":
        return idt, v0, 0.5, -0.5 * lap_v0 + 0.5 * ie2 * (v0 ** 3 - v0), None
    if kind.tag == "modcn":
        # the expansive -v0/eps^2 stays explicit
        return idt, v0, 0.5, -0.5 * lap_v0 - ie2 * v0, v0
    raise ConfigurationError("dirk steps solve stage systems; see dirk_stage_system")


def step_system(kind: SchemeKind, phi_n: ScalarField, p: ACParams):
    """(residual, jacobian) of the one-step equation in the unknown next state.

    Defined for the single-solve schemes (be, cn, modcn); DIRK steps are a
    chain of stage systems, see dirk_stage_system.  The Jacobian is a
    ShiftedLaplacian.
    """
    v0 = phi_n.values
    terms = _step_terms(kind, v0, laplacian_matrix(phi_n.grid) @ v0, p)
    return implicit_system(phi_n.grid, p, *terms)


def dirk_stage_system(known: np.ndarray, gamma: float, grid, p: ACParams):
    """(residual, jacobian) of one implicit stage v - gamma F(v) = known.

    The Jacobian is a ShiftedLaplacian.
    """
    return implicit_system(grid, p, 1.0, known, gamma)


def dirk_step(
    phi_n: ScalarField,
    tableau: ButcherTableau,
    p: ACParams,
    cfg: NewtonConfig | None = None,
):
    """One DIRK step: solve stages in order, then combine with the b weights.

    Stage i solves phi_i - dt a_ii F(phi_i) = phi_n + dt sum_{j<i} a_ij F(phi_j),
    Newton-started from the previous stage (or phi_n).
    """
    grid = phi_n.grid
    lap = laplacian_matrix(grid)
    v0 = phi_n.values
    stage_f: list[np.ndarray] = []
    reports: list[NewtonReport] = []
    prev = v0
    for i in range(tableau.stages):
        known = v0.copy()
        for j in range(i):
            known += p.dt * tableau.a[i][j] * stage_f[j]
        residual, jacobian = dirk_stage_system(known, p.dt * tableau.a[i][i], grid, p)
        stage, rep = newton_solve(residual, jacobian, prev, cfg)
        reports.append(rep)
        if not rep.converged:
            return ScalarField(grid, stage), StepReport(tuple(reports))
        stage_f.append(ac_force(lap @ stage, stage, p))
        prev = stage
    out = v0.copy()
    for bi, fi in zip(tableau.b, stage_f):
        out += p.dt * bi * fi
    return ScalarField(grid, out), StepReport(tuple(reports))


def step(kind: SchemeKind, phi_n: ScalarField, p: ACParams, cfg: NewtonConfig | None = None):
    """Advance one time step with the given scheme; returns (field, StepReport)."""
    if kind.tag == "dirk":
        return dirk_step(phi_n, kind.tableau, p, cfg)
    x, rep = newton_solve(*step_system(kind, phi_n, p), phi_n.values, cfg)
    return ScalarField(phi_n.grid, x), StepReport((rep,))


@dataclass(frozen=True)
class StepSummary:
    step: int
    time: float
    vmin: float
    vmax: float
    center: float
    l2: float

    @property
    def center_sign(self) -> int:
        if abs(self.center) <= 1e-9:
            return 0
        return 1 if self.center > 0 else -1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step summaries of a simulation plus settling metadata.

    summaries[0] describes the initial state.  settled means the field came
    within settle_tol of a uniform steady state +1 or -1 (inf-norm);
    settle_step is the first step index where that held and limit the sign
    (0 when the run never settled).  failure carries a diagnostic when a
    Newton solve failed and the trajectory was truncated.
    """

    summaries: tuple[StepSummary, ...]
    settled: bool
    settle_step: int | None
    limit: int
    failure: str | None = None

    def center_signs(self) -> tuple[int, ...]:
        return tuple(s.center_sign for s in self.summaries)

    def sign_flips(self) -> int:
        """Number of sign changes of the center value along the trajectory."""
        signs = [s for s in self.center_signs() if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _summarize(idx: int, t: float, u: ScalarField) -> StepSummary:
    v = u.values
    return StepSummary(idx, t, float(v.min()), float(v.max()), center_value(u), field_l2(u))


def simulate(
    kind: SchemeKind,
    phi0: ScalarField,
    steps: int,
    p: ACParams,
    settle_tol: float = 1e-3,
    cfg: NewtonConfig | None = None,
) -> Trajectory:
    """Run `steps` time steps and record per-step summaries.

    Stops early (with a failure diagnostic) if any step's Newton solve does
    not converge; the summaries up to the last good state are kept.
    """
    if steps < 0:
        raise ConfigurationError("steps must be >= 0")
    u = phi0
    summaries = [_summarize(0, 0.0, u)]
    settled, settle_step, limit = False, None, 0

    def check_settled(idx: int, w: ScalarField) -> None:
        nonlocal settled, settle_step, limit
        if settled:
            return
        v = w.values
        for sgn in (1, -1):
            if float(np.max(np.abs(v - sgn))) <= settle_tol:
                settled, settle_step, limit = True, idx, sgn
                return

    check_settled(0, u)
    for i in range(1, steps + 1):
        u_new, rep = step(kind, u, p, cfg)
        if not rep.success:
            msgs = "; ".join(r.message for r in rep.stage_reports if not r.converged)
            return Trajectory(
                tuple(summaries), settled, settle_step, limit,
                failure=f"step {i} did not converge ({msgs})",
            )
        u = u_new
        summaries.append(_summarize(i, i * p.dt, u))
        check_settled(i, u)
    return Trajectory(tuple(summaries), settled, settle_step, limit)


# ---------------------------------------------------------------------------
# Scalar restriction: constant fields map to constant fields.


def _nearest(values, x: float) -> int:
    return min(range(len(values)), key=lambda i: abs(values[i] - x))


def _dedupe(values: list[float], flags: list[bool]) -> list[tuple[float, bool]]:
    out: list[tuple[float, bool]] = []
    for v, fl in sorted(zip(values, flags)):
        if out and abs(v - out[-1][0]) <= MERGE_TOL:
            out[-1] = (out[-1][0], out[-1][1] or fl)
        else:
            out.append((v, fl))
    return out


def scalar_map(kind: SchemeKind, r: float, p: ACParams) -> list[tuple[float, bool]]:
    """All constant images c of a constant state r under one step.

    Returns (c, selected) pairs in ascending order.  `selected` marks the
    branch a Newton iteration started at r converges to, i.e. the value the
    field-level stepper actually produces from the constant field r.
    """
    if kind.tag != "dirk":
        terms = _step_terms(kind, r, 0.0, p)
        chosen = newton_solve(*constant_residual(p, *terms), r)[0]
        roots = real_cubic_roots(*constant_cubic(p, *terms)).real_roots
        nearest = _nearest(roots, chosen)
        return [(c, i == nearest) for i, c in enumerate(roots)]

    # Walk every chain of stage roots.  The one chain the field stepper
    # follows carries its Newton iterate (started from the previous stage,
    # as dirk_step does) to pick its root at the next stage; the others
    # carry None.
    tab = kind.tableau
    chains: list[tuple[tuple[float, ...], float | None]] = [((), r)]
    for i in range(tab.stages):
        grown = []
        for vals, start in chains:
            s = r + sum(p.dt * tab.a[i][j] * ac_force(0.0, x, p) for j, x in enumerate(vals))
            terms = (1.0, s, p.dt * tab.a[i][i])
            roots = real_cubic_roots(*constant_cubic(p, *terms)).real_roots
            if start is None:
                grown += [(vals + (x,), None) for x in roots]
                continue
            x_newton = newton_solve(*constant_residual(p, *terms), start)[0]
            pick = _nearest(roots, x_newton)
            grown += [(vals + (x,), x_newton if j == pick else None) for j, x in enumerate(roots)]
        chains = grown

    def combine(vals: tuple[float, ...]) -> float:
        out = r
        for bi, x in zip(tab.b, vals):
            out += p.dt * bi * ac_force(0.0, x, p)
        return out

    return _dedupe([combine(vals) for vals, _ in chains], [x is not None for _, x in chains])
