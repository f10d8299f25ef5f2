"""Implicit time steppers for the Allen-Cahn equation.

All schemes advance phi_t = F(phi) with F(phi) = Lap(phi) - (phi^3 - phi) / eps^2:

* ``be``     backward Euler, first order;
* ``cn``     Crank-Nicolson (trapezoid), second order;
* ``modcn``  a modified Crank-Nicolson whose nonlinearity is averaged as
  (phi1 + phi0)(phi1^2 + phi0^2)/4 with the expansive term -phi0/eps^2 kept
  explicit; its next step is unique for every time step;
* ``dirk``   diagonally implicit Runge-Kutta from a supplied tableau
  (the bundled two-stage tableau is second order and L-stable).

Each step solves its nonlinear system with Newton's method started at the
previous solution (or previous stage).  Constant fields stay constant, so
every scheme restricts to a scalar map on constants; ``scalar_map`` solves
that restriction exactly via the closed-form cubic solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .fields import (
    ACParams,
    ButcherTableau,
    DIRK2_TABLEAU,
    ScalarField,
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
    "step_system",
    "dirk_stage_system",
    "be_step",
    "cn_step",
    "modcn_step",
    "dirk_step",
    "step",
    "simulate",
    "scalar_map",
]

_MERGE_TOL = 1e-8  # absolute dedupe tolerance for coincident scalar images


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


def step_system(kind: SchemeKind, phi_n: ScalarField, p: ACParams):
    """(residual, jacobian) of the one-step equation in the unknown next state.

    Defined for the single-solve schemes (be, cn, modcn); DIRK steps are a
    chain of stage systems, see dirk_stage_system.  The Jacobian is a
    ShiftedLaplacian.
    """
    grid = phi_n.grid
    lap = laplacian_matrix(grid)
    v0 = phi_n.values
    idt, ie2 = 1.0 / p.dt, 1.0 / p.eps2

    if kind.tag == "be":
        def residual(v):
            return idt * (v - v0) - lap @ v + ie2 * (v ** 3 - v)

        def jacobian(v):
            return ShiftedLaplacian(grid, idt, 1.0, ie2 * (3.0 * v * v - 1.0))

    elif kind.tag == "cn":
        known = -0.5 * (lap @ v0) + 0.5 * ie2 * (v0 ** 3 - v0)

        def residual(v):
            return idt * (v - v0) - 0.5 * (lap @ v) + 0.5 * ie2 * (v ** 3 - v) + known

        def jacobian(v):
            return ShiftedLaplacian(grid, idt, 0.5, 0.5 * ie2 * (3.0 * v * v - 1.0))

    elif kind.tag == "modcn":
        lap_v0 = lap @ v0

        def residual(v):
            return (
                idt * (v - v0)
                - 0.5 * (lap @ v + lap_v0)
                + 0.25 * ie2 * (v + v0) * (v * v + v0 * v0)
                - ie2 * v0
            )

        def jacobian(v):
            react = 0.25 * ie2 * (3.0 * v * v + 2.0 * v * v0 + v0 * v0)
            return ShiftedLaplacian(grid, idt, 0.5, react)

    else:
        raise ConfigurationError("dirk steps solve stage systems; see dirk_stage_system")
    return residual, jacobian


def dirk_stage_system(known: np.ndarray, gamma: float, grid, p: ACParams):
    """(residual, jacobian) of one implicit stage v - gamma F(v) = known.

    The Jacobian is a ShiftedLaplacian.
    """
    lap = laplacian_matrix(grid)
    ie2 = 1.0 / p.eps2

    def residual(v):
        return v - known - gamma * (lap @ v - ie2 * (v ** 3 - v))

    def jacobian(v):
        return ShiftedLaplacian(grid, 1.0, gamma, gamma * ie2 * (3.0 * v * v - 1.0))

    return residual, jacobian


def be_step(phi_n: ScalarField, p: ACParams, cfg: NewtonConfig | None = None):
    """One backward Euler step; returns (phi_next, StepReport)."""
    residual, jacobian = step_system(BE, phi_n, p)
    x, rep = newton_solve(residual, jacobian, phi_n.values, cfg)
    return ScalarField(phi_n.grid, x), StepReport((rep,))


def cn_step(phi_n: ScalarField, p: ACParams, cfg: NewtonConfig | None = None):
    """One Crank-Nicolson step; returns (phi_next, StepReport)."""
    residual, jacobian = step_system(CN, phi_n, p)
    x, rep = newton_solve(residual, jacobian, phi_n.values, cfg)
    return ScalarField(phi_n.grid, x), StepReport((rep,))


def modcn_step(phi_n: ScalarField, p: ACParams, cfg: NewtonConfig | None = None):
    """One modified Crank-Nicolson step; returns (phi_next, StepReport).

    The nonlinear average (v + v0)(v^2 + v0^2) / (4 eps^2) together with the
    explicit -v0/eps^2 term makes the scalar slope of the residual strictly
    positive, so the step is uniquely solvable for any dt.
    """
    residual, jacobian = step_system(MODCN, phi_n, p)
    x, rep = newton_solve(residual, jacobian, phi_n.values, cfg)
    return ScalarField(phi_n.grid, x), StepReport((rep,))


def dirk_step(
    phi_n: ScalarField,
    tableau: ButcherTableau,
    p: ACParams,
    cfg: NewtonConfig | None = None,
):
    """One DIRK step: solve stages in order, then combine with the b weights.

    Stage i solves phi_i - dt a_ii F(phi_i) = phi_n + dt sum_{j<i} a_ij F(phi_j),
    Newton-started from the previous stage (or phi_n).  A zero diagonal entry
    makes that stage explicit.
    """
    grid = phi_n.grid
    lap = laplacian_matrix(grid)
    v0 = phi_n.values
    ie2 = 1.0 / p.eps2

    def rhs(v):
        return lap @ v - ie2 * (v ** 3 - v)

    stage_f: list[np.ndarray] = []
    reports: list[NewtonReport] = []
    prev = v0
    for i in range(tableau.stages):
        aii = tableau.a[i][i]
        known = v0.copy()
        for j in range(i):
            known += p.dt * tableau.a[i][j] * stage_f[j]
        if aii == 0.0:
            stage = known
            reports.append(NewtonReport(0, 0.0, True, (0.0,)))
        else:
            residual, jacobian = dirk_stage_system(known, p.dt * aii, grid, p)
            stage, rep = newton_solve(residual, jacobian, prev, cfg)
            reports.append(rep)
            if not rep.converged:
                return ScalarField(grid, stage), StepReport(tuple(reports))
        stage_f.append(rhs(stage))
        prev = stage
    out = v0.copy()
    for bi, fi in zip(tableau.b, stage_f):
        out += p.dt * bi * fi
    return ScalarField(grid, out), StepReport(tuple(reports))


def step(kind: SchemeKind, phi_n: ScalarField, p: ACParams, cfg: NewtonConfig | None = None):
    """Advance one time step with the given scheme; returns (field, StepReport)."""
    if kind.tag == "be":
        return be_step(phi_n, p, cfg)
    if kind.tag == "cn":
        return cn_step(phi_n, p, cfg)
    if kind.tag == "modcn":
        return modcn_step(phi_n, p, cfg)
    return dirk_step(phi_n, kind.tableau, p, cfg)


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
    snapshots: tuple[ScalarField, ...] = field(default=())

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
    keep_fields: bool = False,
) -> Trajectory:
    """Run `steps` time steps and record per-step summaries.

    Stops early (with a failure diagnostic) if any step's Newton solve does
    not converge; the summaries up to the last good state are kept.
    """
    if steps < 0:
        raise ConfigurationError("steps must be >= 0")
    u = phi0
    summaries = [_summarize(0, 0.0, u)]
    snaps = [u] if keep_fields else []
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
                snapshots=tuple(snaps),
            )
        u = u_new
        summaries.append(_summarize(i, i * p.dt, u))
        if keep_fields:
            snaps.append(u)
        check_settled(i, u)
    return Trajectory(tuple(summaries), settled, settle_step, limit, snapshots=tuple(snaps))


# ---------------------------------------------------------------------------
# Scalar restriction: constant fields map to constant fields.


def _forward_cubic(kind: SchemeKind, r: float, p: ACParams) -> tuple[float, float, float, float]:
    """Monic cubic in c whose real roots are the constant images of r."""
    if kind.tag == "be":
        w = p.eps2 / p.dt
        return 1.0, 0.0, w - 1.0, -r * w
    if kind.tag == "cn":
        w = 2.0 * p.eps2 / p.dt
        return 1.0, 0.0, w - 1.0, r ** 3 - r - w * r
    if kind.tag == "modcn":
        w = 4.0 * p.eps2 / p.dt
        return 1.0, r, r * r + w, r ** 3 - 4.0 * r - w * r
    raise ConfigurationError("dirk images are enumerated stagewise")


def _scalar_residual(kind: SchemeKind, r: float, p: ACParams):
    """Scalar residual/derivative pair for Newton branch selection."""
    idt, ie2 = 1.0 / p.dt, 1.0 / p.eps2
    if kind.tag == "be":
        f = lambda c: idt * (c - r) + ie2 * (c ** 3 - c)
        fp = lambda c: idt + ie2 * (3.0 * c * c - 1.0)
    elif kind.tag == "cn":
        f = lambda c: idt * (c - r) + 0.5 * ie2 * (c ** 3 - c + r ** 3 - r)
        fp = lambda c: idt + 0.5 * ie2 * (3.0 * c * c - 1.0)
    else:  # modcn
        f = lambda c: idt * (c - r) + 0.25 * ie2 * (c + r) * (c * c + r * r) - ie2 * r
        fp = lambda c: idt + 0.25 * ie2 * (3.0 * c * c + 2.0 * c * r + r * r)
    return f, fp


def _scalar_newton(f, fp, guess: float) -> float:
    x, rep = newton_solve(f, fp, guess, NewtonConfig())
    if not rep.converged:
        x, rep = newton_solve(f, fp, guess, NewtonConfig(damping=0.5, max_iter=200))
    return x


def _stage_cubic(s_known: float, gamma_over_eps2: float):
    """Cubic for x + g (x^3 - x) = s with g = dt * a_ii / eps^2 (monic)."""
    return 1.0, 0.0, 1.0 / gamma_over_eps2 - 1.0, -s_known / gamma_over_eps2


def _dedupe(values: list[float], flags: list[bool]) -> list[tuple[float, bool]]:
    out: list[tuple[float, bool]] = []
    for v, fl in sorted(zip(values, flags)):
        if out and abs(v - out[-1][0]) <= _MERGE_TOL:
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
        f, fp = _scalar_residual(kind, r, p)
        chosen = _scalar_newton(f, fp, r)
        roots = real_cubic_roots(*_forward_cubic(kind, r, p)).real_roots
        nearest = min(range(len(roots)), key=lambda i: abs(roots[i] - chosen))
        return [(c, i == nearest) for i, c in enumerate(roots)]

    tab = kind.tableau
    ie2 = 1.0 / p.eps2

    def stage_images(i: int, stage_vals: tuple[float, ...]) -> list[float]:
        aii = tab.a[i][i]
        s = r + sum(
            p.dt * tab.a[i][j] * (-ie2 * (x ** 3 - x)) for j, x in enumerate(stage_vals)
        )
        if aii == 0.0:
            return [s]
        g = p.dt * aii * ie2
        return list(real_cubic_roots(*_stage_cubic(s, g)).real_roots)

    def combine(stage_vals: tuple[float, ...]) -> float:
        out = r
        for bi, x in zip(tab.b, stage_vals):
            out += p.dt * bi * (-ie2 * (x ** 3 - x))
        return out

    # enumerate all stage-root combinations
    partial: list[tuple[float, ...]] = [()]
    for i in range(tab.stages):
        partial = [vals + (x,) for vals in partial for x in stage_images(i, vals)]
    images = [combine(vals) for vals in partial]

    # the dynamical branch: Newton from the previous stage value at each stage
    chosen_stages: list[float] = []
    prev = r
    for i in range(tab.stages):
        aii = tab.a[i][i]
        s = r + sum(
            p.dt * tab.a[i][j] * (-ie2 * (x ** 3 - x))
            for j, x in enumerate(chosen_stages)
        )
        if aii == 0.0:
            val = s
        else:
            g = p.dt * aii * ie2
            f = lambda x, s=s, g=g: x + g * (x ** 3 - x) - s
            fp = lambda x, g=g: 1.0 + g * (3.0 * x * x - 1.0)
            val = _scalar_newton(f, fp, prev)
        chosen_stages.append(val)
        prev = val
    chosen = combine(tuple(chosen_stages))

    flags = [False] * len(images)
    flags[min(range(len(images)), key=lambda i: abs(images[i] - chosen))] = True
    return _dedupe(images, flags)
