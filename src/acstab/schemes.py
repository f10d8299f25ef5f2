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
caller only chooses (a, s, b, k, w).  On constants the equation is the cubic
``constant_cubic`` (with scalar residual ``constant_residual``).
``mode_slope`` is the equation's Jacobian on one Laplacian eigenmode at a
constant; every linearization in ``robustness`` and ``stability`` is built
from it.

Each scheme's step is read forward once, ``_forward_stages``: its stages'
terms, each from phi_n and the forces F of earlier stages, and the weights
b combining all forces into phi_{n+1} (be/cn/modcn: one stage, phi_{n+1}).
``step`` walks it on fields, one Newton solve per stage started from the
previous stage.  Constant fields stay constant, so ``_constant_images`` walks
it once on a whole array of constants: every chain of cubic roots, with the
one the field stepper takes marked.  ``scalar_map`` is its one-state case,
and classify's ``_selected_images`` reads the marked column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AnalysisError, ConfigurationError
from .fields import (
    ACParams,
    ButcherTableau,
    DIRK2_TABLEAU,
    ScalarField,
    _cubic,
    ac_force,
    center_value,
    field_l2,
    laplacian_matrix,
)
from .solvers import (
    NewtonConfig,
    NewtonReport,
    ShiftedLaplacian,
    _cubes,
    _cubic_roots,
    _newton_each,
    newton_solve,
)
from .solvers import real_cubic_roots  # unused here, kept for perfbench/layertrace.py, which patches it

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
    return _cubic(v) if w is None else 0.5 * (v + w) * (v * v + w * w)


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
    return 1.0, w, w * w + 2.0 * a / g, _cubes(w) + 2.0 * (k - a * s) / g


def _step_terms(kind: SchemeKind, v0, lap_v0, p: ACParams):
    """implicit_system's (a, s, b, k, partner) for one be/cn/modcn step from v0.

    lap_v0 is Lap(v0): 0.0 on constants.
    """
    idt, ie2 = 1.0 / p.dt, 1.0 / p.eps2
    if kind.tag == "be":
        return idt, v0, 1.0, 0.0, None
    if kind.tag == "cn":
        return idt, v0, 0.5, -0.5 * lap_v0 + 0.5 * ie2 * _cubic(v0), None
    if kind.tag == "modcn":
        # the expansive -v0/eps^2 stays explicit
        return idt, v0, 0.5, -0.5 * lap_v0 - ie2 * v0, v0
    raise ConfigurationError("a dirk step is a chain of stages; see _forward_stages")


def _forward_stages(kind: SchemeKind, p: ACParams):
    """One step read forward: (stages, b).

    stage(v0, fs, lap) gives implicit_system's terms in the next stage from
    phi_n = v0 and the forces fs = (F(phi_1), ...) of the stages solved
    before it; lap(x) is Lap(x): a matrix product on fields, 0.0 on
    constants.  DIRK stage i solves
    phi_i - dt a_ii F(phi_i) = phi_n + dt sum_{j<i} a_ij F(phi_j), and b
    combines the stages into phi_{n+1} = phi_n + dt sum_i b_i F(phi_i).
    be/cn/modcn are one stage whose value is phi_{n+1}; their b is None.
    """
    if kind.tag != "dirk":
        return (lambda v0, fs, lap: _step_terms(kind, v0, lap(v0), p),), None
    tab, dt = kind.tableau, p.dt
    stages = tuple(
        lambda v0, fs, lap, i=i: (1.0, _weighted(v0, tab.a[i][:i], fs, dt), dt * tab.a[i][i])
        for i in range(tab.stages)
    )
    return stages, tab.b


def _weighted(v0, weights, fs, dt: float):
    """v0 + dt sum_j weights_j fs_j, added in order."""
    return sum((dt * w * f for w, f in zip(weights, fs)), v0)


def step(kind: SchemeKind, phi_n: ScalarField, p: ACParams, cfg: NewtonConfig | None = None):
    """Advance one time step with the given scheme; returns (field, StepReport).

    One Newton solve per stage, each started from the previous stage (the
    first from phi_n); a failed stage ends the step with its iterate.
    """
    grid = phi_n.grid
    lap = laplacian_matrix(grid)
    v0 = phi_n.values
    stages, b = _forward_stages(kind, p)
    x, fs, reports = v0, [], []
    for terms in stages:
        residual, jacobian = implicit_system(grid, p, *terms(v0, fs, lap.__matmul__))
        x, rep = newton_solve(residual, jacobian, x, cfg)
        reports.append(rep)
        if not rep.converged:
            return ScalarField(grid, x), StepReport(tuple(reports))
        if b is not None:
            fs.append(ac_force(lap @ x, x, p))
    if b is not None:
        x = _weighted(v0, b, fs, p.dt)
    return ScalarField(grid, x), StepReport(tuple(reports))


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
        return _sign(self.center)


def _sign(x):
    """Sign of x, 0 within 1e-9 of zero; per entry of an array."""
    return (x > 1e-9) * 1 - (x < -1e-9) * 1


def _flips(signs) -> int:
    """Number of sign changes along signs, zeros skipped."""
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


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
        return _flips(self.center_signs())


def _summarize(idx: int, t: float, u: ScalarField) -> StepSummary:
    v = u.values
    return StepSummary(idx, t, float(v.min()), float(v.max()), center_value(u), field_l2(u))


def _check_settle_tol(settle_tol: float) -> None:
    if not (np.isfinite(settle_tol) and settle_tol >= 0.0):
        raise ConfigurationError(f"settle_tol must be finite and >= 0, got {settle_tol}")


def _settled_sign(s: StepSummary, settle_tol: float) -> int:
    """+1 or -1 when max |v - c| <= settle_tol for that constant c, else 0.

    Rounding of v - c is monotone in v, so max |v - c| is reached at vmin or
    vmax, and the summary decides settling exactly.
    """
    for c in (1, -1):
        if abs(s.vmin - c) <= settle_tol and abs(s.vmax - c) <= settle_tol:
            return c
    return 0


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

    Stops stepping once a state repeats one of the two before it bit for bit:
    step is a pure function of the state for fixed (kind, p, cfg), so the rest
    of the run has period 1 or 2, and each remaining summary is the one
    `period` steps back, with the same bits as stepping on would give.
    """
    if steps < 0:
        raise ConfigurationError("steps must be >= 0")
    _check_settle_tol(settle_tol)
    u = phi0
    summaries = [_summarize(0, 0.0, u)]
    limit = _settled_sign(summaries[0], settle_tol)
    settle_step = 0 if limit else None
    recent = (u.values.tobytes(), None)  # the bits of the last two states
    for i in range(1, steps + 1):
        u_new, rep = step(kind, u, p, cfg)
        if not rep.success:
            bad = rep.stage_reports[-1]
            return Trajectory(
                tuple(summaries), bool(limit), settle_step, limit,
                failure=f"step {i} did not converge at stage {len(rep.stage_reports)} of "
                f"{kind.tableau.stages if kind.tableau else 1} "
                f"({bad.message}, residual {bad.residual:.3g})",
            )
        u = u_new
        bits = u.values.tobytes()
        if bits in recent:  # copies of summaries already tested for settling
            period = recent.index(bits) + 1
            for j in range(i, steps + 1):
                summaries.append(replace(summaries[-period], step=j, time=j * p.dt))
            break
        recent = (bits, recent[0])
        summaries.append(_summarize(i, i * p.dt, u))
        if not limit:
            limit = _settled_sign(summaries[-1], settle_tol)
            settle_step = i if limit else None
    return Trajectory(tuple(summaries), bool(limit), settle_step, limit)


# ---------------------------------------------------------------------------
# Scalar restriction: constant fields map to constant fields.


def _no_lap(x) -> float:
    return 0.0


def _nearest(roots, x):
    """Index of the entry of roots nearest x, the first on ties; NaN entries
    never.  Per row for a 2-D roots and a 1-D x."""
    dist = np.abs(np.asarray(roots) - np.asarray(x)[..., None])
    return np.argmin(np.where(np.isnan(dist), np.inf, dist), axis=-1)


def _constant_images(kind: SchemeKind, r: np.ndarray, p: ACParams):
    """Every constant image of each constant state in the 1-D array r under one step.

    Walks the forward stages on constants, each stage a cubic per chain of
    stage roots.  Every state starts as one chain, and a stage where some
    cubic has several real roots branches every chain into three, one per
    root, NaN past the real ones.  Returns (images, selected): images[i]
    lists state i's images ascending with NaN after them, an image within
    MERGE_TOL of the first of its run merged into it, and selected[i] is the
    column the field stepper's chain reaches.  Its Newton iterate, started
    from r and then from the previous stage as in step, picks the nearest
    root at each stage; it runs only for the states with several images,
    since one leaves no choice.
    """
    stages, b = _forward_stages(kind, p)
    # v0 and fs: each chain's state and stage forces; walked: each stage's roots, by
    # state and chain; several: the states with more than one chain
    v0, fs, walked, several = r, [], [], False
    with np.errstate(all="ignore"):
        for stage in stages:
            roots = _cubic_roots(*constant_cubic(p, *stage(v0, fs, _no_lap)))[0]
            second = roots[:, 1] == roots[:, 1]  # not NaN
            branch = np.count_nonzero(second)
            if branch:
                several = several | second.reshape(r.size, -1).any(axis=1)
                v0, fs, x = np.repeat(v0, 3), [np.repeat(f, 3) for f in fs], roots.ravel()
            else:
                x = roots[:, 0]
            walked.append((roots.reshape(r.size, -1, 3), branch))
            if b is not None:
                fs.append(ac_force(0.0, x, p))
        images = (x if b is None else _weighted(v0, b, fs, p.dt)).reshape(r.size, -1)
        selected = np.zeros(r.size, dtype=int)
        if images.shape[1] == 1:  # one chain per state
            return images, selected
        several = np.flatnonzero(several)
        chain, start, fs = selected[several], r[several], []  # the stepper's chain
        for stage, (roots, branch) in zip(stages, walked):
            start = _newton_each(*constant_residual(p, *stage(r[several], fs, _no_lap)), start)[0]
            roots = roots[several, chain]
            pick = _nearest(roots, start)
            if b is not None:
                fs.append(ac_force(0.0, roots[np.arange(several.size), pick], p))
            chain = chain * 3 + pick if branch else chain
        # sort each of them, the stepper's image after the images equal to it (0.0 and
        # -0.0 tie), and merge each run within MERGE_TOL into its first
        cols = np.arange(images.shape[1]) + (np.arange(images.shape[1]) >= chain[:, None])
        cols[:, -1] = chain
        mine = images[several, chain]
        rows = np.sort(images[several[:, None], cols], axis=1, kind="stable")
        first, lead = np.ones(rows.shape, dtype=bool), rows[:, 0]
        for j in range(1, rows.shape[1]):
            first[:, j] = ~(np.abs(rows[:, j] - lead) <= MERGE_TOL)
            lead = np.where(first[:, j], rows[:, j], lead)
        images[several] = rows if first.all() else np.sort(np.where(first, rows, np.nan), axis=1)
    selected[several] = (first & (rows <= mine[:, None])).sum(axis=1) - 1
    return images, selected


def scalar_map(kind: SchemeKind, r: float, p: ACParams) -> list[tuple[float, bool]]:
    """All constant images c of a constant state r under one step: the one-state
    _constant_images, as (c, selected) pairs in ascending order.

    Raises AnalysisError when r has no finite image.
    """
    images, selected = _constant_images(kind, np.array([float(r)]), p)
    if not np.isfinite(images[0]).any():
        raise AnalysisError(f"r = {r!r} has no finite image: a stage cubic's coefficients "
                            "are not finite or its roots overflow")
    return [(float(c), j == int(selected[0])) for j, c in enumerate(images[0]) if c == c]


def _selected_images(kind: SchemeKind, r: np.ndarray, p: ACParams) -> np.ndarray:
    """The image the field stepper reaches from each constant state in the 1-D
    array r: _constant_images' selected column, NaN where a state has no finite image."""
    images, selected = _constant_images(kind, r, p)
    return images[:, 0] if images.shape[1] == 1 else images[np.arange(r.size), selected]
