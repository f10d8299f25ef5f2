"""Implicit time steppers for the Allen-Cahn equation.

All schemes advance phi_t = F(phi) with F(phi) = Lap(phi) - (phi^3 - phi) / eps^2:

* ``be``     backward Euler, first order: the tableau ((1,),), (1,);
* ``cn``     Crank-Nicolson (trapezoid), second order: the tableau
  ((0, 0), (1/2, 1/2)), (1/2, 1/2), whose first stage is explicit;
* ``modcn``  a modified Crank-Nicolson whose nonlinearity is averaged as
  (phi1 + phi0)(phi1^2 + phi0^2)/4 with the expansive term -phi0/eps^2 kept
  explicit (no Runge-Kutta method); its step is unique for every time step;
* ``dirk``   diagonally implicit Runge-Kutta from a supplied tableau
  (the bundled two-stage tableau is second order and A-stable, not
  L-stable: its stability function tends to 1 as z -> -infinity).

Every implicit solve in the package -- each scheme's step, each stage,
and the backward problems of ``robustness`` -- is one equation in the
unknown v:

    a (v - s) - b Lap(v) + (b / eps^2) n(v) + k = 0,

with n(v) = v^3 - v, or (v + w)(v^2 + w^2) / 2 for MODCN's partner state w.
``implicit_system`` builds its residual and Jacobian, the only place the
equation is written: on a grid the Jacobian is a ShiftedLaplacian, and with
no grid (constants, where Lap vanishes) it is the derivative; each caller
only chooses (a, s, b, k, w).  On constants the equation is the cubic
``constant_cubic``.  ``mode_slope`` is the equation's Jacobian on one
Laplacian eigenmode at a constant; every linearization in ``robustness`` and
``stability`` is built from it.

Each scheme's step is read forward once, ``_forward_stages``: its implicit
stages.  ``step`` walks them on fields, one Newton solve per stage started
from the previous stage, and reads each stage's G = -F off the equation it
just solved: evaluated afresh, Lap(phi_i) would scale the stage's Newton
error by about dt a_ii 4 dim / h^2, so states whose stages are already
solved would keep moving by roundoff.  Only a tableau's first stage may be
explicit, and it is phi_n itself: its G(phi_n) is evaluated.

Constant fields stay constant: Lap maps them to exactly 0, so each stage is
``implicit_system``'s equation without a grid, a cubic.  ``step`` walks a
constant field on its float with the same Newton iteration, guess,
tolerance and iteration cap, and returns the constant field of the result.
``_selected_images`` walks the chain of stage roots that the stepper takes
on a whole array of constants, ``scalar_map`` every chain from one; their
stage values are closed-form roots, so they evaluate G(x) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import AnalysisError, ConfigurationError, _check_count
from .fields import (
    ACParams,
    ButcherTableau,
    DIRK2_TABLEAU,
    ScalarField,
    _cubic,
    _minus_force,
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
    "step",
    "simulate",
    "scalar_map",
]

MERGE_TOL = 1e-8  # absolute dedupe tolerance for coincident scalar images and preimages
_SETTLE_TOL = 1e-3  # distance to +-1 that counts as settled: simulate's default, classify's always


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
        return f"dirk{self.tableau.stages}" if self.tableau else self.tag

    @property
    def _rk(self) -> ButcherTableau | None:
        """The step's Runge-Kutta tableau: dirk's own, be's and cn's; None for modcn."""
        return self.tableau or _TABLEAUX.get(self.tag)


# backward Euler and the trapezoid rule (an EDIRK), both stiffly accurate
_TABLEAUX = {"be": ButcherTableau(((1.0,),), (1.0,)),
             "cn": ButcherTableau(((0.0, 0.0), (0.5, 0.5)), (0.5, 0.5))}

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
    Every caller passes its equation divided by dt (a = +-1/dt): residuals are
    in units of F, and one Newton tolerance means the same everywhere.
    On a grid v is a node array and the Jacobian is the ShiftedLaplacian
    a I - b L + diag((b / eps^2) n'(v)).  With grid None, Lap(v) is 0.0: v is
    a constant, a float or an array of independent constants, and the
    Jacobian is the derivative a + (b / eps^2) n'(v), per entry.
    """
    lap = _no_lap if grid is None else laplacian_matrix(grid).__matmul__
    g = b * (1.0 / p.eps2)

    def residual(v):
        return a * (v - s) - b * lap(v) + g * _nonlinearity(v, partner) + k

    def jacobian(v):
        if grid is None:
            return a + g * _nonlinearity_slope(v, partner)
        return ShiftedLaplacian(grid, a, b, g * _nonlinearity_slope(v, partner))

    return residual, jacobian


def _no_lap(x) -> float:
    return 0.0


def _nonlinearity(v, w):
    return _cubic(v) if w is None else 0.5 * (v + w) * (v * v + w * w)


def _nonlinearity_slope(v, w):
    return 3.0 * v * v - 1.0 if w is None else 0.5 * (3.0 * v * v + 2.0 * v * w + w * w)


def mode_slope(p: ACParams, a, s, b, k=0.0, partner=None):
    """slope(x, m): Jacobian of implicit_system's equation at the constant x on
    the mode -Lap u = m u, i.e. f'(x) + b m with f' the derivative of
    implicit_system(None, ...)."""
    fp = implicit_system(None, p, a, s, b, k, partner)[1]
    return lambda x, m=0.0: fp(x) + b * m


def constant_cubic(p: ACParams, a, s, b, k=0.0, partner=None) -> tuple[float, float, float, float]:
    """Monic cubic whose real roots are the constant solutions of implicit_system."""
    g = b * (1.0 / p.eps2)
    if partner is None:
        return 1.0, 0.0, a / g - 1.0, (k - a * s) / g
    w = partner
    return 1.0, w, w * w + 2.0 * a / g, _cubes(w) + 2.0 * (k - a * s) / g


@lru_cache(maxsize=64)
def _forward_stages(kind: SchemeKind, p: ACParams):
    """One step read forward: (stages, b, lead), its implicit stages in order.

    lead(v0, lap) starts gs: [G(phi_n)] where a tableau's first stage is
    explicit, as cn's (that stage is phi_1 = phi_n itself), and [] otherwise.
    stage(v0, gs, lap) gives implicit_system's terms in the stage from phi_n
    = v0 and gs = (G(phi_1), ...), G = -F, of the stages before it; lap(x)
    is Lap(x): a matrix product on fields, 0.0 on constants.  Stage i of a
    tableau has terms (1/dt, phi_n, a_ii, sum_{j<i} a_ij G_j): its equation
    phi_i - phi_n = dt sum_{j<=i} a_ij F(phi_j) divided by dt.  b combines
    the G's of all stages into phi_{n+1} = phi_n - dt sum_i b_i G_i; it is
    None where phi_{n+1} is the last stage (modcn's one stage, and a stiffly
    accurate tableau: b its last row, as for be, cn).
    """
    tab, idt = kind._rk, 1.0 / p.dt
    if kind.tag == "modcn":  # the expansive -v0/eps^2 stays explicit
        return ((lambda v0, gs, lap: (idt, v0, 0.5, -0.5 * lap(v0) - (1.0 / p.eps2) * v0, v0),),
                None, _no_gs)
    lead = _no_gs if tab.a[0][0] else lambda v0, lap: [_minus_force(lap(v0), v0, p)]
    stages = tuple(lambda v0, gs, lap, d=row[i], w=row[:i]: (idt, v0, d, sum(map(mul, w, gs), 0.0))
                   for i, row in enumerate(tab.a) if row[i])
    return stages, (None if tab.b == tab.a[-1] else tab.b), lead


def _no_gs(v0, lap) -> list:
    return []


def step(kind: SchemeKind, phi_n: ScalarField, p: ACParams, cfg: NewtonConfig | None = None):
    """Advance one time step with the given scheme; returns (field, StepReport).

    One Newton solve per implicit stage, each from the stage before (the
    first from phi_n); a failed stage ends the step with its iterate.

    A constant field, all of whose nodes have the same bits (0.0 next to
    -0.0 is a field), steps as its constant: each stage solves
    implicit_system's equation without a grid by newton_solve on the float,
    the same Newton loop that a field's stages run.

    An implicit stage's G is read off the equation it was solved with,
    -(a (phi_i - s) + k) / b, which is G(phi_i) up to the stage's residual
    over a_ii (module docstring).  A stage whose guess already meets the
    tolerance adds exactly 0.  So any state whose residual a_ii |F(phi_n)|
    at every implicit stage (|F(phi_n)| for be, cn and modcn) is within the
    Newton tolerance maps to itself, whether it has settled or only moves
    slowly, and simulate stops stepping it.
    """
    grid, v0 = phi_n.grid, phi_n.values
    bits = v0.view(np.int64)
    if (bits == bits[0]).all():
        x, reports = _walk(kind, float(v0[0]), p, cfg, None)
        return ScalarField(grid, np.full(v0.size, x)), StepReport(reports)
    x, reports = _walk(kind, v0, p, cfg, grid)
    return ScalarField(grid, x), StepReport(reports)


def _walk(kind: SchemeKind, v0, p: ACParams, cfg: NewtonConfig | None, grid):
    """step's stage walk from v0, a node array on grid or, with grid None, a
    float: (value, reports).  Stage terms that overflow warn of nothing:
    Newton reports the residual at its guess as not finite."""
    lap = _no_lap if grid is None else laplacian_matrix(grid).__matmul__
    stages, b, lead = _forward_stages(kind, p)
    x, reports = v0, []
    with np.errstate(over="ignore", invalid="ignore"):  # newton_solve ignores them too
        gs = lead(v0, lap)
        for i, stage in enumerate(stages, 1):
            a, s, b_ii, k, *_ = terms = stage(v0, gs, lap)
            x, rep = newton_solve(*implicit_system(grid, p, *terms), x, cfg)
            reports.append(rep)
            if not rep.converged:
                return x, tuple(reports)
            if i < len(stages) or b is not None:  # a later stage or b reads its G
                gs.append(-(a * (x - s) + k) / b_ii)
    return (x if b is None else _weighted(v0, b, gs, p.dt)), tuple(reports)


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


def _settled_sign(s: StepSummary, settle_tol: float) -> int:
    """+1 or -1 when max |v - c| <= settle_tol for that constant c, else 0.

    Rounding of v - c is monotone in v, so max |v - c| is reached at vmin or
    vmax, and the summary decides settling exactly.
    """
    for c in (1, -1):
        if abs(s.vmin - c) <= settle_tol and abs(s.vmax - c) <= settle_tol:
            return c
    return 0


def _stage_failure(kind: SchemeKind, p: ACParams, rep: StepReport) -> str:
    """'did not converge at stage i of s (message, residual r)' for a failed step."""
    bad, implicit = rep.stage_reports[-1], len(_forward_stages(kind, p)[0])
    return (f"did not converge at stage {len(rep.stage_reports)} of {implicit} "
            f"({bad.message}, residual {bad.residual:.3g})")


def simulate(
    kind: SchemeKind,
    phi0: ScalarField,
    steps: int,
    p: ACParams,
    settle_tol: float = _SETTLE_TOL,
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
    _check_count("steps", steps, 0)
    if not (np.isfinite(settle_tol) and settle_tol >= 0.0):
        raise ConfigurationError(f"settle_tol must be finite and >= 0, got {settle_tol}")
    u = phi0
    summaries = [_summarize(0, 0.0, u)]
    limit = _settled_sign(summaries[0], settle_tol)
    settle_step = 0 if limit else None
    recent = (u.values.tobytes(), None)  # the bits of the last two states
    for i in range(1, steps + 1):
        u_new, rep = step(kind, u, p, cfg)
        if not rep.success:
            return Trajectory(tuple(summaries), bool(limit), settle_step, limit,
                              failure=f"step {i} {_stage_failure(kind, p, rep)}")
        u = u_new
        bits = u.values.tobytes()
        if bits in recent:  # copies of summaries already tested for settling
            period = recent.index(bits) + 1
            for j in range(i, steps + 1):
                s = summaries[-period]
                summaries.append(StepSummary(j, j * p.dt, s.vmin, s.vmax, s.center, s.l2))
            break
        recent = (bits, recent[0])
        summaries.append(_summarize(i, i * p.dt, u))
        if not limit:
            limit = _settled_sign(summaries[-1], settle_tol)
            settle_step = i if limit else None
    return Trajectory(tuple(summaries), bool(limit), settle_step, limit)


# ---------------------------------------------------------------------------
# Scalar restriction: constant fields map to constant fields.


def _nearest(roots, x):
    """Index of the entry of roots nearest x, the first on ties; NaN entries
    never.  Per row for a 2-D roots and a 1-D x."""
    dist = np.abs(np.asarray(roots) - np.asarray(x)[..., None])
    return np.argmin(np.where(np.isnan(dist), np.inf, dist), axis=-1)


def _selected_images(kind: SchemeKind, r: np.ndarray, p: ACParams):
    """(images, picks): the image the field stepper reaches from each constant
    in the 1-D array r under one step (NaN where not finite), and picks[k] the
    index (ascending) of the root it takes at implicit stage k.

    One cubic per state and implicit stage; an explicit first stage is r
    itself, and only its G(r) enters.  Where a cubic has several real roots,
    the stepper's Newton iterate picks the nearest; it starts from r, then
    from the previous stage's iterate, or from its root where it had only
    one.
    """
    stages, b, lead = _forward_stages(kind, p)
    start, picks = r, []
    with np.errstate(all="ignore"):
        gs = lead(r, _no_lap)
        for stage in stages:
            terms, pick = stage(r, gs, _no_lap), np.zeros(r.size, dtype=int)
            roots = _cubic_roots(*constant_cubic(p, *terms))[0]
            several = np.flatnonzero(roots[:, 1] == roots[:, 1])  # a second real root
            guess, start = start[several], roots[:, 0].copy()
            if several.size:
                terms = stage(r[several], [g[several] for g in gs], _no_lap)
                start[several] = _newton_each(*implicit_system(None, p, *terms), guess)[0]
                pick[several] = _nearest(roots[several], start[several])
            x = roots[np.arange(r.size), pick]
            picks.append(pick)
            if len(picks) < len(stages) or b is not None:  # a later stage or b reads its G
                gs.append(_minus_force(0.0, x, p))
        return (x if b is None else _weighted(r, b, gs, p.dt)), picks


def _weighted(v0, weights, gs, dt: float):
    """v0 - dt sum_j weights_j gs_j, added in order: phi_{n+1} from the stages' G."""
    return sum((-dt * w * g for w, g in zip(weights, gs)), v0)


def scalar_map(kind: SchemeKind, r: float, p: ACParams) -> list[tuple[float, bool]]:
    """All constant images c of a constant state r under one step, as (c, selected)
    pairs in ascending order; selected marks the chain _selected_images picks.

    Walks every chain of stage roots on floats, one cubic per chain and stage.
    An image within MERGE_TOL of the first of its run merges into it, the
    stepper's after those equal to it (0.0 and -0.0 tie).  Raises
    AnalysisError when r has no finite image.
    """
    r = float(r)
    stages, b, lead = _forward_stages(kind, p)
    picks = tuple(int(k[0]) for k in _selected_images(kind, np.array([r]), p)[1])
    with np.errstate(all="ignore"):
        chains = [((), tuple(lead(r, _no_lap)), r)]  # per chain: root indices, stage G's, last value
        for stage in stages:
            chains = [(path + (j,), gs + (_minus_force(0.0, x, p),), x) for path, gs, _ in chains
                      for j, x in enumerate(_cubic_roots(*constant_cubic(p, *stage(r, gs, _no_lap)))[0])]
        images = [(x if b is None else _weighted(r, b, gs, p.dt), path == picks)
                  for path, gs, x in chains]
    images = sorted(pair for pair in images if pair[0] == pair[0])  # NaN images dropped
    if not np.isfinite([c for c, _ in images]).any():
        raise AnalysisError(f"r = {r!r} has no finite image: a stage cubic's coefficients "
                            "are not finite or its roots overflow")
    merged = images[:1]
    for c, selected in images[1:]:
        if abs(c - merged[-1][0]) <= MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] or selected)
        else:
            merged.append((c, selected))
    return merged
