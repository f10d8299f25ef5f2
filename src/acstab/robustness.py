"""Backward-in-time analysis: how many initial states produce a given step?

Restricted to constant states, one implicit step is a polynomial relation
between the previous value r and the next value c, so the preimages of c
are roots of a cubic (or, for the two-stage DIRK scheme, of a short chain
of cubics solved backward through the stages).  The magnitudes r_1 < r_2 <
... at which the preimage count of the steady states changes split the real
line into intervals on which the computed trajectory from a constant
initial state settles at +1 or -1 in an alternating pattern; the two-stage
DIRK scheme interleaves a second family s_1 < s_2 < ... produced by its
inner stage.

For non-constant data near a constant c, the extra preimage branches
persist: the first-order response of the branch through r to a target
perturbation delta * mode is delta * B * mode.  The gain B is a ratio of
kernel slopes (``schemes.mode_slope`` on the mode): minus the step
equation's Jacobian in the next state at c over its Jacobian in the
previous state at r, chained through the stages for DIRK.
``preimage_field`` turns that linearization into an exact discrete preimage
by continuation in delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigurationError
from .fields import ACParams, ModeIndex, ScalarField, ac_force, field_mean, laplacian_matrix
from .schemes import DIRK2, MERGE_TOL, SchemeKind, _step_terms, constant_cubic, implicit_system
from .schemes import mode_slope, scalar_map
from .solvers import (
    CubicRoots,
    HomotopyConfig,
    NewtonConfig,
    NewtonReport,
    delta_schedule,
    homotopy_path,
    march_deltas,
    newton_solve,
    real_cubic_roots,
)

__all__ = [
    "PreimageSet",
    "IntervalSequence",
    "ClassificationResult",
    "PerturbationGain",
    "preimage_constants",
    "interval_sequence",
    "classify_constant_initial",
    "perturbation_gain",
    "dirk_perturbation_gains",
    "preimage_field",
]


@dataclass(frozen=True)
class PreimageSet:
    """Constant states r that one step maps to the constant c.

    cubics holds the closed-form solves behind the roots (one cubic for the
    single-stage schemes; the stage chain's cubics for DIRK).  For DIRK,
    chains pairs each root with its full stage history (r, phi_1, phi_2).
    """

    scheme: SchemeKind
    c: float
    roots: tuple[float, ...]
    cubics: tuple[CubicRoots, ...]
    chains: tuple[tuple[float, ...], ...] = ()


def _dirk_backward_data(kind: SchemeKind, p: ACParams):
    """Validate that the tableau supports backward stage elimination."""
    tab = kind.tableau
    if tab.stages != 2:
        raise ConfigurationError("backward stage elimination implemented for 2-stage tableaux")
    beta = tab.b[1] - tab.a[1][1]
    alpha = tab.a[1][0] - tab.a[0][0]
    if tab.b[0] != tab.a[1][0] or beta == 0.0 or alpha == 0.0 or tab.a[0][0] == 0.0:
        raise ConfigurationError(
            "tableau is not backward-triangular (needs b1 = a21 and nonzero "
            "a11, a21 - a11, b2 - a22)"
        )
    return tab, alpha, beta


def _dirk_chain_preimages(kind: SchemeKind, c: float, p: ACParams):
    """Solve the stage chain backward: c -> phi_2 -> phi_1 -> r.

    Each backward stage solves target = u + gamma F(u) for u, the constant
    form of _backward_stage_system.
    """
    tab, alpha, beta = _dirk_backward_data(kind, p)
    cubics: list[CubicRoots] = []
    chains: list[tuple[float, float, float]] = []
    # final combination: c = phi_2 + dt * beta * F(phi_2)
    final = real_cubic_roots(*constant_cubic(p, -1.0, c, p.dt * beta))
    cubics.append(final)
    for phi2 in final.real_roots:
        # stage 2 relation: phi_2 - dt a22 F(phi_2) = phi_1 + dt alpha F(phi_1)
        target = phi2 - p.dt * tab.a[1][1] * ac_force(0.0, phi2, p)
        stage1 = real_cubic_roots(*constant_cubic(p, -1.0, target, p.dt * alpha))
        cubics.append(stage1)
        for phi1 in stage1.real_roots:
            r = phi1 - p.dt * tab.a[0][0] * ac_force(0.0, phi1, p)
            chains.append((r, phi1, phi2))
    chains.sort(key=lambda ch: ch[0])
    merged: list[tuple[float, float, float]] = []
    for ch in chains:
        if merged and abs(ch[0] - merged[-1][0]) <= MERGE_TOL:
            continue
        merged.append(ch)
    return merged, cubics


def _backward_terms(kind: SchemeKind, v, lap_v, p: ACParams):
    """implicit_system's (a, s, b, k, partner) in the previous state u of one
    cn/modcn step that ends at v; lap_v is Lap(v), 0.0 on constants."""
    idt, ie2 = 1.0 / p.dt, 1.0 / p.eps2
    if kind.tag == "cn":
        return -idt, v, 0.5, -0.5 * lap_v + 0.5 * ie2 * (v ** 3 - v), None
    # modcn: the explicit -u/eps^2 joins the shift
    return -idt - ie2, 0.0, 0.5, idt * v - 0.5 * lap_v, v


def preimage_constants(kind: SchemeKind, c: float, p: ACParams) -> PreimageSet:
    """All constant preimages of the constant next state c under one step.

    Backward Euler inverts explicitly (one preimage, always); the trapezoid
    schemes solve one cubic in r; the two-stage DIRK scheme solves the stage
    chain backward and deduplicates coincident preimages at 1e-8.
    """
    if kind.tag == "be":
        r = c + p.dt * (c ** 3 - c) / p.eps2
        return PreimageSet(kind, c, (r,), ())
    if kind.tag in ("cn", "modcn"):
        cub = real_cubic_roots(*constant_cubic(p, *_backward_terms(kind, c, 0.0, p)))
        return PreimageSet(kind, c, cub.real_roots, (cub,))
    chains, cubics = _dirk_chain_preimages(kind, c, p)
    return PreimageSet(
        kind, c,
        tuple(ch[0] for ch in chains),
        tuple(cubics),
        tuple(chains),
    )


@dataclass(frozen=True)
class IntervalSequence:
    """Threshold magnitudes splitting constant initial states by their limit.

    entries is ascending: (r_1, ..., r_count) for single-family schemes and
    (r_1, s_1, ..., r_count, s_count) interleaved for the two-stage DIRK
    scheme.  ratio is dt over the scheme's uniqueness threshold factor times
    eps^2, so the sequence depends on eps and dt only through it.
    """

    scheme: SchemeKind
    ratio: float
    entries: tuple[float, ...]

    def r_values(self) -> tuple[float, ...]:
        if self.scheme.tag == "dirk":
            return self.entries[0::2]
        return self.entries

    def s_values(self) -> tuple[float, ...]:
        if self.scheme.tag == "dirk":
            return self.entries[1::2]
        return ()


def _unique_root(ps: PreimageSet, what: str) -> float:
    if len(ps.roots) != 1:
        raise AnalysisError(
            f"{what}: expected a single real preimage of {ps.c:.6g}, got {len(ps.roots)}"
        )
    return ps.roots[0]


def interval_sequence(kind: SchemeKind, ratio: float, count: int) -> IntervalSequence:
    """First `count` threshold magnitudes per family at the given ratio.

    ratio = dt / (2 eps^2) for the trapezoid schemes and dt / (4 eps^2) for
    the two-stage DIRK scheme.  r_1 comes from a closed form; each later
    entry is the magnitude of the unique real preimage of its predecessor
    (uniqueness is checked and an AnalysisError raised if it ever fails).
    """
    if not (math.isfinite(ratio) and ratio > 0):
        raise ConfigurationError(f"ratio must be finite and > 0, got {ratio}")
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if kind.tag == "be":
        raise ConfigurationError("backward Euler has a unique preimage everywhere; no sequence")

    if kind.tag in ("cn", "modcn"):
        p = ACParams(eps=1.0, dt=2.0 * ratio)
        if kind.tag == "cn":
            entries = [math.sqrt(1.0 + 1.0 / ratio)]
        else:
            entries = [2.0 * math.sqrt(1.0 + 1.0 / (2.0 * ratio))]
        for _ in range(count - 1):
            entries.append(abs(_unique_root(
                preimage_constants(kind, entries[-1], p), "interval sequence"
            )))
        return IntervalSequence(kind, ratio, tuple(entries))

    # two-stage DIRK: ratio = dt / (4 eps^2)
    p = ACParams(eps=1.0, dt=4.0 * ratio)
    _dirk_backward_data(kind, p)
    r1 = 2.0 * math.sqrt(1.0 + 1.0 / ratio)
    # s_1 = r_1 - 2 y with y the unique real root of the inner-stage cubic
    # r_1 = y + ratio F(y) at eps = 1: a backward stage with gamma = ratio
    inner = real_cubic_roots(*constant_cubic(p, -1.0, r1, ratio))
    if inner.discriminant_sign >= 0:
        raise AnalysisError(
            f"inner-stage cubic has multiple real roots at ratio {ratio:.6g}; "
            "the interleaved family is not defined there"
        )
    s1 = r1 - 2.0 * inner.real_roots[0]
    rs, ss = [r1], [s1]
    for _ in range(count - 1):
        rs.append(abs(_unique_root(preimage_constants(kind, rs[-1], p), "interval sequence")))
        ss.append(abs(_unique_root(preimage_constants(kind, ss[-1], p), "interval sequence")))
    entries: list[float] = []
    for r, s in zip(rs, ss):
        entries.extend((r, s))
    if any(b <= a for a, b in zip(entries, entries[1:])):
        raise AnalysisError(f"threshold families failed to interleave at ratio {ratio:.6g}")
    return IntervalSequence(kind, ratio, tuple(entries))


@dataclass(frozen=True)
class ClassificationResult:
    """Limit of the computed trajectory from a constant initial state.

    pattern records sign(c_k) after every step (0 for exactly-zero states);
    limit is +1/-1 once |c_k| is within settle_tol of a steady state, or 0
    if max_steps ran out first.
    """

    initial: float
    pattern: tuple[int, ...]
    settle_step: int | None
    limit: int

    @property
    def flips(self) -> int:
        signs = [s for s in self.pattern if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign(x: float) -> int:
    if abs(x) <= 1e-9:
        return 0
    return 1 if x > 0 else -1


def classify_constant_initial(
    kind: SchemeKind,
    r: float,
    p: ACParams,
    max_steps: int = 400,
    settle_tol: float = 1e-3,
) -> ClassificationResult:
    """Iterate the selected scalar branch from r and report the settling sign.

    An unsettled exact fixed point (the selected image equals the value it
    came from) repeats at every later step, so its pattern is completed
    without further maps.
    """
    if max_steps < 1:
        raise ConfigurationError("max_steps must be >= 1")
    pattern = [_sign(r)]
    cur = r
    for k in range(1, max_steps + 1):
        prev = cur
        images = scalar_map(kind, cur, p)
        cur = next(c for c, selected in images if selected)
        pattern.append(_sign(cur))
        for sgn in (1, -1):
            if abs(cur - sgn) <= settle_tol:
                return ClassificationResult(r, tuple(pattern), k, sgn)
        if cur == prev:
            pattern += [pattern[-1]] * (max_steps - k)
            break
    return ClassificationResult(r, tuple(pattern), None, 0)


@dataclass(frozen=True)
class PerturbationGain:
    """First-order response of a preimage branch to a target-mode perturbation.

    Perturbing the target by delta * mode moves the preimage branch through
    the constant r by delta * gain[-1] * mode to first order.  For the
    trapezoid schemes gain is (B,); for the two-stage DIRK scheme it is
    (B2, B1, B0) -- innermost stage outward, with c and r holding the stage
    constants (c2, c1).  pole means the linearization is singular there.
    """

    scheme: SchemeKind
    c: float
    r: float
    mode: ModeIndex
    gain: tuple[float, ...]
    pole: bool = False


def _chained_gains(kind, c, r, k: ModeIndex, p: ACParams, links) -> PerturbationGain:
    """Running products of -slope(fwd at x_new) / slope(bwd at x_old) over links.

    A link (fwd, x_new, bwd, x_old) is one equation between a later state
    x_new and an earlier x_old, as implicit_system's terms in each; slopes
    are mode_slope's on mode k.  A vanishing bwd slope is a pole: from it on
    every gain is nan.
    """
    m = k.laplace_eigenvalue
    gains: list[float] = []
    for fwd, x_new, bwd, x_old in links:
        den = mode_slope(p, *bwd)(x_old, m)
        if abs(den) <= 1e-13 * max(abs(bwd[0]), abs(den - bwd[0])):
            gains += [math.nan] * (len(links) - len(gains))
            return PerturbationGain(kind, c, r, k, tuple(gains), True)
        gains.append((gains[-1] if gains else 1.0) * -mode_slope(p, *fwd)(x_new, m) / den)
    return PerturbationGain(kind, c, r, k, tuple(gains))


def perturbation_gain(
    kind: SchemeKind, c: float, r: float, k: ModeIndex, p: ACParams
) -> PerturbationGain:
    """Gain B of the preimage branch through r for target c + delta*mode(k)."""
    if kind.tag not in ("cn", "modcn"):
        raise ConfigurationError(
            "single gain defined for the trapezoid schemes; use dirk_perturbation_gains"
        )
    link = (_step_terms(kind, r, 0.0, p), c, _backward_terms(kind, c, 0.0, p), r)
    return _chained_gains(kind, c, r, k, p, (link,))


def dirk_perturbation_gains(
    c2: float, c1: float, k: ModeIndex, p: ACParams, kind: SchemeKind | None = None
) -> PerturbationGain:
    """Stage gains (B2, B1, B0) of a two-stage DIRK scheme (default DIRK2).

    c2 and c1 are the constant stage states of the branch (outer combination
    stage and inner stage), e.g. taken from a preimage chain.  The links are
    the backward stage chain of _dirk_chain_preimages: c = phi_2 + dt beta
    F(phi_2), phi_2 - dt a22 F(phi_2) = phi_1 + dt alpha F(phi_1) and
    phi_1 - dt a11 F(phi_1) = r, each side a stage (+-1, ., dt * coefficient).
    """
    kind = kind or DIRK2
    tab, alpha, beta = _dirk_backward_data(kind, p)

    def stage(sign, coef):
        return (sign, 0.0, p.dt * coef)

    # a zero coefficient makes that side the identity (slope +-1): c and r
    # need not be known
    links = (
        (stage(1.0, 0.0), c2, stage(-1.0, beta), c2),
        (stage(1.0, tab.a[1][1]), c2, stage(-1.0, alpha), c1),
        (stage(1.0, tab.a[0][0]), c1, stage(-1.0, 0.0), c1),
    )
    return _chained_gains(kind, c2, c1, k, p, links)


def _be_preimage_field(phi_next: ScalarField, p: ACParams) -> tuple[ScalarField, NewtonReport]:
    grid = phi_next.grid
    v = phi_next.values
    rhs = ac_force(laplacian_matrix(grid) @ v, v, p)
    u = v - p.dt * rhs
    resid = (v - u) / p.dt - rhs
    rnorm = float(np.max(np.abs(resid)))
    return ScalarField(grid, u), NewtonReport(0, rnorm, True, (rnorm,))


def _backward_problem(kind: SchemeKind, grid, c: float, shape: np.ndarray, p: ACParams):
    """problem(delta) for homotopy_path: unknown u with target c + delta*shape.

    The Jacobians are ShiftedLaplacians.
    """
    lap = laplacian_matrix(grid)

    def problem(delta: float):
        v = c + delta * shape
        return implicit_system(grid, p, *_backward_terms(kind, v, lap @ v, p))

    return problem


def _backward_stage_system(target: np.ndarray, gamma: float, grid, p: ACParams):
    """(residual, jacobian) of target = u + gamma F(u) in the unknown u.

    One backward DIRK stage, F(u) = Lap(u) - (u^3 - u) / eps^2.  The
    Jacobian is a ShiftedLaplacian.
    """
    return implicit_system(grid, p, -1.0, target, gamma)


def _dirk_preimage_field(kind, grid, c, shape, seed, p, hcfg, ncfg):
    """Backward stage chain under continuation in delta (2-stage tableaux)."""
    tab, alpha, beta = _dirk_backward_data(kind, p)
    lap = laplacian_matrix(grid)

    ps = preimage_constants(kind, c, p)
    if not ps.chains:
        raise AnalysisError(f"no constant preimage chain at c = {c:.6g}")
    r_seed = field_mean(seed)
    chain = min(ps.chains, key=lambda ch: abs(ch[0] - r_seed))
    _, c1, c2 = chain

    def solve_at(delta, state):
        v = c + delta * shape
        x2_prev, _ = state if state is not None else (
            np.full(grid.num_nodes, c2), np.full(grid.num_nodes, c1)
        )

        # target relation: v = u + dt * beta * F(u) with F(u) = lap u - nl(u)/eps^2
        x2, rep2 = newton_solve(*_backward_stage_system(v, p.dt * beta, grid, p), x2_prev, ncfg)
        if not rep2.converged:
            return state, rep2
        x1_prev = state[1] if state is not None else np.full(grid.num_nodes, c1)

        target1 = x2 - p.dt * tab.a[1][1] * ac_force(lap @ x2, x2, p)
        x1, rep1 = newton_solve(
            *_backward_stage_system(target1, p.dt * alpha, grid, p), x1_prev, ncfg
        )
        return (x2, x1), rep1

    state, report = march_deltas(solve_at, delta_schedule(hcfg), hcfg.adaptive)
    if state is None:
        raise AnalysisError("backward stage chain failed at the first continuation point")
    x2, x1 = state
    x0 = x1 - p.dt * tab.a[0][0] * ac_force(lap @ x1, x1, p)
    return ScalarField(grid, x0), report


def preimage_field(
    kind: SchemeKind,
    phi_next: ScalarField,
    seed: ScalarField,
    p: ACParams,
    hcfg: HomotopyConfig,
    ncfg: NewtonConfig | None = None,
) -> tuple[ScalarField, NewtonReport]:
    """A field phi_n that one step of the scheme maps to phi_next.

    The target is split as constant mean plus delta * shape with
    delta = hcfg.delta_end, and the branch selected by the seed (typically
    r + delta * B * mode, with r a constant preimage and B its gain) is
    continued from delta_start up to the full perturbation.  Backward Euler
    needs no continuation: its preimage is explicit.

    Returns the preimage and the final NewtonReport; a failed continuation
    reports converged=False with report.delta the last good amplitude, and
    returns the last good iterate.
    """
    ncfg = ncfg or NewtonConfig()
    if kind.tag == "be":
        return _be_preimage_field(phi_next, p)
    grid = phi_next.grid
    c = field_mean(phi_next)
    if hcfg.delta_end != 0.0:
        shape = (phi_next.values - c) / hcfg.delta_end
    else:
        shape = np.zeros(grid.num_nodes)
    if kind.tag == "dirk":
        return _dirk_preimage_field(kind, grid, c, shape, seed, p, hcfg, ncfg)
    problem = _backward_problem(kind, grid, c, shape, p)
    x, report = homotopy_path(problem, seed.values, hcfg, ncfg)
    return ScalarField(grid, np.asarray(x)), report
