"""Backward-in-time analysis: how many initial states produce a given step?

Restricted to constant states, one implicit step is a polynomial relation
between the previous value r and the next value c, so the preimages of c
are roots of a cubic (or, for a two-stage DIRK scheme, of a short chain
of cubics solved backward through the stages).  The magnitudes r_1 < r_2 <
... at which the preimage count of the steady states changes split the real
line into intervals on which the computed trajectory from a constant
initial state settles at +1 or -1 in an alternating pattern.  Each family
starts at a positive constant preimage of 0 and continues through unique
preimages; a two-stage DIRK scheme has two such preimages of 0, so a second
family s_1 < s_2 < ... interleaves the first.

Every backward computation walks one description of the step read
backward, ``_backward_links``: a chain of links from the result back to
the start, each one equation between a later state x and an earlier state
u, given as ``schemes.implicit_system`` terms in either side.  CN and MODCN
are one implicit link, backward Euler one explicit link, and the two-stage
DIRK scheme three links c -> phi_2 -> phi_1 -> r (the last explicit).  On
constants the walk gives ``preimage_constants`` (one cubic per implicit
link), on fields ``preimage_field`` (one Newton solve per implicit link and
continuation point), and on one Laplacian mode the gains below.

For non-constant data near a constant c, the extra preimage branches
persist: the first-order response of the branch through r to a target
perturbation delta * mode is delta * B * mode.  The gain B is a ratio of
kernel slopes (``schemes.mode_slope`` on the mode): minus each link's
Jacobian in its later state over its Jacobian in its earlier state,
multiplied down the links.  ``preimage_field`` turns that linearization
into an exact discrete preimage by continuation in delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AnalysisError, ConfigurationError
from .fields import ACParams, ModeIndex, ScalarField, _cubic, ac_force, field_mean, laplacian_matrix
from .schemes import DIRK2, MERGE_TOL, SchemeKind, _selected_images, _sign, _step_terms
from .schemes import _check_settle_tol, constant_cubic, implicit_system, mode_slope
from .schemes import scalar_map  # unused here, kept for perfbench/layertrace.py, which patches it
from .solvers import (
    CubicRoots,
    HomotopyConfig,
    NewtonConfig,
    NewtonReport,
    delta_schedule,
    homotopy_path,  # unused here, kept for perfbench/layertrace.py, which patches it
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

    cubics holds the closed-form solves behind the roots, one per implicit
    link walked (none for backward Euler; the stage chain's cubics for
    DIRK).  chains pairs each root with its stage history, earliest first:
    (r,) for the single-stage schemes and (r, phi_1, phi_2) for DIRK.  For
    every scheme the chains are sorted by r, and chains whose r lies within
    MERGE_TOL of the previous kept one (a multiple root) are listed once.
    """

    scheme: SchemeKind
    c: float
    roots: tuple[float, ...]
    cubics: tuple[CubicRoots, ...]
    chains: tuple[tuple[float, ...], ...]


def _backward_terms(kind: SchemeKind, v, lap_v, p: ACParams):
    """implicit_system's (a, s, b, k, partner) in the previous state u of one
    cn/modcn step that ends at v; lap_v is Lap(v), 0.0 on constants."""
    idt, ie2 = 1.0 / p.dt, 1.0 / p.eps2
    if kind.tag == "cn":
        return -idt, v, 0.5, -0.5 * lap_v + 0.5 * ie2 * _cubic(v), None
    # modcn: the explicit -u/eps^2 joins the shift
    return -idt - ie2, 0.0, 0.5, idt * v - 0.5 * lap_v, v


def _backward_links(kind: SchemeKind, p: ACParams):
    """One step read backward: links (fwd, bwd) from the result to the start.

    A link is one equation between a later state x and an earlier state u.
    bwd(x, lap_x) gives its implicit_system terms in u (lap_x = Lap(x), 0.0
    on constants), fwd(u) its terms in x on constants; a bwd with b = 0 is
    explicit, u = s - k / a.  DIRK walks c -> phi_2 -> phi_1 -> r.
    """
    dt = p.dt
    if kind.tag == "be":
        # x - dt F(x) = u; k in this form gives u = c + dt (c^3 - c) / eps^2 to the bit on constants
        return ((lambda u: (1.0, u, dt),
                 lambda x, lap_x: (-1.0, x, 0.0, dt * _cubic(x) / p.eps2 - dt * lap_x)),)
    if kind.tag != "dirk":
        return ((lambda u: _step_terms(kind, u, 0.0, p),
                 lambda x, lap_x: _backward_terms(kind, x, lap_x, p)),)
    tab = kind.tableau
    if tab.stages != 2:
        raise ConfigurationError("backward stage elimination implemented for 2-stage tableaux")
    (a11, _), (a21, a22) = tab.a
    alpha, beta = a21 - a11, tab.b[1] - a22
    if tab.b[0] != a21 or beta == 0.0 or alpha == 0.0:
        raise ConfigurationError(
            "tableau is not backward-triangular (needs b1 = a21 and nonzero a21 - a11, b2 - a22)"
        )
    return (
        # c = phi_2 + dt beta F(phi_2)
        (lambda u: (1.0, u + dt * beta * ac_force(0.0, u, p), 0.0),
         lambda x, lap_x: (-1.0, x, dt * beta)),
        # phi_2 - dt a22 F(phi_2) = phi_1 + dt alpha F(phi_1)
        (lambda u: (1.0, u + dt * alpha * ac_force(0.0, u, p), dt * a22),
         lambda x, lap_x: (-1.0, x - dt * a22 * ac_force(lap_x, x, p), dt * alpha)),
        # phi_1 - dt a11 F(phi_1) = r
        (lambda u: (1.0, u, dt * a11),
         lambda x, lap_x: (-1.0, x, 0.0, -(dt * a11 * ac_force(lap_x, x, p)))),
    )


def _explicit(a, s, b, k=0.0, partner=None):
    """u solving a (u - s) + k = 0: a link whose bwd has b = 0."""
    return s - k / a


def preimage_constants(kind: SchemeKind, c: float, p: ACParams) -> PreimageSet:
    """All constant preimages of the constant next state c under one step.

    Walks the scheme's backward links from c: an explicit link maps each
    chain to one earlier state, an implicit one to every real root of its
    cubic.  Backward Euler thus has one preimage, always; the trapezoid
    schemes solve one cubic and DIRK the stage chain's cubics.
    """
    walks: list[tuple[float, ...]] = [(c,)]
    cubics: list[CubicRoots] = []
    for _fwd, bwd in _backward_links(kind, p):
        grown = []
        for walk in walks:
            terms = bwd(walk[-1], 0.0)
            if terms[2] == 0.0:
                grown.append(walk + (_explicit(*terms),))
                continue
            cub = real_cubic_roots(*constant_cubic(p, *terms))
            cubics.append(cub)
            grown += [walk + (u,) for u in cub.real_roots]
        walks = grown
    chains: list[tuple[float, ...]] = []
    for ch in sorted((tuple(reversed(w[1:])) for w in walks), key=lambda ch: ch[0]):
        if not chains or abs(ch[0] - chains[-1][0]) > MERGE_TOL:
            chains.append(ch)
    return PreimageSet(kind, c, tuple(ch[0] for ch in chains), tuple(cubics), tuple(chains))


@dataclass(frozen=True)
class IntervalSequence:
    """Threshold magnitudes splitting constant initial states by their limit.

    entries is ascending: (r_1, ..., r_count) for the trapezoid schemes and
    (r_1, s_1, ..., r_count, s_count) interleaved for a two-stage DIRK
    scheme.  ratio is dt over the scheme's uniqueness threshold (see
    _ratio_dt); the sequence depends on eps and dt only through it.
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


def _ratio_dt(kind: SchemeKind, ratio: float, eps: float = 1.0) -> float:
    """The time step whose ratio to the scheme's uniqueness threshold is `ratio`.

    The threshold is eps^2 / h with the factor h = 1 for backward Euler,
    1/2 for the trapezoid schemes (MODCN, unique at every dt, is measured
    against CN's threshold) and max a_ii for DIRK, so dt = ratio eps^2 / h.
    """
    h = kind.tableau.max_diag if kind.tag == "dirk" else 1.0 if kind.tag == "be" else 0.5
    return ratio * eps ** 2 / h


def interval_sequence(kind: SchemeKind, ratio: float, count: int) -> IntervalSequence:
    """First `count` threshold magnitudes per family at the given ratio.

    The step is taken at eps = 1 and dt = _ratio_dt(kind, ratio).  Each
    family starts at a positive constant preimage of 0 (CN and MODCN have
    one, a two-stage DIRK scheme two), and each later entry is the
    magnitude of the unique real preimage of its predecessor.  An AnalysisError is raised where the families are
    not defined: another number of positive preimages of 0, a preimage that
    is not unique, or families that fail to interleave.
    """
    if not (math.isfinite(ratio) and ratio > 0):
        raise ConfigurationError(f"ratio must be finite and > 0, got {ratio}")
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    if kind.tag == "be":
        raise ConfigurationError("backward Euler has a unique preimage everywhere; no sequence")

    p, families = ACParams(eps=1.0, dt=_ratio_dt(kind, ratio)), 2 if kind.tag == "dirk" else 1
    rows = [[x] for x in preimage_constants(kind, 0.0, p).roots if x > MERGE_TOL]
    if len(rows) != families:
        raise AnalysisError(
            f"{kind.label} has {len(rows)} positive constant preimages of 0 at ratio "
            f"{ratio:.6g}, not {families}; the threshold families are not defined there"
        )
    for _ in range(count - 1):
        for row in rows:
            ps = preimage_constants(kind, row[-1], p)
            if len(ps.roots) != 1:
                raise AnalysisError(f"interval sequence: expected a single real preimage of "
                                    f"{ps.c:.6g}, got {len(ps.roots)}")
            row.append(abs(ps.roots[0]))
    entries = [x for group in zip(*rows) for x in group]
    if any(b <= a for a, b in zip(entries, entries[1:])):
        raise AnalysisError(f"threshold families failed to interleave at ratio {ratio:.6g}")
    return IntervalSequence(kind, ratio, tuple(entries))


@dataclass(frozen=True)
class ClassificationResult:
    """Limits of the computed trajectories from constant initial states.

    For one float initial state: pattern records sign(c_k) from c_0 =
    initial up to the settle step, or for all max_steps steps when the state
    never settles (0 for states within 1e-9 of 0); settle_step is the first
    step with |c_k - limit| <= settle_tol for a limit of +1 or -1 (None and
    limit 0 if max_steps ran out first); flips counts the sign changes along
    pattern, zeros skipped.

    For a 1-D array of initial states every field is an array with one entry
    per state: pattern has shape (states, max_steps + 1) with 0 after a
    state's settle step, and settle_step is -1 where a state never settled.
    """

    initial: float | np.ndarray
    pattern: tuple[int, ...] | np.ndarray
    settle_step: int | None | np.ndarray
    limit: int | np.ndarray
    flips: int | np.ndarray


def classify_constant_initial(
    kind: SchemeKind,
    r,
    p: ACParams,
    max_steps: int = 400,
    settle_tol: float = 1e-3,
) -> ClassificationResult:
    """Iterate the selected scalar branch from r and report the settling sign.

    r is a float or a 1-D array of initial constants; an array is iterated
    as a whole, one selected-chain step (schemes._selected_images) per time
    step for the states still moving, and a float is its size-1 case.  Each
    state's images are bit for bit the ones scalar_map marks selected.  A
    state stops once it settles; an unsettled exact fixed point (the image
    equals the value it came from) repeats at every later step, so its
    pattern is completed without further maps.  Raises AnalysisError naming
    the initial state and the step when an image is not finite: its cubic
    coefficients are not finite, or its closed-form roots overflow.
    """
    if max_steps < 1:
        raise ConfigurationError("max_steps must be >= 1")
    _check_settle_tol(settle_tol)
    r0 = np.array(r, dtype=float, ndmin=1)
    if r0.ndim != 1:
        raise ConfigurationError("initial states must be a float or a 1-D array")
    n = r0.size
    pattern = np.zeros((n, max_steps + 1), dtype=np.int8, order="F")  # step k writes column k
    pattern[:, 0] = _sign(r0)
    settle_step, limit, flips = np.full(n, -1), np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    # per state still moving: its index, value, last nonzero sign and flips so far
    live, cur, last, fl = np.arange(n), r0, pattern[:, 0].astype(int), np.zeros(n, dtype=int)
    for k in range(1, max_steps + 1):
        if not live.size:
            break
        prev, cur = cur, _selected_images(kind, cur, p)
        finite = np.isfinite(cur)
        if np.count_nonzero(finite) < finite.size:
            raise AnalysisError(f"r = {r0[live[~finite][0]]:.9g} has no finite image at step {k}: "
                                "its cubic coefficients are not finite or its roots overflow")
        sign = _sign(cur)
        pattern[live, k] = sign
        fl += sign * last < 0
        last = np.where(sign, sign, last)
        # | |c| - 1 | is |c - 1| for c >= 0 and |c + 1| for c < 0, rounding included
        settled = np.abs(np.abs(cur) - 1) <= settle_tol
        done = settled | (cur == prev)
        if not np.count_nonzero(done):
            continue
        flips[live[done]] = fl[done]
        up = abs(cur[settled] - 1) <= settle_tol  # +1 is tested first
        settle_step[live[settled]] = k
        limit[live[settled]] = np.where(up, 1, -1)
        fixed = done & ~settled  # an exact fixed point repeats its sign
        pattern[live[fixed], k + 1:] = sign[fixed, None]
        keep = ~done
        live, cur, last, fl = live[keep], cur[keep], last[keep], fl[keep]
    flips[live] = fl
    if np.ndim(r) == 0:
        steps = settle_step[0] if settle_step[0] >= 0 else max_steps
        return ClassificationResult(float(r), tuple(pattern[0, :steps + 1].tolist()),
                                    None if settle_step[0] < 0 else int(settle_step[0]),
                                    int(limit[0]), int(flips[0]))
    return ClassificationResult(r0, pattern, settle_step, limit, flips)


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


def _chain_gains(kind, states, k: ModeIndex, p: ACParams) -> PerturbationGain:
    """Running products of -slope(fwd at x) / slope(bwd at u) down the links.

    states holds the constants the walk passes, from the result to the start;
    link i joins x = states[i] to u = states[i + 1], and slopes are
    mode_slope's on mode k.  A vanishing bwd slope is a pole: from it on
    every gain is nan.
    """
    m = k.laplace_eigenvalue
    links = _backward_links(kind, p)
    gains: list[float] = []
    for (fwd, bwd), x, u in zip(links, states[:-1], states[1:], strict=True):
        terms = bwd(x, 0.0)
        den = mode_slope(p, *terms)(u, m)
        if abs(den) <= 1e-13 * max(abs(terms[0]), abs(den - terms[0])):
            gains += [math.nan] * (len(links) - len(gains))
            return PerturbationGain(kind, states[0], states[-1], k, tuple(gains), True)
        gains.append((gains[-1] if gains else 1.0) * -mode_slope(p, *fwd(u))(x, m) / den)
    return PerturbationGain(kind, states[0], states[-1], k, tuple(gains))


def perturbation_gain(
    kind: SchemeKind, c: float, r: float, k: ModeIndex, p: ACParams
) -> PerturbationGain:
    """Gain B of the preimage branch through r for target c + delta*mode(k)."""
    if kind.tag not in ("cn", "modcn"):
        raise ConfigurationError(
            "single gain defined for the trapezoid schemes; use dirk_perturbation_gains"
        )
    return _chain_gains(kind, (c, r), k, p)


def dirk_perturbation_gains(
    c2: float, c1: float, k: ModeIndex, p: ACParams, kind: SchemeKind | None = None
) -> PerturbationGain:
    """Stage gains (B2, B1, B0) of a two-stage DIRK scheme (default DIRK2).

    c2 and c1 are the constant stage states of the branch (outer combination
    stage and inner stage), e.g. taken from a preimage chain.  The walk's
    first fwd and last bwd sides are explicit (b = 0, slope +-1), so c and r
    need not be known: c2 and c1 stand in for them.
    """
    return _chain_gains(kind or DIRK2, (c2, c2, c1, c1), k, p)


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
    delta = hcfg.delta_end, and the scheme's backward links are walked from
    it under continuation from delta_start up to the full perturbation.
    The seed (typically r + delta * B * mode, with r a constant preimage and
    B its gain) starts the earliest unknown; DIRK's intermediate stages
    start from the constant preimage chain whose r is nearest the seed's
    mean.  Backward Euler's one link is explicit, so no Newton solve runs.

    Returns the preimage and the final NewtonReport; a failed continuation
    reports converged=False with report.delta the last good amplitude and a
    message naming the backward link that failed, and returns the last good
    iterate (the seed if none).
    """
    ncfg = ncfg or NewtonConfig()
    grid = phi_next.grid
    lap = laplacian_matrix(grid)
    links = _backward_links(kind, p)
    c = field_mean(phi_next)
    if hcfg.delta_end != 0.0:
        shape = (phi_next.values - c) / hcfg.delta_end
    else:
        shape = np.zeros(grid.num_nodes)
    starts = [seed.values]
    if len(links) > 1:
        r_seed = field_mean(seed)
        chain = min(preimage_constants(kind, c, p).chains, key=lambda ch: abs(ch[0] - r_seed))
        starts = [np.full(grid.num_nodes, x) for x in reversed(chain[1:])] + starts

    def solve_at(delta, state):
        x = c + delta * shape
        walked, report = [], NewtonReport(0, 0.0, True, (0.0,))  # kept if every link is explicit
        for i, ((_fwd, bwd), start) in enumerate(zip(links, state or starts), start=1):
            terms = bwd(x, lap @ x)
            if terms[2] == 0.0:
                x = _explicit(*terms)
            else:
                x, report = newton_solve(*implicit_system(grid, p, *terms), start, ncfg)
                if not report.converged:
                    return state, replace(report, message=(
                        f"backward link {i} of {len(links)} did not converge "
                        f"({report.message}, residual {report.residual:.3g})"))
            walked.append(x)
        return walked, report

    state, report = march_deltas(solve_at, delta_schedule(hcfg), hcfg.adaptive)
    return ScalarField(grid, seed.values if state is None else state[-1]), report
