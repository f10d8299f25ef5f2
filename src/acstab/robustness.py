"""Backward-in-time analysis: how many initial states produce a given step?

Restricted to constant states, one implicit step is a polynomial relation
between the previous value r and the next value c, so the preimages of c
are roots of a cubic (or, for a DIRK scheme, of a short chain of cubics
solved backward through the stages).  The magnitudes r_1 < r_2 <
... at which the preimage count of the steady states changes split the real
line into intervals on which the computed trajectory from a constant
initial state settles at +1 or -1 in an alternating pattern.  Each family
starts at a positive constant preimage of 0 and continues through unique
preimages; DIRK2 has two such preimages of 0, so a second family
s_1 < s_2 < ... interleaves the first.

Every backward computation walks one description of the step read
backward, ``_backward_links``: a chain of links from the result back to
the start, each one equation between a later state x and an earlier state
u, given as ``schemes.implicit_system`` terms in either side.  A tableau's
links, c -> phi_s -> ... -> phi_1 -> r without the identities, are one
implicit link for CN, one explicit for backward Euler and three for DIRK2
(the last explicit); MODCN has one implicit link of its own.  On
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
from functools import lru_cache

import numpy as np

from .errors import AnalysisError, ConfigurationError, _check_count
from .fields import ACParams, ModeIndex, ScalarField, _minus_force, field_mean, laplacian_matrix
from .schemes import _SETTLE_TOL, DIRK2, MERGE_TOL, SchemeKind, _forward_stages, _no_lap
from .schemes import _selected_images, _sign, constant_cubic, implicit_system, mode_slope
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
from .stability import _ratio_dt

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

    chains pairs each root with its stage history, earliest first, a state
    per backward link: (r,) for be, cn and modcn, (r, phi_1, phi_2) for
    DIRK2; cubics[i] is the last cubic chain i was solved from (none for
    backward Euler, whose one link is explicit).  The chains are sorted by
    r, and chains whose r lies within MERGE_TOL of the previous kept one (a
    multiple root) are listed once.
    """

    scheme: SchemeKind
    c: float
    roots: tuple[float, ...]
    cubics: tuple[CubicRoots, ...]
    chains: tuple[tuple[float, ...], ...]


@lru_cache(maxsize=64)
def _backward_links(kind: SchemeKind, p: ACParams):
    """One step read backward: links (fwd, bwd) from the result to the start.

    A link is one equation between a later state x and an earlier state u,
    divided by dt as the stages are.  bwd(x, lap_x) gives its implicit_system
    terms in u (lap_x = Lap(x), 0.0 on constants), fwd(u) its terms in x on
    constants; a bwd with b = 0 is explicit, u = s - k / a.  A tableau takes
    phi_0 = r and b as a last, explicit stage phi_{s+1} = c; link i, from c
    down to r, is stage equation i minus stage equation i - 1 (which needs
    a_ij = a_{i-1,j} for every j < i - 1), unless both coefficients vanish:
    phi_i - dt a_ii F(phi_i) = phi_{i-1} + dt (a_{i,i-1} - a_{i-1,i-1}) F(phi_{i-1}).
    """
    idt = 1.0 / p.dt
    if kind.tag == "modcn":  # forward its one stage; backward the explicit -u/eps^2 joins the shift
        (stage,), _, _ = _forward_stages(kind, p)
        return ((lambda u: stage(u, [], _no_lap),
                 lambda x, lap_x: (-idt - 1.0 / p.eps2, 0.0, 0.5, idt * x - 0.5 * lap_x, x)),)
    # rows i = 0 (r), 1..s (the stages), s + 1 (c): rows[i][j] = a_ij for 1-based j, a_i0 = 0
    tab = kind._rk
    rows = ((0.0,), *((0.0, *row) for row in tab.a), (0.0, *tab.b, 0.0))
    if any(rows[i][:i - 1] != rows[i - 1][:i - 1] for i in range(2, len(rows))):
        raise ConfigurationError(
            "tableau is not readable backward: it needs a_ij = a_(i-1)j for j < i - 1")
    pairs = ((rows[i][i], rows[i][i - 1] - rows[i - 1][i - 1]) for i in range(len(rows) - 1, 0, -1))
    return tuple(_rk_link(d, g, idt, p) for d, g in pairs if d or g)


def _explicit(a, s, b, k=0.0, partner=None):
    """u solving a (u - s) + k = 0: a link whose bwd terms have b = 0, as
    backward Euler's one link and DIRK2's last."""
    return s - k / a


def _rk_link(d: float, g: float, idt: float, p: ACParams):
    """(fwd, bwd) of (x - u) / dt = d F(x) + g F(u); no G where its factor is 0 (0 * inf is NaN)."""
    return (lambda u: (idt, u, d, g * _minus_force(0.0, u, p) if g else 0.0),
            lambda x, lap_x: (-idt, x, g, d * _minus_force(lap_x, x, p) if d else 0.0))


def preimage_constants(kind: SchemeKind, c: float, p: ACParams) -> PreimageSet:
    """All constant preimages of the constant next state c under one step.

    Walks the scheme's backward links from c: an explicit link maps each
    chain to one earlier state, an implicit one to every real root of its
    cubic.  Backward Euler thus has one preimage, always; the trapezoid
    schemes solve one cubic and DIRK the stage chain's cubics.
    """
    walks: list[tuple[tuple[float, ...], CubicRoots | None]] = [((c,), None)]
    for _fwd, bwd in _backward_links(kind, p):
        grown = []
        for walk, cub in walks:
            terms = bwd(walk[-1], 0.0)
            if terms[2] == 0.0:
                grown.append((walk + (_explicit(*terms),), cub))
                continue
            cub = real_cubic_roots(*constant_cubic(p, *terms))
            grown += [(walk + (u,), cub) for u in cub.real_roots]
        walks = grown
    chains, cubics = [], []
    for walk, cub in sorted(walks, key=lambda wc: wc[0][-1]):
        if not chains or abs(walk[-1] - chains[-1][0]) > MERGE_TOL:
            chains.append(tuple(reversed(walk[1:])))
            cubics += [cub] if cub else []  # no cubic where every link is explicit
    return PreimageSet(kind, c, tuple(ch[0] for ch in chains), tuple(cubics), tuple(chains))


def _chain_through(kind: SchemeKind, c: float, r: float, p: ACParams) -> tuple[float, ...]:
    """The chain of preimage_constants(kind, c, p) whose root is nearest r, the first on ties."""
    return min(preimage_constants(kind, c, p).chains, key=lambda ch: abs(ch[0] - r))


@dataclass(frozen=True)
class IntervalSequence:
    """Threshold magnitudes splitting constant initial states by their limit.

    entries is ascending: (r_1, ..., r_count) for one family, as for the
    trapezoid schemes, and (r_1, s_1, ..., r_count, s_count) interleaved for
    two, as for DIRK2.  ratio is dt over the scheme's uniqueness threshold (see
    stability._ratio_dt); the sequence depends on eps and dt only through it.
    """

    scheme: SchemeKind
    ratio: float
    entries: tuple[float, ...]


def interval_sequence(kind: SchemeKind, ratio: float, count: int) -> IntervalSequence:
    """First `count` threshold magnitudes per family at the given ratio.

    The step is taken at eps = 1 and dt = stability._ratio_dt(kind, ratio).
    There is one family per implicit backward link (none for backward Euler,
    a ConfigurationError), each starting at a positive constant preimage of
    0; each later entry is the magnitude of the unique real preimage of its
    predecessor.  An AnalysisError is raised where the families are not
    defined: another number of positive preimages of 0, a preimage that is
    not unique, or families that fail to interleave.
    """
    p = ACParams(eps=1.0, dt=_ratio_dt(kind, ratio))
    _check_count("count", count, 1)
    families = sum(bwd(0.0, 0.0)[2] != 0.0 for _fwd, bwd in _backward_links(kind, p))
    if not families:
        raise ConfigurationError(f"{kind.label} has a unique preimage everywhere; no sequence")
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
    """Limits of the trajectories from a 1-D array of constant initial states.

    Every field has one entry per state.  pattern, of shape (states,
    max_steps + 1), records sign(c_k) from c_0 = initial (0 within 1e-9 of 0)
    up to the state's settle step and 0 after it; settle_step is the first
    step with |c_k - limit| <= schemes._SETTLE_TOL for a limit of +1 or -1,
    or -1 and limit 0 where max_steps ran out first; flips counts the sign
    changes along pattern, zeros skipped.
    """

    initial: np.ndarray
    pattern: np.ndarray
    settle_step: np.ndarray
    limit: np.ndarray
    flips: np.ndarray


def classify_constant_initial(
    kind: SchemeKind,
    r: np.ndarray,
    p: ACParams,
    max_steps: int = 400,
) -> ClassificationResult:
    """Iterate the selected scalar branch from each constant in the 1-D array r.

    The array is iterated as a whole, one selected-chain step
    (schemes._selected_images) per time step for the states still moving.
    Each image is the field stepper's own: the one scalar_map marks
    selected, unless scalar_map merged it into a smaller image within
    MERGE_TOL.  A state stops once it settles; an unsettled exact fixed point
    (the image equals the value it came from) repeats at every later step,
    so its pattern is completed without further maps.  Raises
    ConfigurationError when r is not a 1-D array, and AnalysisError naming
    the initial state and the step when an image is not finite: its cubic
    coefficients are not finite, or its closed-form roots overflow.
    """
    _check_count("max_steps", max_steps, 1)
    if np.ndim(r) != 1:
        raise ConfigurationError("initial states must be a 1-D array")
    r0 = np.array(r, dtype=float)
    n = r0.size
    pattern = np.zeros((n, max_steps + 1), dtype=np.int8, order="F")  # step k writes column k
    pattern[:, 0] = _sign(r0)
    settle_step, limit, flips = np.full(n, -1), np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    # per state still moving: its index, value, last nonzero sign and flips so far
    live, cur, last, fl = np.arange(n), r0, pattern[:, 0].astype(int), np.zeros(n, dtype=int)
    for k in range(1, max_steps + 1):
        if not live.size:
            break
        prev, cur = cur, _selected_images(kind, cur, p)[0]
        finite = np.isfinite(cur)
        if np.count_nonzero(finite) < finite.size:
            raise AnalysisError(f"r = {r0[live[~finite][0]]:.9g} has no finite image at step {k}: "
                                "its cubic coefficients are not finite or its roots overflow")
        sign = _sign(cur)
        pattern[live, k] = sign
        fl += sign * last < 0
        last = np.where(sign, sign, last)
        # | |c| - 1 | is |c - 1| for c >= 0 and |c + 1| for c < 0, rounding included
        settled = np.abs(np.abs(cur) - 1) <= _SETTLE_TOL
        done = settled | (cur == prev)
        if not np.count_nonzero(done):
            continue
        flips[live[done]] = fl[done]
        up = abs(cur[settled] - 1) <= _SETTLE_TOL  # +1 is tested first
        settle_step[live[settled]] = k
        limit[live[settled]] = np.where(up, 1, -1)
        fixed = done & ~settled  # an exact fixed point repeats its sign
        pattern[live[fixed], k + 1:] = sign[fixed, None]
        keep = ~done
        live, cur, last, fl = live[keep], cur[keep], last[keep], fl[keep]
    flips[live] = fl
    return ClassificationResult(r0, pattern, settle_step, limit, flips)


@dataclass(frozen=True)
class PerturbationGain:
    """First-order response of a preimage branch to a target-mode perturbation.

    Perturbing the target c by delta * mode moves the preimage branch
    through the constant r by delta * gain[-1] * mode to first order.  gain
    has one entry per backward link, from the result to the start: (B,) for
    CN and MODCN, (B_2, B_1, B_0) for DIRK2.  c is the
    target and r the branch's root, except from dirk_perturbation_gains:
    its stage constants (c2, c1).  pole means the linearization is singular.
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
    every gain is nan.  Raises ConfigurationError for a state that is not finite.
    """
    if not all(map(math.isfinite, states)):
        raise ConfigurationError(f"constant states must be finite, got {states}")
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
    """Gains of the preimage branch through r for target c + delta*mode(k).

    With several backward links (DIRK) the branch is the chain of
    preimage_constants(kind, c, p) whose root is nearest r, the first on
    ties, and the result's r is that root.  No implicit backward link
    (backward Euler, or a chain of its steps) and a c or r that is not
    finite raise ConfigurationError.
    """
    links = _backward_links(kind, p)
    if not any(bwd(0.0, 0.0)[2] for _fwd, bwd in links):  # each link a BE step x - dt d F(x) = u
        raise ConfigurationError("backward Euler has no implicit backward link, so no gain")
    states = (c, r)
    if len(links) > 1 and all(map(math.isfinite, states)):  # _chain_gains rejects the rest
        states = (c, *reversed(_chain_through(kind, c, r, p)))
    return _chain_gains(kind, states, k, p)


def dirk_perturbation_gains(c2: float, c1: float, k: ModeIndex, p: ACParams) -> PerturbationGain:
    """Stage gains (B2, B1, B0) of DIRK2 from its stage constants alone.

    c2 and c1 are the constant stage states of the branch (outer combination
    stage and inner stage), e.g. taken from a preimage chain.  The walk's
    first fwd and last bwd sides are explicit (b = 0, slope +-1/dt), so c2 and
    c1 can stand in for c and r: the gains are perturbation_gain's, bit for bit.
    """
    return _chain_gains(DIRK2, (c2, c2, c1, c1), k, p)


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
    it under continuation from delta_start up to the full perturbation
    (march_deltas), each point's links started from the path extrapolated
    to it on 1D grids and from the last converged point on 2D grids.
    The seed (typically r + delta * B * mode, with r a constant preimage and
    B its gain) starts the earliest unknown; DIRK's intermediate stages
    start from the constant preimage chain whose r is nearest the seed's
    mean.  Backward Euler's one link is explicit, so no Newton solve runs.

    Returns the preimage and the final NewtonReport; a failed continuation
    reports converged=False with report.delta the last good amplitude and a
    message naming the backward link that failed, and returns the last good
    iterate (the seed if none).
    """
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
        chain = _chain_through(kind, c, field_mean(seed), p)
        starts = [np.full(grid.num_nodes, x) for x in reversed(chain[1:])] + starts
    starts = np.vstack(starts)  # a state has one row per link: the earlier state it solves for

    def solve_at(delta, state):
        x = c + delta * shape
        walked, report = [], NewtonReport(0, 0.0, True, (0.0,))  # kept if every link is explicit
        rows = starts if state is None else state
        for i, ((_fwd, bwd), start) in enumerate(zip(links, rows), start=1):
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
        return np.array(walked), report

    # predicted starts on 1D grids only: on 2D grids extrapolation follows a
    # branch into folds that warm starts jump across, and each failed attempt
    # there costs Krylov misses and sparse LU
    state, report = march_deltas(solve_at, delta_schedule(hcfg), grid.dim == 1)
    return ScalarField(grid, seed.values if state is None else state[-1]), report
