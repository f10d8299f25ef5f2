import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from acstab import cli, reference
import acstab.robustness as robustness
import acstab.solvers as solvers
from acstab.errors import AnalysisError, ConfigurationError
from acstab.fields import (
    ACParams,
    ButcherTableau,
    ModeIndex,
    ScalarField,
    _minus_force,
    eval_mode,
    field_mean,
    laplacian_matrix,
    make_grid,
    trapezoid_weights,
)
from acstab.robustness import (
    _backward_links,
    classify_constant_initial,
    dirk_perturbation_gains,
    interval_sequence,
    perturbation_gain,
    preimage_constants,
    preimage_field,
)
from acstab.schemes import (
    BE,
    CN,
    DIRK2,
    MERGE_TOL,
    MODCN,
    SchemeKind,
    implicit_system,
    scalar_map,
    step,
)
from acstab.solvers import HomotopyConfig, NewtonConfig, fd_jacobian
from acstab.stability import stability_threshold

SQ3 = math.sqrt(3.0)


def _close(got, want, tol=1e-3):
    return abs(got - want) <= tol * max(1.0, abs(want))


# a backward-triangular tableau other than DIRK2's (a11 != a22, alpha != beta)
_DIRK_ODD = SchemeKind("dirk", ButcherTableau(((0.3, 0.0), (0.5, 0.2)), (0.5, 0.5)))
# Alexander's L-stable, stiffly accurate SDIRK2: b2 = a22, so the link c -> phi_2 is the identity
_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
_SDIRK2 = SchemeKind("dirk", ButcherTableau(((_GAMMA, 0.0), (1.0 - _GAMMA, _GAMMA)),
                                            (1.0 - _GAMMA, _GAMMA)))
# a three-stage tableau that reads backward (a_31 = a_21)
_DIRK3 = SchemeKind("dirk", ButcherTableau(((0.5, 0, 0), (0.25, 0.5, 0), (0.25, 0.25, 0.5)),
                                           (0.25, 0.25, 0.5)))


# ---------------------------------------------------------------------------
# threshold magnitude tables


@pytest.mark.parametrize("ratio", reference.RATIOS)
def test_trapezoid_table(ratio):
    entries = interval_sequence(CN, ratio, 4).entries
    for got, want in zip(entries, reference.TABLE1[ratio]):
        assert _close(got, want)


@pytest.mark.parametrize("ratio", reference.RATIOS)
def test_modified_trapezoid_table(ratio):
    entries = interval_sequence(MODCN, ratio, 4).entries
    for got, want in zip(entries, reference.TABLE2[ratio]):
        assert _close(got, want)


@pytest.mark.parametrize("ratio", reference.RATIOS)
def test_dirk_table(ratio):
    seq = interval_sequence(DIRK2, ratio, 4)
    assert len(seq.entries) == 8
    for got, want in zip(seq.entries, reference.TABLE3[ratio]):
        assert _close(got, want)
    # r and s families interleave strictly
    assert all(a < b for a, b in zip(seq.entries, seq.entries[1:]))
    # named as table3 and analyze intervals name them: r_i at the even
    # positions, s_i at the odd
    named = dict(zip(cli._entry_names(DIRK2, 4), seq.entries))
    assert [named[f"r{i}"] for i in range(1, 5)] == list(seq.entries[0::2])
    assert [named[f"s{i}"] for i in range(1, 5)] == list(seq.entries[1::2])


def test_closed_forms_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        eps = rng.uniform(0.05, 1.5)
        e2 = eps * eps
        dt = rng.uniform(0.01, 1.2) * e2
        r1_cn = interval_sequence(CN, dt / (2 * e2), 1).entries[0]
        assert r1_cn == pytest.approx(math.sqrt(1 + 2 * e2 / dt), rel=1e-12)
        r1_mod = interval_sequence(MODCN, dt / (2 * e2), 1).entries[0]
        assert r1_mod == pytest.approx(2 * math.sqrt(1 + e2 / dt), rel=1e-12)
        ratio = dt / (4 * e2)
        r1, s1 = interval_sequence(DIRK2, ratio, 1).entries
        assert r1 == pytest.approx(2 * math.sqrt(1 + 4 * e2 / dt), rel=1e-12)
        # s1 solves the shifted odd cubic tied to r1
        u = (r1 - s1) / 2
        resid = (r1 + s1) / 2 + ratio * (u**3 - u)
        assert abs(resid) <= 1e-12 * max(1.0, abs(r1 + s1))


@pytest.mark.parametrize(
    "kind", (CN, MODCN, DIRK2, _DIRK_ODD), ids=("cn", "modcn", "dirk2", "dirk-odd")
)
@pytest.mark.parametrize("ratio", (0.01, 0.1, 0.25, 0.5))
def test_interval_entries_map_to_zero_then_onto_their_predecessors(kind, ratio):
    # each family's first entry is a constant the step maps to 0; each later
    # entry one it maps to +- the entry before (eps = 1, dt from the ratio)
    seq = interval_sequence(kind, ratio, 4)
    dt = ratio / kind.tableau.max_diag if kind.tag == "dirk" else 2.0 * ratio
    p = ACParams(1.0, dt)
    families = (seq.entries[0::2], seq.entries[1::2]) if kind.tag == "dirk" else (seq.entries,)
    for family in families:
        assert len(family) == 4
        for x, target in zip(family, (0.0, *family[:-1])):
            images = [c for c, _selected in scalar_map(kind, x, p)]
            assert min(abs(abs(c) - target) for c in images) <= 1e-12 * max(1.0, abs(x))


def test_interval_sequence_of_another_dirk_tableau():
    # this tableau's own positive preimages of 0, not DIRK2's r_1 = 6.633 at
    # ratio 0.1; ratio = dt max a_ii / eps^2, so 0.1 is dt = 1/3 and 0.12 is dt = 0.4
    r1, s1 = interval_sequence(_DIRK_ODD, 0.1, 1).entries
    assert r1 == pytest.approx(10.0, rel=1e-12) and s1 == pytest.approx(22.1914, rel=1e-5)
    r1, s1 = interval_sequence(_DIRK_ODD, 0.12, 1).entries
    assert r1 == pytest.approx(9.18559, rel=1e-5) and s1 == pytest.approx(20.3817, rel=1e-5)


@pytest.mark.parametrize("kind", (BE, CN, DIRK2, _DIRK_ODD), ids=("be", "cn", "dirk2", "dirk-odd"))
def test_ratio_one_is_the_uniqueness_threshold(kind):
    for eps in (0.1, 0.3, 1.0):
        dt_max = stability_threshold(kind, eps).dt_max
        assert robustness._ratio_dt(kind, 1.0, eps) == pytest.approx(dt_max, rel=1e-15)
        # MODCN, unique at every dt, is measured against CN's threshold
        assert robustness._ratio_dt(MODCN, 0.5, eps) == robustness._ratio_dt(CN, 0.5, eps)


def test_interval_sequence_undefined_family_raises():
    # at DIRK2 ratio 5 the step has more than two positive constant preimages of 0
    with pytest.raises(AnalysisError, match="not defined"):
        interval_sequence(DIRK2, 5.0, 1)


def test_interval_sequence_validation():
    with pytest.raises(ConfigurationError):
        interval_sequence(BE, 0.5, 2)
    with pytest.raises(ConfigurationError):
        interval_sequence(CN, 0.0, 2)
    with pytest.raises(ConfigurationError):
        interval_sequence(CN, math.inf, 2)
    with pytest.raises(ConfigurationError):
        interval_sequence(CN, 0.5, 0)


def test_successive_entries_are_preimages():
    # each entry is the magnitude of the unique constant preimage of the one
    # before it (eps = dt = 1 gives the trapezoid ratio 0.5)
    p = ACParams(1.0, 1.0)
    entries = interval_sequence(CN, 0.5, 4).entries
    for prev, nxt in zip(entries, entries[1:]):
        ps = preimage_constants(CN, prev, p)
        assert len(ps.roots) == 1
        assert abs(abs(ps.roots[0]) - nxt) <= 1e-9
    p_mod = ACParams(1.0, 1.0)
    entries = interval_sequence(MODCN, 0.5, 3).entries
    for prev, nxt in zip(entries, entries[1:]):
        ps = preimage_constants(MODCN, prev, p_mod)
        assert len(ps.roots) == 1
        assert abs(abs(ps.roots[0]) - nxt) <= 1e-9


# ---------------------------------------------------------------------------
# constant preimages


def test_preimage_backward_euler_explicit():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.uniform(-3, 3)
        p = ACParams(rng.uniform(0.05, 1.0), rng.uniform(1e-3, 1.0))
        ps = preimage_constants(BE, c, p)
        # the link's terms in r, (-1/dt, c, 0, G(c)), solved explicitly: r = c - G(c) / (-1/dt)
        assert ps.roots == (c - (1.0 / p.eps2) * (c * c * c - c) / -(1.0 / p.dt),)


def test_preimage_trapezoid_examples():
    p = ACParams(1.0, 1.0)  # ratio 0.5
    ps = preimage_constants(CN, 0.0, p)
    assert len(ps.roots) == 3
    for got, want in zip(ps.roots, (-SQ3, 0.0, SQ3)):
        assert abs(got - want) <= 1e-9
    assert ps.cubics[0].discriminant_sign == 1
    # the double root 1 is listed once; the cubic keeps its multiplicity
    ps1 = preimage_constants(CN, 1.0, p)
    assert len(ps1.roots) == 2 and ps1.chains == tuple((r,) for r in ps1.roots)
    for got, want in zip(ps1.roots, (-2.0, 1.0)):
        assert abs(got - want) <= 1e-9
    assert ps1.cubics[0].discriminant_sign == 0
    assert ps1.cubics[0].real_roots == (ps1.roots[0], ps1.roots[1], ps1.roots[1])


def test_preimage_cubics_follow_their_chains():
    # cubics[i] is the cubic chain i's innermost implicit link was solved from
    p = ACParams(0.1, 0.01)
    ps = preimage_constants(DIRK2, 0.5, p)
    assert [cub.discriminant_sign for cub in ps.cubics] == [-1, 1, 1, 1, -1]
    assert all(chain[1] in cub.real_roots for chain, cub in zip(ps.chains, ps.cubics, strict=True))
    (cub,) = set(preimage_constants(CN, 0.5, p).cubics)
    assert len(cub.real_roots) == 3
    assert preimage_constants(BE, 0.5, p).cubics == ()


def test_preimage_dirk_examples():
    ps = preimage_constants(DIRK2, 0.0, ACParams(1.0, 2.0))  # ratio 0.5
    want = (-8.306257778964246, -2 * SQ3, 0.0, 2 * SQ3, 8.306257778964246)
    assert len(ps.roots) == 5
    for got, w in zip(ps.roots, want):
        assert abs(got - w) <= 1e-8
    # far targets have a single preimage, delivered with its stage chain
    ps7 = preimage_constants(DIRK2, -7.0, ACParams(0.1, 0.01))
    assert len(ps7.roots) == 1
    assert ps7.roots[0] == pytest.approx(-22.70664935808294, rel=1e-12)
    (chain,) = ps7.chains
    assert chain[0] == ps7.roots[0]
    assert chain[1] == pytest.approx(-4.272807921335216, rel=1e-9)
    assert chain[2] == pytest.approx(3.5805167577062598, rel=1e-9)


def test_preimage_roots_map_forward():
    rng = np.random.default_rng(47)
    kinds = (BE, CN, MODCN, DIRK2)
    for i in range(50):
        kind = kinds[i % 4]
        eps = rng.uniform(0.05, 0.8)
        cap = 4.0 * eps * eps if kind.tag == "modcn" else None
        from acstab.stability import stability_threshold

        dt_max = stability_threshold(kind, eps).dt_max
        dt = rng.uniform(0.1, 0.95) * (cap if cap is not None else dt_max)
        p = ACParams(eps, dt)
        c = rng.uniform(-2, 2)
        for root in preimage_constants(kind, c, p).roots:
            images = [img for img, _sel in scalar_map(kind, float(root), p)]
            assert min(abs(img - c) for img in images) <= 1e-8


def _forward_sides(kind, c, chain, p):
    """The forward step equations a preimage chain must satisfy, as pairs of
    term lists (lhs, rhs), written from the schemes' definitions."""
    dt = p.dt

    def f(v):
        return -_minus_force(0.0, v, p)

    if kind.tag == "dirk":
        (a11, _), (a21, a22) = kind.tableau.a
        b1, b2 = kind.tableau.b
        r, x1, x2 = (*chain, c)[:3]  # a stiffly accurate chain ends at phi_1: phi_2 is c
        return (
            ([x1, -dt * a11 * f(x1)], [r]),
            ([x2, -dt * a22 * f(x2)], [r, dt * a21 * f(x1)]),
            ([c], [r, dt * b1 * f(x1), dt * b2 * f(x2)]),
        )
    (r,) = chain
    if kind.tag == "be":
        return (([c, -dt * f(c)], [r]),)
    if kind.tag == "cn":
        return (([c, -0.5 * dt * f(c)], [r, 0.5 * dt * f(r)]),)
    # modcn: (c - r) / dt = -((c + r)(c^2 + r^2) / 4 - r) / eps^2
    return (([c, dt * (c + r) * (c * c + r * r) / (4.0 * p.eps2)], [r, dt * r / p.eps2]),)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((BE, CN, MODCN, DIRK2, _DIRK_ODD, _SDIRK2)),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(0.05, 1.0),
    st.floats(1e-3, 2.0),
)
def test_preimage_chains_satisfy_the_forward_step(kind, c, eps, dt):
    p = ACParams(eps, dt)
    ps = preimage_constants(kind, c, p)
    assert ps.chains and ps.roots == tuple(ch[0] for ch in ps.chains)
    assert all(b - a > MERGE_TOL for a, b in zip(ps.roots, ps.roots[1:]))
    for chain in ps.chains:
        for lhs, rhs in _forward_sides(kind, c, chain, p):
            # relative to the terms, or to 1 where they are all tiny: the
            # cubics' roots are accurate to their own O(1) scale
            scale = max(1.0, sum(abs(t) for t in lhs + rhs))
            assert abs(sum(lhs) - sum(rhs)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "kind", (BE, CN, MODCN, DIRK2, _DIRK_ODD, _SDIRK2),
    ids=("be", "cn", "modcn", "dirk2", "dirk-odd", "sdirk2")
)
def test_backward_link_sides_are_one_equation(kind):
    # fwd(u) at x and bwd(x) at u are the same residual, so slope ratios of
    # the two sides are gains of one equation
    rng = np.random.default_rng(59)
    p = ACParams(0.3, 0.05)
    for _ in range(20):
        x, u = rng.uniform(-3, 3, 2)
        for fwd, bwd in _backward_links(kind, p):
            in_x = implicit_system(None, p, *fwd(u))[0](x)
            in_u = implicit_system(None, p, *bwd(x, 0.0))[0](u)
            assert in_x == pytest.approx(in_u, rel=1e-12, abs=1e-12)


def test_backward_links_reject_unreadable_tableaux():
    p = ACParams(0.3, 0.05)
    a31_not_a21 = ButcherTableau(((0.5, 0, 0), (0.25, 0.5, 0), (0.3, 0.25, 0.5)),
                                 (0.3, 0.25, 0.45))
    b1_not_a21 = ButcherTableau(((0.25, 0.0), (0.5, 0.25)), (0.4, 0.6))
    for tab in (a31_not_a21, b1_not_a21):
        with pytest.raises(ConfigurationError, match="not readable backward"):
            preimage_constants(SchemeKind("dirk", tab), 0.5, p)


@st.composite
def readable_tableaux(draw):
    """A DIRK scheme of 2 or 3 stages whose tableau _backward_links reads.

    Diagonal entries are drawn in [0.1, 1], and so is each subdiagonal entry
    a_(i,i-1) (b_s for the last row, b), unless it is drawn equal to
    a_(i-1,i-1), which makes its link explicit; every other entry is set by
    the condition a_ij = a_(i-1)j for j < i - 1.
    """
    s = draw(st.sampled_from((2, 3)))
    rows = [[0.0] * s for _ in range(s + 1)]  # the stages, then b
    for i in range(s + 1):
        if i < s:
            rows[i][i] = draw(st.floats(0.1, 1.0))
        if i:
            rows[i][:i - 1] = rows[i - 1][:i - 1]
            rows[i][i - 1] = draw(st.just(rows[i - 1][i - 1]) | st.floats(0.1, 1.0))
    return SchemeKind("dirk", ButcherTableau(rows[:s], rows[s]))


@settings(max_examples=150, deadline=None)
@given(readable_tableaux(), st.floats(-3.0, 3.0), st.floats(0.05, 1.0), st.floats(0.01, 0.9),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_links_read_off_a_tableau_are_its_step(kind, c, eps, ratio, x, u):
    # each link's two sides are one equation, and every preimage chain maps
    # forward onto c, within rounding of the largest state along it; below
    # ratio 1 each forward stage has one well-conditioned root (at ratio 1 a
    # stage cubic can have a triple root, whose image is good to 1e-5 only).
    # Consecutive explicit links compose cubics, so a chain may reach 1e200,
    # where the forward step's cubes overflow: those chains are not mapped.
    p = ACParams(eps, robustness._ratio_dt(kind, ratio, eps))
    links = _backward_links(kind, p)
    # the link from c is the identity, dropped, where b_s = a_ss
    assert len(links) == kind.tableau.stages + (kind.tableau.b[-1] != kind.tableau.a[-1][-1])
    for fwd, bwd in links:
        in_x = implicit_system(None, p, *fwd(u))[0](x)
        in_u = implicit_system(None, p, *bwd(x, 0.0))[0](u)
        assert in_x == pytest.approx(in_u, rel=1e-12, abs=1e-12)
    for chain in preimage_constants(kind, c, p).chains:
        scale = max(1.0, *map(abs, chain))
        if scale < 1e100:
            images = [img for img, _selected in scalar_map(kind, chain[0], p)]
            assert min(abs(img - c) for img in images) <= 1e-12 * scale


def test_dirk_links_skip_f_where_its_factor_is_zero():
    # F(1e120) overflows to -inf, and 0 * inf would make a link's state NaN
    p = ACParams(0.1, 0.01)
    (_, c_bwd), _, (r_fwd, _) = _backward_links(DIRK2, p)
    assert c_bwd(1e120, 0.0)[1] == 1e120 and r_fwd(1e120)[1] == 1e120
    (chain,) = preimage_constants(DIRK2, 1e120, p).chains
    assert all(map(math.isfinite, chain))


@pytest.mark.parametrize("ratio", (0.01, 0.1, 0.5))
def test_sdirk2_has_one_threshold_family(ratio):
    # one implicit link (the identity c -> phi_2 is explicit), so one family:
    # its first entry maps to 0, each later one onto +- the entry before
    seq = interval_sequence(_SDIRK2, ratio, 3)
    p = ACParams(1.0, robustness._ratio_dt(_SDIRK2, ratio))
    assert len(seq.entries) == 3
    for x, target in zip(seq.entries, (0.0, *seq.entries[:-1])):
        images = [c for c, _selected in scalar_map(_SDIRK2, x, p)]
        assert min(abs(abs(c) - target) for c in images) <= 1e-12 * max(1.0, x)
    if ratio == 0.1:
        assert seq.entries == pytest.approx((4.850, 20.32, 637.6), rel=1e-3)


def test_sdirk2_classify_flips_across_each_threshold():
    p = ACParams(1.0, robustness._ratio_dt(_SDIRK2, 0.1))
    for x in interval_sequence(_SDIRK2, 0.1, 3).entries:
        below, above = classify_constant_initial(_SDIRK2, x * np.array([1 - 1e-7, 1 + 1e-7]), p).limit
        assert below * above == -1


def test_preimage_odd_symmetry():
    p = ACParams(0.3, 0.5)
    for kind in (BE, CN, MODCN, DIRK2):
        for c in (0.3, 0.9, 1.7, 4.0):
            plus = preimage_constants(kind, c, p).roots
            minus = preimage_constants(kind, -c, p).roots
            assert len(plus) == len(minus)
            for a, b in zip(plus, reversed(minus)):
                assert abs(a + b) <= 1e-10


def test_sign_rule_trapezoid():
    # forward image of r is positive exactly on (0, r1) and (-inf, -r1)
    p = ACParams(1.0, 1.0)
    r1, r2 = interval_sequence(CN, 0.5, 2).entries
    rng = np.random.default_rng(11)
    for _ in range(1000):
        r = rng.uniform(-2 * r2, 2 * r2)
        if abs(r) <= 1e-9 or abs(abs(r) - r1) <= 1e-9:
            continue
        image = next(c for c, sel in scalar_map(CN, r, p) if sel)
        want_positive = (0.0 < r < r1) or (r < -r1)
        assert (image > 0) == want_positive
    for boundary in (0.0, r1, -r1):
        image = next(c for c, sel in scalar_map(CN, boundary, p) if sel)
        assert abs(image) <= 1e-12


# ---------------------------------------------------------------------------
# classification of constant initial states


def test_classify_examples():
    p = ACParams(1.0, 1.0)  # trapezoid ratio 0.5
    res = classify_constant_initial(CN, np.array([2.0]), p)
    assert res.pattern[0, :2].tolist() == [1, -1]
    assert res.limit[0] == -1 and res.flips[0] == 1 and res.settle_step[0] == 1
    res = classify_constant_initial(CN, np.array([0.5]), p)
    assert res.settle_step[0] >= 0 and all(res.pattern[0, :res.settle_step[0] + 1] == 1)
    assert res.limit[0] == 1 and res.flips[0] == 0
    res = classify_constant_initial(CN, np.array([5.074]), p)
    assert res.flips[0] == 9 and res.limit[0] == -1 and res.settle_step[0] == 11
    # that initial state sits between the 9th and 10th thresholds
    entries = interval_sequence(CN, 0.5, 10).entries
    assert entries[8] < 5.074 < entries[9]


def test_classify_dirk_ladder():
    p = ACParams(0.1, 0.01)  # DIRK ratio 0.25
    res = classify_constant_initial(DIRK2, np.array([95.72]), p)
    assert res.pattern[0, :5].tolist() == [1, 1, 1, 1, 1]
    assert res.pattern[0, 5] == -1
    assert res.flips[0] == 1 and res.limit[0] == -1
    assert 0 <= res.settle_step[0] <= 10
    # replay the ladder; step 5 is the first state near -1
    cur, vals = 95.72, [95.72]
    for _ in range(6):
        cur = next(c for c, sel in scalar_map(DIRK2, cur, p) if sel)
        vals.append(cur)
    assert vals[1] == pytest.approx(67.9999, abs=1e-3)
    assert vals[4] == pytest.approx(7.2052, abs=1e-3)
    assert next(i for i, v in enumerate(vals) if abs(v + 1) <= 0.1) == 5
    # 95.72 lies in the fifth (r, s) window at this ratio
    seq = interval_sequence(DIRK2, 0.25, 5)
    assert seq.entries[8] < 95.72 < seq.entries[9]
    assert seq.entries[8] == pytest.approx(89.1633676552791, rel=1e-10)
    assert seq.entries[9] == pytest.approx(103.81658578216411, rel=1e-10)


def test_classify_validation():
    with pytest.raises(ConfigurationError):
        classify_constant_initial(CN, np.array([1.0]), ACParams(1.0, 1.0), max_steps=0)


@pytest.mark.parametrize("r", (-300.0, -150.0, 150.0, 300.0))
def test_classify_where_scalar_newton_misses_tolerance(r):
    # CN at eps = 1, dt = 4: at these amplitudes the scalar Newton iterate
    # misses its absolute tolerance; its nearest exact root still picks the
    # branch, which flips sign every step without settling
    res = classify_constant_initial(CN, np.array([r]), ACParams(1.0, 4.0), max_steps=20)
    sign = 1 if r > 0 else -1
    assert res.pattern[0].tolist() == [sign * (-1) ** i for i in range(21)]
    assert res.limit[0] == 0 and res.settle_step[0] == -1


@pytest.mark.parametrize("kind", (BE, CN, MODCN, DIRK2), ids=lambda k: k.tag)
def test_classify_stops_mapping_at_an_exact_fixed_point(kind, monkeypatch):
    # 0 maps to itself, so every step after the first repeats it
    calls = []
    selected_images = robustness._selected_images

    def counting(*args):
        calls.append(args)
        return selected_images(*args)

    monkeypatch.setattr(robustness, "_selected_images", counting)
    res = classify_constant_initial(kind, np.array([0.0]), ACParams(1.0, 0.5))
    assert res.pattern[0].tolist() == [0] * 401
    assert res.settle_step[0] == -1 and res.limit[0] == 0
    assert len(calls) == 1


def test_scalar_path_never_reaches_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar Newton called a dense LU routine")

    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
    p = ACParams(1.0, 2.0)
    for kind in (BE, CN, MODCN, DIRK2):
        for r in (-150.0, 0.3, 5.074):
            assert sum(selected for _, selected in scalar_map(kind, r, p)) == 1
    res = classify_constant_initial(CN, np.array([5.074]), ACParams(1.0, 1.0))
    assert res.limit[0] == -1 and res.settle_step[0] == 11


# ---------------------------------------------------------------------------
# perturbation gains


def test_gain_trapezoid_example():
    p = ACParams(0.1, 0.01)
    g = perturbation_gain(CN, 0.984375, -1.99310, ModeIndex((1.0,)), p)
    assert not g.pole
    assert g.gain[0] == pytest.approx(-0.4442, abs=1e-4)
    assert g.gain[0] == pytest.approx(-0.4442836285269829, rel=1e-9)


def test_gain_vanishing_numerator():
    # 3c^2/eps^2 - 1/eps^2 + 2/dt + m = 0 picks out a flat response
    c = math.sqrt(0.8 / 3.0)
    g = perturbation_gain(CN, c, 1.0, ModeIndex((0.0,)), ACParams(1.0, 10.0))
    assert not g.pole
    assert abs(g.gain[0]) <= 1e-10


def test_gain_two_dimensional_mode():
    p = ACParams(0.2, 0.03)
    c, r = 0.7, -1.3
    m = 2 * math.pi**2
    g = perturbation_gain(CN, c, r, ModeIndex((1.0, 1.0)), p)
    num = (3 * c * c - 1) / p.eps2 + 2 / p.dt + m
    den = (3 * r * r - 1) / p.eps2 - 2 / p.dt + m
    assert g.gain[0] == pytest.approx(-num / den, rel=1e-13)


def test_gain_pole_flag():
    # r = 1 zeroes the trapezoid denominator at eps = dt = 1, mode constant
    g = perturbation_gain(CN, 0.5, 1.0, ModeIndex((0.0,)), ACParams(1.0, 1.0))
    assert g.pole and math.isnan(g.gain[0])


def test_gain_rejects_backward_euler():
    p = ACParams(0.1, 0.01)
    with pytest.raises(ConfigurationError, match="backward Euler"):
        perturbation_gain(BE, 0.0, 1.0, ModeIndex((1.0,)), p)


def test_dirk_gain_example():
    p = ACParams(0.1, 0.01)
    (chain,) = preimage_constants(DIRK2, -7.0, p).chains
    g = dirk_perturbation_gains(chain[2], chain[1], ModeIndex((1.0,)), p)
    assert not g.pole
    assert g.gain[0] == pytest.approx(-0.11919307432699236, rel=1e-6)
    assert g.gain[1] == pytest.approx(0.09933042512512692, rel=1e-6)
    assert g.gain[2] == pytest.approx(1.4370469989042385, rel=1e-6)


def test_dirk_gain_identity_stages():
    # both stage constants at the flat point give unit gains through the chain
    flat = 1.0 / SQ3
    g = dirk_perturbation_gains(flat, flat, ModeIndex((0.0,)), ACParams(0.5, 0.3))
    for b in g.gain:
        assert b == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "kind", (CN, MODCN, DIRK2, _DIRK_ODD, _SDIRK2, _DIRK3),
    ids=("cn", "modcn", "dirk2", "dirk-odd", "sdirk2", "dirk3"),
)
def test_gain_matches_measured_response(kind):
    # a one-point continuation at delta = 1e-5 measures each branch's
    # first-order response to the target c + delta * mode
    grid = make_grid(1, 257)
    p, c, k, delta = ACParams(0.3, 0.05), 0.4, ModeIndex((1.0,)), 1e-5
    mode = eval_mode(k, grid).values
    w = trapezoid_weights(grid)
    target = ScalarField(grid, c + delta * mode)
    hcfg = HomotopyConfig(delta_end=delta, delta_start=delta, steps=1)
    ps = preimage_constants(kind, c, p)
    for chain in ps.chains:
        r = chain[0]
        g = perturbation_gain(kind, c, r, k, p)
        assert (g.c, g.r) == (c, r) and len(g.gain) == len(chain)
        seed = ScalarField(grid, r + delta * g.gain[-1] * mode)
        phi_n, rep = preimage_field(kind, target, seed, p, hcfg)
        assert rep.converged
        response = np.sum(w * (phi_n.values - r) * mode) / np.sum(w * mode * mode) / delta
        assert g.gain[-1] == pytest.approx(response, rel=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from((DIRK2, _SDIRK2, _DIRK_ODD)),
    eps=st.floats(0.05, 1.0),
    dt=st.floats(0.001, 1.0),
    c=st.floats(-3.0, 3.0),
    k=st.lists(st.integers(0, 4), min_size=1, max_size=2),
)
def test_dirk_chain_gains_are_the_stage_constant_gains(kind, eps, dt, c, k):
    # the walk's last bwd side is explicit, and so is its first fwd side but
    # in a stiffly accurate tableau (whose link from c is the identity,
    # dropped), so the stage constants stand in for r and c to the bit, as
    # dirk_perturbation_gains does
    p, mode = ACParams(eps, dt), ModeIndex(tuple(map(float, k)))
    head = c if kind.tableau.b == kind.tableau.a[-1] else None
    for chain in preimage_constants(kind, c, p).chains:
        got = perturbation_gain(kind, c, chain[0], mode, p)
        states = (chain[-1] if head is None else head, *reversed(chain[1:]), chain[1])
        want = robustness._chain_gains(kind, states, mode, p)
        assert got.r == chain[0] and got.pole == want.pole
        assert [b.hex() for b in got.gain] == [b.hex() for b in want.gain]
        if kind is DIRK2:
            short = dirk_perturbation_gains(chain[2], chain[1], mode, p)
            assert [b.hex() for b in short.gain] == [b.hex() for b in got.gain]


def test_gain_linear_system_residual():
    rng = np.random.default_rng(83)
    checked = 0
    while checked < 100:
        eps = rng.uniform(0.1, 1.0)
        dt = rng.uniform(0.01, 1.0)
        p = ACParams(eps, dt)
        c, r = rng.uniform(-2, 2, 2)
        kk = float(rng.integers(0, 4))
        mode = ModeIndex((kk,))
        m = mode.laplace_eigenvalue
        if checked % 2 == 0:
            g = perturbation_gain(CN, c, r, mode, p)
            if g.pole:
                continue
            num = (3 * c * c - 1) / p.eps2 + 2 / p.dt + m
            den = (3 * r * r - 1) / p.eps2 - 2 / p.dt + m
            if abs(den) <= 1e-6 * (abs(3 * r * r - 1) / p.eps2 + 2 / p.dt + m):
                continue
            assert abs(den * g.gain[0] + num) <= 1e-9 * max(1.0, abs(g.gain[0]))
        else:
            g = dirk_perturbation_gains(c, r, mode, p)
            if g.pole:
                continue
            q = p.dt / 4.0
            d2 = q * m + (q / p.eps2) * (3 * c * c - 1)
            d1 = q * m + (q / p.eps2) * (3 * r * r - 1)
            b2, b1, b0 = g.gain
            scale = max(1.0, abs(b0), abs(b1), abs(b2))
            assert abs(b2 * (1 - d2) - 1) <= 1e-9 * scale
            assert abs(b1 * (1 - d1) - b2 * (1 + d2)) <= 1e-9 * scale
            assert abs(b0 - b1 * (1 + d1)) <= 1e-9 * scale
        checked += 1


# ---------------------------------------------------------------------------
# field preimages by continuation


def _mode_preimage(kind, c, root, gain, k, p, grid, delta_end):
    mode = eval_mode(ModeIndex(tuple(float(v) for v in np.atleast_1d(k))), grid)
    target = ScalarField(grid, c + delta_end * mode.values)
    seed = ScalarField(grid, root + 1e-3 * gain * mode.values)
    hcfg = HomotopyConfig(delta_end=delta_end, delta_start=1e-3, steps=32)
    phi_n, rep = preimage_field(kind, target, seed, p, hcfg)
    return target, phi_n, rep


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from((CN, MODCN, DIRK2)),
    c=st.floats(-0.9, 0.9),
    delta=st.floats(0.02, 0.3),
    k=st.sampled_from((1, 2, 3)),
    pick=st.integers(0, 4),
)
def test_field_preimage_round_trips(kind, c, delta, k, pick):
    # wherever the continuation reaches the target's delta, one forward step
    # from the preimage lands on the target
    grid = make_grid(1, 65)
    p = ACParams(0.1, 0.01)
    roots = preimage_constants(kind, c, p).roots
    target, phi_n, rep = _mode_preimage(kind, c, roots[pick % len(roots)], 0.0, k, p, grid, delta)
    if rep.converged:
        assert rep.delta == delta
        fwd, fwd_rep = step(kind, phi_n, p)
        assert fwd_rep.success
        assert np.max(np.abs(fwd.values - target.values)) <= 1e-8


def test_preimage_field_trapezoid():
    grid = make_grid(1, 257)
    p = ACParams(0.1, 0.01)
    c = 0.984375
    ps = preimage_constants(CN, c, p)
    root = min(ps.roots, key=lambda r: abs(r + 1.9931))
    assert root == pytest.approx(-1.99310, abs=1e-4)
    gain = perturbation_gain(CN, c, root, ModeIndex((1.0,)), p).gain[0]
    target, phi_n, rep = _mode_preimage(CN, c, root, gain, 1, p, grid, 0.5)
    assert rep.converged
    fwd, _ = step(CN, phi_n, p)
    assert np.max(np.abs(fwd.values - target.values)) <= 1e-9
    # gain < 0: the bump at the center pushes the preimage further negative
    mid = grid.n // 2
    assert phi_n.values[mid] < field_mean(phi_n) < phi_n.values[0]


def test_preimage_field_trapezoid_higher_mode():
    grid = make_grid(1, 257)
    p = ACParams(0.1, 0.01)
    c = 0.984375
    root = min(preimage_constants(CN, c, p).roots, key=lambda r: abs(r + 1.9931))
    gain = perturbation_gain(CN, c, root, ModeIndex((5.0,)), p).gain[0]
    target, phi_n, rep = _mode_preimage(CN, c, root, gain, 5, p, grid, 0.5)
    assert rep.converged
    fwd, _ = step(CN, phi_n, p)
    assert np.max(np.abs(fwd.values - target.values)) <= 1e-9


def test_preimage_field_dirk():
    grid = make_grid(1, 257)
    p = ACParams(0.1, 0.01)
    c = -7.0
    ps = preimage_constants(DIRK2, c, p)
    (chain,) = ps.chains
    g = dirk_perturbation_gains(chain[2], chain[1], ModeIndex((1.0,)), p)
    target, phi_n, rep = _mode_preimage(DIRK2, c, ps.roots[0], g.gain[2], 1, p, grid, 0.1)
    assert rep.converged
    fwd, _ = step(DIRK2, phi_n, p)
    assert np.max(np.abs(fwd.values - target.values)) <= 1e-9


def test_preimage_field_sdirk2_round_trips():
    # every constant branch at c = 0.5; the link c -> phi_2 is the identity
    # (the tableau is stiffly accurate) and is dropped, so a chain is (r, phi_1)
    grid = make_grid(1, 65)
    p = ACParams(0.1, 0.01)
    c = 0.5
    chains = preimage_constants(_SDIRK2, c, p).chains
    assert len(chains) == 3 and all(len(chain) == 2 for chain in chains)
    for chain in chains:
        g = perturbation_gain(_SDIRK2, c, chain[0], ModeIndex((1.0,)), p)
        target, phi_n, rep = _mode_preimage(_SDIRK2, c, chain[0], g.gain[1], 1, p, grid, 0.1)
        assert rep.converged
        fwd, _ = step(_SDIRK2, phi_n, p)
        assert np.max(np.abs(fwd.values - target.values)) <= 1e-10


def test_gains_reject_states_that_are_not_finite(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cubic was solved for a state that is not finite")

    monkeypatch.setattr(robustness, "real_cubic_roots", refuse)
    p, mode = ACParams(0.3, 0.05), ModeIndex((1.0,))
    for c, r in ((math.nan, 1.0), (0.5, math.inf)):
        for kind in (CN, DIRK2, _DIRK3):
            with pytest.raises(ConfigurationError, match="must be finite"):
                perturbation_gain(kind, c, r, mode, p)
        with pytest.raises(ConfigurationError, match="must be finite"):
            dirk_perturbation_gains(c, r, mode, p)


def test_preimage_field_backward_euler_explicit():
    grid = make_grid(1, 65)
    p = ACParams(0.3, 0.05)
    mode = eval_mode(ModeIndex((1.0,)), grid)
    target = ScalarField(grid, 0.2 + 0.3 * mode.values)
    phi_n, rep = preimage_field(BE, target, target, p, HomotopyConfig(delta_end=0.3))
    assert rep.converged and rep.delta == 0.3
    assert (rep.iterations, rep.residual) == (0, 0.0)  # no Newton solve runs
    fwd, _ = step(BE, phi_n, p)
    assert np.max(np.abs(fwd.values - target.values)) <= 1e-10


def test_preimage_field_reports_stall():
    grid = make_grid(1, 65)
    p = ACParams(0.1, 0.01)
    c = 0.984375
    root = min(preimage_constants(CN, c, p).roots, key=lambda r: abs(r + 1.9931))
    gain = perturbation_gain(CN, c, root, ModeIndex((1.0,)), p).gain[0]
    mode = eval_mode(ModeIndex((1.0,)), grid)
    target = ScalarField(grid, c + 0.5 * mode.values)
    seed = ScalarField(grid, root + 1e-3 * gain * mode.values)
    hcfg = HomotopyConfig(delta_end=0.5, delta_start=1e-3, steps=8)
    phi_n, rep = preimage_field(CN, target, seed, p, hcfg, NewtonConfig(max_iter=1))
    assert not rep.converged
    assert np.all(np.isfinite(phi_n.values))


def test_preimage_field_dirk_reports_failure_at_the_first_point():
    # one Newton iteration cannot reach the tolerance from the constant stage
    # chain, so the very first continuation point fails
    grid = make_grid(1, 65)
    p = ACParams(0.1, 0.01)
    c = 0.5
    root = preimage_constants(DIRK2, c, p).roots[0]
    mode = eval_mode(ModeIndex((1.0,)), grid)
    target = ScalarField(grid, c + 0.15 * mode.values)
    seed = ScalarField(grid, root + 1e-3 * mode.values)
    hcfg = HomotopyConfig(delta_end=0.15)
    phi_n, rep = preimage_field(DIRK2, target, seed, p, hcfg, NewtonConfig(max_iter=1))
    assert not rep.converged and rep.delta is None
    assert np.array_equal(phi_n.values, seed.values)
    assert rep.message.startswith(
        "backward link 1 of 3 did not converge (max iterations reached, residual ")




def _count_splu(monkeypatch):
    calls = []
    splu = solvers.spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solvers.spla, "splu", counting)
    return calls


def test_preimage_field_2d_certified_runs_cg(monkeypatch):
    # CN root 0 at c = 0.5: a + min(d) is about +350 along the path, so the
    # backward Jacobians are certified positive definite and CG solves them
    grid = make_grid(2, 17)
    p = ACParams(0.1, 0.01)
    c = 0.5
    root = preimage_constants(CN, c, p).roots[0]
    gain = perturbation_gain(CN, c, root, ModeIndex((1.0, 1.0)), p).gain[0]
    splu_calls = _count_splu(monkeypatch)
    target, phi_n, rep = _mode_preimage(CN, c, root, gain, (1, 1), p, grid, 0.2)
    assert rep.converged
    assert not splu_calls
    ((_, bwd),) = _backward_links(CN, p)
    v = target.values
    op = implicit_system(grid, p, *bwd(v, laplacian_matrix(grid) @ v))[1](phi_n.values)
    assert op.certified and op.a + op.d.min() > 300.0
    fwd, _ = step(CN, phi_n, p)
    assert np.max(np.abs(fwd.values - target.values)) <= 1e-8


def test_preimage_field_2d_uncertified_runs_minres(monkeypatch):
    # the DIRK2 middle chain r = 0.2046 -> 0.2665 -> 0.4142 at c = 0.5: both
    # backward stages have a + min(d) near -1.1 / dt (each link is its
    # equation divided by dt), so MINRES solves them, with sparse LU only
    # where it misses
    grid = make_grid(2, 17)
    p = ACParams(0.1, 0.01)
    c = 0.5
    ps = preimage_constants(DIRK2, c, p)
    r, c1, c2 = ps.chains[2]
    assert r == pytest.approx(0.2046, abs=1e-4)
    g = dirk_perturbation_gains(c2, c1, ModeIndex((1.0, 1.0)), p)
    splu_calls = _count_splu(monkeypatch)
    uncertified = []
    solve = solvers.ShiftedLaplacian.solve

    def counting(op, rhs, rtol=solvers._LINEAR_RTOL):
        uncertified.append(not op.certified)
        return solve(op, rhs, rtol)

    monkeypatch.setattr(solvers.ShiftedLaplacian, "solve", counting)
    target, phi_n, rep = _mode_preimage(DIRK2, c, r, g.gain[2], (1, 1), p, grid, 0.2)
    assert rep.converged
    assert len(splu_calls) < sum(uncertified)
    # the outer link c -> c2 and the inner link c2 -> c1, at their unknowns
    for (_, bwd), x, u in zip(_backward_links(DIRK2, p), (c, c2), (c2, c1)):
        terms = bwd(np.full(grid.num_nodes, x), 0.0)
        op = implicit_system(grid, p, *terms)[1](np.full(grid.num_nodes, u))
        assert not op.certified and op.a + op.d.min() == pytest.approx(-1.1 / p.dt, abs=0.15 / p.dt)
    fwd, _ = step(DIRK2, phi_n, p)
    assert np.max(np.abs(fwd.values - target.values)) <= 1e-8


def _fd_rel_error(residual, jacobian, u):
    dense = jacobian(u).tosparse().toarray()
    return np.linalg.norm(dense - fd_jacobian(residual, u)) / np.linalg.norm(dense)


@pytest.mark.parametrize("kind", (CN, MODCN), ids=lambda k: k.label)
@pytest.mark.parametrize("dim,n", ((1, 9), (2, 4)))
def test_backward_problem_jacobian_matches_fd(kind, dim, n):
    rng = np.random.default_rng(41)
    grid = make_grid(dim, n)
    p = ACParams(0.3, 0.05)
    for _ in range(10):
        c = rng.uniform(-2, 2)
        shape = rng.uniform(-1, 1, grid.num_nodes)
        v = c + rng.uniform(0, 1) * shape
        ((_, bwd),) = _backward_links(kind, p)
        residual, jacobian = implicit_system(grid, p, *bwd(v, laplacian_matrix(grid) @ v))
        u = rng.uniform(-2, 2, grid.num_nodes)
        assert _fd_rel_error(residual, jacobian, u) <= 1e-5


@pytest.mark.parametrize("dim,n", ((1, 9), (2, 4)))
def test_dirk_backward_stage_jacobians_match_fd(dim, n):
    rng = np.random.default_rng(43)
    grid = make_grid(dim, n)
    p = ACParams(0.3, 0.05)
    lap = laplacian_matrix(grid)
    outer, inner, _ = _backward_links(DIRK2, p)
    for _ in range(10):
        # the outer stage (beta) and the inner stage (alpha) of the chain
        for _fwd, bwd in (outer, inner):
            x = rng.uniform(-2, 2, grid.num_nodes)
            residual, jacobian = implicit_system(grid, p, *bwd(x, lap @ x))
            u = rng.uniform(-2, 2, grid.num_nodes)
            assert _fd_rel_error(residual, jacobian, u) <= 1e-5
