"""Classification of constant initial states over arrays.

classify_constant_initial walks a whole array of initial constants at once
(schemes._selected_images, one step of the constant-image walk per time
step).  These tests hold that walk, and scalar_map, its one-state case, to
a float walk over every chain of stage roots kept here, bit for bit, and
hold classify to the paper's robustness results: the limit flips at the
tabulated thresholds, backward Euler under its stability condition reaches
sign(r), and every scheme is odd.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acstab import cli
from acstab.errors import AnalysisError, ConfigurationError
from acstab.fields import ACParams, ac_force
from acstab.reference import RATIOS
from acstab.robustness import classify_constant_initial, interval_sequence
from acstab.schemes import (
    BE,
    CN,
    DIRK2,
    MERGE_TOL,
    MODCN,
    _forward_stages,
    _selected_images,
    _weighted,
    constant_cubic,
    constant_residual,
    scalar_map,
)
from acstab.solvers import newton_solve, real_cubic_roots

SETTLE_TOL = 1e-3
# dt / eps^2 per unit of ratio, as the CLI's --ratio reads it: ratio 1 is the
# uniqueness threshold, beyond which a step has three constant images
_RATIO_FACTOR = {"be": 1.0, "cn": 2.0, "modcn": 2.0, "dirk": 4.0}


def _reference_scalar_map(kind, r, p):
    """scalar_map as a float walk over every chain of stage roots, one cubic
    (real_cubic_roots) per chain and stage: (c, selected) pairs ascending,
    images within MERGE_TOL of the first of their run merged into it.  The
    selected chain's Newton iterate (newton_solve), started from r and then
    from the previous stage, picks the nearest root at each stage."""
    stages, b = _forward_stages(kind, p)
    # (stage forces, last stage value, the Newton iterate on the selected chain or None)
    chains = [((), r, r)]
    for stage in stages:
        grown = []
        for fs, _, start in chains:
            terms = stage(r, fs, lambda x: 0.0)
            roots = real_cubic_roots(*constant_cubic(p, *terms)).real_roots
            pick = -1
            if start is not None:
                start = newton_solve(*constant_residual(p, *terms), start)[0]
                pick = min(range(len(roots)), key=lambda j: abs(roots[j] - start))
            for j, x in enumerate(roots):
                grown.append((fs + (ac_force(0.0, x, p),) if b else fs, x,
                              start if j == pick else None))
        chains = grown
    merged = []
    for c, selected in sorted((_weighted(r, b, fs, p.dt) if b else x, start is not None)
                              for fs, x, start in chains):
        if merged and abs(c - merged[-1][0]) <= MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] or selected)
        else:
            merged.append((c, selected))
    return merged


def _bits(pairs):
    """(c, selected) pairs with each c as its hex string, so -0.0 differs from 0.0."""
    return [(float(c).hex(), selected) for c, selected in pairs]


def _selected(pairs):
    return next(c for c, selected in pairs if selected)


def _sign(x):
    return 0 if abs(x) <= 1e-9 else (1 if x > 0 else -1)


def _flips(signs):
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _oracle(kind, r, p, max_steps):
    """(pattern, settle_step, limit) of r from the reference selected images, one float at a time."""
    pattern, cur = [_sign(r)], r
    for k in range(1, max_steps + 1):
        prev, cur = cur, _selected(_reference_scalar_map(kind, cur, p))
        pattern.append(_sign(cur))
        for limit in (1, -1):
            if abs(cur - limit) <= SETTLE_TOL:
                return tuple(pattern), k, limit
        if cur == prev:
            return tuple(pattern + [pattern[-1]] * (max_steps - k)), None, 0
    return tuple(pattern), None, 0


def _params(kind, eps, ratio):
    return ACParams(eps, ratio * _RATIO_FACTOR[kind.tag] * eps * eps)


def _special_states(kind, ratio):
    """0, +-1, +-(1 +- settle_tol) and the first interval endpoints, where defined."""
    states = [0.0, 1.0, 1.0 - SETTLE_TOL, 1.0 + SETTLE_TOL]
    if kind.tag != "be":
        try:
            states += list(interval_sequence(kind, ratio, 2).entries)
        except AnalysisError:
            pass
    return states + [-x for x in states]


def _row(res, j):
    """Sample j of an array result, in the float result's form."""
    settle = int(res.settle_step[j])
    steps = settle if settle >= 0 else res.pattern.shape[1] - 1
    return (tuple(res.pattern[j, :steps + 1].tolist()), None if settle < 0 else settle,
            int(res.limit[j]), int(res.flips[j]))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from((BE, CN, MODCN, DIRK2)),
    eps=st.sampled_from((0.1, 1.0)),
    # below 1 each stage has one real root; above it up to three
    ratio=st.sampled_from((0.01, 0.1, 0.5, 0.99, 1.5, 3.0, 10.0, 50.0)),
    extra=st.lists(st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 3.0)), min_size=1, max_size=4),
)
def test_array_classify_is_the_scalar_map_bit_for_bit(kind, eps, ratio, extra):
    p = _params(kind, eps, ratio)
    r = np.array(_special_states(kind, ratio) + extra)
    # one step: every image and flag of every state, and the selected image, to the bit
    want = [_reference_scalar_map(kind, x, p) for x in r.tolist()]
    assert [_bits(scalar_map(kind, x, p)) for x in r.tolist()] == [_bits(w) for w in want]
    images = _selected_images(kind, r, p)
    assert [c.hex() for c in images.tolist()] == [_selected(w).hex() for w in want]
    # whole trajectories: the array, each state alone, and the reference loop agree
    max_steps = 40
    res = classify_constant_initial(kind, r, p, max_steps=max_steps)
    for j, x in enumerate(r.tolist()):
        pattern, settle, limit = _oracle(kind, x, p, max_steps)
        alone = classify_constant_initial(kind, x, p, max_steps=max_steps)
        assert _row(res, j) == (alone.pattern, alone.settle_step, alone.limit, alone.flips)
        assert (alone.pattern, alone.settle_step, alone.limit, alone.flips) == (
            pattern, settle, limit, _flips(pattern))
        assert alone.initial == x and res.initial[j] == x


@pytest.mark.parametrize("ratio", (0.5, 1.5, 3.0, 10.0, 50.0))
@pytest.mark.parametrize("kind", (BE, CN, MODCN, DIRK2), ids=lambda k: k.label)
def test_constant_images_are_the_reference_walk_on_a_grid(kind, ratio):
    # above ratio 1 the states near 0 have several images, and DIRK2 up to nine chains
    p = _params(kind, 0.5, ratio)
    r = np.linspace(-3.0, 3.0, 241)
    want = [_reference_scalar_map(kind, x, p) for x in r.tolist()]
    got = [scalar_map(kind, x, p) for x in r.tolist()]
    assert all(isinstance(selected, bool) for pairs in got for _, selected in pairs)
    assert [_bits(g) for g in got] == [_bits(w) for w in want]
    assert [c.hex() for c in _selected_images(kind, r, p).tolist()] == [
        _selected(w).hex() for w in want]


def test_images_within_merge_tol_come_out_merged():
    # one ulp of dt past CN's uniqueness threshold, constants just inside the
    # fold have three images, two of them within MERGE_TOL; they are listed
    # once, by their smaller value, in scalar_map and in the array walk
    p = ACParams(1.0, math.nextafter(2.0, 3.0))
    r = 6.367639324339367e-25 * (1 - 1e-5 * np.arange(50))
    r = np.concatenate([r, -r])
    maps = [_reference_scalar_map(CN, x, p) for x in r.tolist()]
    assert all(len(images) == 2 for images in maps)
    assert [_bits(scalar_map(CN, x, p)) for x in r.tolist()] == [_bits(m) for m in maps]
    assert _selected_images(CN, r, p).tolist() == [_selected(m) for m in maps]


def test_array_classify_result_form():
    p = ACParams(1.0, 1.0)
    res = classify_constant_initial(CN, np.array([2.0, 0.5, 0.0]), p, max_steps=30)
    assert res.pattern.shape == (3, 31)
    assert res.pattern[0, :3].tolist() == [1, -1, 0]  # settled at step 1, zeros after
    assert res.settle_step.tolist() == [1, 3, -1] and res.limit.tolist() == [-1, 1, 0]
    assert res.flips.tolist() == [1, 0, 0]
    assert res.pattern[2].tolist() == [0] * 31  # the fixed point 0 repeats
    with pytest.raises(ConfigurationError):
        classify_constant_initial(CN, np.zeros((2, 2)), p)


@pytest.mark.parametrize("tol", (math.nan, -1.0, math.inf))
def test_classify_rejects_a_settle_tol_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ConfigurationError, match=r"settle_tol must be finite and >= 0"):
        classify_constant_initial(CN, np.array([0.5, 2.0]), ACParams(1.0, 1.0), settle_tol=tol)


@pytest.mark.parametrize("r", (math.nan, math.inf, 1e200))
def test_classify_raises_on_a_state_with_no_finite_image(r):
    states = np.array([0.5, r, 2.0])
    with pytest.raises(AnalysisError, match=r"r = .* has no finite image at step 1"):
        classify_constant_initial(CN, states, ACParams(1.0, 1.0))


# ---------------------------------------------------------------------------
# the robustness results, by forward iteration


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("kind", (CN, MODCN, DIRK2), ids=lambda k: k.label)
def test_forward_iteration_flips_at_the_tabulated_thresholds(kind, ratio):
    # Tables 1-3 come from backward preimage chains; iterating forward must
    # give the limit the fig-data rows assign to each interval, and the
    # limit must change across every endpoint.  Near the thresholds at the
    # smallest ratios the states take thousands of steps to settle (up to
    # 7,720 at ratio 0.001)
    if kind.tag == "dirk":
        p = ACParams(1.0, ratio / kind.tableau.max_diag)
    else:
        p = ACParams(1.0, 2.0 * ratio)
    entries = np.array(interval_sequence(kind, ratio, 4).entries)
    below = classify_constant_initial(kind, entries * (1 - 1e-7), p, max_steps=10_000).limit
    above = classify_constant_initial(kind, entries * (1 + 1e-7), p, max_steps=10_000).limit
    assert np.all(below != 0) and np.all(above == -below)
    rows = [row for row in cli._interval_rows(kind) if row[0] == ratio]
    mid = np.array([(lo + hi) / 2 for _, _, lo, hi, _ in rows])
    limits = classify_constant_initial(kind, mid, p, max_steps=10_000).limit
    assert limits.tolist() == [row[4] for row in rows]


@pytest.mark.parametrize("dt_over_eps2", (0.01, 0.5, 1.0))
@pytest.mark.parametrize("eps", (0.1, 1.0))
def test_backward_euler_under_its_stability_condition_reaches_sign_r(eps, dt_over_eps2):
    # the abstract: backward Euler converges to the correct limit regardless
    # of the initial state, when dt <= eps^2
    r = np.linspace(-300.0, 300.0, 602)  # 0 is not on the grid
    res = classify_constant_initial(BE, r, ACParams(eps, dt_over_eps2 * eps * eps), max_steps=4000)
    assert res.limit.tolist() == np.sign(r).astype(int).tolist()


@pytest.mark.parametrize("ratio", (0.1, 0.5, 2.0))
@pytest.mark.parametrize("kind", (BE, CN, MODCN, DIRK2), ids=lambda k: k.label)
def test_classify_is_odd(kind, ratio):
    r = np.linspace(0.01, 5.0, 200)
    p = _params(kind, 1.0, ratio)
    plus = classify_constant_initial(kind, r, p)
    minus = classify_constant_initial(kind, -r, p)
    assert np.array_equal(minus.limit, -plus.limit)
    assert np.array_equal(minus.settle_step, plus.settle_step)
    assert np.array_equal(minus.flips, plus.flips)
    assert np.array_equal(minus.pattern, -plus.pattern)


# ---------------------------------------------------------------------------
# the CLI


def _classify(tmp_path, *extra):
    out = tmp_path / "cl.csv"
    code = cli.main(["analyze", "classify", "--scheme", "cn", "--eps", "1", "--dt", "2",
                     "--samples", "3", "--out", str(out), *extra])
    return code, out


@pytest.mark.parametrize("rmin,rmax", (("nan", "1"), ("0", "inf"), ("-inf", "1"), ("1e400", "2")))
def test_cli_classify_rejects_non_finite_bounds(rmin, rmax, tmp_path, capsys):
    code, out = _classify(tmp_path, f"--rmin={rmin}", f"--rmax={rmax}")
    assert code == 2 and not out.exists()
    assert "--rmin and --rmax must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("rmin", ("1e200", "1e55"))
def test_cli_classify_fails_loudly_where_the_closed_form_overflows(rmin, tmp_path, capsys):
    code, out = _classify(tmp_path, "--rmin", rmin, "--rmax", "2e200")
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert f"r = {float(rmin):.9g} has no finite image at step 1" in err
