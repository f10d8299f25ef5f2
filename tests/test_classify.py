"""Classification of constant initial states over arrays.

classify_constant_initial walks a whole array of initial constants at once
(schemes._selected_images, one selected-chain step per time step).  These
tests hold it to the scalar map it replaces, bit for bit, and to the
paper's robustness results: the limit flips at the tabulated thresholds,
backward Euler under its stability condition reaches sign(r), and every
scheme is odd.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acstab import cli
from acstab.errors import AnalysisError, ConfigurationError
from acstab.fields import ACParams
from acstab.robustness import classify_constant_initial, interval_sequence
from acstab.schemes import BE, CN, DIRK2, MODCN, _selected_images, scalar_map

SETTLE_TOL = 1e-3
# dt / eps^2 per unit of ratio, as the CLI's --ratio reads it: ratio 1 is the
# uniqueness threshold, beyond which a step has three constant images
_RATIO_FACTOR = {"be": 1.0, "cn": 2.0, "modcn": 2.0, "dirk": 4.0}


def _sign(x):
    return 0 if abs(x) <= 1e-9 else (1 if x > 0 else -1)


def _flips(signs):
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _oracle(kind, r, p, max_steps):
    """(pattern, settle_step, limit) of r from scalar_map's selected images, one float at a time."""
    pattern, cur = [_sign(r)], r
    for k in range(1, max_steps + 1):
        prev, cur = cur, next(c for c, sel in scalar_map(kind, cur, p) if sel)
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


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from((BE, CN, MODCN, DIRK2)),
    eps=st.sampled_from((0.1, 1.0)),
    # below 1 each stage has one real root; above it up to three
    ratio=st.sampled_from((0.01, 0.1, 0.5, 0.99, 1.5, 3.0, 10.0)),
    extra=st.lists(st.floats(-300.0, 300.0, allow_nan=False), min_size=1, max_size=4),
)
def test_array_classify_is_the_scalar_map_bit_for_bit(kind, eps, ratio, extra):
    p = _params(kind, eps, ratio)
    r = np.array(_special_states(kind, ratio) + extra)
    # one step: the selected image of every state, to the bit
    images = _selected_images(kind, r, p)
    want = [next(c for c, sel in scalar_map(kind, float(x), p) if sel) for x in r]
    assert images.tolist() == want
    assert np.signbit(images).tolist() == np.signbit(want).tolist()
    # whole trajectories: the array, each state alone, and the scalar-map loop agree
    max_steps = 40
    res = classify_constant_initial(kind, r, p, max_steps=max_steps)
    for j, x in enumerate(r.tolist()):
        pattern, settle, limit = _oracle(kind, x, p, max_steps)
        alone = classify_constant_initial(kind, x, p, max_steps=max_steps)
        assert _row(res, j) == (alone.pattern, alone.settle_step, alone.limit, alone.flips)
        assert (alone.pattern, alone.settle_step, alone.limit, alone.flips) == (
            pattern, settle, limit, _flips(pattern))
        assert alone.initial == x and res.initial[j] == x


def test_images_within_merge_tol_come_out_merged():
    # one ulp of dt past CN's uniqueness threshold, constants just inside the
    # fold have three images, two of them within MERGE_TOL; scalar_map lists
    # that pair once, by its smaller value, and so must the array walk
    p = ACParams(1.0, math.nextafter(2.0, 3.0))
    r = 6.367639324339367e-25 * (1 - 1e-5 * np.arange(50))
    r = np.concatenate([r, -r])
    maps = [scalar_map(CN, x, p) for x in r.tolist()]
    assert all(len(images) == 2 for images in maps)
    want = [next(c for c, sel in images if sel) for images in maps]
    assert _selected_images(CN, r, p).tolist() == want


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


@pytest.mark.parametrize("r", (math.nan, math.inf, 1e200))
def test_classify_raises_on_a_state_with_no_finite_image(r):
    states = np.array([0.5, r, 2.0])
    with pytest.raises(AnalysisError, match=r"r = .* has no finite image at step 1"):
        classify_constant_initial(CN, states, ACParams(1.0, 1.0))


# ---------------------------------------------------------------------------
# the robustness results, by forward iteration


@pytest.mark.parametrize("ratio", (0.1, 0.25, 0.5))
@pytest.mark.parametrize("kind", (CN, MODCN, DIRK2), ids=lambda k: k.label)
def test_forward_iteration_flips_at_the_tabulated_thresholds(kind, ratio):
    # Tables 1-3 come from backward preimage chains; iterating forward must
    # give the limit the fig-data rows assign to each interval, and the
    # limit must change across every endpoint
    if kind.tag == "dirk":
        p = ACParams(1.0, ratio / kind.tableau.max_diag)
    else:
        p = ACParams(1.0, 2.0 * ratio)
    entries = np.array(interval_sequence(kind, ratio, 4).entries)
    below = classify_constant_initial(kind, entries * (1 - 1e-7), p).limit
    above = classify_constant_initial(kind, entries * (1 + 1e-7), p).limit
    assert np.all(below != 0) and np.all(above == -below)
    rows = [row for row in cli._interval_rows(kind) if row[0] == ratio]
    mid = np.array([(lo + hi) / 2 for _, _, lo, hi, _ in rows])
    assert classify_constant_initial(kind, mid, p).limit.tolist() == [row[4] for row in rows]


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
