import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acstab.errors import ConfigurationError
from acstab.fields import (
    ACParams,
    ButcherTableau,
    ModeIndex,
    eval_mode,
    laplacian_matrix,
    make_grid,
)
from acstab.schemes import BE, CN, DIRK2, MODCN, SchemeKind, mode_slope
from acstab.stability import (
    _ratio_dt,
    _step_terms_at,
    bifurcation_epsilon_sq,
    enumerate_bifurcations,
    stability_threshold,
)


def _slope(kind, c, p, r=None):
    """The step's slope at the constant c on mode k = 0, from the previous state
    r (default c); for DIRK that of its stiffest stage."""
    return mode_slope(p, *_step_terms_at(kind, p, c if r is None else r))(c)


def test_thresholds_exact():
    assert stability_threshold(BE, 0.1).dt_max == 0.1**2
    assert stability_threshold(CN, 0.1).dt_max == 2.0 * 0.1**2
    assert stability_threshold(MODCN, 0.1).dt_max == math.inf
    assert stability_threshold(DIRK2, 0.1).dt_max == 0.1**2 / 0.25
    tags = {k.label: stability_threshold(k, 1.0).formula for k in (BE, CN, MODCN, DIRK2)}
    assert tags == {
        "be": "EPS2",
        "cn": "TWO_EPS2",
        "modcn": "INF",
        "dirk2": "EPS2_OVER_MAX_AII",
    }


def test_threshold_validation():
    with pytest.raises(ConfigurationError):
        stability_threshold(BE, 0.0)


@pytest.mark.parametrize("eps", (-1.0, math.nan, math.inf, 1e160, 1e200, 1e-160, 1e-200))
def test_threshold_takes_eps_as_acparams_does(eps):
    # eps as ACParams takes it: eps^2 and 1/eps^2 finite and > 0
    with pytest.raises(ConfigurationError, match="eps must be > 0 with eps"):
        stability_threshold(BE, eps)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 10.0))
@example(0.1)
def test_uniqueness_zero_exactly_at_threshold(eps):
    for kind in (BE, CN, DIRK2):
        dt_max = stability_threshold(kind, eps).dt_max
        assert _slope(kind, 0.0, ACParams(eps, dt_max)) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e))
@example(2.5135266579057918)  # eps ** 2 is an ulp off eps * eps here
def test_ratio_one_is_the_threshold(eps):
    for kind in (BE, CN, DIRK2):
        assert _ratio_dt(kind, 1.0, eps) == stability_threshold(kind, eps).dt_max


def test_threshold_of_another_dirk_tableau():
    # implicit midpoint: one stage, a_11 = 1/2, so the threshold is CN's
    midpoint = SchemeKind("dirk", ButcherTableau(((0.5,),), (1.0,)))
    for eps in (1e-3, 0.05, 0.1, 0.3, 1.0, 1.7):
        dt_max = stability_threshold(midpoint, eps).dt_max
        assert dt_max == eps * eps / 0.5 == stability_threshold(CN, eps).dt_max
        assert _ratio_dt(midpoint, 1.0, eps) == dt_max


def test_uniqueness_sign_tracks_dt():
    eps = 0.2
    for kind in (BE, CN, DIRK2):
        dt_max = stability_threshold(kind, eps).dt_max
        assert _slope(kind, 0.0, ACParams(eps, 0.5 * dt_max)) > 0
        assert _slope(kind, 0.0, ACParams(eps, 2.0 * dt_max)) < 0


def test_modcn_uniqueness_always_positive():
    rng = np.random.default_rng(19)
    p = ACParams(0.1, 0.7)
    assert _slope(MODCN, 1.0, p, r=1.0) == pytest.approx(
        1.0 / p.dt + 6.0 / (4.0 * p.eps2), rel=1e-14
    )
    for _ in range(200):
        c, r = rng.uniform(-4, 4, 2)
        dt = rng.uniform(1e-3, 1e3)
        assert _slope(MODCN, c, ACParams(0.1, dt), r=r) > 0


@settings(max_examples=100, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(1e-3, 1e3),
       st.lists(st.integers(0, 16).map(lambda j: j / 2.0), min_size=1, max_size=2))
def test_modcn_never_bifurcates(c, dt, k):
    # MODCN's nonlinearity about c with partner c has slope 3c^2 >= 0
    assert bifurcation_epsilon_sq(MODCN, c, dt, ModeIndex(tuple(k))) is None
    assert enumerate_bifurcations(MODCN, c, dt, eps_min=1e-3, max_k=2, dim=len(k)) == []


def test_dirk_stage_a_one_reduces_to_be():
    # the one-stage tableau a = ((1,),) is backward Euler
    one_stage = SchemeKind("dirk", ButcherTableau(((1.0,),), (1.0,)))
    rng = np.random.default_rng(23)
    for _ in range(50):
        c = rng.uniform(-2, 2)
        p = ACParams(rng.uniform(0.05, 0.5), rng.uniform(1e-3, 1.0))
        assert _slope(one_stage, c, p) == _slope(BE, c, p)


def test_bifurcation_values():
    k1 = ModeIndex((1.0,))
    assert bifurcation_epsilon_sq(BE, 0.0, 1.0, k1) == pytest.approx(
        1.0 / (1.0 + math.pi**2), rel=1e-14
    )
    assert bifurcation_epsilon_sq(CN, 0.0, 1.0, k1) == pytest.approx(
        1.0 / (2.0 + math.pi**2), rel=1e-14
    )
    # vanishing / negative numerator -> no bifurcation
    assert bifurcation_epsilon_sq(BE, 1.0 / math.sqrt(3.0), 1.0, k1) is None
    assert bifurcation_epsilon_sq(BE, 0.6, 1.0, k1) is None
    assert bifurcation_epsilon_sq(MODCN, 0.0, 1.0, k1) is None
    # 2D zero mode, CN: (1-0)/(2/0.5 + 0) = 0.25
    assert bifurcation_epsilon_sq(CN, 0.0, 0.5, ModeIndex((0.0, 0.0))) == 0.25
    # DIRK uses 1/(dt*a) with a = max a_ii = 0.25
    got = bifurcation_epsilon_sq(DIRK2, 0.0, 0.5, k1)
    assert got == pytest.approx(1.0 / (8.0 + math.pi**2), rel=1e-14)


def test_bifurcation_monotonicity():
    dt = 0.8
    prev = math.inf
    for kk in (0.0, 0.5, 1.0, 1.5, 2.0):
        cur = bifurcation_epsilon_sq(BE, 0.1, dt, ModeIndex((kk,)))
        assert cur < prev
        prev = cur
    small = bifurcation_epsilon_sq(CN, 0.1, 0.1, ModeIndex((1.0,)))
    large = bifurcation_epsilon_sq(CN, 0.1, 1.0, ModeIndex((1.0,)))
    assert large > small


def test_enumerate_ordering_example():
    pts = enumerate_bifurcations(BE, 0.0, 10.0, eps_min=0.05, max_k=2, dim=1)
    assert [bp.mode.k for bp in pts] == [(0.0,), (0.5,), (1.0,), (1.5,), (2.0,)]
    eps_sqs = [bp.eps_sq for bp in pts]
    assert eps_sqs == sorted(eps_sqs, reverse=True)
    assert all(bp.eps_sq >= 0.05**2 for bp in pts)
    assert pts[0].eps_sq == pytest.approx(10.0, rel=1e-14)
    assert pts[2].eps_sq == pytest.approx(1.0 / (0.1 + math.pi**2), rel=1e-14)


def test_enumerate_empty_cases():
    assert enumerate_bifurcations(BE, 0.6, 1.0, eps_min=1e-3) == []
    assert enumerate_bifurcations(MODCN, 0.0, 1.0, eps_min=1e-3) == []


def test_enumerate_eigenfunctions_and_notes():
    pts = enumerate_bifurcations(CN, 0.0, 10.0, eps_min=0.05, max_k=1, dim=1)
    by_k = {bp.mode.k: bp for bp in pts}
    assert by_k[(1.0,)].eigenfunction == "cos(1*pi*x1)"
    assert by_k[(0.5,)].eigenfunction == "sin(0.5*pi*x1)"
    assert by_k[(0.5,)].note != ""  # index convention flagged for this scheme
    assert by_k[(1.0,)].note == ""
    be_pts = enumerate_bifurcations(BE, 0.0, 10.0, eps_min=0.05, max_k=1, dim=1)
    assert all(bp.note == "" for bp in be_pts)


def test_enumerate_2d_modes():
    pts = enumerate_bifurcations(CN, 0.0, 0.5, eps_min=0.05, max_k=1, dim=2)
    ks = [bp.mode.k for bp in pts]
    assert (0.0, 0.0) in ks and (1.0, 1.0) in ks
    assert pts[0].mode.k == (0.0, 0.0) and pts[0].eps_sq == 0.25
    two_d = next(bp for bp in pts if bp.mode.k == (1.0, 1.0))
    assert two_d.eps_sq == pytest.approx(1.0 / (4.0 + 2 * math.pi**2), rel=1e-14)
    assert two_d.eigenfunction == "cos(1*pi*x1)*cos(1*pi*x2)"


def test_discrete_operator_singular_at_bifurcation():
    # assemble the linearized step operator at a bifurcating eps; the mode is
    # a near-null vector whose Rayleigh residual shrinks ~4x per h-halving
    c, dt = 0.2, 0.5
    mode = ModeIndex((1.0,))
    eps_sq = bifurcation_epsilon_sq(BE, c, dt, mode)

    def rayleigh(n):
        g = make_grid(1, n)
        m = g.num_nodes
        A = (
            sp.identity(m) / dt
            - laplacian_matrix(g).tosparse()
            + sp.identity(m) * ((3 * c**2 - 1) / eps_sq)
        )
        v = eval_mode(mode, g).values
        return np.max(np.abs(A @ v)) / np.max(np.abs(v))

    coarse, fine = rayleigh(33), rayleigh(65)
    assert coarse < 1e-1
    assert 3.5 <= coarse / fine <= 4.5
