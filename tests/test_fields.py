import dataclasses
import math
import warnings

import numpy as np
import pytest

from acstab.errors import ConfigurationError
from acstab.fields import (
    ACParams,
    ButcherTableau,
    DIRK2_TABLEAU,
    GridSpec,
    ModeIndex,
    ScalarField,
    _minus_force,
    center_value,
    constant_field,
    eval_mode,
    field_l2,
    field_mean,
    laplacian_matrix,
    make_grid,
    trapezoid_weights,
)


def test_grid_spec_basics():
    g = make_grid(1, 5)
    assert g.h == pytest.approx(0.5)
    assert g.num_nodes == 5
    assert g.axis()[0] == -1.0 and g.axis()[-1] == 1.0
    g2 = make_grid(2, 5)
    assert g2.num_nodes == 25
    coords = g2.node_coordinates()
    assert coords.shape == (25, 2)
    assert coords[0].tolist() == [-1.0, -1.0]
    assert coords[-1].tolist() == [1.0, 1.0]


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        make_grid(3, 17)
    with pytest.raises(ConfigurationError):
        make_grid(1, 2)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        ACParams(eps=0.0, dt=0.1)
    with pytest.raises(ConfigurationError):
        ACParams(eps=0.1, dt=-1.0)
    with pytest.raises(ConfigurationError):
        ACParams(eps=0.1, dt=1e-320)  # 1/dt overflows
    assert ACParams(eps=0.1, dt=1e-308).dt == 1e-308  # subnormal, but 1/dt is finite
    assert ACParams(eps=0.1, dt=0.1).eps2 == pytest.approx(0.01)


def test_scalar_field_validation():
    g = make_grid(1, 9)
    with pytest.raises(ConfigurationError):
        ScalarField(g, np.zeros(8))
    with pytest.raises(ConfigurationError):
        ScalarField(g, np.full(9, np.nan))
    u = ScalarField(g, np.arange(9.0))
    assert u.values.dtype == np.float64


def test_constant_laplacian_is_exactly_zero():
    for dim, n in [(1, 33), (2, 17)]:
        u = constant_field(make_grid(dim, n), 3.7)
        assert np.all(laplacian_matrix(u.grid) @ u.values == 0.0)


def test_laplacian_linearity():
    rng = np.random.default_rng(7)
    g = make_grid(2, 13)
    u = ScalarField(g, rng.uniform(-2, 2, g.num_nodes))
    v = ScalarField(g, rng.uniform(-2, 2, g.num_nodes))
    lap = laplacian_matrix(g)
    lhs = lap @ (1.5 * u.values - 0.25 * v.values)
    rhs = 1.5 * (lap @ u.values) - 0.25 * (lap @ v.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_neumann_weighted_sum_vanishes():
    # discrete divergence theorem: trapezoid-weighted sum of Lu is ~0
    rng = np.random.default_rng(11)
    from acstab.fields import trapezoid_weights

    for dim, n in [(1, 41), (2, 17)]:
        g = make_grid(dim, n)
        u = ScalarField(g, rng.uniform(-3, 3, g.num_nodes))
        w = trapezoid_weights(g)
        total = float(w @ (laplacian_matrix(g) @ u.values))
        assert abs(total) <= 1e-10 * np.max(np.abs(u.values)) * g.num_nodes


def test_integer_mode_eigenvalue_1d():
    g = make_grid(1, 257)
    v = eval_mode(ModeIndex((1.0,)), g)
    err = laplacian_matrix(g) @ v.values + math.pi**2 * v.values
    assert np.max(np.abs(err)) <= 1e-3


def test_integer_mode_eigenvalue_2d():
    g = make_grid(2, 129)
    v = eval_mode(ModeIndex((1.0, 1.0)), g)
    err = laplacian_matrix(g) @ v.values + 2 * math.pi**2 * v.values
    assert np.max(np.abs(err)) <= 5e-3


@pytest.mark.parametrize(
    "dim,k",
    [(1, (1.0,)), (1, (2.0,)), (1, (0.5,)), (1, (1.5,)), (2, (1.0, 1.0)), (2, (0.5, 1.0))],
)
def test_mode_eigenvalue_h_halving(dim, k):
    mode = ModeIndex(k)
    m = mode.laplace_eigenvalue

    def max_err(n):
        g = make_grid(dim, n)
        v = eval_mode(mode, g)
        return np.max(np.abs(laplacian_matrix(g) @ v.values + m * v.values))

    n0 = 33 if dim == 2 else 65
    coarse, fine = max_err(n0), max_err(2 * (n0 - 1) + 1)
    assert 3.5 <= coarse / fine <= 4.5


def test_mode_is_exact_discrete_eigenvector():
    # cos/sin modes diagonalize the mirror-ghost stencil with
    # lambda_h = sum_i (4/h^2) sin^2(k_i pi h / 2)
    for dim, k in [(1, (2.0,)), (1, (1.5,)), (2, (1.0, 0.5))]:
        g = make_grid(dim, 33)
        mode = ModeIndex(k)
        lam = sum(4.0 / g.h**2 * math.sin(ki * math.pi * g.h / 2) ** 2 for ki in k)
        v = eval_mode(mode, g)
        resid = laplacian_matrix(g) @ v.values + lam * v.values
        assert np.max(np.abs(resid)) <= 1e-10 * lam


def test_ac_rhs_zeros_exact():
    g = make_grid(1, 17)
    p = ACParams(eps=0.2, dt=0.1)
    for c in (-1.0, 0.0, 1.0):
        v = constant_field(g, c).values
        assert np.all(_minus_force(laplacian_matrix(g) @ v, v, p) == 0.0)


def test_ac_rhs_odd():
    rng = np.random.default_rng(3)
    g = make_grid(1, 21)
    p = ACParams(eps=0.3, dt=0.1)
    u = rng.uniform(-2, 2, g.num_nodes)
    lap = laplacian_matrix(g)
    neg = _minus_force(lap @ -u, -u, p)
    assert np.max(np.abs(neg + _minus_force(lap @ u, u, p))) <= 1e-11


def test_mode_index_validation():
    with pytest.raises(ConfigurationError):
        ModeIndex((-1.0,))
    with pytest.raises(ConfigurationError):
        ModeIndex((0.3,))
    with pytest.raises(ConfigurationError):
        ModeIndex(())
    m = ModeIndex((1.0, 0.5))
    assert m.flavors() == ("cos", "sin")
    assert m.laplace_eigenvalue == pytest.approx(math.pi**2 * 1.25)
    assert "cos(1*pi*x1)" in m.describe() and "sin(0.5*pi*x2)" in m.describe()


def test_mode_grid_dim_mismatch():
    with pytest.raises(ConfigurationError):
        eval_mode(ModeIndex((1.0, 1.0)), make_grid(1, 9))


def test_butcher_tableau():
    assert DIRK2_TABLEAU.stages == 2
    assert DIRK2_TABLEAU.max_diag == 0.25
    with pytest.raises(ConfigurationError):
        ButcherTableau(a=((0.25, 0.5), (0.5, 0.25)), b=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        ButcherTableau(a=((0.0,),), b=(1.0,))  # explicit-only
    with pytest.raises(ConfigurationError, match="^b must have one entry per stage$"):
        ButcherTableau(a=((0.25, 0.0), (0.5, 0.25)), b=(1.0,))
    # the equation is autonomous: no stage reads nodes c, so the tableau has none
    assert [f.name for f in dataclasses.fields(ButcherTableau)] == ["a", "b"]


def test_butcher_tableau_needs_an_implicit_stage():
    # an explicit first stage (a_11 = 0) is accepted, as in the trapezoid rule
    assert ButcherTableau(a=((0.0, 0.0), (0.5, 0.5)), b=(0.5, 0.5)).max_diag == 0.5
    with pytest.raises(ConfigurationError, match="implicit stage"):
        ButcherTableau(a=((0.0, 0.0), (0.5, 0.0)), b=(0.5, 0.5))
    # a later stage is never explicit: only a first stage is phi_n
    with pytest.raises(ConfigurationError, match=r"^only the first stage may be explicit"):
        ButcherTableau(a=((0.25, 0.0), (0.5, 0.0)), b=(0.5, 0.5))


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("c", (1e200, -1e200, 1e-200))
def test_field_l2_of_fields_far_from_one(c, dim):
    # the plain sum of squares overflows (1e400) or underflows (1e-400)
    g = make_grid(dim, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = field_l2(constant_field(g, c))
    want = abs(c) * math.sqrt(float(np.sum(trapezoid_weights(g))))  # sqrt(2) |c| in 1D
    assert abs(got - want) <= 1e-15 * want
    assert field_l2(constant_field(g, 0.0)) == 0.0


def test_field_statistics():
    g = make_grid(1, 33)
    assert field_mean(constant_field(g, 0.75)) == pytest.approx(0.75, abs=1e-14)
    assert field_l2(constant_field(g, 2.0)) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    x = g.axis()
    u = ScalarField(g, x)
    assert center_value(u) == 0.0
    g2 = make_grid(2, 9)
    v = ScalarField(g2, np.arange(81.0))
    assert center_value(v) == v.values[4 * 9 + 4]
    assert field_mean(ScalarField(g2, g2.node_coordinates()[:, 0])) == pytest.approx(0.0, abs=1e-14)
