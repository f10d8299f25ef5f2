"""Properties of the one implicit-stage kernel on grids and on constants.

implicit_system is a (v - s) - b Lap(v) + (b / eps^2) n(v) + k = 0 with
n(v) = v^3 - v, or (v + w)(v^2 + w^2) / 2 with a partner state w; with grid
None it is the same equation on constants, where Lap vanishes.  Its
linearization at a constant on one Laplacian eigenmode is mode_slope.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acstab.fields import ACParams, laplacian_eigenvalues, laplacian_matrix, make_grid
from acstab.schemes import (
    BE,
    CN,
    MODCN,
    _step_terms,
    constant_cubic,
    implicit_system,
    mode_slope,
)
from acstab.solvers import fd_jacobian, real_cubic_roots


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False)


def _signed(lo, hi):
    """Magnitudes in [lo, hi] with either sign."""
    return st.tuples(_floats(lo, hi), st.sampled_from((1.0, -1.0))).map(lambda t: t[0] * t[1])


@st.composite
def kernels(draw):
    """(grid, params, a, s, b, k, partner) with scalar s, k and partner."""
    grid = make_grid(draw(st.sampled_from((1, 2))), draw(st.integers(3, 9)))
    p = ACParams(eps=draw(_floats(0.1, 2.0)), dt=draw(_floats(0.01, 1.0)))
    a = draw(_signed(0.01, 100.0))
    b = draw(_signed(0.05, 2.0))
    s = draw(_floats(-3.0, 3.0))
    k = draw(_floats(-50.0, 50.0))
    partner = draw(st.one_of(st.none(), _floats(-3.0, 3.0)))
    return grid, p, a, s, b, k, partner


@settings(max_examples=60, deadline=None)
@given(kernels(), st.integers(0, 2**32 - 1))
def test_jacobian_matches_fd(kernel, seed):
    grid, p, a, s, b, k, partner = kernel
    rng = np.random.default_rng(seed)
    m = grid.num_nodes
    # node-varying s, k and partner, as the steppers pass them
    s_v = s + rng.uniform(-1.0, 1.0, m)
    k_v = k + rng.uniform(-1.0, 1.0, m)
    w_v = None if partner is None else partner + rng.uniform(-1.0, 1.0, m)
    residual, jacobian = implicit_system(grid, p, a, s_v, b, k_v, w_v)
    u = rng.uniform(-2.0, 2.0, m)
    dense = np.asarray(jacobian(u).todense())
    rel = np.linalg.norm(dense - fd_jacobian(residual, u)) / np.linalg.norm(dense)
    assert rel <= 1e-5


@settings(max_examples=60, deadline=None)
@given(kernels(), _floats(-4.0, 4.0))
def test_field_residual_on_constants_is_constant_residual(kernel, x):
    grid, p, a, s, b, k, partner = kernel
    residual, _ = implicit_system(grid, p, a, s, b, k, partner)
    f, _ = implicit_system(None, p, a, s, b, k, partner)
    scale = abs(a) * (abs(x) + abs(s)) + abs(b) / p.eps2 * (abs(x) + abs(partner or 0.0)) ** 3 + abs(k)
    assert np.max(np.abs(residual(np.full(grid.num_nodes, x)) - f(x))) <= 1e-13 * scale


@pytest.mark.parametrize("n", (3, 9, 257))
@pytest.mark.parametrize("kind", (BE, CN, MODCN), ids=lambda k: k.tag)
def test_field_step_residual_on_constants_is_constant_residual_exactly(kind, n):
    # The 1D Laplacian of a constant is exactly 0, and one cube n(v) serves
    # node arrays and floats, so the two residuals agree to the bit, and the
    # derivative on constants is the ShiftedLaplacian's diagonal shift a + d
    grid = make_grid(1, n)
    lap = laplacian_matrix(grid)
    rng = np.random.default_rng(n)
    for _ in range(300):
        p = ACParams(rng.uniform(0.01, 2.0), 10.0 ** rng.uniform(-3.0, 1.0))
        r, x = rng.uniform(-40.0, 40.0, 2)
        v0 = np.full(n, r)
        residual, jacobian = implicit_system(grid, p, *_step_terms(kind, v0, lap @ v0, p))
        f, fp = implicit_system(None, p, *_step_terms(kind, r, 0.0, p))
        assert np.array_equal(residual(np.full(n, x)), np.full(n, f(x)))
        op = jacobian(np.full(n, x))
        assert np.array_equal(op.a + op.d, np.full(n, fp(x)))


@settings(max_examples=200, deadline=None)
@given(kernels())
def test_constant_cubic_roots_zero_constant_residual(kernel):
    _, p, a, s, b, k, partner = kernel
    f, _ = implicit_system(None, p, a, s, b, k, partner)
    g = abs(b) / p.eps2
    w = 0.0 if partner is None else abs(partner)
    roots = real_cubic_roots(*constant_cubic(p, a, s, b, k, partner)).real_roots
    assert roots
    for x in roots:
        ax = max(abs(x), 1.0)  # a root at 0 is judged at unit magnitude
        nl_scale = ax ** 3 + ax if partner is None else 0.5 * (ax + w) * (ax * ax + w * w)
        scale = abs(a) * (ax + abs(s)) + g * nl_scale + abs(k)
        assert abs(f(x)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(kernels(), _floats(-4.0, 4.0), st.data())
def test_mode_slope_is_jacobian_on_a_laplacian_eigenvector(kernel, x, data):
    grid, p, a, s, b, k, partner = kernel
    idx = tuple(data.draw(st.integers(0, grid.n - 1)) for _ in range(grid.dim))
    axis = np.cos(np.pi * np.outer(np.arange(grid.n), idx) / (grid.n - 1))
    v = axis[:, 0] if grid.dim == 1 else np.outer(axis[:, 0], axis[:, 1]).ravel()
    m = -laplacian_eigenvalues(grid)[idx]  # -Lap v = m v
    jac = implicit_system(grid, p, a, s, b, k, partner)[1](np.full(grid.num_nodes, x))
    slope = mode_slope(p, a, s, b, k, partner)(x, m)
    nl_slope = 3.0 * (abs(x) + abs(partner or 0.0)) ** 2 + 1.0
    scale = abs(a) + abs(b) * (4.0 * grid.dim / grid.h ** 2 + nl_slope / p.eps2)
    assert np.max(np.abs(jac @ v - slope * v)) <= 1e-12 * scale
