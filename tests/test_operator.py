import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import acstab
from acstab.fields import (
    dct1,
    laplacian_eigenvalues,
    laplacian_matrix,
    make_grid,
    trapezoid_weights,
)
import acstab.solvers as solvers
from acstab.solvers import ShiftedLaplacian

_NS = (3, 4, 5, 17, 33)


def _linf(v):
    return float(np.max(np.abs(v)))


def _symmetric_eigenvalues(op):
    """Eigenvalues of op, which is self-adjoint in the trapezoid inner product."""
    sw = np.sqrt(trapezoid_weights(op.grid))
    s = sw[:, None] * op.todense() / sw[None, :]
    return np.linalg.eigvalsh(0.5 * (s + s.T))


@st.composite
def operators(draw):
    grid = make_grid(draw(st.sampled_from((1, 2))), draw(st.sampled_from(_NS)))
    a = draw(st.floats(-300.0, 300.0, allow_subnormal=False))
    b = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False)))
    # d = center + spread * noise: both sides of a + min(d) > 0 get drawn
    center = draw(st.floats(-300.0, 300.0, allow_subnormal=False))
    spread = draw(st.floats(0.0, 300.0, allow_subnormal=False))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = center + spread * rng.uniform(-1.0, 1.0, grid.num_nodes)
    return ShiftedLaplacian(grid, a, b, d), rng


@settings(max_examples=60, deadline=None)
@given(operators())
def test_operator_matches_sparse_and_solves_to_tolerance(drawn):
    op, rng = drawn
    x = rng.standard_normal(op.grid.num_nodes)
    lap_norm = _linf(laplacian_matrix(op.grid).data)
    scale = (abs(op.a) + 4.0 * op.grid.dim * op.b * lap_norm + _linf(op.d)) * _linf(x)
    assert _linf(op @ x - op.tosparse() @ x) <= 1e-13 * scale

    # solve is held to 1e-12 on operators away from singular
    eig = np.abs(_symmetric_eigenvalues(op))
    assume(eig.min() > 1e-8 * eig.max())
    rhs = op @ x
    got = op.solve(rhs)
    assert _linf(rhs - op @ got) <= 1e-12 * _linf(rhs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)), st.sampled_from(_NS), st.integers(0, 2**32 - 1))
def test_laplacian_is_diagonal_in_dct1_basis(dim, n, seed):
    g = make_grid(dim, n)
    x = np.random.default_rng(seed).standard_normal(g.num_nodes)
    lam = laplacian_eigenvalues(g)
    expansion = dct1(lam * dct1(x.reshape(lam.shape))).ravel() / (2 * (n - 1)) ** dim
    assert _linf(laplacian_matrix(g) @ x - expansion) <= 1e-12 * _linf(lam) * _linf(x)


def test_certificate_is_the_uniqueness_condition():
    g = make_grid(2, 5)
    d = np.linspace(-1.0, 1.0, g.num_nodes)
    assert ShiftedLaplacian(g, 1.5, 0.3, d).certified
    assert not ShiftedLaplacian(g, 1.0, 0.3, d).certified  # a + min(d) = 0
    assert not ShiftedLaplacian(g, 1.5, -0.3, d).certified  # b < 0


@pytest.mark.parametrize("n", (5, 33))
def test_preconditioner_is_exact_for_constant_diagonal(monkeypatch, n):
    # with d constant the DCT-I preconditioner inverts the operator, so one
    # CG iteration reaches the 1e-12 residual bound
    monkeypatch.setattr(solvers, "_CG_MAX_ITER", 1)
    g = make_grid(2, n)
    op = ShiftedLaplacian(g, 100.0, 0.5, np.full(g.num_nodes, -37.5))
    rhs = np.random.default_rng(3).standard_normal(g.num_nodes)
    x = op._pcg(rhs)
    assert x is not None
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


def test_cli_import_leaves_scipy_fft_unloaded():
    code = "import sys, acstab.cli; print('scipy.fft' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
