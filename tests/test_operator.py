import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import acstab
from acstab.fields import (
    ModeIndex,
    dct1,
    eval_mode,
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


def _helmholtz(n, amplitude):
    """A Helmholtz-like 2D operator like DIRK2's backward stages: a + d near -1.1
    and b > 0, indefinite from n = 17 on; d varies by amplitude times a smooth mode."""
    g = make_grid(2, n)
    d = -0.12 + amplitude * eval_mode(ModeIndex((1.0, 2.0)), g).values
    return ShiftedLaplacian(g, -1.0, 0.0025, d)


@settings(max_examples=60, deadline=None)
@given(operators())
@example((_helmholtz(33, 0.05), np.random.default_rng(0)))
# a + mean(d) = 0: the absolute-value preconditioner is singular, so LU solves it
@example((ShiftedLaplacian(make_grid(2, 4), -1.0, 0.0, np.tile((0.5, 1.5), 8)),
          np.random.default_rng(0)))
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
    monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 1)
    g = make_grid(2, n)
    op = ShiftedLaplacian(g, 100.0, 0.5, np.full(g.num_nodes, -37.5))
    rhs = np.random.default_rng(3).standard_normal(g.num_nodes)
    x = op._pcg(rhs)
    assert x is not None
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


@pytest.mark.parametrize("n", (17, 33))
def test_absolute_preconditioner_is_exact_for_constant_diagonal(monkeypatch, n):
    # with d constant the preconditioned operator has the eigenvalues -1 and
    # +1 only, so two MINRES iterations reach the 1e-12 residual bound
    monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 2)
    op = _helmholtz(n, 0.0)
    eig = _symmetric_eigenvalues(op)
    assert not op.certified and eig.min() < 0.0 < eig.max()  # indefinite
    rhs = np.random.default_rng(3).standard_normal(op.grid.num_nodes)
    x = op._minres(rhs)
    assert x is not None
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


def test_minres_miss_falls_back_to_lu(monkeypatch):
    # one MINRES iteration cannot solve a varying-d operator: sparse LU does,
    # ordered for the symmetric 5-point pattern
    monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 1)
    op = _helmholtz(17, 0.05)
    rhs = np.random.default_rng(4).standard_normal(op.grid.num_nodes)
    assert op._minres(rhs) is None
    calls = []
    splu = solvers.spla.splu
    monkeypatch.setattr(solvers.spla, "splu",
                        lambda matrix, **kwargs: calls.append(kwargs) or splu(matrix, **kwargs))
    x = op.solve(rhs)
    assert [c["options"] for c in calls] == [{"SymmetricMode": True}]
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


@st.composite
def tridiagonal_systems(draw):
    """(ab, rhs): a tridiagonal system in solve_banded's (1, 1) layout.

    Off-diagonals up to `off` times the diagonal's magnitude; above 1 the
    LU's partial pivoting swaps rows.
    """
    n = draw(st.integers(2, 40))
    off = draw(st.sampled_from((0.1, 1.0, 10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ab = rng.uniform(-1.0, 1.0, (3, n))
    ab[0] *= off
    ab[2] *= off
    ab[0, 0] = ab[2, -1] = 0.0
    return ab, rng.standard_normal(n)


# |dl| > |d| in the first column, so gtsv swaps the first two rows
_PIVOTING = (np.array([[0.0, 1.0, 1.0], [1e-3, 1.0, 1.0], [5.0, 1.0, 0.0]]), np.ones(3))


@settings(max_examples=200, deadline=None)
@given(tridiagonal_systems())
@example(_PIVOTING)
def test_tridiagonal_solve_is_solve_banded(system):
    ab, rhs = system
    ab0, rhs0 = ab.copy(), rhs.copy()
    try:
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            solvers._tridiagonal_solve(ab, rhs)
        return
    got = solvers._tridiagonal_solve(ab, rhs)
    assert got.tobytes() == want.tobytes()
    # ab and rhs survive: the refinement step solves with ab again
    assert ab.tobytes() == ab0.tobytes() and rhs.tobytes() == rhs0.tobytes()


_NONFINITE = "array must not contain infs or NaNs"


@pytest.mark.parametrize(
    "d, error, message",
    ((0.0, np.linalg.LinAlgError, "singular matrix"),
     (np.nan, ValueError, _NONFINITE),
     (np.inf, ValueError, _NONFINITE)),
    ids=("singular", "nan", "inf"),
)
def test_tridiagonal_solve_errors(d, error, message):
    g = make_grid(1, 5)
    op = ShiftedLaplacian(g, 0.0, 0.0, np.full(g.n, d))
    rhs = np.ones(g.n)
    with pytest.raises(error, match=message):
        scipy.linalg.solve_banded((1, 1), op._band(), rhs)
    with pytest.raises(error, match=message):
        solvers._tridiagonal_solve(op._band(), rhs)
    # either error ends a Newton solve as a failed linear solve
    x, rep = solvers.newton_solve(lambda v: v + 1.0, lambda v: op, np.zeros(g.n))
    assert not rep.converged and rep.iterations == 0
    assert rep.message == f"linear solve failed: {message}"


def test_cli_import_leaves_scipy_fft_unloaded():
    code = "import sys, acstab.cli; print('scipy.fft' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_solvers_scipy_attributes_import_on_first_access():
    code = (
        "import sys, acstab.solvers as s\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules),"
        " getattr(s, 'spla') is sys.modules['scipy.sparse.linalg'],"
        " getattr(s, 'scipy') is sys.modules['scipy'] and 'scipy.linalg' in sys.modules,"
        " 'spla' in vars(s) and 'scipy' in vars(s), getattr(s, 'nonesuch', None))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True", "True", "True", "None"]


def test_uncertified_2d_solve_reads_patched_splu(monkeypatch):
    g = make_grid(2, 9)
    op = ShiftedLaplacian(g, 1.0, -1e-3, np.zeros(g.num_nodes))  # b < 0: not certified
    rhs = np.linspace(-1.0, 1.0, g.num_nodes)
    calls = []
    splu = solvers.spla.splu

    def counting(matrix, **kwargs):
        calls.append("module")
        return splu(matrix, **kwargs)

    monkeypatch.setattr(solvers.spla, "splu", counting)
    x = op.solve(rhs)
    assert calls == ["module"] and _linf(op @ x - rhs) <= 1e-12
    # a replaced solvers.spla is read on the next call, as a tracer installs it
    view = SimpleNamespace(
        splu=lambda matrix, **kwargs: calls.append("view") or splu(matrix, **kwargs))
    monkeypatch.setattr(solvers, "spla", view)
    assert np.array_equal(op.solve(rhs), x) and calls == ["module", "view"]
