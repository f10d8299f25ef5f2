import os
import subprocess
import sys
from itertools import islice
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import acstab
import acstab.fields as fields
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
    s = sw[:, None] * op.tosparse().toarray() / sw[None, :]
    return np.linalg.eigvalsh(0.5 * (s + s.T))


@st.composite
def operators(draw, dims=(1, 2)):
    grid = make_grid(draw(st.sampled_from(dims)), draw(st.sampled_from(_NS)))
    a = draw(st.floats(-300.0, 300.0, allow_subnormal=False))
    b = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False)))
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
    lap_norm = _linf(laplacian_matrix(op.grid).tosparse().data)
    scale = (abs(op.a) + 4.0 * op.grid.dim * abs(op.b) * lap_norm + _linf(op.d)) * _linf(x)
    assert _linf(op @ x - op.tosparse() @ x) <= 1e-13 * scale

    # solve is held to 1e-12 on operators away from singular
    eig = np.abs(_symmetric_eigenvalues(op))
    assume(eig.min() > 1e-8 * eig.max())
    rhs = op @ x
    got = op.solve(rhs)
    assert _linf(rhs - op @ got) <= 1e-12 * _linf(rhs)


@settings(max_examples=60, deadline=None)
@given(operators(dims=(2,)), st.floats(-12.0, -1.0))
def test_2d_solve_stops_at_its_rtol(drawn, log_rtol):
    # CG and MINRES stop at a true residual within rtol; where they miss, LU
    # solves exactly whatever rtol is
    op, rng = drawn
    eig = np.abs(_symmetric_eigenvalues(op))
    assume(eig.min() > 1e-8 * eig.max())
    rtol = 10.0 ** log_rtol
    rhs = op @ rng.standard_normal(op.grid.num_nodes)
    x = op._krylov(rhs, rtol)
    got = op.solve(rhs, rtol)
    if x is not None:
        assert np.array_equal(got, x)
    assert _linf(rhs - op @ got) <= (rtol if x is not None else 1e-12) * _linf(rhs)


@settings(max_examples=60, deadline=None)
@given(operators(dims=(1,)), st.floats(-12.0, -1.0))
def test_1d_solve_is_exact_at_every_rtol(drawn, log_rtol):
    op, rng = drawn
    rhs = op @ rng.standard_normal(op.grid.num_nodes)
    try:
        want = op.solve(rhs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            op.solve(rhs, 10.0 ** log_rtol)
        return
    assert op.solve(rhs, 10.0 ** log_rtol).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)), st.sampled_from(_NS), st.integers(0, 2**32 - 1))
def test_laplacian_is_diagonal_in_dct1_basis(dim, n, seed):
    g = make_grid(dim, n)
    x = np.random.default_rng(seed).standard_normal(g.num_nodes)
    lam = laplacian_eigenvalues(g)
    expansion = dct1(lam * dct1(x.reshape(lam.shape))).ravel() / (2 * (n - 1)) ** dim
    assert _linf(laplacian_matrix(g) @ x - expansion) <= 1e-12 * _linf(lam) * _linf(x)


def _kron_sum_csr(g):
    """The Laplacian as scipy.sparse assembles it: the 1D rows by diags plus
    the two mirrored boundary entries, scaled by 1 / h^2, and in 2D the
    Kronecker sum of two 1D copies.  The oracle of laplacian_matrix's rows."""
    import scipy.sparse as sp

    n, h = g.n, g.h
    lap1 = sp.diags([np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)], [-1, 0, 1], format="lil")
    lap1[0, 1] = 2.0
    lap1[n - 1, n - 2] = 2.0
    lap1 = (lap1 / (h * h)).tocsr()
    if g.dim == 1:
        return lap1
    eye = sp.identity(n, format="csr")
    return (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsr()


@st.composite
def laplacian_inputs(draw):
    """A grid (1D n = 3..257, 2D n = 3..129) and node values: magnitudes
    1e-5..1e5 of either sign with some signed zeros, only signed zeros, or
    one constant from the whole finite range."""
    dim = draw(st.sampled_from((1, 2)))
    g = make_grid(dim, draw(st.integers(3, 257 if dim == 1 else 129)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice((-1.0, 1.0), g.num_nodes)
    kind = draw(st.sampled_from(("mixed", "zeros", "constant")))
    if kind == "constant":
        x = np.full(g.num_nodes, draw(st.floats(allow_nan=False, allow_infinity=False)))
    else:
        x = signs * 10.0 ** rng.uniform(-5.0, 5.0, g.num_nodes)
        x[rng.random(g.num_nodes) < (1.0 if kind == "zeros" else 0.2)] = 0.0
        x *= np.where(rng.random(g.num_nodes) < 0.5, -1.0, 1.0)  # -0.0 where x is 0
    return g, x, rng


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _constant_examples(test):
    """@example the constants at the ends of the float range, in 1D and 2D."""
    for g in (make_grid(1, 257), make_grid(2, 129)):
        for value in (1e308, -1e308, 5e-324, -5e-324, -0.0):
            test = example((g, np.full(g.num_nodes, value), np.random.default_rng(0)))(test)
    return test


@settings(max_examples=60, deadline=None)
@given(laplacian_inputs())
@example((make_grid(1, 257), np.linspace(-1e5, 1e5, 257), np.random.default_rng(0)))
@_constant_examples
def test_laplacian_product_is_zero_on_constants_and_near_the_csr_product(drawn):
    # L @ x is +0.0 (no sign bit) on every finite constant, where the CSR
    # product S @ x may leave roundoff, or overflow; elsewhere each row is
    # within 4 eps of |S| @ |x| of S @ x (seen over 3,000 draws: 3.0 eps)
    g, x, rng = drawn
    lap = laplacian_matrix(g)
    csr, oracle = lap.tosparse(), _kron_sum_csr(g)
    y = lap @ x
    if np.all(_bits(x) == _bits(x)[0]):
        assert not _bits(y).any()
    else:
        bound = 4.0 * np.finfo(float).eps * (abs(csr) @ np.abs(x))
        assert np.all(np.abs(y - csr @ x) <= bound)
    assert np.array_equal(csr.indptr, oracle.indptr)
    assert np.array_equal(csr.indices, oracle.indices)
    assert np.array_equal(_bits(csr.data), _bits(oracle.data))
    if g.dim == 1:
        # the band solve reads the CSR's diagonals, as a, b and d shift them
        a, b, d = rng.uniform(-300.0, 300.0), rng.uniform(-2.0, 2.0), rng.uniform(-300.0, 300.0, g.n)
        ab = ShiftedLaplacian(g, a, b, d)._band()
        assert np.array_equal(_bits(ab[0, 1:]), _bits(-b * csr.diagonal(1)))
        assert np.array_equal(_bits(ab[1]), _bits((a + -b * csr.diagonal()) + d))
        assert np.array_equal(_bits(ab[2, :-1]), _bits(-b * csr.diagonal(-1)))


def _mirror_fft_dct1(arr):
    """dct1 as the real FFT of the mirror extension along each axis: an oracle."""
    out = np.asarray(arr, dtype=float)
    for axis in range(out.ndim):
        inner = (slice(None),) * axis + (slice(-2, 0, -1),)
        out = np.fft.rfft(np.concatenate((out, out[inner]), axis=axis), axis=axis).real
    return out


def _check_dct1(x):
    """dct1(x) is the oracle's, and dct1 twice is (2 (m - 1)) per axis of length
    m times x, each to 1e-13 n ||x|| with n the longest axis."""
    bound = 1e-13 * max(x.shape) * _linf(x)
    assert _linf(dct1(x) - _mirror_fft_dct1(x)) <= bound
    scale = np.prod([2.0 * (m - 1) for m in x.shape])
    assert _linf(dct1(dct1(x)) / scale - x) <= bound


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((3, 4, 5, 17, 33, 65, 129)), st.sampled_from((1, 2)),
       st.integers(0, 2**32 - 1), st.floats(-100.0, 100.0))
def test_dct1_is_the_fft_of_the_mirror_and_its_own_inverse(n, dim, seed, log_scale):
    _check_dct1(10.0 ** log_scale * np.random.default_rng(seed).standard_normal((n,) * dim))


@pytest.mark.parametrize("shape", ((3, 5), (5, 3)))
def test_dct1_of_a_non_square_array(shape):
    _check_dct1(np.random.default_rng(5).standard_normal(shape))


def test_dct1_matrix_is_read_only_and_built_once_per_length():
    build = fields._dct1_matrix
    build.cache_clear()
    for _ in range(3):
        dct1(np.ones(23))
        dct1(np.ones((23, 23)))
    assert build.cache_info().misses == 1
    with pytest.raises(ValueError):
        build(23)[0, 0] = 0.0


def _smooth_certified_operator():
    """A CN Jacobian about 0.5 + 0.1 cos(pi x) cos(2 pi y) at eps = 0.1, dt = 0.01."""
    g = make_grid(2, 65)
    v = 0.5 + 0.1 * eval_mode(ModeIndex((1.0, 2.0)), g).values
    return ShiftedLaplacian(g, 1.0, 0.005, 0.5 * (3.0 * v * v - 1.0))


def test_cg_iterations_on_a_smooth_certified_operator():
    # the preconditioned CG reaches the 1e-12 residual bound in 9 iterations,
    # as it did with the FFT form of dct1
    op = _smooth_certified_operator()
    g = op.grid
    assert op.certified
    rhs = np.random.default_rng(0).standard_normal(g.num_nodes)
    m = float(np.mean(op.d))
    iterates = solvers._cg(op.d - m, rhs, op._preconditioner(m), trapezoid_weights(g))
    residuals = [_linf(r) for _x, r, _ in islice(iterates, 20)]
    assert next(i for i, r in enumerate(residuals, 1) if r <= 1e-12 * _linf(rhs)) == 9


def test_certified_solve_applies_the_laplacian_once(monkeypatch):
    # CG carries M p beside each direction p, M the preconditioner's operator,
    # so its 9 iterations on this operator apply no Laplacian: the one
    # product is _krylov's true-residual test
    op = _smooth_certified_operator()
    rhs = np.random.default_rng(0).standard_normal(op.grid.num_nodes)
    calls = []
    matmul = fields._Laplacian.__matmul__
    monkeypatch.setattr(fields._Laplacian, "__matmul__",
                        lambda lap, x: calls.append(1) or matmul(lap, x))
    x = op.solve(rhs)
    assert len(calls) == 1
    monkeypatch.undo()
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


def test_certificate_is_the_uniqueness_condition():
    g = make_grid(2, 5)
    d = np.linspace(-1.0, 1.0, g.num_nodes)
    assert ShiftedLaplacian(g, 1.5, 0.3, d).certified
    assert not ShiftedLaplacian(g, 1.0, 0.3, d).certified  # a + min(d) = 0
    assert not ShiftedLaplacian(g, 1.5, -0.3, d).certified  # b < 0


@st.composite
def certified_operators(draw):
    """2D operators with b >= 0 and a = slack - min(d), the slack > 0 drawn
    log-uniformly down to rounding sizes, where a + min(d) may round to 0."""
    grid = make_grid(2, draw(st.sampled_from(_NS)))
    b = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False)))
    center = draw(st.floats(-300.0, 300.0, allow_subnormal=False))
    spread = draw(st.floats(0.0, 300.0, allow_subnormal=False))
    d = center + spread * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.0, 1.0, grid.num_nodes)
    a = 10.0 ** draw(st.floats(-16.0, 2.5)) - float(np.min(d))
    return ShiftedLaplacian(grid, a, b, d)


@settings(max_examples=200, deadline=None)
@given(certified_operators())
def test_certified_mean_diagonal_operator_is_positive(op):
    # on a certified operator (a + mean(d)) - b lam > 0 at every DCT-I
    # eigenvalue lam <= 0 of L, so the preconditioner's absolute value is the
    # operator itself; np.mean may round a few ulps below min(d), which only
    # matters when a + min(d) is within rounding of 0
    assume(op.certified)
    lam = laplacian_eigenvalues(op.grid)
    assert np.max(lam) <= 0.0
    mean = (op.a + float(np.mean(op.d))) - op.b * lam
    slack = op.a + float(np.min(op.d))
    assert np.min(mean) > 0.0 or 0.0 < slack <= 1e-12 * (abs(op.a) + _linf(op.d))


@pytest.mark.parametrize("n", (5, 33))
def test_preconditioner_is_exact_for_constant_diagonal(monkeypatch, n):
    # with d constant the DCT-I preconditioner inverts the operator, so one
    # CG iteration reaches the 1e-12 residual bound
    monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 1)
    g = make_grid(2, n)
    op = ShiftedLaplacian(g, 100.0, 0.5, np.full(g.num_nodes, -37.5))
    rhs = np.random.default_rng(3).standard_normal(g.num_nodes)
    assert op.certified
    x = op._krylov(rhs)
    assert x is not None
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


@pytest.mark.parametrize(
    "op",
    (_helmholtz(17, 0.0), _helmholtz(33, 0.0),
     ShiftedLaplacian(make_grid(2, 17), 1.0, -0.05, np.full(17 * 17, -0.5))),  # b < 0
    ids=("17", "33", "b_negative"),
)
def test_absolute_preconditioner_is_exact_for_constant_diagonal(monkeypatch, op):
    # with d constant the preconditioned operator has the eigenvalues -1 and
    # +1 only, so two MINRES iterations reach the 1e-12 residual bound
    monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 2)
    eig = _symmetric_eigenvalues(op)
    assert not op.certified and eig.min() < 0.0 < eig.max()  # indefinite
    rhs = np.random.default_rng(3).standard_normal(op.grid.num_nodes)
    x = op._krylov(rhs)
    assert x is not None
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


def test_minres_miss_falls_back_to_lu(monkeypatch):
    # one MINRES iteration cannot solve a varying-d operator: sparse LU does,
    # ordered for the symmetric 5-point pattern
    monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 1)
    op = _helmholtz(17, 0.05)
    rhs = np.random.default_rng(4).standard_normal(op.grid.num_nodes)
    assert op._krylov(rhs) is None
    calls = []
    splu = solvers.spla.splu
    monkeypatch.setattr(solvers.spla, "splu",
                        lambda matrix, **kwargs: calls.append(kwargs) or splu(matrix, **kwargs))
    x = op.solve(rhs)
    assert [c["options"] for c in calls] == [{"SymmetricMode": True}]
    assert _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


@pytest.mark.parametrize("certified", (True, False), ids=("cg", "minres"))
def test_false_recursive_convergence_falls_back_to_lu(monkeypatch, certified):
    # a recursive residual that meets the bound while the true one does not
    # is a miss: _krylov returns None and solve falls back to LU
    op = _helmholtz(17, 0.05)
    if certified:
        op = ShiftedLaplacian(op.grid, 2.0, op.b, op.d)
    assert op.certified == certified
    rhs = np.random.default_rng(5).standard_normal(op.grid.num_nodes)
    assert op._krylov(rhs) is not None
    name = "_cg" if certified else "_minres"
    method = getattr(solvers, name)

    def converged_at_once(*args):
        iterates = method(*args)
        x, r, invariant = next(iterates)
        yield x, np.zeros_like(r), invariant  # a false recursive convergence
        yield from iterates

    monkeypatch.setattr(solvers, name, converged_at_once)
    assert op._krylov(rhs) is None
    calls = []
    splu = solvers.spla.splu
    monkeypatch.setattr(solvers.spla, "splu",
                        lambda matrix, **kwargs: calls.append(1) or splu(matrix, **kwargs))
    x = op.solve(rhs)
    assert calls == [1] and _linf(rhs - op @ x) <= 1e-12 * _linf(rhs)


def _near_underflow(a, b, d, seed=0):
    """A 2D n = 3 operator with d near the bottom of the float range: the
    preconditioner divides by |a + mean(d)| (2 (n - 1))^2 and overflows."""
    return ShiftedLaplacian(make_grid(2, 3), a, b, np.asarray(d, dtype=float)), np.random.default_rng(seed)


_SIGNS = (1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(operators(dims=(2,)), st.floats(-12.0, -1.0))
@example((_helmholtz(33, 0.3), np.random.default_rng(0)), -12.0)
@example(_near_underflow(0.0, 1.0, np.full(9, 1.86e-167), seed=1), -1.0)
@example(_near_underflow(0.0, 1.0, np.multiply(_SIGNS, 1.86e-167)), -1.0)
@example(_near_underflow(0.0, 0.0, np.full(9, 2.2250738585072014e-308)), -1.0)
def test_krylov_runs_at_most_its_iteration_cap(drawn, log_rtol):
    op, rng = drawn
    name = "_cg" if op.certified else "_minres"
    method = getattr(solvers, name)
    iterations = []

    def counted(*args):
        for item in method(*args):
            iterations.append(1)
            yield item

    rhs = rng.standard_normal(op.grid.num_nodes)
    with mock.patch.object(solvers, name, counted):
        op._krylov(rhs, 10.0 ** log_rtol)
    assert len(iterations) <= solvers._KRYLOV_MAX_ITER


def test_solve_raises_where_its_true_residual_is_not_finite():
    # sparse LU returns x of about 6e307, whose residual evaluates -b L x as 0 * inf
    op, rng = _near_underflow(0.0, 0.0, np.full(9, 2.2250738585072014e-308))
    with pytest.raises(np.linalg.LinAlgError, match="singular or ill-conditioned"):
        op.solve(rng.standard_normal(9))


@pytest.mark.parametrize("d", (1.86e-167, 1e-20))
def test_solve_raises_where_refinement_leaves_a_large_residual(d):
    # a = 0, b = 1 and a tiny d: nearly singular, so sparse LU returns x of
    # about 2e15 whose residual stays near |rhs| after refinement; Newton
    # reports the failed solve instead of stepping by it
    op, rng = _near_underflow(0.0, 1.0, np.full(9, d))
    rhs = rng.standard_normal(9)
    with pytest.raises(np.linalg.LinAlgError, match="residual .* after refinement"):
        op.solve(rhs)
    x, rep = solvers.newton_solve(lambda v: op @ v - rhs, lambda v: op, np.zeros(9))
    assert not rep.converged and rep.iterations == 0
    assert rep.message.startswith("linear solve failed: singular or ill-conditioned Jacobian")


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
    # one MINRES iteration misses on a varying-d operator, so LU solves it
    monkeypatch.setattr(solvers, "_KRYLOV_MAX_ITER", 1)
    g = make_grid(2, 9)
    op = ShiftedLaplacian(g, 1.0, -1e-3, np.linspace(0.0, 1.0, g.num_nodes))  # b < 0: not certified
    rhs = np.linspace(-1.0, 1.0, g.num_nodes)
    assert op._krylov(rhs) is None
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
