import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from acstab import solvers
from acstab.errors import AnalysisError, ConfigurationError
from acstab.fields import ACParams, DIRK2_TABLEAU, ScalarField, constant_field, laplacian_matrix, make_grid
from acstab.schemes import (
    BE,
    CN,
    MODCN,
    _nearest,
    _step_terms,
    constant_cubic,
    constant_residual,
    implicit_system,
    step,
)
from acstab.solvers import (
    CubicRoots,
    HomotopyConfig,
    NewtonConfig,
    ShiftedLaplacian,
    delta_schedule,
    fd_jacobian,
    homotopy_path,
    march_deltas,
    newton_solve,
    real_cubic_roots,
)


def test_newton_config_validation():
    with pytest.raises(ConfigurationError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ConfigurationError):
        NewtonConfig(max_iter=0)


def test_fd_jacobian_identity_exact():
    u = np.array([0.3, -1.2, 2.0])
    jac = fd_jacobian(lambda v: v, u)
    assert np.max(np.abs(jac - np.eye(3))) <= 1e-12


def test_fd_jacobian_cubic_diagonal():
    u = np.full(4, 2.0)
    jac = fd_jacobian(lambda v: v**3, u)
    assert np.max(np.abs(np.diag(jac) - 12.0)) <= 1e-5
    off = jac - np.diag(np.diag(jac))
    assert np.max(np.abs(off)) <= 1e-5


def test_fd_jacobian_matches_analytic_be_residual():
    rng = np.random.default_rng(5)
    g = make_grid(1, 17)
    p = ACParams(eps=0.3, dt=0.01)
    phi_n = ScalarField(g, rng.uniform(-2, 2, g.num_nodes))
    v0 = phi_n.values
    residual, jacobian = implicit_system(g, p, *_step_terms(BE, v0, laplacian_matrix(g) @ v0, p))
    u = rng.uniform(-2, 2, g.num_nodes)
    dense = np.asarray(jacobian(u).todense())
    approx = fd_jacobian(residual, u)
    rel = np.linalg.norm(dense - approx) / np.linalg.norm(dense)
    assert rel <= 1e-5


def test_newton_scalar_and_report_invariants():
    x, rep = newton_solve(lambda u: u**2 - 4.0, lambda u: 2 * u, 3.0)
    assert rep.converged
    assert rep.residual <= 1e-10
    assert x == pytest.approx(2.0, abs=1e-10)
    assert rep.history[0] >= rep.history[-1]


def test_newton_zero_iterations_when_guess_solves():
    x, rep = newton_solve(lambda u: u - 1.0, lambda u: 1.0, 1.0)
    assert rep.converged and rep.iterations == 0


def test_newton_superlinear_tail():
    _, rep = newton_solve(lambda u: u**3 - 2.0, lambda u: 3 * u**2, 2.0)
    assert rep.converged
    hist = [r for r in rep.history if r > 0]
    for a, b in zip(hist, hist[1:]):
        if a <= 1e-4:
            assert b <= a**1.5


def test_newton_divergence_reported():
    _, rep = newton_solve(
        lambda u: u**2 + 1.0, lambda u: 2 * u, 0.7, NewtonConfig(max_iter=12)
    )
    assert not rep.converged
    assert rep.message != ""


@pytest.mark.parametrize("deriv", (lambda u: 2.0 * u, lambda u: math.nan, lambda u: math.inf),
                         ids=("zero", "nan", "inf"))
def test_newton_scalar_bad_derivative_reported(deriv):
    x, rep = newton_solve(lambda u: u * u + 1.0, deriv, 0.0)
    assert x == 0.0
    assert not rep.converged
    assert rep.message.startswith("linear solve failed")


def _reference_newton(f, fp, x, tol=1e-10, max_iter=50):
    """(x, iterations, |residual|, converged, history) by Newton on one float,
    as the float loop ran before floats became the size-1 case of arrays."""
    rn = abs(f(x))
    history = [rn]
    if not math.isfinite(rn) or rn <= tol:
        return x, 0, rn, rn <= tol, history
    for it in range(1, max_iter + 1):
        d = fp(x)
        step = -f(x) / d if d != 0.0 and math.isfinite(d) else math.nan
        if not math.isfinite(step):
            return x, it - 1, rn, False, history
        x_new = x + step
        rn_new = abs(f(x_new))
        if not (math.isfinite(rn_new) and math.isfinite(x_new)):
            return x, it - 1, rn, False, history
        x, rn = x_new, rn_new
        history.append(rn)
        if rn <= tol:
            return x, it, rn, True, history
    return x, max_iter, rn, False, history


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(("be", "cn", "modcn")),
    st.floats(0.05, 2.0),
    st.floats(1e-3, 10.0),
    st.lists(st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8),
)
def test_newton_each_entry_is_the_float_loop(tag, eps, dt, rs):
    # each entry of an array of constant step equations, and each one alone
    # as a float unknown, iterates exactly as the float loop does
    p = ACParams(eps, dt)
    kind = {"be": BE, "cn": CN, "modcn": MODCN}[tag]
    rs = np.array(rs)
    terms = _step_terms(kind, rs, 0.0, p)
    x, iterations, rn, _, _ = solvers._newton_each(*constant_residual(p, *terms), rs)
    for j, r in enumerate(rs.tolist()):
        one = constant_residual(p, *_step_terms(kind, r, 0.0, p))
        want = _reference_newton(*one, r)
        assert (x[j], iterations[j], rn[j]) == want[:3]
        got, rep = newton_solve(*one, r)
        assert (got, rep.iterations, rep.residual, rep.converged, list(rep.history)) == want


def test_newton_banded_path_matches_dense_solution(monkeypatch):
    # a 1D ShiftedLaplacian Jacobian goes through the tridiagonal solver;
    # compare with a dense hand-rolled Newton on the same problem
    n = 24
    main = 2.0 + np.arange(n) * 0.1
    grid = make_grid(1, n)
    banded = []
    tridiagonal_solve = solvers._tridiagonal_solve

    def counted(*args):
        banded.append(args)
        return tridiagonal_solve(*args)

    monkeypatch.setattr(solvers, "_tridiagonal_solve", counted)

    def residual(u):
        return main * u + 0.1 * u**3 - 1.0

    def jacobian(u):
        return ShiftedLaplacian(grid, 0.0, 0.0, main + 0.3 * u**2)

    x, rep = newton_solve(residual, jacobian, np.zeros(n))
    assert rep.converged
    assert len(banded) >= rep.iterations > 0
    y = np.zeros(n)
    for _ in range(50):
        y = y - np.linalg.solve(np.diag(main + 0.3 * y**2), residual(y))
    assert np.max(np.abs(x - y)) <= 1e-10


@pytest.mark.parametrize("matrix", (np.eye, sp.identity), ids=("dense", "sparse"))
def test_newton_array_jacobian_must_be_a_shifted_laplacian(matrix, monkeypatch):
    # a plain matrix Jacobian is a caller's error: it raises, and is neither
    # LU-factorized nor reported as a failed linear solve
    def no_lu(*args, **kwargs):
        raise AssertionError("a plain Jacobian was LU-factorized")

    monkeypatch.setattr(scipy.linalg, "lu_factor", no_lu)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_lu)
    with pytest.raises(AttributeError):
        newton_solve(lambda u: u - 1.0, lambda u: matrix(3), np.zeros(3))


def test_cubic_examples():
    r = real_cubic_roots(1.0, 0.0, -3.0, 2.0)
    assert r.discriminant_sign == 0
    assert np.allclose(r.real_roots, (-2.0, 1.0, 1.0), atol=1e-9)

    r = real_cubic_roots(1.0, 0.0, -1.0, 0.0)
    assert r.discriminant_sign == 1
    assert np.allclose(r.real_roots, (-1.0, 0.0, 1.0), atol=1e-12)

    r = real_cubic_roots(1.0, 0.0, 1.0, 1.9382)
    assert r.discriminant_sign == -1
    assert len(r.real_roots) == 1
    assert r.real_roots[0] == pytest.approx(-0.98437, abs=1e-4)

    r = real_cubic_roots(1.0, 0.0, 1.0, -1.0)
    assert r.real_roots[0] == pytest.approx(0.6823278038280193, abs=1e-12)


def test_cubic_random_constructed_roots():
    rng = np.random.default_rng(17)
    done = 0
    while done < 1000:
        if rng.uniform() < 0.5:
            roots = np.sort(rng.uniform(-10, 10, 3))
            if np.min(np.diff(roots)) < 0.1:  # keep roots well separated
                continue
            a2 = -roots.sum()
            a1 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
            a0 = -roots.prod()
            expect = 3
        else:
            real = rng.uniform(-10, 10)
            re, im = rng.uniform(-10, 10), rng.uniform(0.5, 10)
            a2 = -(real + 2 * re)
            a1 = re**2 + im**2 + 2 * real * re
            a0 = -real * (re**2 + im**2)
            roots = np.array([real])
            expect = 1
        out = real_cubic_roots(1.0, a2, a1, a0)
        assert len(out.real_roots) == expect
        assert out.discriminant_sign == (1 if expect == 3 else -1)
        for r in out.real_roots:
            assert np.min(np.abs(roots - r)) <= 1e-8 * max(1.0, np.max(np.abs(roots)))
        done += 1


def test_cubic_scale_invariance_and_errors():
    a = real_cubic_roots(2.0, -1.0, -7.0, 3.0)
    b = real_cubic_roots(2e6, -1e6, -7e6, 3e6)
    assert np.allclose(a.real_roots, b.real_roots, atol=1e-9)
    with pytest.raises(ConfigurationError):
        real_cubic_roots(0.0, 1.0, 1.0, 1.0)


def test_cubic_type_counts():
    out = real_cubic_roots(1.0, -5.0, 8.0, -4.0)  # (x-1)(x-2)^2
    assert out.discriminant_sign == 0
    assert sorted(round(v, 6) for v in out.real_roots) == [1.0, 2.0, 2.0]


def _reference_cubic_roots(a3, a2, a1, a0):
    """(real roots, discriminant sign) by the closed form on Python floats, as
    written before it ran on arrays: the bits solvers._cubic_roots must give."""
    terms = (
        18.0 * a3 * a2 * a1 * a0,
        -4.0 * a2 ** 3 * a0,
        a2 ** 2 * a1 ** 2,
        -4.0 * a3 * a1 ** 3,
        -27.0 * a3 ** 2 * a0 ** 2,
    )
    disc = math.fsum(terms)
    scale = sum(abs(t) for t in terms)
    sign = 0 if abs(disc) <= 1e-12 * scale else (1 if disc > 0 else -1)
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    if sign > 0:
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
        ts = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    elif sign == 0:
        if abs(p) <= 1e-9 * max(1.0, abs(c), b * b / 3.0):
            ts = [0.0, 0.0, 0.0]
        else:
            ts = [3.0 * q / p, -1.5 * q / p, -1.5 * q / p]
    elif q == 0.0:
        ts = [0.0]
    else:
        big = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        u = float(np.cbrt(-q / 2.0 - math.copysign(big, q)))
        ts = [u - p / (3.0 * u)]

    def poly(x):
        return ((a3 * x + a2) * x + a1) * x + a0

    def polish(x):
        fp = (3.0 * a3 * x + 2.0 * a2) * x + a1
        if fp == 0.0:
            return x
        x2 = x - poly(x) / fp
        return x2 if math.isfinite(x2) and abs(poly(x2)) <= abs(poly(x)) else x

    return tuple(sorted(polish(t - b / 3.0) for t in ts)), sign


def _assert_cubic_roots_match_reference(coeffs):
    """_cubic_roots on the arrays of coeffs, and real_cubic_roots on each row,
    give the reference's roots and sign to the bit.  Where the reference fails
    (rounding makes Cardano's square root negative), the row is all NaN and
    real_cubic_roots raises."""
    columns = [np.array(c) for c in zip(*coeffs)]
    roots, sign, _ = solvers._cubic_roots(*columns)
    for row, got_roots, got_sign in zip(coeffs, roots, sign.tolist()):
        try:
            want_roots, want_sign = _reference_cubic_roots(*row)
        except ValueError:
            assert np.isnan(got_roots).all()
            with pytest.raises(AnalysisError, match="no finite closed-form roots"):
                real_cubic_roots(*row)
            continue
        got = tuple(got_roots[~np.isnan(got_roots)].tolist())
        assert (got, got_sign) == (want_roots, want_sign)
        out = real_cubic_roots(*row)
        assert (out.real_roots, out.discriminant_sign) == (want_roots, want_sign)
        assert np.signbit(out.real_roots).tolist() == np.signbit(want_roots).tolist()


_coefficient = st.floats(-1e3, 1e3, allow_nan=False)


def _three_roots(x, dx, dy):
    """The monic cubic with roots x, x + dx and x + dy."""
    return (1.0, -(3 * x + dx + dy), 3 * x * x + 2 * x * (dx + dy) + dx * dy,
            -x * (x + dx) * (x + dy))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    # the step cubics: monic, with a2 = 0 or MODCN's partner state
    st.tuples(st.just(1.0), st.just(0.0), _coefficient, _coefficient),
    st.tuples(st.just(1.0), _coefficient, _coefficient, _coefficient),
    st.tuples(st.floats(0.5, 4.0), _coefficient, _coefficient, _coefficient),
    # three real roots x, x + dx, x + dy: apart, or with a near-double pair
    st.builds(_three_roots, st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.builds(_three_roots, _coefficient, st.floats(-1.0, 1.0), st.floats(-1e-6, 1e-6)),
), min_size=1, max_size=12))
def test_cubic_roots_on_arrays_are_the_float_closed_form(coeffs):
    _assert_cubic_roots_match_reference(coeffs)


def test_cubic_roots_on_arrays_take_acos_and_powers_from_the_c_library():
    # numpy's SIMD arccos and power round differently from math.acos and
    # Python's ** on a few percent of inputs; some of that survives the
    # polishing Newton step, so enough three-root cubics (the arccos branch)
    # and cubics with a2 != 0 (powers of a2 / a3) show it
    rng = np.random.default_rng(11)
    x, (dx, dy) = rng.uniform(-5.0, 5.0, 2000), rng.uniform(-3.0, 3.0, (2, 2000))
    coeffs = [_three_roots(*v) for v in zip(x.tolist(), dx.tolist(), dy.tolist())]
    coeffs += [(1.0, *v) for v in rng.uniform(-50.0, 50.0, (2000, 3)).tolist()]
    _assert_cubic_roots_match_reference(coeffs)


@pytest.mark.parametrize("a2,a1,a0", ((-2.5, 1.0, 0.7580756164864589),
                                      (7.0, 1.0, 0.03608734990823525)))
def test_cubic_roots_decide_the_discriminant_sign_exactly(a2, a1, a0):
    # a0 puts the discriminant at 1e-12 of its terms; within 300 ulps of it a
    # plain sum of the terms decides the sign differently from math.fsum
    sweep = sorted({a0 + k * math.ulp(a0) for k in range(-300, 301)})
    _assert_cubic_roots_match_reference([(1.0, a2, a1, x) for x in sweep])


def test_homotopy_config_validation():
    with pytest.raises(ConfigurationError):
        HomotopyConfig(delta_end=1.0, steps=0)
    with pytest.raises(ConfigurationError):
        HomotopyConfig(delta_end=math.inf)


def test_delta_schedule_shapes():
    sched = delta_schedule(HomotopyConfig(delta_end=1.0, delta_start=0.001, steps=3))
    assert len(sched) == 4
    assert sched[0] == 0.001 and sched[-1] == 1.0
    ratios = [b / a for a, b in zip(sched, sched[1:])]
    assert np.allclose(ratios, ratios[0])  # geometric when signs agree

    sched = delta_schedule(HomotopyConfig(delta_end=1.0, delta_start=-1.0, steps=4))
    diffs = np.diff(sched)
    assert np.allclose(diffs, diffs[0])  # linear across a sign change

    sched = delta_schedule(HomotopyConfig(delta_end=0.5, delta_start=0.5, steps=8))
    assert sched == [0.5]


def _cbrt_problem(delta):
    def residual(u):
        return u**3 - delta

    def jacobian(u):
        return 3 * u**2

    return residual, jacobian


def test_homotopy_constant_path_equals_direct_newton():
    cfg = HomotopyConfig(delta_end=2.0, delta_start=2.0, steps=1)
    x, rep = homotopy_path(_cbrt_problem, 1.0, cfg)
    y, _ = newton_solve(*_cbrt_problem(2.0), 1.0)
    assert rep.converged
    assert x == y  # bitwise identical


def test_homotopy_adaptive_rescues_large_jump():
    ncfg = NewtonConfig(max_iter=8)
    hard = HomotopyConfig(delta_end=8.0, delta_start=0.125, steps=1, adaptive=False)
    x, rep = homotopy_path(_cbrt_problem, 0.5, hard, ncfg)
    assert not rep.converged
    assert rep.delta == 0.125  # last good delta is the start of the path

    rescued = HomotopyConfig(delta_end=8.0, delta_start=0.125, steps=1, adaptive=True)
    x, rep = homotopy_path(_cbrt_problem, 0.5, rescued, ncfg)
    assert rep.converged
    assert x == pytest.approx(2.0, abs=1e-9)


def test_march_deltas_reports_progress():
    from acstab.solvers import NewtonReport

    def solve_at(delta, state):
        ok = delta <= 0.3
        return delta, NewtonReport(1, 0.0 if ok else 1.0, ok, (0.0,))

    state, rep = march_deltas(solve_at, [0.1, 0.2, 0.9], adaptive=False)
    assert not rep.converged
    assert rep.delta == 0.2
    assert state == 0.2


def test_cubic_roots_residual_bound():
    rng = np.random.default_rng(23)
    for _ in range(200):
        coeffs = rng.uniform(-5, 5, 4)
        if abs(coeffs[0]) < 1e-2:
            coeffs[0] = 1.0
        out = real_cubic_roots(*coeffs)
        scale = np.max(np.abs(coeffs))
        for r in out.real_roots:
            val = coeffs[0] * r**3 + coeffs[1] * r**2 + coeffs[2] * r + coeffs[3]
            assert abs(val) <= 1e-9 * scale * max(1.0, abs(r)) ** 3


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("be", "cn", "modcn", "dirk2-stage")),
    st.floats(0.05, 2.0),
    st.floats(1e-3, 10.0),
    st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 3.0)),
)
def test_scalar_newton_picks_the_root_of_the_constant_field_solve(tag, eps, dt, r):
    # The scalar solve divides by the derivative; the same equation on a
    # 3-node constant field takes the banded ShiftedLaplacian solve.  Their
    # iterates need not agree bit for bit, and either solve may stop short of
    # the absolute tolerance, so only the nearest exact root is compared.
    p = ACParams(eps, dt)
    grid = make_grid(1, 3)
    if tag == "dirk2-stage":
        terms = (1.0, r, dt * DIRK2_TABLEAU.a[0][0])
        x_field, _ = newton_solve(*implicit_system(grid, p, *terms), np.full(3, r))
    else:
        kind = {"be": BE, "cn": CN, "modcn": MODCN}[tag]
        terms = _step_terms(kind, r, 0.0, p)
        x_field = step(kind, constant_field(grid, r), p)[0].values
    x_scalar, _ = newton_solve(*constant_residual(p, *terms), r)
    roots = real_cubic_roots(*constant_cubic(p, *terms)).real_roots
    assert isinstance(x_scalar, float)
    assert {_nearest(roots, x) for x in x_field} == {_nearest(roots, x_scalar)}
