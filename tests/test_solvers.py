import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acstab.errors import ConfigurationError
from acstab.fields import ACParams, DIRK2_TABLEAU, ScalarField, constant_field, make_grid
from acstab.schemes import (
    BE,
    CN,
    MODCN,
    _nearest,
    _step_terms,
    constant_cubic,
    constant_residual,
    step_system,
)
from acstab.solvers import (
    CubicRoots,
    HomotopyConfig,
    NewtonConfig,
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
    with pytest.raises(ConfigurationError):
        NewtonConfig(damping=1.5)


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
    residual, jacobian = step_system(BE, phi_n, p)
    u = rng.uniform(-2, 2, g.num_nodes)
    dense = np.asarray(jacobian(u).todense())
    approx = fd_jacobian(residual, u)
    rel = np.linalg.norm(dense - approx) / np.linalg.norm(dense)
    assert rel <= 1e-5


def test_newton_scalar_and_report_invariants():
    x, rep = newton_solve(lambda u: u**2 - 4.0, lambda u: np.atleast_2d(2 * u), 3.0)
    assert rep.converged
    assert rep.residual <= 1e-10
    assert float(np.ravel(x)[0]) == pytest.approx(2.0, abs=1e-10)
    assert rep.history[0] >= rep.history[-1]


def test_newton_zero_iterations_when_guess_solves():
    x, rep = newton_solve(lambda u: u - 1.0, lambda u: np.eye(1), 1.0)
    assert rep.converged and rep.iterations == 0


def test_newton_superlinear_tail():
    _, rep = newton_solve(lambda u: u**3 - 2.0, lambda u: np.atleast_2d(3 * u**2), 2.0)
    assert rep.converged
    hist = [r for r in rep.history if r > 0]
    for a, b in zip(hist, hist[1:]):
        if a <= 1e-4:
            assert b <= a**1.5


def test_newton_divergence_reported():
    _, rep = newton_solve(
        lambda u: u**2 + 1.0, lambda u: np.atleast_2d(2 * u), 0.7, NewtonConfig(max_iter=12)
    )
    assert not rep.converged
    assert rep.message != ""


@pytest.mark.parametrize("deriv", (lambda u: 2.0 * u, lambda u: math.nan), ids=("zero", "nan"))
def test_newton_scalar_bad_derivative_reported(deriv):
    x, rep = newton_solve(lambda u: u * u + 1.0, deriv, 0.0)
    assert x == 0.0
    assert not rep.converged
    assert rep.message.startswith("linear solve failed")


def test_newton_damping_converges():
    cfg = NewtonConfig(damping=0.5, max_iter=200)
    x, rep = newton_solve(
        lambda u: np.arctan(u), lambda u: np.atleast_2d(1.0 / (1.0 + u**2)), 20.0, cfg
    )
    assert rep.converged
    assert abs(float(np.ravel(x)[0])) <= 1e-9


def test_newton_banded_path_matches_dense_solution():
    # tridiagonal Jacobian goes through the banded solver; compare with a
    # dense hand-rolled Newton on the same problem
    import scipy.sparse as sp

    n = 24
    main = 2.0 + np.arange(n) * 0.1

    def residual(u):
        return main * u + 0.1 * u**3 - 1.0

    def jac_sparse(u):
        d = main + 0.3 * u**2
        return sp.diags([np.full(n - 1, 0.0), d, np.full(n - 1, 0.0)], [-1, 0, 1], format="csr")

    x, rep = newton_solve(residual, jac_sparse, np.zeros(n))
    assert rep.converged
    y = np.zeros(n)
    for _ in range(50):
        y = y - np.linalg.solve(np.diag(main + 0.3 * y**2), residual(y))
    assert np.max(np.abs(np.ravel(x) - y)) <= 1e-10


def test_newton_accepts_field_input():
    g = make_grid(1, 9)
    guess = constant_field(g, 0.4)
    x, rep = newton_solve(
        lambda u: u.values**2 - 0.25, lambda u: np.diag(2 * u.values), guess
    )
    assert isinstance(x, ScalarField)
    assert rep.converged
    assert np.max(np.abs(x.values - 0.5)) <= 1e-10


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
        return np.atleast_2d(3 * u**2)

    return residual, jacobian


def test_homotopy_constant_path_equals_direct_newton():
    cfg = HomotopyConfig(delta_end=2.0, delta_start=2.0, steps=1)
    x, rep = homotopy_path(_cbrt_problem, np.array([1.0]), cfg)
    y, _ = newton_solve(*_cbrt_problem(2.0), np.array([1.0]))
    assert rep.converged
    assert np.array_equal(np.ravel(x), np.ravel(y))  # bitwise identical


def test_homotopy_adaptive_rescues_large_jump():
    ncfg = NewtonConfig(max_iter=8)
    hard = HomotopyConfig(delta_end=8.0, delta_start=0.125, steps=1, adaptive=False)
    x, rep = homotopy_path(_cbrt_problem, np.array([0.5]), hard, ncfg)
    assert not rep.converged
    assert rep.delta == 0.125  # last good delta is the start of the path

    rescued = HomotopyConfig(delta_end=8.0, delta_start=0.125, steps=1, adaptive=True)
    x, rep = homotopy_path(_cbrt_problem, np.array([0.5]), rescued, ncfg)
    assert rep.converged
    assert float(np.ravel(x)[0]) == pytest.approx(2.0, abs=1e-9)


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
def test_scalar_newton_picks_the_root_of_the_one_element_array_solve(tag, eps, dt, r):
    # The scalar solve divides by the derivative; the same solve on a
    # one-element array takes the dense-LU path.  Their iterates need not
    # agree bit for bit (a 1x1 LAPACK solve may round differently from a
    # division), and where the residual sits at the absolute tolerance their
    # converged flags may differ, so only the nearest exact root is compared.
    p = ACParams(eps, dt)
    if tag == "dirk2-stage":
        terms = (1.0, r, dt * DIRK2_TABLEAU.a[0][0])
    else:
        terms = _step_terms({"be": BE, "cn": CN, "modcn": MODCN}[tag], r, 0.0, p)
    f, fp = constant_residual(p, *terms)
    x_scalar, _ = newton_solve(f, fp, r)
    x_array, _ = newton_solve(
        lambda v: np.array([f(float(v[0]))]), lambda v: np.array([[fp(float(v[0]))]]), np.array([r])
    )
    roots = real_cubic_roots(*constant_cubic(p, *terms)).real_roots
    assert isinstance(x_scalar, float)
    assert _nearest(roots, x_scalar) == _nearest(roots, float(x_array[0]))
