import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acstab import solvers
from acstab.errors import AnalysisError, ConfigurationError
from acstab.fields import (
    ACParams,
    ButcherTableau,
    DIRK2_TABLEAU,
    ModeIndex,
    ScalarField,
    constant_field,
    eval_mode,
    laplacian_matrix,
    make_grid,
)
from acstab.schemes import (
    BE,
    CN,
    DIRK2,
    MODCN,
    SchemeKind,
    _forward_stages,
    _nearest,
    _no_lap,
    constant_cubic,
    implicit_system,
    simulate,
    step,
)
from acstab.robustness import classify_constant_initial, interval_sequence
from acstab.solvers import (
    CubicRoots,
    HomotopyConfig,
    NewtonConfig,
    NewtonReport,
    ShiftedLaplacian,
    delta_schedule,
    fd_jacobian,
    homotopy_path,
    march_deltas,
    newton_solve,
    real_cubic_roots,
)
from acstab.stability import enumerate_bifurcations


def test_newton_config_validation():
    with pytest.raises(ConfigurationError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ConfigurationError):
        NewtonConfig(max_iter=0)
    assert NewtonConfig(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("max_iter", (2.5, 2.0, math.inf, "2"))
def test_newton_config_rejects_a_max_iter_that_is_not_an_integer(max_iter):
    # newton_solve would fail on it with a bare TypeError from range()
    with pytest.raises(ConfigurationError, match="max_iter must be an integer"):
        NewtonConfig(max_iter=max_iter)


@pytest.mark.parametrize("steps", (2.5, 2.0, math.inf, "2"))
def test_homotopy_config_rejects_steps_that_are_not_an_integer(steps):
    # delta_schedule would fail on it with a bare TypeError from range()
    with pytest.raises(ConfigurationError, match="steps must be an integer"):
        HomotopyConfig(delta_end=1.0, steps=steps)
    assert delta_schedule(HomotopyConfig(delta_end=1.0, steps=np.int64(2)))[-1] == 1.0


_COUNTS = {  # name: (least, call with that count)
    "steps": (0, lambda n: simulate(CN, constant_field(make_grid(1, 5), 0.5), n, ACParams(0.1, 0.01))),
    "max_steps": (1, lambda n: classify_constant_initial(CN, np.array([0.5]), ACParams(1.0, 0.5), max_steps=n)),
    "count": (1, lambda n: interval_sequence(CN, 0.5, n)),
    "max_k": (0, lambda n: enumerate_bifurcations(CN, 0.0, 1.0, 0.02, max_k=n)),
}


@pytest.mark.parametrize("name", _COUNTS)
def test_counts_that_are_not_integers_are_configuration_errors(name):
    # each would otherwise fail with a bare TypeError from range(); a count
    # below its least keeps its range message, and a numpy integer is a count
    least, call = _COUNTS[name]
    with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer, got 2\.5$"):
        call(2.5)
    with pytest.raises(ConfigurationError, match=rf"^{name} must be >= {least}$"):
        call(least - 1)
    call(np.int64(least + 1))


@pytest.mark.parametrize("tol", (math.inf, math.nan))
def test_newton_config_rejects_a_tol_that_is_not_finite(tol):
    # inf would accept every guess as converged, nan none
    with pytest.raises(ConfigurationError, match="tol must be finite and > 0"):
        NewtonConfig(tol=tol)


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
    (stage,), _, _ = _forward_stages(BE, p)  # be's one stage: no G's before it
    lap = laplacian_matrix(g).__matmul__
    residual, jacobian = implicit_system(g, p, *stage(phi_n.values, [], lap))
    u = rng.uniform(-2, 2, g.num_nodes)
    dense = jacobian(u).tosparse().toarray()
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
    """(x, iterations, |residual|, converged, history, message) by Newton on
    one Python float: the float loop newton_solve runs, and each entry of
    _newton_each."""
    rn = abs(f(x))
    history = [rn]
    if not math.isfinite(rn):
        return x, 0, rn, False, tuple(history), "residual not finite at guess"
    if rn <= tol:
        return x, 0, rn, True, tuple(history), ""
    for it in range(1, max_iter + 1):
        d = fp(x)
        step = -f(x) / d if d != 0.0 and math.isfinite(d) else math.nan
        if not math.isfinite(step):
            return (x, it - 1, rn, False, tuple(history),
                    "linear solve failed: zero or non-finite derivative, or overflowing step")
        x_new = x + step
        rn_new = abs(f(x_new))
        if not (math.isfinite(rn_new) and math.isfinite(x_new)):
            return x, it - 1, rn, False, tuple(history), "iterate diverged"
        x, rn = x_new, rn_new
        history.append(rn)
        if rn <= tol:
            return x, it, rn, True, tuple(history), ""
    return x, max_iter, rn, False, tuple(history), "max iterations reached"


def _assert_float_loop(f, fp, guess, x_each, rn_each):
    # newton_solve on the float, report and all, and _newton_each's entry
    # (x_each, rn_each) from the same guess are the reference loop's
    want = _reference_newton(f, fp, guess)
    assert (x_each, rn_each) == (want[0], want[2])
    assert newton_solve(f, fp, guess) == (want[0], NewtonReport(*want[1:]))
    # from an np.float64 guess too, bit for bit, with the solution, residual
    # and history handed back as Python floats, not numpy scalars
    x, rep = newton_solve(f, fp, np.float64(guess))
    assert np.float64(x).tobytes() == np.float64(want[0]).tobytes()
    assert rep == NewtonReport(*want[1:])
    assert type(x) is float and type(rep.residual) is float
    assert all(type(h) is float for h in rep.history)


_GAMMA = 1.0 - math.sqrt(0.5)
# Alexander's two-stage SDIRK: b is the last row of a (stiffly accurate)
_SDIRK2 = SchemeKind("dirk", ButcherTableau(((_GAMMA, 0.0), (1.0 - _GAMMA, _GAMMA)),
                                            (1.0 - _GAMMA, _GAMMA)))
# an EDIRK that is not stiffly accurate: an explicit first stage, as cn's, and b apart
_EDIRK_SKEW = SchemeKind("dirk", ButcherTableau(((0.0, 0.0), (0.5, 0.5)), (0.3, 0.7)))


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from((BE, CN, MODCN, DIRK2, _SDIRK2, _EDIRK_SKEW)),
    st.floats(0.05, 2.0),
    st.floats(1e-3, 10.0),
    st.lists(st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8),
)
def test_newton_each_entry_is_the_float_loop(kind, eps, dt, rs):
    # each implicit stage equation of a step from an array of constants, and
    # each entry's alone as a float unknown, iterates exactly as the float
    # loop does; a stage starts from the stage before it, as in step, after
    # an explicit first stage (cn's) that is phi_n, its G evaluated
    p = ACParams(eps, dt)
    stages, _, _ = _forward_stages(kind, p)
    rs, tab = np.array(rs), kind._rk  # tab None for modcn
    guess, gs = rs, []
    if tab and tab.a[0][0] == 0.0:
        gs.append((1.0 / p.eps2) * (rs * rs * rs - rs))
    for stage in stages:
        a, s, b, k, *_ = terms = stage(rs, gs, _no_lap)
        x, rn = solvers._newton_each(*implicit_system(None, p, *terms), guess)
        for j, r in enumerate(rs.tolist()):
            one = implicit_system(None, p, *stage(r, [g[j] for g in gs], _no_lap))
            _assert_float_loop(*one, float(guess[j]), x[j], rn[j])
        gs.append(-(a * (x - s) + k) / b)  # the stage's G, as step reads it
        guess = x


@pytest.mark.parametrize(("r", "guess", "ending"), (
    (0.5, 0.5, ""),
    (1e200, 1e200, "residual not finite at guess"),  # r^3 overflows
    # f'(0) = 1 + (3 0^2 - 1) = 0
    (0.5, 0.0, "linear solve failed: zero or non-finite derivative, or overflowing step"),
    # f' is 6.7e-16 at 2^-26, and the step of 1.5e115 makes x^3 overflow
    (1e100, 2.0**-26, "iterate diverged"),
    (1e100, 1e100, "max iterations reached"),  # Newton on x^3 shrinks x by 2/3 a step
), ids=("converged", "residual-not-finite", "failed-step", "diverged", "max-iterations"))
def test_the_float_loop_ends_as_the_reference(r, guess, ending):
    # every way the loop can end, each reached by be's stage equation at
    # eps = dt = 1, x - r + (x^3 - x) = 0, from the guess shown
    p = ACParams(1.0, 1.0)
    (stage,), _, _ = _forward_stages(BE, p)
    one = implicit_system(None, p, *stage(r, [], _no_lap))
    x, rn = solvers._newton_each(*one, np.array([guess]))
    _assert_float_loop(*one, guess, x[0], rn[0])
    assert newton_solve(*one, guess)[1].message == ending


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((5, 9, 17)), st.sampled_from((1.0, -1.0)), st.floats(1e-3, 0.09),
       st.floats(-1.5, 1.5), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1),
       st.sampled_from(("near", "s", "far")))
def test_2d_newton_converges_to_tol_under_forcing(n, a, b, c, spread, seed, start):
    # a root u made to order: k puts it on a (v - s) - b L v + g (v^3 - v) + k = 0,
    # s = 0, g = b / eps^2.  a = 1 gives certified Jacobians (CG), a = -1
    # uncertified ones (MINRES), each solved to the forcing term of its Newton
    # iteration.  Newton starts 0.05 from u, or on certified Jacobians far
    # from it: from s, or up to 1 from u, at g = 0.9, nearly as stiff as
    # certification allows, where first steps often fail to halve the
    # residual.  (Undamped Newton on indefinite Jacobians need not converge
    # from far.)
    assume(start == "near" or a > 0.0)
    rng = np.random.default_rng(seed)
    grid = make_grid(2, n)
    p = ACParams(1.0, 1.0) if start == "near" else ACParams(math.sqrt(b / 0.9), 1.0)
    u = c + spread * rng.uniform(-1.0, 1.0, grid.num_nodes)
    k = -implicit_system(grid, p, a, 0.0, b)[0](u)
    residual, jacobian = implicit_system(grid, p, a, 0.0, b, k)
    if start == "s":
        guess = np.zeros(grid.num_nodes)
    else:
        amplitude = 0.05 if start == "near" else rng.uniform(0.0, 1.0)
        guess = u + amplitude * rng.uniform(-1.0, 1.0, grid.num_nodes)
    assert jacobian(u).certified == jacobian(guess).certified == (a > 0.0)
    x, rep = newton_solve(residual, jacobian, guess)
    assert rep.converged and rep.residual <= NewtonConfig().tol
    assert np.max(np.abs(residual(x))) == rep.residual


def _forcing_terms(h):
    # Eisenstat-Walker choice 2 from 0.1, raised to 0.5 tol / r_k, within [1e-12, 0.1]
    return [max(1e-12, min(0.1, max(0.9 * (b / a) ** 2, 0.5e-10 / b))) for a, b in zip(h, h[1:])]


def _three_times_too_large(jacobian):
    # takes a third of each Newton step, so the residual falls by about a third only
    def too_large(v):
        op = jacobian(v)
        return ShiftedLaplacian(op.grid, 3.0 * op.a, 3.0 * op.b, 3.0 * op.d)

    return too_large


def test_forcing_terms_and_the_stall_rule(monkeypatch):
    rtols = []
    solve = ShiftedLaplacian.solve
    monkeypatch.setattr(ShiftedLaplacian, "solve",
                        lambda op, rhs, rtol=1e-12: rtols.append(rtol) or solve(op, rhs, rtol))
    grid = make_grid(2, 9)
    s = np.random.default_rng(5).uniform(-1.0, 1.0, grid.num_nodes)
    residual, jacobian = implicit_system(grid, ACParams(1.0, 1.0), 1.0, s, 0.05)
    x, rep = newton_solve(residual, jacobian, s + 0.5)
    h = rep.history
    assert rep.converged and all(b <= 0.5 * a for a, b in zip(h, h[1:]))
    want = _forcing_terms(h)
    assert rtols == [0.1, *want[:-1]] and min(rtols) < 0.1

    # on a certified Jacobian a step that fails to halve the residual is no
    # sign of a loose solve: every step keeps its forcing term
    rtols.clear()
    assert jacobian(s).certified
    x, rep = newton_solve(residual, _three_times_too_large(jacobian), s + 0.5,
                          NewtonConfig(max_iter=5))
    h = rep.history
    assert len(h) == 6 and all(b > 0.5 * a for a, b in zip(h, h[1:]))
    assert rtols == [0.1, *_forcing_terms(h)[:-1]]

    # on an uncertified one the first step fails to halve, so every later solve is exact
    rtols.clear()
    rng = np.random.default_rng(6)
    u = rng.uniform(-1.0, 1.0, grid.num_nodes)
    k = -implicit_system(grid, ACParams(1.0, 1.0), -1.0, 0.0, 0.05)[0](u)
    residual, jacobian = implicit_system(grid, ACParams(1.0, 1.0), -1.0, 0.0, 0.05, k)
    assert not jacobian(u).certified
    guess = u + 0.05 * rng.uniform(-1.0, 1.0, grid.num_nodes)
    x, rep = newton_solve(residual, _three_times_too_large(jacobian), guess,
                          NewtonConfig(max_iter=5))
    h = rep.history
    assert len(h) == 6 and h[1] > 0.5 * h[0]
    assert rtols == [0.1] + [1e-12] * 4


@pytest.mark.parametrize("kind", (BE, CN), ids=("be", "cn"))
def test_a_first_2d_step_that_fails_to_halve_keeps_its_forcing(kind, monkeypatch):
    # the first step of const+mode:0.5,0.1,1,2 at the benchmark's grid, eps and
    # dt: Newton's first step from phi_n fails to halve the residual because
    # the cubic is far from its root, on certified Jacobians throughout
    grid = make_grid(2, 65)
    phi = ScalarField(grid, 0.5 + 0.1 * eval_mode(ModeIndex((1.0, 2.0)), grid).values)
    p = ACParams(0.1, 0.01)
    solve = ShiftedLaplacian.solve
    calls = []
    monkeypatch.setattr(ShiftedLaplacian, "solve", lambda op, rhs, rtol=1e-12:
                        calls.append((op.certified, rtol)) or solve(op, rhs, rtol))
    out, rep = step(kind, phi, p)
    h = rep.stage_reports[0].history
    assert rep.success and h[1] > 0.5 * h[0]
    assert calls and all(certified and rtol > 1e-12 for certified, rtol in calls)

    # the same step with every solve exact
    monkeypatch.setattr(ShiftedLaplacian, "solve", lambda op, rhs, rtol=1e-12: solve(op, rhs))
    exact, rep = step(kind, phi, p)
    assert rep.success
    assert np.max(np.abs(out.values - exact.values)) <= 1e-10


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
        if p * m == 0.0:  # p underflows to 0: the closed form has no finite roots
            raise ValueError("p underflows to 0 in the trigonometric form")
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
    (rounding makes Cardano's square root negative, or p underflows to 0 in
    the trigonometric form), the row is all NaN and real_cubic_roots raises."""
    columns = [np.array(c) for c in zip(*coeffs)]
    roots, sign = solvers._cubic_roots(*columns)
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
# three roots near 1e-54: p = c - b^2 / 3 underflows to 0 in the trigonometric form
@example(coeffs=[_three_roots(8.91425200838918e-55, 0.0, 0.0)])
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
    cfg = HomotopyConfig(delta_end=8.0, delta_start=0.125, steps=1)

    def solve_at(delta, state):
        return newton_solve(*_cbrt_problem(delta), 0.5 if state is None else state, ncfg)

    attempts = []

    def counted(delta, state):
        attempts.append(delta)
        return solve_at(delta, state)

    x, rep = march_deltas(counted, delta_schedule(cfg), True)
    assert rep.converged
    assert x == pytest.approx(2.0, abs=1e-9)
    # the one jump failed and was bisected: more attempts than schedule points
    assert len(attempts) > len(delta_schedule(cfg))
    assert (x, rep) == homotopy_path(_cbrt_problem, 0.5, cfg, ncfg)


def test_march_deltas_reports_progress():
    # every delta above 0.2 fails, so bisection exhausts its budget
    def solve_at(delta, state):
        ok = delta <= 0.2
        return delta, NewtonReport(1, 0.0 if ok else 1.0, ok, (0.0,))

    state, rep = march_deltas(solve_at, [0.1, 0.2, 0.9], False)
    assert not rep.converged
    assert rep.delta == 0.2
    assert state == 0.2


def _quadratic_path(delta):
    # the solution 1 + delta + delta^2 is quadratic in delta; cubed, the
    # residual needs Newton iterations from any other guess
    q = 1.0 + delta + delta * delta

    def residual(u):
        return (u - q) ** 3 + (u - q)

    def jacobian(u):
        return 3.0 * (u - q) ** 2 + 1.0

    return residual, jacobian


def test_march_deltas_predicts_a_quadratic_path_exactly():
    iterations = []

    def solve_at(delta, guess):
        x, rep = newton_solve(*_quadratic_path(delta), 1.0 if guess is None else guess)
        iterations.append(rep.iterations)
        return x, rep

    state, rep = march_deltas(solve_at, [0.1 * i for i in range(1, 11)], predict=True)
    assert rep.converged and rep.delta == pytest.approx(1.0)
    assert len(iterations) == 10  # one attempt per point
    assert min(iterations[:3]) > 0
    assert iterations[3:] == [0] * 7  # the quadratic through three points is exact


def _recording(accept):
    """solve_at(delta, guess) -> (delta, report) that converges where
    accept(delta, guess) holds, and the list of calls it records."""
    calls = []

    def solve_at(delta, guess):
        calls.append((delta, guess))
        ok = accept(delta, guess)
        return delta, NewtonReport(1, 0.0 if ok else 1.0, ok, (0.0,))

    return solve_at, calls


def test_march_deltas_retries_a_failed_prediction_from_the_warm_start():
    # states are the deltas themselves, so a warm start is the last delta and
    # a secant or quadratic prediction is the new one
    solve_at, calls = _recording(lambda delta, guess: guess is None or guess < delta)
    state, rep = march_deltas(solve_at, [1.0, 2.0, 3.0, 4.0], predict=True)
    assert rep.converged and state == 4.0
    assert calls == [(1.0, None), (2.0, 1.0),
                     (3.0, pytest.approx(3.0)), (3.0, 2.0),
                     (4.0, pytest.approx(4.0)), (4.0, 3.0)]  # no midpoint


def test_march_deltas_extrapolates_over_distinct_deltas_only():
    # a geometric schedule between two nearby doubles repeats values
    cfg = HomotopyConfig(delta_end=1.0 + 4 * math.ulp(1.0), delta_start=1.0, steps=8)
    assert len(set(delta_schedule(cfg))) < 9
    x, rep = homotopy_path(_cbrt_problem, 0.9, cfg)
    assert rep.converged and x == pytest.approx(1.0)


def test_march_deltas_without_predict_warm_starts():
    solve_at, calls = _recording(lambda delta, guess: True)
    march_deltas(solve_at, [1.0, 2.0, 3.0], predict=False)
    assert calls == [(1.0, None), (2.0, 1.0), (3.0, 2.0)]


def test_march_deltas_predicts_each_row_of_a_stacked_state_as_alone():
    # preimage_field marches one row per backward link in one array: each
    # row's predicted starts and solutions must be the bits it gets when it
    # is marched alone
    grid = make_grid(1, 5)
    targets = np.array([np.linspace(-1.0, 2.0, 5), np.linspace(3.0, 0.5, 5)])

    def solve_row(i, delta, start, seen):
        start = np.zeros(5) if start is None else start
        seen[i].append(start.tobytes())
        return newton_solve(lambda v: v * v * v + v - delta * targets[i],
                            lambda v: ShiftedLaplacian(grid, 1.0, 0.0, 3.0 * v * v), start)

    stacked_seen, alone_seen = ([], []), ([], [])

    def solve_stacked(delta, state):
        solved = [solve_row(i, delta, None if state is None else state[i], stacked_seen)
                  for i in range(len(targets))]
        return np.array([x for x, _ in solved]), solved[-1][1]

    schedule = [0.25 * i for i in range(1, 9)]
    stacked, rep = march_deltas(solve_stacked, schedule, True)
    assert rep.converged and stacked.shape == targets.shape
    for i, row in enumerate(stacked):
        alone, alone_rep = march_deltas(lambda d, g: solve_row(i, d, g, alone_seen), schedule, True)
        assert alone_rep.converged
        assert row.tobytes() == alone.tobytes()
    assert stacked_seen == alone_seen and len(stacked_seen[0]) == len(schedule)


def _array_problem(delta):
    grid = make_grid(1, 5)
    s = np.linspace(-1.0, 2.0, 5)

    def residual(v):
        return v * v * v + v - delta * s

    def jacobian(v):
        return ShiftedLaplacian(grid, 1.0, 0.0, 3.0 * v * v)

    return residual, jacobian


def test_homotopy_path_steps_one_is_one_newton_solve_on_arrays():
    seed = np.zeros(5)
    cfg = HomotopyConfig(delta_end=2.0, delta_start=2.0, steps=1)
    x, rep = homotopy_path(_array_problem, seed, cfg)
    y, _ = newton_solve(*_array_problem(2.0), seed)
    assert rep.converged
    assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("seed", (0.5, np.full(5, 0.5)), ids=("float", "array"))
def test_homotopy_path_predicts_on_float_and_array_unknowns(seed):
    cfg = HomotopyConfig(delta_end=8.0, delta_start=0.125, steps=32)
    problem = _cbrt_problem if np.isscalar(seed) else _array_problem
    x, rep = homotopy_path(problem, seed, cfg)
    assert rep.converged and rep.delta == 8.0
    assert np.max(np.abs(problem(8.0)[0](x))) <= 1e-10


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
        (stage,), _, lead = _forward_stages(kind, p)  # the one implicit stage
        terms = stage(r, lead(r, _no_lap), _no_lap)
        x_field = step(kind, constant_field(grid, r), p)[0].values
    x_scalar, _ = newton_solve(*implicit_system(None, p, *terms), r)
    roots = real_cubic_roots(*constant_cubic(p, *terms)).real_roots
    assert isinstance(x_scalar, float)
    assert {_nearest(roots, x) for x in x_field} == {_nearest(roots, x_scalar)}
