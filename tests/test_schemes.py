import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acstab.errors import ConfigurationError
from acstab.fields import (
    ACParams,
    ButcherTableau,
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
)
import acstab.schemes as schemes
from acstab.schemes import (
    BE,
    CN,
    DIRK2,
    MODCN,
    SchemeKind,
    StepReport,
    StepSummary,
    _forward_stages,
    _no_lap,
    _settled_sign,
    constant_cubic,
    implicit_system,
    parse_scheme,
    scalar_map,
    simulate,
    step,
)
from acstab.solvers import NewtonConfig, fd_jacobian, newton_solve, real_cubic_roots

ALL = (BE, CN, MODCN, DIRK2)
# a backward-triangular tableau other than DIRK2's (a11 != a22, alpha != beta)
_DIRK_ODD = SchemeKind("dirk", ButcherTableau(((0.3, 0.0), (0.5, 0.2)), (0.5, 0.5)))
# the same stages with unequal weights b, so the order of b against the stages shows
_DIRK_SKEW = SchemeKind("dirk", ButcherTableau(((0.3, 0.0), (0.5, 0.2)), (0.3, 0.7)))
# Alexander's two-stage SDIRK: b is the last row of a (stiffly accurate)
_GAMMA = 1.0 - math.sqrt(0.5)
_SDIRK2 = SchemeKind("dirk", ButcherTableau(((_GAMMA, 0.0), (1.0 - _GAMMA, _GAMMA)),
                                            (1.0 - _GAMMA, _GAMMA)))
# an EDIRK that is not stiffly accurate: its explicit first stage is phi_n,
# and b_1 G(phi_n) enters the result, a combination no bundled scheme takes
_EDIRK_SKEW = SchemeKind("dirk", ButcherTableau(((0.0, 0.0), (0.5, 0.5)), (0.3, 0.7)))
# three stages that robustness reads backward: a31 = a21, b1 = a31, b2 = a32
_DIRK3 = SchemeKind("dirk", ButcherTableau(((0.4, 0.0, 0.0), (0.3, 0.25, 0.0), (0.3, 0.35, 0.3)),
                                           (0.3, 0.35, 0.35)))


def test_parse_scheme():
    assert parse_scheme("be") is BE
    assert parse_scheme("CN") is CN
    assert parse_scheme("dirk2") is DIRK2
    assert DIRK2.label == "dirk2" and BE.label == "be"
    with pytest.raises(ConfigurationError):
        parse_scheme("rk4")


@pytest.mark.parametrize("kind", ALL, ids=lambda k: k.label)
@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_fixed_points_exact(kind, c):
    g = make_grid(1, 17)
    p = ACParams(eps=0.1, dt=0.01)
    out, rep = step(kind, constant_field(g, c), p)
    assert rep.success
    assert np.max(np.abs(out.values - c)) <= 1e-12


def test_be_scalar_example():
    # r=0.5, eps=0.1, dt=0.005 reduces to c^3 + c - 1 = 0
    g = make_grid(1, 9)
    out, rep = step(BE, constant_field(g, 0.5), ACParams(0.1, 0.005))
    assert rep.success
    assert np.max(np.abs(out.values - 0.6823278038280193)) <= 1e-9
    assert np.max(out.values) - np.min(out.values) <= 1e-12


def test_be_monotone_from_19931():
    g = make_grid(1, 17)
    p = ACParams(0.1, 0.005)
    traj = simulate(BE, constant_field(g, 1.9931), 60, p)
    centers = [s.center for s in traj.summaries]
    assert 1.0 < centers[1] < 1.9931
    assert centers[1] == pytest.approx(1.37674, abs=1e-4)
    assert all(a >= b for a, b in zip(centers, centers[1:]))
    assert traj.settled and traj.limit == 1
    assert traj.sign_flips() == 0


def test_cn_scalar_examples():
    g = make_grid(1, 17)
    p = ACParams(0.1, 0.01)
    out, _ = step(CN, constant_field(g, 1.99310), p)
    assert abs(out.values[0] + 0.984375) <= 1e-3

    out, _ = step(CN, constant_field(g, 0.5), p)
    v = out.values[0]
    assert 0.5 < v <= 1.0
    assert v == pytest.approx(0.82120, abs=1e-4)


def test_modcn_boundary_maps_to_zero():
    # r1 = 2 sqrt(1 + eps^2/dt) is the exact preimage of 0
    p = ACParams(0.1, 0.01)
    r1 = 2.0 * math.sqrt(1.0 + p.eps2 / p.dt)
    g = make_grid(1, 17)
    out, rep = step(MODCN, constant_field(g, r1), p)
    assert rep.success
    assert np.max(np.abs(out.values)) <= 1e-10


def test_dirk_scalar_example():
    g = make_grid(1, 17)
    out, rep = step(DIRK2, constant_field(g, 7.0), ACParams(0.1, 0.01))
    assert rep.success
    assert out.values[0] < 0.0  # one-step sign flip
    assert out.values[0] == pytest.approx(-1.07445, abs=1e-4)


def test_dirk_stage_identity():
    # for the bundled tableau the combination stage satisfies
    # phi^{n+1} = phi_2 + (dt/4) F(phi_2); replay the stage chain to check
    from acstab.solvers import newton_solve

    rng = np.random.default_rng(2)
    g = make_grid(1, 33)
    p = ACParams(0.4, 0.02)
    phi = ScalarField(g, rng.uniform(-1.2, 1.2, g.num_nodes))
    out, rep = step(DIRK2, phi, p)
    assert rep.success

    def F(v):
        return -_minus_force(laplacian_matrix(g) @ v, v, p)

    gamma = 0.25 * p.dt
    s1, r1 = newton_solve(*implicit_system(g, p, 1.0, phi.values, gamma), phi.values)
    known2 = phi.values + 0.5 * p.dt * F(s1)
    s2, r2 = newton_solve(*implicit_system(g, p, 1.0, known2, gamma), s1)
    assert r1.converged and r2.converged
    recon = s2 + gamma * F(s2)
    assert np.max(np.abs(out.values - recon)) <= 1e-12


@pytest.mark.parametrize("kind", (BE, CN, MODCN), ids=lambda k: k.label)
def test_step_jacobians_match_fd(kind):
    rng = np.random.default_rng(31)
    g = make_grid(1, 9)
    p = ACParams(0.3, 0.05)
    for _ in range(20):
        phi_n = ScalarField(g, rng.uniform(-2, 2, g.num_nodes))
        v0, lap = phi_n.values, laplacian_matrix(g).__matmul__
        (stage,), _, lead = _forward_stages(kind, p)  # the one implicit stage
        residual, jacobian = implicit_system(g, p, *stage(v0, lead(v0, lap), lap))
        u = rng.uniform(-2, 2, g.num_nodes)
        dense = jacobian(u).tosparse().toarray()
        rel = np.linalg.norm(dense - fd_jacobian(residual, u)) / np.linalg.norm(dense)
        assert rel <= 1e-5


def test_dirk_stage_jacobian_matches_fd():
    rng = np.random.default_rng(37)
    g = make_grid(1, 9)
    p = ACParams(0.3, 0.05)
    for _ in range(20):
        known = rng.uniform(-2, 2, g.num_nodes)
        residual, jacobian = implicit_system(g, p, 1.0, known, 0.25 * p.dt)
        u = rng.uniform(-2, 2, g.num_nodes)
        dense = jacobian(u).tosparse().toarray()
        rel = np.linalg.norm(dense - fd_jacobian(residual, u)) / np.linalg.norm(dense)
        assert rel <= 1e-5


@pytest.mark.parametrize("kind", ALL, ids=lambda k: k.label)
def test_odd_symmetry_of_steps(kind):
    rng = np.random.default_rng(41)
    g = make_grid(1, 33)
    p = ACParams(0.5, 0.05)
    phi = ScalarField(g, rng.uniform(-1.5, 1.5, g.num_nodes))
    plus, rp = step(kind, phi, p)
    minus, rm = step(kind, ScalarField(g, -phi.values), p)
    assert rp.success and rm.success
    assert np.max(np.abs(plus.values + minus.values)) <= 1e-10


@pytest.mark.parametrize("kind", ALL + (_DIRK_ODD,), ids=("be", "cn", "modcn", "dirk2", "odd_dirk"))
def test_scalar_map_matches_field_step(kind):
    rng = np.random.default_rng(43)
    g = make_grid(1, 9)
    for _ in range(10):
        eps = rng.uniform(0.1, 0.8)
        dt = rng.uniform(0.2, 0.9) * eps**2
        r = rng.uniform(-2.0, 2.0)
        p = ACParams(eps, dt)
        out, rep = step(kind, constant_field(g, r), p)
        assert rep.success
        selected = next(c for c, sel in scalar_map(kind, r, p) if sel)
        assert abs(out.values[0] - selected) <= 1e-9
        assert np.max(out.values) - np.min(out.values) <= 1e-9


def test_scalar_map_lists_a_multiple_image_once():
    # at eps = 1, dt = 4 this r maps onto a double root of CN's cubic
    p = ACParams(1.0, 4.0)
    r = 1.2678079692621487
    (stage,), _, lead = _forward_stages(CN, p)
    roots = real_cubic_roots(*constant_cubic(p, *stage(r, lead(r, _no_lap), _no_lap))).real_roots
    assert len(roots) == 3 and roots[2] - roots[1] <= 1e-8
    images = scalar_map(CN, r, p)
    assert [c for c, _ in images] == pytest.approx([roots[0], roots[1]], abs=1e-8)
    assert [sel for _, sel in images] == [False, True]


def _newton(residual, jacobian, x, tol):
    """Dense Newton with acstab's stopping rule: inf-norm residual <= tol, 50 steps."""
    r = residual(x)
    for _ in range(50):
        if np.max(np.abs(r)) <= tol:
            break
        x = x + np.linalg.solve(jacobian(x), -r)
        r = residual(x)
    return x


def _unique_dt_over_eps2(kind):
    """The scheme's uniqueness threshold dt / eps^2: below it each stage has one solution."""
    return {"be": 1.0, "cn": 2.0, "modcn": 2.0}.get(kind.tag) or 1.0 / kind.tableau.max_diag


def _step_by_definition(kind, v0, g, p, tol):
    """One step from each scheme's definition, stage by stage, each stage
    started from the one before and solved to residual tol; be/cn/modcn
    equations divided by dt, and their tolerance with them."""
    lap = laplacian_matrix(g).tosparse().toarray()
    eye = np.eye(v0.size)
    ie2, dt = 1.0 / p.eps2, p.dt

    def F(v):
        return lap @ v - ie2 * (v ** 3 - v)

    def dF(v):
        return lap - np.diag(ie2 * (3.0 * v * v - 1.0))

    if kind is BE:
        return _newton(lambda v: (v - v0) / dt - F(v), lambda v: eye / dt - dF(v), v0, tol / dt)
    if kind is CN:
        return _newton(lambda v: (v - v0) / dt - 0.5 * (F(v) + F(v0)),
                       lambda v: eye / dt - 0.5 * dF(v), v0, tol / dt)
    if kind is MODCN:
        # (phi1 - phi0)/dt = Lap(phi1 + phi0)/2 - ((phi1 + phi0)(phi1^2 + phi0^2)/4 - phi0)/eps^2
        def N(v):
            return ie2 * ((v + v0) * (v * v + v0 * v0) / 4.0 - v0)

        def dN(v):
            return np.diag(ie2 * (3.0 * v * v + 2.0 * v * v0 + v0 * v0) / 4.0)

        return _newton(lambda v: (v - v0) / dt - 0.5 * lap @ (v + v0) + N(v),
                       lambda v: eye / dt - 0.5 * lap + dN(v), v0, tol / dt)
    tab = kind.tableau
    forces, prev = [], v0
    for i in range(tab.stages):
        known = v0 + dt * sum(tab.a[i][j] * forces[j] for j in range(i))
        gamma = dt * tab.a[i][i]
        prev = _newton(lambda v: v - gamma * F(v) - known, lambda v: eye - gamma * dF(v), prev,
                       tol)
        forces.append(F(prev))
    return v0 + dt * sum(b * f for b, f in zip(tab.b, forces))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL + (_DIRK_ODD, _DIRK_SKEW)),
    st.sampled_from((1, 2)),
    st.integers(3, 9),
    st.floats(0.2, 1.0),
    st.floats(0.05, 0.9),
    st.data(),
)
def test_step_matches_the_scheme_definitions(kind, dim, n, eps, frac, data):
    # dt is frac of the scheme's uniqueness threshold, so each stage has one solution
    p = ACParams(eps, frac * _unique_dt_over_eps2(kind) * eps * eps)
    g = make_grid(dim, n)
    v0 = np.array(data.draw(st.lists(
        st.floats(-1.5, 1.5), min_size=g.num_nodes, max_size=g.num_nodes)))
    lap_v0 = laplacian_matrix(g) @ v0
    scale = max(1.0, np.max(np.abs(v0)), p.dt * np.max(np.abs(lap_v0)),
                p.dt * np.max(np.abs(v0)) ** 3 / p.eps2)
    # both sides solved well below the bound: at the default tolerance two
    # Newton paths may stop at different points within it of the root
    tol = 1e-13 * scale
    out, rep = step(kind, ScalarField(g, v0), p, NewtonConfig(tol=tol))
    assert rep.success
    want = _step_by_definition(kind, v0, g, p, tol)
    assert np.max(np.abs(out.values - want)) <= 1e-12 * scale


def _step_with_stages(kind, phi, p):
    """step's (field, report) and the value of each stage it solved, as node
    arrays: on a constant field step solves each stage on the constant's float."""
    solve, stages = schemes.newton_solve, []

    def recording(*args):
        x, rep = solve(*args)
        stages.append(np.broadcast_to(x, phi.values.shape))
        return x, rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "newton_solve", recording)
        out, rep = step(kind, phi, p)
    return out, rep, stages


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((DIRK2, _SDIRK2, _DIRK3, _EDIRK_SKEW)),
    st.sampled_from((1, 2)),
    st.integers(3, 9),
    st.floats(0.2, 1.0),
    st.floats(0.05, 0.9),
    st.data(),
)
def test_dirk_step_combines_the_stage_forces(kind, dim, n, eps, frac, data):
    # implicit stage i's terms are (a, s, b, k) = (1/dt, phi_n, a_ii,
    # sum_{j<i} a_ij G_j), its equation divided by dt, and step reads G = -F
    # off it as -(a (phi_i - s) + k) / b: that is G(phi_i) up to the
    # equation's residual r_i over b = a_ii.  An explicit first stage is phi_n,
    # its G(phi_n) evaluated.  So the result, phi_n - dt sum b_i G_i or
    # (stiffly accurate, b the last row) the last stage, is phi_n + dt sum b_i
    # F(phi_i) up to dt sum (b_i / a_ii) r_i over the implicit stages, and the
    # roundoff of adding up the terms of F
    tab = kind.tableau
    p = ACParams(eps, frac * eps * eps / tab.max_diag)  # one solution per stage
    g = make_grid(dim, n)
    v0 = np.array(data.draw(st.lists(
        st.floats(-1.5, 1.5), min_size=g.num_nodes, max_size=g.num_nodes)))
    out, rep, solved = _step_with_stages(kind, ScalarField(g, v0), p)
    stages = [v0] * (tab.a[0][0] == 0.0) + solved  # no Newton loop solves an explicit stage
    assert rep.success and len(stages) == tab.stages
    lap = laplacian_matrix(g)
    want = v0 - sum(p.dt * b * _minus_force(lap @ x, x, p) for b, x in zip(tab.b, stages))
    implicit = range(tab.stages - len(solved), tab.stages)
    bound = p.dt * sum(abs(tab.b[i] / tab.a[i][i]) * r.residual
                       for i, r in zip(implicit, rep.stage_reports, strict=True))
    # roundoff: 64 ulps of the largest term, |phi_n| or dt |b_i| (|Lap phi_i| + |n(phi_i)| / eps^2)
    terms = [np.abs(v0)] + [p.dt * abs(b) * (np.abs(lap @ x) + np.abs(x ** 3 - x) / p.eps2)
                            for b, x in zip(tab.b, stages)]
    slack = 64 * np.finfo(float).eps * max(np.max(t) for t in terms)
    assert np.max(np.abs(out.values - want)) <= bound + slack
    if kind is _SDIRK2:
        # stiffly accurate: phi_n + dt sum b_i F_i is the last stage's own sum,
        # and the result is that stage
        assert np.array_equal(out.values, stages[-1])


# A state moves once |F|_inf exceeds the Newton tolerance by this factor:
# each stage solves its equation divided by dt, whose residual at phi_n is
# a_ii |F(phi_n)| or more, and 1 / a_ii is at most 4 here (DIRK2; 3.41 for
# SDIRK2, 1 for be, cn and modcn)
_MOVING_FACTOR = 8.0


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((BE, CN, MODCN, DIRK2, _SDIRK2)),
    st.floats(0.05, 0.5),
    st.floats(1e-3, 0.1),
    st.sampled_from((1, 2)),
    st.integers(3, 17),
    st.sampled_from((1.0, -1.0)),
    st.floats(1.25, 100.0),
    st.data(),
)
def test_a_moving_state_is_not_frozen(kind, eps, dt, dim, n, sign, size, data):
    # the settled state +-1 plus a small drawn perturbation, scaled so that
    # |F|_inf is size times _MOVING_FACTOR times the tolerance (to first
    # order): step must not return it unchanged, however slowly it moves
    # (dt |F| >= 1e-12, far above the roundoff of values near 1)
    p, g, tol = ACParams(eps, dt), make_grid(dim, n), NewtonConfig().tol
    shape = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=g.num_nodes,
                                        max_size=g.num_nodes)))
    lap = laplacian_matrix(g)

    def force(v):
        return np.max(np.abs(_minus_force(lap @ v, v, p)))

    unit = force(sign + 1e-6 * shape)
    assume(unit > 0.0)
    phi = sign + 1e-6 * shape * (size * _MOVING_FACTOR * tol / unit)
    assume(force(phi) > _MOVING_FACTOR * tol)
    out, rep = step(kind, ScalarField(g, phi), p)
    assert rep.success and not np.array_equal(out.values, phi)


@pytest.mark.parametrize("eps", (0.07, 0.08))
def test_dirk2_moves_a_slow_interface_as_be_does(eps):
    # the interface tanh((x - 0.3) / (sqrt(2) eps)), relaxed by 50 BE steps,
    # drifts towards the wall by 3.9e-10 (eps 0.07) and 1.2e-8 (eps 0.08) in
    # the field mean over 300 steps of dt = 0.01 (1D, n = 257: 0.1-0.2 s per
    # eps on a 2-vCPU VM); |F|_inf is 1.3e-9 and 3.4e-8, below the 4e-8 at
    # which a stage residual in units of dt a_11 F froze DIRK2, and DIRK2
    # must move it as BE does
    g, p = make_grid(1, 257), ACParams(eps, 0.01)
    phi = ScalarField(g, np.tanh((g.axis() - 0.3) / (math.sqrt(2.0) * eps)))
    for _ in range(50):
        phi = step(BE, phi, p)[0]
    moved = {}
    for kind in (BE, DIRK2):
        u = phi
        for _ in range(300):
            u, rep = step(kind, u, p)
            assert rep.success
        moved[kind.label] = field_mean(phi) - field_mean(u)
    assert moved["be"] > 0.0
    assert moved["dirk2"] == pytest.approx(moved["be"], rel=1e-3)


@st.composite
def _constant_steps(draw):
    """(kind, grid, r, p): |r| log-uniform in [1e-3, 1e3] of either sign, 1D or 2D
    grids of 3 to 65 nodes per axis, and dt below the scheme's uniqueness threshold."""
    kind = draw(st.sampled_from(ALL + (_SDIRK2, _DIRK3, _EDIRK_SKEW)))
    g = make_grid(draw(st.sampled_from((1, 2))), draw(st.integers(3, 65)))
    r = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(-3.0, 3.0))
    eps = draw(st.floats(0.1, 1.0))
    p = ACParams(eps, draw(st.floats(0.05, 0.95)) * _unique_dt_over_eps2(kind) * eps * eps)
    return kind, g, r, p


def _field_walk(kind, v0, g, p, cfg):
    """step's stage walk on the node array v0, as step solves a field that is not
    constant: implicit_system and newton_solve per implicit stage, each from
    the stage before; an explicit first stage's G(phi_n) = -F(phi_n)
    evaluated, an implicit one's read off its equation.  (values, reports)."""
    lap = laplacian_matrix(g)
    stages, b, _ = _forward_stages(kind, p)
    x, reports = v0, []
    tab = kind._rk  # None for modcn
    gs = [(1.0 / p.eps2) * (v0 * v0 * v0 - v0) - lap @ v0] if tab and tab.a[0][0] == 0.0 else []
    for stage in stages:
        a, s, b_ii, k, *_ = terms = stage(v0, gs, lap.__matmul__)
        x, rep = newton_solve(*implicit_system(g, p, *terms), x, cfg)
        reports.append(rep)
        if not rep.converged:
            return x, reports
        gs.append(-(a * (x - s) + k) / b_ii)
    return (x if b is None else sum((-p.dt * w * gi for w, gi in zip(b, gs)), v0)), reports


def _first_stage_scale(kind, r, p):
    """The largest term of the first implicit stage's equation at the constant r."""
    stages, _, lead = _forward_stages(kind, p)
    a, s, b, k, *_ = stages[0](r, lead(r, _no_lap), _no_lap)
    return max(abs(a * r), abs(a * s), b / p.eps2 * abs(r) ** 3, abs(k))


@settings(max_examples=200, deadline=None)
@given(_constant_steps())
@example((BE, make_grid(1, 5), 0.0, ACParams(0.1, 0.005)))
@example((DIRK2, make_grid(2, 3), -0.0, ACParams(0.1, 0.01)))
# the float walk's 8th Newton residual is 9.92e-11, just under its tolerance
# 1e-10, so any roundoff that L leaves on the constant takes the field walk a 9th
@example((CN, make_grid(2, 53), 2.5638457639254084, ACParams(0.41015625, 0.11565685272216797)))
def test_a_constant_field_steps_as_its_constant(drawn):
    # step solves each stage of a constant field on its float, the walk on the
    # node array is the reference.  Newton stops at 1e-12 of the first stage's
    # largest term (1e-10 at least), far above both walks' roundoff floors, so
    # both take the same iterations to the same root.  The reference's linear
    # solves round: in 1D within a few ulps, in 2D its CG steps go through DCT-I
    # products of order n.  Bound: 32 ulps (1D), 4 n ulps (2D) of the larger of
    # |r| and the result (seen over 2,000 random draws: 11 and 2.1 n).
    kind, g, r, p = drawn
    cfg = NewtonConfig(tol=max(1e-10, 1e-12 * _first_stage_scale(kind, r, p)))
    out, rep = step(kind, constant_field(g, r), p, cfg)
    want, reports = _field_walk(kind, np.full(g.num_nodes, r), g, p, cfg)
    assert ([(q.converged, q.iterations, q.message) for q in rep.stage_reports]
            == [(q.converged, q.iterations, q.message) for q in reports])
    assert rep.success
    ulps = 32 if g.dim == 1 else 4 * g.n
    scale = max(abs(r), np.max(np.abs(want)))
    assert np.max(np.abs(out.values - want)) <= ulps * np.spacing(scale)


@settings(max_examples=100, deadline=None)
@given(_constant_steps(), st.integers(1, 30))
def test_simulate_keeps_a_constant_field_constant(drawn, steps):
    # every state simulate steps to from a constant field is constant to the bit,
    # also after a step that fails
    kind, g, r, p = drawn
    states = []

    def recording(*args):
        u, rep = step(*args)
        states.append(u.values)
        return u, rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "step", recording)
        traj = simulate(kind, constant_field(g, r), steps, p)
    assert states
    for v in states:
        bits = v.view(np.int64)
        assert (bits == bits[0]).all()
    assert all(s.vmin == s.vmax == s.center for s in traj.summaries)


def test_only_a_field_of_one_bit_pattern_steps_as_a_constant(monkeypatch):
    # 0.0 and -0.0 are equal but have different bits: a mix of them is a field
    # CN's one stage builds its system on no grid (its float) or on the grid
    grids = []
    system = schemes.implicit_system
    monkeypatch.setattr(schemes, "implicit_system",
                        lambda grid, *args: grids.append(grid) or system(grid, *args))
    g, p = make_grid(1, 5), ACParams(0.1, 0.01)
    for values, grid in (([-0.0] * 5, None), ([0.0, -0.0, 0.0, 0.0, 0.0], g)):
        grids.clear()
        out, rep = step(CN, ScalarField(g, values), p)
        assert rep.success and len(grids) == 1 and grids[0] is grid
        assert out.values.tobytes() == np.array(values).tobytes()


def _self_convergence_order(kind, dts, ref_dt):
    g = make_grid(1, 33)
    phi0 = ScalarField(g, 0.2 + 0.3 * np.cos(np.pi * g.axis()))
    T = 0.5
    p_ref = ACParams(0.8, ref_dt)

    def final(dt):
        p = ACParams(0.8, dt)
        u = phi0
        for _ in range(round(T / dt)):
            u, rep = step(kind, u, p)
            assert rep.success
        return u.values

    ref = final(ref_dt)
    errs = [np.max(np.abs(final(dt) - ref)) for dt in dts]
    return min(math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1))


@pytest.mark.parametrize(
    "kind,min_order",
    [(BE, 0.9), (CN, 1.9), (MODCN, 0.9), (DIRK2, 1.9)],
    ids=lambda v: v.label if hasattr(v, "label") else str(v),
)
def test_consistency_order(kind, min_order):
    order = _self_convergence_order(kind, [0.05, 0.025, 0.0125], 0.5 / 640)
    assert order >= min_order


def test_trajectory_bookkeeping():
    g = make_grid(1, 17)
    p = ACParams(0.1, 0.01)
    traj = simulate(CN, constant_field(g, 1.9931), 10, p)
    assert [s.step for s in traj.summaries] == list(range(11))
    assert traj.summaries[3].time == pytest.approx(0.03)
    assert traj.sign_flips() == 1  # single jump across zero, then settles
    assert traj.settled and traj.limit == -1
    assert traj.failure is None


@st.composite
def _near_plus_minus_one(draw):
    """(v, settle_tol): node values with entries at and next to 1 +- tol and -1 +- tol."""
    tol = draw(st.one_of(st.just(1e-3), st.floats(1e-12, 0.5)))
    edges = [c + e for c in (1.0, -1.0) for e in (-tol, tol)]
    edges += [np.nextafter(x, d) for x in edges for d in (-np.inf, np.inf)]
    entry = st.one_of(st.sampled_from(edges), st.floats(-2.0, 2.0), st.sampled_from((1.0, -1.0)))
    return np.array(draw(st.lists(entry, min_size=1, max_size=12))), tol


@settings(max_examples=500, deadline=None)
@given(_near_plus_minus_one())
def test_settle_decision_reads_the_summary_extremes(drawn):
    v, tol = drawn
    summary = StepSummary(0, 0.0, float(v.min()), float(v.max()), 0.0, 0.0)
    want = next((c for c in (1, -1) if np.max(np.abs(v - c)) <= tol), 0)
    assert _settled_sign(summary, tol) == want


def test_simulate_reports_newton_failure():
    g = make_grid(1, 9)
    traj = simulate(CN, constant_field(g, 32.0), 6, ACParams(0.01, 10.0))
    assert traj.failure is not None
    assert len(traj.summaries) < 7
    assert not traj.settled and traj.limit == 0


def test_simulate_respects_newton_config():
    g = make_grid(1, 9)
    cfg = NewtonConfig(max_iter=1)
    traj = simulate(CN, constant_field(g, 1.9931), 4, ACParams(0.1, 0.01), cfg=cfg)
    assert traj.failure is not None


def test_simulate_failure_names_the_stage_and_residual():
    g = make_grid(1, 9)
    cfg = NewtonConfig(max_iter=1)
    traj = simulate(DIRK2, constant_field(g, 1.9931), 4, ACParams(0.1, 0.01), cfg=cfg)
    assert traj.failure.startswith(
        "step 1 did not converge at stage 1 of 2 (max iterations reached, residual ")


def test_simulate_rejects_a_settle_tol_that_is_not_finite_and_nonnegative():
    g = make_grid(1, 9)
    for tol in (math.nan, -1.0, math.inf):
        with pytest.raises(ConfigurationError, match=r"settle_tol must be finite and >= 0"):
            simulate(BE, constant_field(g, 1.0), 3, ACParams(0.1, 0.01), settle_tol=tol)


def _simulate_by_stepping(kind, phi0, steps, p, settle_tol, cfg=None):
    """simulate's result from a plain loop of schemes.step calls, plus every state's values."""
    states, summaries, failure = [phi0.values], [], None
    u = phi0
    for i in range(steps + 1):
        if i:
            u, rep = schemes.step(kind, u, p, cfg)
            if not rep.success:
                bad = rep.stage_reports[-1]
                stages = kind.tableau.stages if kind.tableau else 1
                failure = (f"step {i} did not converge at stage {len(rep.stage_reports)} of "
                           f"{stages} ({bad.message}, residual {bad.residual:.3g})")
                break
            states.append(u.values)
        v = u.values
        summaries.append(StepSummary(i, i * p.dt, float(v.min()), float(v.max()),
                                     center_value(u), field_l2(u)))
    signs = [_settled_sign(s, settle_tol) for s in summaries]
    settle_step = next((i for i, c in enumerate(signs) if c), None)
    limit = 0 if settle_step is None else signs[settle_step]
    return (tuple(summaries), settle_step is not None, settle_step, limit, failure), states


def _fields(traj):
    return traj.summaries, traj.settled, traj.settle_step, traj.limit, traj.failure


def _same(got, want):
    """Equal with every float compared by its repr, so 0.0 and -0.0 differ."""
    return repr(got) == repr(want)


def _first_repeat(states):
    """(i, period) of the first state equal bit for bit to one of the two before it."""
    bits = [v.tobytes() for v in states]
    for i in range(1, len(bits)):
        for period in (1, 2):
            if i >= period and bits[i] == bits[i - period]:
                return i, period
    return None


@st.composite
def _runs(draw):
    """(kind, phi0, steps, p, settle_tol, cfg) on small grids, with constants at and
    near the exact fixed points the schemes reach, and runs that fail."""
    kind = draw(st.sampled_from(ALL))
    dim = draw(st.sampled_from((1, 2)))
    g = make_grid(dim, draw(st.integers(3, 17) if dim == 1 else st.integers(3, 6)))
    special = (0.0, -0.0, 1.0, -1.0, 0.5, 1.9931, 5.074, 31.0, -35.0, 40.0)
    c = draw(st.one_of(st.sampled_from(special), st.floats(-40.0, 40.0)))
    values = np.full(g.num_nodes, c)
    if draw(st.booleans()):
        mode = ModeIndex((draw(st.integers(1, 2)),) * dim)
        values = values + draw(st.floats(0.01, 0.3)) * eval_mode(mode, g).values
    eps = draw(st.sampled_from((0.1, 1.0)))
    p = ACParams(eps, draw(st.sampled_from((0.5, 1.0, 2.0, 5.0))) * eps * eps)
    cfg = draw(st.sampled_from((None, None, NewtonConfig(max_iter=4))))
    settle_tol = draw(st.sampled_from((1e-3, 0.0, 1e-12)))
    return kind, ScalarField(g, values), draw(st.integers(0, 40)), p, settle_tol, cfg


# DIRK2's fixed point from 31 (states 10 and 11 equal): 1D runs cut before and at it, a 2D one past it
_REPEAT = [(DIRK2, constant_field(make_grid(dim, 5), 31.0), steps, ACParams(0.1, 0.01), 1e-3, None)
           for dim, steps in ((1, 10), (1, 11), (2, 13))]


@settings(max_examples=150, deadline=None)
@given(_runs())
@example(_REPEAT[0])
@example(_REPEAT[1])
@example(_REPEAT[2])
def test_simulate_is_a_plain_step_loop(run):
    # the early exit on a repeated state changes no summary, settling or failure
    kind, phi0, steps, p, settle_tol, cfg = run
    traj = simulate(kind, phi0, steps, p, settle_tol, cfg)
    assert _same(_fields(traj), _simulate_by_stepping(kind, phi0, steps, p, settle_tol, cfg)[0])


# (kind, value, delta, repeat_before): the 1D field const+mode:value,delta,1 on n = 257
# repeats exactly before step repeat_before.  A DIRK stage whose guess already solves it
# adds a force of exactly 0, so the settled DIRK2 fields reach fixed points.
@pytest.mark.parametrize("kind,value,delta,repeat_before", [
    (BE, 1.9931, 0.0, 30),
    (DIRK2, 31.0, 0.0, 16),
    (DIRK2, 5.074, 0.1, 16),
    (DIRK2, 0.5, 0.1, 16),
    (DIRK2, -0.5, 0.1, 16),
], ids=("be", "dirk2", "dirk2_mode_5.074", "dirk2_mode_0.5", "dirk2_mode_-0.5"))
def test_simulate_stops_stepping_at_the_first_repeat(kind, value, delta, repeat_before,
                                                     monkeypatch):
    g, p, steps = make_grid(1, 257), ACParams(0.1, 0.01), 200
    phi0 = ScalarField(g, value + delta * eval_mode(ModeIndex((1,)), g).values)
    want, states = _simulate_by_stepping(kind, phi0, steps, p, 1e-3)
    repeat, period = _first_repeat(states)
    assert period == 1 and repeat < repeat_before
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(schemes, "step", counting)
    traj = simulate(kind, phi0, steps, p)
    assert len(calls) == repeat
    assert _same(_fields(traj), want)


def test_simulate_copies_a_two_cycle(monkeypatch):
    # no scheme was seen to reach an exact 2-cycle, so a stand-in step sends
    # every state to a except a itself, which goes to b: the states run
    # phi0, a, b, a, ..., and state 3 repeats state 1
    g, p = make_grid(1, 9), ACParams(0.1, 0.01)
    a = ScalarField(g, 0.5 + 0.1 * eval_mode(ModeIndex((1,)), g).values)
    b = constant_field(g, 1.0 - 1e-4)  # settled at settle_tol 1e-3, a is not
    calls = []

    def alternating(kind, u, p, cfg=None):
        calls.append(1)
        return (b if u.values.tobytes() == a.values.tobytes() else a), StepReport(())

    monkeypatch.setattr(schemes, "step", alternating)
    phi0 = constant_field(g, 0.0)
    want = _simulate_by_stepping(DIRK2, phi0, 20, p, 1e-3)[0]
    calls.clear()
    traj = simulate(DIRK2, phi0, 20, p)
    assert len(calls) == 3
    assert traj.settle_step == 2 and len(traj.summaries) == 21
    assert _same(_fields(traj), want)
