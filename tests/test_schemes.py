import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acstab.errors import ConfigurationError
from acstab.fields import (
    ACParams,
    ButcherTableau,
    ModeIndex,
    ScalarField,
    ac_force,
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
    StepSummary,
    _settled_sign,
    _step_terms,
    constant_cubic,
    implicit_system,
    parse_scheme,
    scalar_map,
    simulate,
    step,
)
from acstab.solvers import NewtonConfig, fd_jacobian, real_cubic_roots

ALL = (BE, CN, MODCN, DIRK2)
# a backward-triangular tableau other than DIRK2's (a11 != a22, alpha != beta)
_DIRK_ODD = SchemeKind("dirk", ButcherTableau(((0.3, 0.0), (0.5, 0.2)), (0.5, 0.5), (0.3, 0.7)))
# the same stages with unequal weights b, so the order of b against the stages shows
_DIRK_SKEW = SchemeKind("dirk", ButcherTableau(((0.3, 0.0), (0.5, 0.2)), (0.3, 0.7), (0.3, 0.7)))


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
        return ac_force(laplacian_matrix(g) @ v, v, p)

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
        v0 = phi_n.values
        residual, jacobian = implicit_system(g, p, *_step_terms(kind, v0, laplacian_matrix(g) @ v0, p))
        u = rng.uniform(-2, 2, g.num_nodes)
        dense = np.asarray(jacobian(u).todense())
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
        dense = np.asarray(jacobian(u).todense())
        rel = np.linalg.norm(dense - fd_jacobian(residual, u)) / np.linalg.norm(dense)
        assert rel <= 1e-5


def test_step_system_rejects_dirk():
    g = make_grid(1, 9)
    with pytest.raises(ConfigurationError):
        _step_terms(DIRK2, constant_field(g, 0.0).values, 0.0, ACParams(0.1, 0.01))


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
    roots = real_cubic_roots(*constant_cubic(p, *_step_terms(CN, r, 0.0, p))).real_roots
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


def _step_by_definition(kind, v0, g, p, tol):
    """One step from each scheme's definition, stage by stage, each stage
    started from the one before and solved to residual tol; be/cn/modcn
    equations divided by dt, and their tolerance with them."""
    lap = laplacian_matrix(g).toarray()
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
    factor = {"be": 1.0, "cn": 2.0, "modcn": 2.0}.get(kind.tag)
    factor = factor or 1.0 / kind.tableau.max_diag
    p = ACParams(eps, frac * factor * eps * eps)
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
