import math

import numpy as np
import pytest

from acstab.errors import ConfigurationError
from acstab.fields import (
    ACParams,
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
    dirk_stage_system,
    dirk_step,
    parse_scheme,
    scalar_map,
    simulate,
    step,
    step_system,
)
from acstab.solvers import NewtonConfig, fd_jacobian

ALL = (BE, CN, MODCN, DIRK2)


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
    out, rep = dirk_step(phi, DIRK2.tableau, p)
    assert rep.success

    def F(v):
        return ac_force(laplacian_matrix(g) @ v, v, p)

    gamma = 0.25 * p.dt
    s1, r1 = newton_solve(*dirk_stage_system(phi.values, gamma, g, p), phi.values)
    known2 = phi.values + 0.5 * p.dt * F(s1)
    s2, r2 = newton_solve(*dirk_stage_system(known2, gamma, g, p), s1)
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
        residual, jacobian = step_system(kind, phi_n, p)
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
        residual, jacobian = dirk_stage_system(known, 0.25 * p.dt, g, p)
        u = rng.uniform(-2, 2, g.num_nodes)
        dense = np.asarray(jacobian(u).todense())
        rel = np.linalg.norm(dense - fd_jacobian(residual, u)) / np.linalg.norm(dense)
        assert rel <= 1e-5


def test_step_system_rejects_dirk():
    g = make_grid(1, 9)
    with pytest.raises(ConfigurationError):
        step_system(DIRK2, constant_field(g, 0.0), ACParams(0.1, 0.01))


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


@pytest.mark.parametrize("kind", ALL, ids=lambda k: k.label)
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


def test_simulate_reports_newton_failure():
    g = make_grid(1, 9)
    traj = simulate(CN, constant_field(g, 30.0), 6, ACParams(0.01, 10.0))
    assert traj.failure is not None
    assert len(traj.summaries) < 7
    assert not traj.settled and traj.limit == 0


def test_simulate_respects_newton_config():
    g = make_grid(1, 9)
    cfg = NewtonConfig(max_iter=1)
    traj = simulate(CN, constant_field(g, 1.9931), 4, ACParams(0.1, 0.01), cfg=cfg)
    assert traj.failure is not None
