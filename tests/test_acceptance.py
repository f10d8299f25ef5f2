"""End-to-end gate: one test per published claim, one PASS/FAIL line each."""

import math
import time

import numpy as np
import pytest

from acstab import reference
from acstab.fields import (
    ACParams,
    ModeIndex,
    ScalarField,
    constant_field,
    eval_mode,
    laplacian_matrix,
    make_grid,
)
from acstab.robustness import (
    dirk_perturbation_gains,
    interval_sequence,
    perturbation_gain,
    preimage_constants,
    preimage_field,
)
from acstab.schemes import BE, CN, DIRK2, MODCN, _step_terms, implicit_system, scalar_map, simulate, step
from acstab.solvers import HomotopyConfig, NewtonConfig, fd_jacobian, newton_solve
from acstab.stability import stability_threshold

TOL_TABLE = 1e-3


class _gate:
    """Prints the one-line verdict for a criterion as the block exits."""

    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.num:02d} ({self.label}): {verdict}")
        return False


def _table_close(got, want):
    assert abs(got - want) <= TOL_TABLE * max(1.0, abs(want))


def test_criterion_01_trapezoid_interval_table():
    with _gate(1, "trapezoid interval table, 20 values, < 1 s"):
        t0 = time.perf_counter()
        for ratio in reference.RATIOS:
            entries = interval_sequence(CN, ratio, 4).entries
            for got, want in zip(entries, reference.TABLE1[ratio]):
                _table_close(got, want)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_modified_trapezoid_interval_table():
    with _gate(2, "modified trapezoid interval table, 20 values, < 1 s"):
        t0 = time.perf_counter()
        for ratio in reference.RATIOS:
            entries = interval_sequence(MODCN, ratio, 4).entries
            for got, want in zip(entries, reference.TABLE2[ratio]):
                _table_close(got, want)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_dirk_interval_table():
    with _gate(3, "two-stage DIRK interval table, 40 values, < 2 s"):
        t0 = time.perf_counter()
        for ratio in reference.RATIOS:
            entries = interval_sequence(DIRK2, ratio, 4).entries
            assert len(entries) == 8
            for got, want in zip(entries, reference.TABLE3[ratio]):
                _table_close(got, want)
        # the largest tabulated magnitude sits at the smallest ratio
        _table_close(interval_sequence(DIRK2, 0.001, 4).entries[-1], 1147.391)
        assert time.perf_counter() - t0 < 2.0


def test_criterion_04_uniqueness_thresholds_exact():
    with _gate(4, "uniqueness thresholds eps^2 / 2 eps^2 / inf / 4 eps^2"):
        for eps in (0.1, 0.37, 1.0):
            e2 = eps * eps
            assert stability_threshold(BE, eps).dt_max == e2
            assert stability_threshold(CN, eps).dt_max == 2.0 * e2
            assert stability_threshold(MODCN, eps).dt_max == math.inf
            assert stability_threshold(DIRK2, eps).dt_max == e2 / 0.25


def test_criterion_05_first_interval_closed_forms():
    with _gate(5, "closed forms for r1 and the DIRK s1 identity, 1e-12"):
        rng = np.random.default_rng(503)
        for _ in range(100):
            eps = rng.uniform(0.05, 1.5)
            e2 = eps * eps
            dt = rng.uniform(0.01, 1.2) * e2
            r1_cn = interval_sequence(CN, dt / (2 * e2), 1).entries[0]
            assert r1_cn == pytest.approx(math.sqrt(1 + 2 * e2 / dt), rel=1e-12)
            r1_mod = interval_sequence(MODCN, dt / (2 * e2), 1).entries[0]
            assert r1_mod == pytest.approx(2 * math.sqrt(1 + e2 / dt), rel=1e-12)
            ratio = dt / (4 * e2)
            r1, s1 = interval_sequence(DIRK2, ratio, 1).entries
            assert r1 == pytest.approx(2 * math.sqrt(1 + 4 * e2 / dt), rel=1e-12)
            u = (r1 - s1) / 2
            resid = (r1 + s1) / 2 + ratio * (u**3 - u)
            assert abs(resid) <= 1e-12 * max(1.0, abs(r1 + s1))


def test_criterion_06_overshoot_to_wrong_phase():
    with _gate(6, "trapezoid overshoot 1.9931 -> -0.984375 -> -1; implicit Euler -> +1"):
        grid = make_grid(1, 257)
        phi0 = constant_field(grid, 1.9931)

        t0 = time.perf_counter()
        traj = simulate(CN, phi0, 50, ACParams(0.1, 0.01))
        assert time.perf_counter() - t0 < 1.0
        assert abs(traj.summaries[1].center + 0.984375) <= 1e-3
        assert abs(traj.summaries[1].vmax - traj.summaries[1].vmin) <= 1e-9
        assert traj.settled and traj.limit == -1 and traj.settle_step <= 50

        t0 = time.perf_counter()
        traj_be = simulate(BE, phi0, 50, ACParams(0.1, 0.005))
        assert time.perf_counter() - t0 < 1.0
        assert traj_be.settled and traj_be.limit == 1


def test_criterion_07_zigzag_field_trajectory():
    with _gate(7, "zig-zag: 9 sign alternations, near -1 by step 14"):
        grid = make_grid(1, 257)
        mode = eval_mode(ModeIndex((1.0,)), grid)
        phi0 = ScalarField(grid, 5.074 + 0.1 * mode.values)
        t0 = time.perf_counter()
        traj = simulate(CN, phi0, 50, ACParams(0.1, 0.01))
        assert time.perf_counter() - t0 < 1.0
        assert traj.sign_flips() == 9
        assert traj.settled and traj.limit == -1 and traj.settle_step <= 50
        near = next(
            s.step for s in traj.summaries
            if max(abs(s.vmin + 1.0), abs(s.vmax + 1.0)) <= 0.5
        )
        assert near <= 14


def test_criterion_08_dirk_wrong_limit_scenarios():
    with _gate(8, "DIRK: flip at step 1 from 7; five iterates then -1 from 95.72"):
        grid = make_grid(1, 257)
        p = ACParams(0.1, 0.01)

        t0 = time.perf_counter()
        traj = simulate(DIRK2, constant_field(grid, 7.0), 100, p)
        assert time.perf_counter() - t0 < 1.0
        signs = traj.center_signs()
        assert signs[0] == 1 and signs[1] == -1
        assert traj.settled and traj.limit == -1 and traj.settle_step <= 100

        t0 = time.perf_counter()
        traj = simulate(DIRK2, constant_field(grid, 95.72), 100, p)
        assert time.perf_counter() - t0 < 1.0
        signs = traj.center_signs()
        # five positive iterates (steps 0..4), negative from step 5 on
        assert signs[:5] == (1, 1, 1, 1, 1) and signs[5] == -1
        assert traj.settled and traj.limit == -1


def test_criterion_09_preimage_fidelity():
    with _gate(9, "preimage round trips, constants then continued fields"):
        rng = np.random.default_rng(907)
        kinds = (BE, CN, MODCN, DIRK2)
        for i in range(50):
            kind = kinds[i % 4]
            eps = rng.uniform(0.05, 0.8)
            dt_max = stability_threshold(kind, eps).dt_max
            cap = 4.0 * eps * eps if math.isinf(dt_max) else dt_max
            p = ACParams(eps, rng.uniform(0.1, 0.95) * cap)
            c = rng.uniform(-2, 2)
            for root in preimage_constants(kind, c, p).roots:
                images = [img for img, _sel in scalar_map(kind, float(root), p)]
                assert min(abs(img - c) for img in images) <= 1e-8

        grid = make_grid(1, 257)
        p = ACParams(0.1, 0.01)
        mode = eval_mode(ModeIndex((1.0,)), grid)

        c = 0.984375
        root = min(preimage_constants(CN, c, p).roots, key=lambda r: abs(r + 1.9931))
        gain = perturbation_gain(CN, c, root, ModeIndex((1.0,)), p).gain[0]
        target = ScalarField(grid, c + 0.5 * mode.values)
        seed = ScalarField(grid, root + 1e-3 * gain * mode.values)
        phi_n, rep = preimage_field(CN, target, seed, p, HomotopyConfig(0.5))
        assert rep.converged
        fwd, _ = step(CN, phi_n, p)
        assert np.max(np.abs(fwd.values - target.values)) <= 1e-8

        c = -7.0
        ps = preimage_constants(DIRK2, c, p)
        (chain,) = ps.chains
        g = dirk_perturbation_gains(chain[2], chain[1], ModeIndex((1.0,)), p)
        target = ScalarField(grid, c + 0.1 * mode.values)
        seed = ScalarField(grid, ps.roots[0] + 1e-3 * g.gain[2] * mode.values)
        phi_n, rep = preimage_field(DIRK2, target, seed, p, HomotopyConfig(0.1))
        assert rep.converged
        fwd, _ = step(DIRK2, phi_n, p)
        assert np.max(np.abs(fwd.values - target.values)) <= 1e-8


def test_criterion_10_property_bundle():
    with _gate(10, "jacobians, odd symmetry, eigen ratio, gain residuals, uniqueness"):
        rng = np.random.default_rng(1009)
        grid = make_grid(1, 9)
        p = ACParams(0.3, 0.05)

        # analytic vs finite-difference jacobians
        for kind in (BE, CN, MODCN):
            for _ in range(20):
                phi_n = ScalarField(grid, rng.uniform(-1.5, 1.5, grid.num_nodes))
                u = rng.uniform(-1.5, 1.5, grid.num_nodes)
                v0 = phi_n.values
                residual, jacobian = implicit_system(
                    grid, p, *_step_terms(kind, v0, laplacian_matrix(grid) @ v0, p))
                J = np.asarray(jacobian(u).todense())
                Jfd = fd_jacobian(residual, u)
                assert np.max(np.abs(J - Jfd)) <= 1e-5 * max(1.0, np.max(np.abs(J)))
        for _ in range(20):
            known = rng.uniform(-1.5, 1.5, grid.num_nodes)
            u = rng.uniform(-1.5, 1.5, grid.num_nodes)
            residual, jacobian = implicit_system(grid, p, 1.0, known, 0.25 * p.dt)
            J = np.asarray(jacobian(u).todense())
            Jfd = fd_jacobian(residual, u)
            assert np.max(np.abs(J - Jfd)) <= 1e-5 * max(1.0, np.max(np.abs(J)))

        # odd symmetry of one step and of constant preimages
        for kind in (BE, CN, MODCN, DIRK2):
            phi_n = ScalarField(grid, rng.uniform(-1.2, 1.2, grid.num_nodes))
            plus, _ = step(kind, phi_n, p)
            minus, _ = step(kind, ScalarField(grid, -phi_n.values), p)
            assert np.max(np.abs(plus.values + minus.values)) <= 1e-10
            for c in (0.4, 1.3):
                a = preimage_constants(kind, c, p).roots
                b = preimage_constants(kind, -c, p).roots
                assert all(abs(x + y) <= 1e-10 for x, y in zip(a, reversed(b)))

        # discrete mode eigenvalue converges at second order under h-halving
        mode = ModeIndex((1.0,))
        lam = mode.laplace_eigenvalue

        def eig_err(n):
            g = make_grid(1, n)
            v = eval_mode(mode, g)
            from acstab.fields import apply_laplacian

            return np.max(np.abs(apply_laplacian(v).values + lam * v.values))

        ratio = eig_err(65) / eig_err(129)
        assert 3.5 <= ratio <= 4.5

        # linearized gain residuals
        checked = 0
        while checked < 100:
            eps = rng.uniform(0.1, 1.0)
            dt = rng.uniform(0.01, 1.0)
            pg = ACParams(eps, dt)
            c, r = rng.uniform(-2, 2, 2)
            kk = ModeIndex((float(rng.integers(0, 4)),))
            m = kk.laplace_eigenvalue
            if checked % 2 == 0:
                g = perturbation_gain(CN, c, r, kk, pg)
                if g.pole:
                    continue
                num = (3 * c * c - 1) / pg.eps2 + 2 / pg.dt + m
                den = (3 * r * r - 1) / pg.eps2 - 2 / pg.dt + m
                if abs(den) <= 1e-6 * (abs(3 * r * r - 1) / pg.eps2 + 2 / pg.dt + m):
                    continue
                assert abs(den * g.gain[0] + num) <= 1e-9 * max(1.0, abs(g.gain[0]))
            else:
                g = dirk_perturbation_gains(c, r, kk, pg)
                if g.pole:
                    continue
                q = pg.dt / 4.0
                d2 = q * m + (q / pg.eps2) * (3 * c * c - 1)
                d1 = q * m + (q / pg.eps2) * (3 * r * r - 1)
                b2, b1, b0 = g.gain
                scale = max(1.0, abs(b0), abs(b1), abs(b2))
                assert abs(b2 * (1 - d2) - 1) <= 1e-9 * scale
                assert abs(b1 * (1 - d1) - b2 * (1 + d2)) <= 1e-9 * scale
                assert abs(b0 - b1 * (1 + d1)) <= 1e-9 * scale
            checked += 1

        # below the threshold the implicit Euler step has one solution
        g65 = make_grid(1, 65)
        eps = 0.3
        pu = ACParams(eps, 0.5 * eps * eps)
        phi_n = ScalarField(g65, 0.1 + 0.3 * eval_mode(ModeIndex((1.0,)), g65).values)
        v0 = phi_n.values
        residual, jacobian = implicit_system(g65, pu, *_step_terms(BE, v0, laplacian_matrix(g65) @ v0, pu))
        sols = []
        for _ in range(100):
            guess = rng.uniform(-3, 3, g65.num_nodes)
            x, rep = newton_solve(residual, jacobian, guess, NewtonConfig(max_iter=200))
            assert rep.converged
            sols.append(np.asarray(x))
        stack = np.stack(sols)
        assert np.max(stack.max(axis=0) - stack.min(axis=0)) <= 1e-8
