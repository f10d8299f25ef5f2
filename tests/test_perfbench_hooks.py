"""perfbench/layertrace.py patches acstab module attributes by name; they must exist."""

import importlib.util
from pathlib import Path

import acstab.robustness as robustness
import acstab.schemes as schemes
from acstab.fields import ACParams, ModeIndex, ScalarField, constant_field, eval_mode, make_grid
from acstab.solvers import HomotopyConfig

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    originals = (schemes.laplacian_matrix, schemes.real_cubic_roots, robustness.real_cubic_roots)
    tracer = _load_layertrace().Tracer()
    try:
        tracer.install()
        p = ACParams(eps=1.0, dt=0.5)
        robustness.scalar_map(schemes.CN, 2.0, p)
        # a constant preimage's cubic and a field step's Newton solve go through the patched names
        robustness.preimage_constants(schemes.CN, 0.0, p)
        schemes.step(schemes.CN, constant_field(make_grid(1, 5), 2.0), p)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.take()}
    assert {"schemes.scalar_map", "solvers.newton", "solvers.real_cubic_roots"} <= names
    assert (schemes.laplacian_matrix, schemes.real_cubic_roots,
            robustness.real_cubic_roots) == originals


def _small_preimages():
    """CN preimages of a 1D and a 2D field, each under a 4-step continuation."""
    p = ACParams(eps=0.1, dt=0.01)
    root = robustness.preimage_constants(schemes.CN, 0.5, p).roots[0]
    out = []
    for grid, mode in ((make_grid(1, 17), ModeIndex((1,))), (make_grid(2, 9), ModeIndex((1, 1)))):
        target = ScalarField(grid, 0.5 + 0.1 * eval_mode(mode, grid).values)
        out.append(robustness.preimage_field(schemes.CN, target, constant_field(grid, root), p,
                                             HomotopyConfig(delta_end=0.1, steps=4)))
    return out


def test_traced_preimage_fields_march_as_untraced():
    # the tracer's march_deltas takes its three arguments by position, as
    # preimage_field must pass them on both grids
    want = _small_preimages()
    tracer = _load_layertrace().Tracer()
    try:
        tracer.install()
        got = _small_preimages()
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.take()]
    assert names.count("solvers.march_deltas") == 2
    assert "solvers.continuation_attempt" in names
    for (phi, rep), (want_phi, want_rep) in zip(got, want):
        assert rep.converged and rep == want_rep
        assert phi.values.tobytes() == want_phi.values.tobytes()
