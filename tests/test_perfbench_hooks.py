"""perfbench/layertrace.py patches acstab module attributes by name; they must exist."""

import importlib.util
from pathlib import Path

import acstab.robustness as robustness
import acstab.schemes as schemes
from acstab.fields import ACParams, constant_field, make_grid

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
