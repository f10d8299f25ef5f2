"""Time acstab's set-up in a fresh interpreter and print it as one JSON line.

    python3 perfbench/setup_probe.py 1x257 2x65

Set-up is what every CLI call pays before it computes: importing acstab.cli
(numpy and scipy with it) and building the Laplacian of each DIMxN grid the
workload uses.  run.py starts this script with PYTHONPATH naming the
checkout's src directory.

setup_ref_s is the set-up time in reference seconds: scaled by a pure-Python
kernel (dictionary inserts and compiling code, the kind of work an import
does) timed in this same process just before and just after, as explained
in calibration.py.  The kernel cannot use numpy, which is not imported yet.
It runs with the cyclic garbage collector off, after a full collection, so
the heap the import leaves behind does not slow the second timing.
"""

import gc
import json
import sys
from time import perf_counter

KERNEL_NOMINAL_S = 0.055
_SOURCE = "def f(x):\n    return [x + i for i in range(3)]\n" * 50


def kernel() -> float:
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for i in range(30000):
            table[str(i)] = (i, [i])
        for _ in range(20):
            exec(compile(_SOURCE, "kernel", "exec"), {})
        return perf_counter() - start
    finally:
        gc.enable()


before = kernel()
start = perf_counter()
import acstab.cli  # noqa: E402,F401  (the import is what is timed)

imported = perf_counter()
from acstab.fields import laplacian_matrix, make_grid  # noqa: E402

for spec in sys.argv[1:]:
    dim, n = spec.split("x")
    laplacian_matrix(make_grid(int(dim), int(n)))
built = perf_counter()
after = kernel()
print(json.dumps({
    "import_s": imported - start,
    "laplacian_s": built - imported,
    "setup_s": built - start,
    "setup_ref_s": (built - start) * KERNEL_NOMINAL_S / (0.5 * (before + after)),
}))
