"""Reference kernels that measure how fast the machine is running right now.

On a shared virtual machine the speed of the same code drifts by 30% or
more over tens of seconds (a pure-Python loop timed back to back shows
phases of 1.3-1.6x slow-down), so raw wall times of two runs minutes apart
differ by more than any useful regression bound.  run.py times a kernel
after every operation and divides the operation's wall time by the mean of
the kernel times before and after it, then multiplies by the kernel's
nominal time.  The result is the operation's time in *reference seconds*:
what it would take while the machine runs the kernel in its nominal time.

Each kernel uses numpy and SciPy only, never acstab, and mimics the hot
path of its workload (sparse Jacobian assembly and a banded solve; a sparse
LU factorization; scalar Newton steps with 1x1 LU solves), so that it slows
down in the same machine phases as the workload does.  The cyclic garbage
collector is off while a kernel runs (after a full collection), so a kernel's
time does not grow with the number of Python objects acstab keeps alive.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _second_difference(n: int):
    return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")


class Kernel:
    """One reference kernel; time() runs it once and returns its wall time."""

    def __init__(self, nominal_s: float, body):
        self.nominal_s = nominal_s
        self._body = body

    def time(self) -> float:
        gc.collect()
        gc.disable()
        try:
            start = perf_counter()
            self._body()
            return perf_counter() - start
        finally:
            gc.enable()


def _banded_1d():
    n = 257
    lap, eye = _second_difference(n), sp.identity(n, format="csr")
    v = np.linspace(-1.0, 1.0, n)

    def body():
        for _ in range(25):
            jac = 100.0 * eye - lap + sp.diags(3.0 * v * v - 1.0)
            jac.tocoo()
            ab = np.zeros((3, n))
            dia = jac.todia()
            for off, data in zip(dia.offsets, dia.data):
                ab[1 - off] = data
            scipy.linalg.solve_banded((1, 1), ab, v ** 3 - v)

    return body


def _sparse_lu_2d():
    n = 65
    lap1 = _second_difference(n)
    lap = (sp.kron(lap1, sp.identity(n)) + sp.kron(sp.identity(n), lap1)).tocsr()
    eye = sp.identity(n * n, format="csr")
    v = np.linspace(-1.0, 1.0, n * n)

    def body():
        jac = 100.0 * eye - lap + sp.diags(3.0 * v * v - 1.0)
        spla.splu(jac.tocsc()).solve(v ** 3 - v)

    return body


def _scalar_newton():
    def body():
        for k in range(150):
            r = 1.0 + k / 50.0
            x = np.array([r])
            for _ in range(3):
                f = np.atleast_1d(float(x[0] - r + 0.5 * (x[0] ** 3 - x[0])))
                d = np.asarray(1.0 + 0.5 * (3.0 * x[0] * x[0] - 1.0)).reshape(1, 1)
                step = scipy.linalg.lu_solve(scipy.linalg.lu_factor(d), -f)
                x = x + step
            math.fsum((x[0], r, -r))

    return body


def _mixed():
    banded, lu = _banded_1d(), _sparse_lu_2d()

    def body():
        banded()
        lu()

    return body


# Nominal times: roughly the kernels' wall times on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, SciPy 1.17) in its fast phase.  They only fix the
# scale of reference seconds; any constant would do.
_KERNELS = {
    "banded-1d": (0.012, _banded_1d),
    "sparse-lu-2d": (0.012, _sparse_lu_2d),
    "scalar-newton": (0.011, _scalar_newton),
    "mixed": (0.025, _mixed),
}


def make_kernel(name: str) -> Kernel:
    nominal, factory = _KERNELS[name]
    return Kernel(nominal, factory())
