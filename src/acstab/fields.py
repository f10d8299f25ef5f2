"""Grids, scalar fields, and the zero-flux Laplacian on [-1, 1]^d.

The domain is the cube [-1, 1]^d for d in {1, 2}, discretized with n
uniformly spaced nodes per axis (node-centered, endpoints included).
Homogeneous Neumann boundary conditions are built into the Laplacian via
mirror ghost nodes, which makes every product of factors

    cos(pi * k * x_i)   (k integer)   or   sin(pi * k * x_i)   (k half-integer)

an exact eigenvector of the discrete operator, with eigenvalue
-sum_i (4 / h^2) sin^2(k_i pi h / 2) -> -sum_i (k_i pi)^2 as h -> 0.

This module also defines the small value types used everywhere else:
`ScalarField` (values sampled on a grid), `ACParams` (interface width and
time step), `ModeIndex` (a separable eigenmode index), and
`ButcherTableau` (lower-triangular Runge-Kutta coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "GridSpec",
    "ScalarField",
    "ACParams",
    "ModeIndex",
    "ButcherTableau",
    "DIRK2_TABLEAU",
    "make_grid",
    "constant_field",
    "laplacian_matrix",
    "eval_mode",
    "trapezoid_weights",
    "field_mean",
    "field_l2",
    "center_value",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform node-centered grid on [-1, 1]^dim with n nodes per axis."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 3:
            raise ConfigurationError(f"need at least 3 nodes per axis, got {self.n}")

    @property
    def h(self) -> float:
        """Node spacing 2 / (n - 1)."""
        return 2.0 / (self.n - 1)

    @property
    def num_nodes(self) -> int:
        return self.n ** self.dim

    def axis(self) -> np.ndarray:
        """The n node coordinates of one axis, from -1 to 1 inclusive."""
        return np.linspace(-1.0, 1.0, self.n)

    def node_coordinates(self) -> np.ndarray:
        """All node coordinates, shape (num_nodes, dim), row-major axis order."""
        x = self.axis()
        if self.dim == 1:
            return x[:, None]
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        return np.column_stack([x1.ravel(), x2.ravel()])


def make_grid(dim: int, n: int) -> GridSpec:
    """Build a validated GridSpec; rejects dim not in {1, 2} and n < 3."""
    return GridSpec(dim, n)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values sampled at every grid node (flat, row-major axis order)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.grid.num_nodes:
            raise ConfigurationError(
                f"expected {self.grid.num_nodes} values, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("field values must all be finite")
        object.__setattr__(self, "values", v)


def constant_field(grid: GridSpec, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.num_nodes, float(value)))


def _eps_sq(eps: float) -> float:
    """eps^2 of an eps > 0 whose eps^2 and 1/eps^2 are finite and > 0, as the
    steps use both; any other eps is a ConfigurationError."""
    eps2 = eps * eps
    if not (eps > 0.0 and 0.0 < eps2 < math.inf and 1.0 / eps2 < math.inf):
        raise ConfigurationError(f"eps must be > 0 with eps^2 and 1/eps^2 finite and > 0, got {eps}")
    return eps2


@dataclass(frozen=True)
class ACParams:
    """Interface-width parameter eps and time step dt: eps as _eps_sq takes
    it, dt > 0 with dt and 1/dt finite, as the steps divide by dt."""

    eps: float
    dt: float

    def __post_init__(self) -> None:
        _eps_sq(self.eps)
        if not (0.0 < self.dt < math.inf and 1.0 / self.dt < math.inf):
            raise ConfigurationError(f"dt must be > 0 with dt and 1/dt finite, got {self.dt}")

    @property
    def eps2(self) -> float:
        return self.eps * self.eps


@dataclass(frozen=True)
class ModeIndex:
    """Index of a separable Neumann eigenmode on [-1, 1]^d.

    Each component k_i must be a nonnegative multiple of 1/2.  Integer
    components select the even factor cos(pi k x); half-integer components
    select the odd factor sin(pi k x), which also has zero normal derivative
    at both endpoints.
    """

    k: tuple[float, ...]

    def __post_init__(self) -> None:
        comps = tuple(float(v) for v in self.k)
        if len(comps) not in (1, 2):
            raise ConfigurationError("mode index needs 1 or 2 components")
        for v in comps:
            if not math.isfinite(v) or v < 0 or (2 * v) != round(2 * v):
                raise ConfigurationError(
                    f"mode components must be nonnegative multiples of 1/2, got {v}"
                )
        object.__setattr__(self, "k", comps)

    @property
    def dim(self) -> int:
        return len(self.k)

    def flavors(self) -> tuple[str, ...]:
        """Per-axis factor type: 'cos' for integer k_i, 'sin' for half-integer."""
        return tuple("cos" if v == round(v) else "sin" for v in self.k)

    @property
    def laplace_eigenvalue(self) -> float:
        """Continuum value sum_i (k_i pi)^2 (the mode satisfies -Lap u = m u);
        ConfigurationError naming the mode where that sum is not finite."""
        try:
            m = float(sum((v * math.pi) ** 2 for v in self.k))
        except OverflowError:  # float ** raises where * would give inf
            m = math.inf
        if not math.isfinite(m):
            raise ConfigurationError(f"mode {self.describe()} has no finite Laplace eigenvalue")
        return m

    def describe(self) -> str:
        parts = []
        for i, (v, fl) in enumerate(zip(self.k, self.flavors()), start=1):
            parts.append(f"{fl}({v:g}*pi*x{i})")
        return "*".join(parts)


@dataclass(frozen=True)
class ButcherTableau:
    """Lower-triangular Runge-Kutta coefficients (a, b) with s stages.

    Only the first stage may be explicit (a_11 = 0, as in the trapezoid
    rule): it is then phi_n itself.  Every later stage is implicit, and so is
    a tableau's one stage.  The Allen-Cahn equation is autonomous, so no
    stage reads the nodes c.
    """

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        a = tuple(tuple(float(v) for v in row) for row in self.a)
        b = tuple(float(v) for v in self.b)
        s = len(a)
        if s == 0 or any(len(row) != s for row in a):
            raise ConfigurationError("a must be a nonempty square matrix")
        if len(b) != s:
            raise ConfigurationError("b must have one entry per stage")
        for i, row in enumerate(a):
            if any(row[j] != 0.0 for j in range(i + 1, s)):
                raise ConfigurationError("a must be lower triangular")
        if all(a[i][i] == 0.0 for i in range(s)):
            raise ConfigurationError("some diagonal entry must be nonzero (an implicit stage)")
        if any(a[i][i] == 0.0 for i in range(1, s)):
            raise ConfigurationError("only the first stage may be explicit (a_ii = 0)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def stages(self) -> int:
        return len(self.b)

    @property
    def max_diag(self) -> float:
        return max(self.a[i][i] for i in range(self.stages))


#: Two-stage, second-order tableau used by the bundled DIRK scheme: A-stable,
#: not L-stable (R(z) = ((1 + z/4) / (1 - z/4))^2, so R(-inf) = 1).
DIRK2_TABLEAU = ButcherTableau(
    a=((0.25, 0.0), (0.5, 0.25)),
    b=(0.5, 0.5),
)


class _Laplacian:
    """laplacian_matrix(grid): the operator as one coefficient row per node
    offset, in ascending column order: (-1, 0, 1) in 1D, (-n, -1, 0, 1, n)
    in 2D.  rows[k, j] is the coefficient of node j in row j - offsets[k]
    (0 where that row has no such term): the layout of scipy's dia_matrix,
    and reversed, of solve_banded's (1, 1) band.  Every coefficient is one
    of three: c = 1 / h^2 for a neighbour, 2 c for the neighbour that a
    boundary row reads twice (its mirror ghost), and -2 dim c on the
    diagonal.  `@` applies it as differences of neighbouring values.
    """

    def __init__(self, grid: GridSpec) -> None:
        n, h2 = grid.n, grid.h * grid.h
        self.grid = grid
        self._c = 1.0 / h2
        below = np.full(n, self._c)  # 1D offset -1: coefficient of node j in row j + 1
        below[-2:] = 2.0 / h2, 0.0
        above = below[::-1]  # 1D offset +1: coefficient of node j in row j - 1
        diagonal = -2.0 * grid.dim / h2
        if grid.dim == 1:
            self.offsets = (-1, 0, 1)
            rows = np.stack([below, np.full(n, diagonal), above])
        else:
            self.offsets = (-n, -1, 0, 1, n)
            rows = np.empty((5, n, n))
            rows[0], rows[1], rows[2] = below[:, None], below, diagonal
            rows[3], rows[4] = above, above[:, None]
            rows = rows.reshape(5, n * n)
        rows.setflags(write=False)
        self.rows = rows

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """L x as c times sums of neighbour differences: (x_{j+1} - x_j) -
        (x_j - x_{j-1}) inside a grid row, and twice the one difference a
        boundary node has, taken as (neighbour - node), per axis.  Each
        difference of a constant is +0.0, so L maps every finite constant
        to +0.0 exactly."""
        x = np.asarray(x, dtype=float)
        n = self.grid.n
        y = np.empty_like(x)
        d = x[1:] - x[:-1]  # along grid rows; the entries that wrap are overwritten
        np.subtract(d[1:], d[:-1], out=y[1:-1])
        y[::n] = d[::n] + d[::n]
        e = x[n - 2::n] - x[n - 1::n]
        y[n - 1::n] = e + e
        if self.grid.dim == 2:  # the same along columns: shifts by n
            d = x[n:] - x[:-n]
            y[n:-n] += d[n:] - d[:-n]
            y[:n] += d[:n] + d[:n]
            e = x[-2 * n:-n] - x[-n:]
            y[-n:] += e + e
        y *= self._c
        return y

    def tosparse(self):
        """The same operator as a scipy.sparse CSR matrix, built from rows
        (scipy.sparse is imported here, on the first call)."""
        import scipy.sparse as sp

        size = self.grid.num_nodes
        return sp.diags([r[:size + k] if k < 0 else r[k:] for k, r in zip(self.offsets, self.rows)],
                        self.offsets, format="csr")


@lru_cache(maxsize=None)
def laplacian_matrix(grid: GridSpec) -> _Laplacian:
    """Discrete Laplacian with mirror-ghost Neumann boundary rows.

    1D rows: (u_{j-1} - 2 u_j + u_{j+1}) / h^2 in the interior and
    2 (u_1 - u_0) / h^2 at the boundary (ghost u_{-1} := u_1).  In 2D the
    operator is the Kronecker sum of two 1D copies.  Returned as a numpy
    operator (_Laplacian): `L @ x` on a flat node array sums differences of
    neighbouring values, so it is exactly +0.0 on every finite constant;
    rows keeps the coefficients, and tosparse() gives the scipy.sparse CSR
    matrix.  Cached per grid and read-only; building it imports no SciPy.
    """
    return _Laplacian(grid)


@lru_cache(maxsize=None)
def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of laplacian_matrix(grid), indexed like dct1's output.

    Shape (n,) in 1D and (n, n) in 2D.  The eigenvector of index k along an
    axis is cos(pi j k / (n - 1)) at node j, with eigenvalue
    -(4 / h^2) sin^2(pi k / (2 (n - 1))); in 2D the eigenvalues add.
    Cached per grid and read-only.
    """
    n, h = grid.n, grid.h
    lam = -(4.0 / (h * h)) * np.sin(0.5 * np.pi * np.arange(n) / (n - 1)) ** 2
    if grid.dim == 2:
        lam = np.add.outer(lam, lam)
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=None)
def _dct1_matrix(n: int) -> np.ndarray:
    """The (n, n) matrix of dct1 along one axis of length n; read-only."""
    j = np.arange(n)  # j k reduced mod 2 (n - 1), the cosine's period
    mat = 2.0 * np.cos(np.pi * (np.multiply.outer(j, j) % (2 * (n - 1))) / (n - 1))
    mat[:, 0] = 1.0
    mat[:, -1] = (-1.0) ** j
    mat.setflags(write=False)
    return mat


def dct1(arr: np.ndarray) -> np.ndarray:
    """Unnormalized type-I DCT of an (n,) or (n, m) array along every axis.

    y_k = x_0 + (-1)^k x_{n-1} + 2 sum_{0<j<n-1} x_j cos(pi j k / (n - 1)),
    the real FFT of the mirror extension (x_0 .. x_{n-1} .. x_1).  Applying
    it twice multiplies by 2 (m - 1) per axis of length m, so

        laplacian_matrix(g) @ x == dct1(laplacian_eigenvalues(g) * dct1(x)) / (2 (n - 1))^dim

    Computed as products with the matrix A of an axis of length n (A_k0 = 1,
    A_kj = 2 cos(pi j k / (n - 1)) for 0 < j < n - 1, A_k,n-1 = (-1)^k),
    read-only and cached per n: A @ x in 1D, A_n @ X @ A_m^T in 2D.  That is
    O(n^3), yet on one BLAS thread of a 2-vCPU VM it beat the FFT form at
    every n measured (29 against 65 us at n = 65, 10.6 against 11.1 ms at
    n = 513): the crossover lies above n = 513.
    """
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        return _dct1_matrix(out.shape[0]) @ out
    return _dct1_matrix(out.shape[0]) @ out @ _dct1_matrix(out.shape[1]).T


def eval_mode(k: ModeIndex, grid: GridSpec) -> ScalarField:
    """Sample the separable eigenmode prod_i A_i(x_i) on the grid.

    A_i = cos(pi k_i x) for integer k_i and sin(pi k_i x) for half-integer
    k_i.  The mode's dimension must match the grid's.
    """
    if k.dim != grid.dim:
        raise ConfigurationError(
            f"mode has {k.dim} component(s) but grid is {grid.dim}-dimensional"
        )
    x = grid.axis()
    factors = []
    for comp, flavor in zip(k.k, k.flavors()):
        if flavor == "cos":
            factors.append(np.cos(math.pi * comp * x))
        else:
            factors.append(np.sin(math.pi * comp * x))
    if grid.dim == 1:
        return ScalarField(grid, factors[0])
    return ScalarField(grid, np.multiply.outer(factors[0], factors[1]).ravel())


def _cubic(v):
    """n(v) = v^3 - v on a node array or a float, by products only: array
    v ** 3 calls pow per node, and products round alike on arrays and floats."""
    return v * v * v - v


def _minus_force(lap_v, v, p: ACParams):
    """G(v) = -F(v) = (v^3 - v) / eps^2 - Lap(v), lap_v = Lap(v) (0.0 on constants)."""
    return (1.0 / p.eps2) * _cubic(v) - lap_v


@lru_cache(maxsize=None)
def trapezoid_weights(grid: GridSpec) -> np.ndarray:
    """Trapezoid quadrature weights per node (flat, row-major); read-only.

    Weighted sums of Laplacian outputs, w @ (laplacian_matrix(grid) @ x),
    are zero in exact arithmetic: the discrete analogue of the zero-flux
    compatibility identity int Lap(u) dx = 0.  In floating point they leave
    roundoff, of order eps times the weighted sum of |x| / h^2.
    """
    w1 = np.full(grid.n, grid.h)
    w1[0] = w1[-1] = grid.h / 2.0
    if grid.dim == 1:
        w = w1
    else:
        w = np.multiply.outer(w1, w1).ravel()
    w.setflags(write=False)
    return w


def field_mean(u: ScalarField) -> float:
    """Trapezoid average of the field over the domain (volume 2^dim)."""
    w = trapezoid_weights(u.grid)
    return float(w @ u.values) / (2.0 ** u.grid.dim)


def field_l2(u: ScalarField) -> float:
    """Trapezoid-weighted L2 norm; as m ||v / m|| with m = max |v| where the
    plain sum of squares overflows, or underflows to 0 on a nonzero field."""
    w, v = trapezoid_weights(u.grid), u.values
    with np.errstate(over="ignore"):
        total = float(w @ (v * v))
    if math.isfinite(total) and (total > 0.0 or not v.any()):
        return math.sqrt(total)
    m = float(np.abs(v).max())
    return m * math.sqrt(float(w @ ((v / m) * (v / m))))


def center_value(u: ScalarField) -> float:
    """Value at the node nearest the domain center (exact center for odd n)."""
    mid = (u.grid.n - 1) // 2
    if u.grid.dim == 1:
        return float(u.values[mid])
    return float(u.values[mid * u.grid.n + mid])
