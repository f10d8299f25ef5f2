"""When is the next time step unique, and where does uniqueness first fail?

Linearizing a scheme's one-step equation about a constant state c turns the
question of local solvability into a sign condition on a scalar coefficient
(per eigenmode of the zero-flux Laplacian).  The coefficient crosses zero at

    eps^2 = (1 - 3 c^2) / (D + sum_i (k_i pi)^2),

where D = a / b of the step's terms (a, b) in ``schemes.implicit_system``:
1/dt for backward Euler, 2/dt for Crank-Nicolson, and 1/(dt * a_ii) for a
DIRK step, taken as its stiffest stage (a_ii the largest diagonal entry), a
backward Euler step of length dt * a_ii.  The coefficient is the kernel's
slope ``schemes.mode_slope`` of those terms.  No crossing exists when
1 - 3c^2 <= 0, and the modified Crank-Nicolson scheme never bifurcates at
all.  Sufficient uniqueness thresholds on the time step follow by taking
the worst mode (k = 0) and worst state (c = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .fields import ACParams, ModeIndex
from .schemes import BE, SchemeKind, _step_terms, mode_slope

__all__ = [
    "StabilityThreshold",
    "BifurcationPoint",
    "stability_threshold",
    "uniqueness_coefficient",
    "bifurcation_epsilon_sq",
    "enumerate_bifurcations",
]


@dataclass(frozen=True)
class StabilityThreshold:
    """Largest dt with an unconditionally unique next step (inf if unrestricted)."""

    scheme: SchemeKind
    dt_max: float
    formula: str  # one of EPS2, TWO_EPS2, INF, EPS2_OVER_MAX_AII


def stability_threshold(kind: SchemeKind, eps: float) -> StabilityThreshold:
    """Uniqueness threshold on dt for the given scheme at interface width eps."""
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigurationError(f"eps must be finite and > 0, got {eps}")
    e2 = eps * eps
    if kind.tag == "be":
        return StabilityThreshold(kind, e2, "EPS2")
    if kind.tag == "cn":
        return StabilityThreshold(kind, 2.0 * e2, "TWO_EPS2")
    if kind.tag == "modcn":
        return StabilityThreshold(kind, math.inf, "INF")
    return StabilityThreshold(kind, e2 / kind.tableau.max_diag, "EPS2_OVER_MAX_AII")


def _step_terms_at(kind: SchemeKind, p: ACParams, v0):
    """implicit_system's terms of one step from v0; a DIRK step is taken as
    its stiffest stage, a backward Euler step of length dt * max a_ii."""
    if kind.tag != "dirk":
        return _step_terms(kind, v0, 0.0, p)
    return _step_terms(BE, v0, 0.0, ACParams(p.eps, p.dt * kind.tableau.max_diag))


def uniqueness_coefficient(
    kind: SchemeKind,
    c: float,
    p: ACParams,
    r: float | None = None,
) -> float:
    """Scalar slope of the one-step equation at a constant state c (mode k = 0).

    Positive for every admissible c means the step from any state near c is
    uniquely solvable.  For DIRK the slope is that of the stage with the
    largest diagonal entry; for the modified Crank-Nicolson scheme it also
    involves the previous state r.
    """
    if kind.tag == "modcn" and r is None:
        raise ConfigurationError("modcn slope needs the previous state r")
    return mode_slope(p, *_step_terms_at(kind, p, c if r is None else r))(c)


def bifurcation_epsilon_sq(kind: SchemeKind, c: float, dt: float, k: ModeIndex) -> float | None:
    """eps^2 at which mode k's linearized coefficient vanishes at state c.

    Returns None when no bifurcation exists: always for the modified
    Crank-Nicolson scheme, and whenever 1 - 3 c^2 <= 0.
    """
    p = ACParams(1.0, dt)  # a and b of the step's terms do not depend on eps
    if kind.tag == "modcn":
        return None
    # the slope a + b m + (b / eps^2) n'(c) vanishes at eps^2 = -n'(c) / (D + m)
    # with D = a / b; n'(c) is the slope of n alone (a = 0, b = 1, eps = 1)
    num = -mode_slope(p, 0.0, c, 1.0)(c)
    if num <= 0.0:
        return None
    a, _, b, _, _ = _step_terms_at(kind, p, c)
    return num / (a / b + k.laplace_eigenvalue)


@dataclass(frozen=True)
class BifurcationPoint:
    """A mode and the eps^2 at which its linearization becomes singular.

    note is nonempty for modes whose admissibility convention varies: the
    k = 1/2 sine family is included here for the trapezoid scheme by
    symmetry with the first-order analysis.
    """

    scheme: SchemeKind
    c: float
    mode: ModeIndex
    eps_sq: float
    note: str = ""

    @property
    def eigenfunction(self) -> str:
        return self.mode.describe()


def _mode_components(max_k: int) -> list[float]:
    # all multiples of 1/2 from 0 through max_k
    return [j / 2.0 for j in range(2 * max_k + 1)]


def enumerate_bifurcations(
    kind: SchemeKind,
    c: float,
    dt: float,
    eps_min: float,
    max_k: int = 8,
    dim: int = 1,
) -> list[BifurcationPoint]:
    """All modes with k_i <= max_k whose bifurcation eps exceeds eps_min.

    Sorted by decreasing eps_sq (the order in which uniqueness fails as eps
    shrinks), ties broken by the mode index.  Empty when the scheme never
    bifurcates at state c.
    """
    if dim not in (1, 2):
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")
    if max_k < 0:
        raise ConfigurationError("max_k must be >= 0")
    comps = _mode_components(max_k)
    if dim == 1:
        modes = [ModeIndex((a,)) for a in comps]
    else:
        modes = [ModeIndex((a, b)) for a in comps for b in comps]
    points: list[BifurcationPoint] = []
    for mode in modes:
        e2 = bifurcation_epsilon_sq(kind, c, dt, mode)
        if e2 is None or e2 < eps_min * eps_min:
            continue
        note = ""
        if kind.tag == "cn" and any(v == 0.5 for v in mode.k):
            note = "k=1/2 sine factor: index convention varies for this scheme"
        points.append(BifurcationPoint(kind, c, mode, e2, note))
    points.sort(key=lambda bp: (-bp.eps_sq, bp.mode.k))
    return points
