"""When is the next time step unique, and where does uniqueness first fail?

Linearizing a scheme's one-step equation about a constant state c turns the
question of local solvability into a sign condition on a scalar coefficient
(per eigenmode of the zero-flux Laplacian): the kernel's slope
``schemes.mode_slope`` of the step's terms in ``schemes.implicit_system``.
It crosses zero at

    eps^2 = -n'(c) / (D + sum_i (k_i pi)^2),

where D = a / b: 1/dt for backward Euler, 2/dt for Crank-Nicolson, and
1/(dt * a_ii) for a DIRK step, taken as its stiffest stage (a_ii the
largest diagonal entry), a backward Euler step of length dt * a_ii.  The
nonlinearity's slope n'(c) is 3c^2 - 1, so no crossing exists when
1 - 3c^2 <= 0; for the modified Crank-Nicolson scheme (partner state c) it
is 3c^2 >= 0, so that scheme never bifurcates.  The uniqueness thresholds
on dt and the ratio -> dt map are read off the worst mode (k = 0) at the
worst state (c = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, _check_count
from .fields import ACParams, ModeIndex, _eps_sq
from .schemes import BE, CN, SchemeKind, _step_terms, mode_slope

__all__ = [
    "StabilityThreshold",
    "BifurcationPoint",
    "stability_threshold",
    "bifurcation_epsilon_sq",
    "enumerate_bifurcations",
]


def _step_terms_at(kind: SchemeKind, p: ACParams, v0):
    """implicit_system's terms of one step from v0; a DIRK step is taken as
    its stiffest stage, a backward Euler step of length dt * max a_ii."""
    if kind.tag != "dirk":
        return _step_terms(kind, v0, 0.0, p)
    return _step_terms(BE, v0, 0.0, ACParams(p.eps, p.dt * kind.tableau.max_diag))


def bifurcation_epsilon_sq(kind: SchemeKind, c: float, dt: float, k: ModeIndex) -> float | None:
    """eps^2 at which mode k's linearized coefficient vanishes at state c.

    Returns None when no bifurcation exists: whenever n'(c) >= 0, which is
    1 - 3 c^2 <= 0, and always for the modified Crank-Nicolson scheme.  A c
    that is not finite is a ConfigurationError.
    """
    if not math.isfinite(c):
        raise ConfigurationError(f"c must be finite, got {c}")
    p = ACParams(1.0, dt)  # a and b of the step's terms do not depend on eps
    a, _, b, _, partner = _step_terms_at(kind, p, c)
    # the slope a + b m + (b / eps^2) n'(c) vanishes at eps^2 = -n'(c) / (D + m)
    # with D = a / b; n'(c) is the slope of the step's n alone (a = 0, b = 1, eps = 1)
    num = -mode_slope(p, 0.0, c, 1.0, 0.0, partner)(c)
    if num <= 0.0:
        return None
    return num / (a / b + k.laplace_eigenvalue)


_FORMULAS = {"be": "EPS2", "cn": "TWO_EPS2", "modcn": "INF", "dirk": "EPS2_OVER_MAX_AII"}


@dataclass(frozen=True)
class StabilityThreshold:
    """Largest dt with an unconditionally unique next step (inf if unrestricted)."""

    scheme: SchemeKind
    dt_max: float
    formula: str  # dt_max's closed form, labelled by _FORMULAS


def _eps_sq_per_dt(kind: SchemeKind) -> float | None:
    """h: the eps^2 per unit dt at which the constant mode about c = 0
    bifurcates (eps^2 scales with dt, as D = a / b does with 1/dt), or None
    when it never does."""
    return bifurcation_epsilon_sq(kind, 0.0, 1.0, ModeIndex((0.0,)))


def stability_threshold(kind: SchemeKind, eps: float) -> StabilityThreshold:
    """Uniqueness threshold on dt for the given scheme at interface width eps
    (as ACParams takes it): dt_max = eps^2 / h, h from _eps_sq_per_dt or inf."""
    eps2, h = _eps_sq(eps), _eps_sq_per_dt(kind)
    return StabilityThreshold(kind, math.inf if h is None else eps2 / h, _FORMULAS[kind.tag])


def _ratio_dt(kind: SchemeKind, ratio: float, eps: float = 1.0) -> float:
    """The time step whose ratio to the scheme's uniqueness threshold is `ratio`.

    dt = ratio eps^2 / h with stability_threshold's h; MODCN, unique at every
    dt, is measured against CN's threshold.  The ratio must be finite and > 0.
    """
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise ConfigurationError(f"ratio must be finite and > 0, got {ratio}")
    return ratio * (eps * eps) / _eps_sq_per_dt(CN if kind.tag == "modcn" else kind)


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
    bifurcates at state c.  eps_min must be finite and >= 0.
    """
    if dim not in (1, 2):
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")
    _check_count("max_k", max_k, 0)
    if not (math.isfinite(eps_min) and eps_min >= 0.0):
        raise ConfigurationError(f"eps_min must be finite and >= 0, got {eps_min}")
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
