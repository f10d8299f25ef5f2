"""Stability and robustness analysis of implicit Allen-Cahn time steppers.

The package discretizes phi_t = Lap(phi) - (phi^3 - phi)/eps^2 on [-1, 1]^d
(d = 1, 2) with zero-flux boundary conditions and four implicit schemes,
and answers two families of questions about a single time step:

* stability -- for which (eps, dt) is the next step uniquely determined,
  and along which spatial modes does uniqueness first fail;
* robustness -- how many initial states can produce a given next step, and
  how those spurious preimages reshape the computed dynamics of large
  initial data.

See the `acstab` command-line tool for reproducible CSV output.
"""

from .errors import AnalysisError, ConfigurationError
from .fields import (
    ACParams,
    ButcherTableau,
    DIRK2_TABLEAU,
    GridSpec,
    ModeIndex,
    ScalarField,
    apply_laplacian,
    center_value,
    constant_field,
    eval_mode,
    field_l2,
    field_mean,
    laplacian_matrix,
    make_grid,
    trapezoid_weights,
)
from .solvers import (
    CubicRoots,
    HomotopyConfig,
    NewtonConfig,
    NewtonReport,
    delta_schedule,
    homotopy_path,
    newton_solve,
    real_cubic_roots,
)
from .schemes import (
    BE,
    CN,
    DIRK2,
    MODCN,
    SchemeKind,
    StepReport,
    StepSummary,
    Trajectory,
    dirk_step,
    parse_scheme,
    scalar_map,
    simulate,
    step,
)
from .stability import (
    BifurcationPoint,
    StabilityThreshold,
    bifurcation_epsilon_sq,
    enumerate_bifurcations,
    stability_threshold,
    uniqueness_coefficient,
)
from .robustness import (
    ClassificationResult,
    IntervalSequence,
    PerturbationGain,
    PreimageSet,
    classify_constant_initial,
    dirk_perturbation_gains,
    interval_sequence,
    perturbation_gain,
    preimage_constants,
    preimage_field,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "ConfigurationError",
    "ACParams",
    "ButcherTableau",
    "DIRK2_TABLEAU",
    "GridSpec",
    "ModeIndex",
    "ScalarField",
    "apply_laplacian",
    "center_value",
    "constant_field",
    "eval_mode",
    "field_l2",
    "field_mean",
    "laplacian_matrix",
    "make_grid",
    "trapezoid_weights",
    "CubicRoots",
    "HomotopyConfig",
    "NewtonConfig",
    "NewtonReport",
    "delta_schedule",
    "homotopy_path",
    "newton_solve",
    "real_cubic_roots",
    "BE",
    "CN",
    "DIRK2",
    "MODCN",
    "SchemeKind",
    "StepReport",
    "StepSummary",
    "Trajectory",
    "dirk_step",
    "parse_scheme",
    "scalar_map",
    "simulate",
    "step",
    "BifurcationPoint",
    "StabilityThreshold",
    "bifurcation_epsilon_sq",
    "enumerate_bifurcations",
    "stability_threshold",
    "uniqueness_coefficient",
    "ClassificationResult",
    "IntervalSequence",
    "PerturbationGain",
    "PreimageSet",
    "classify_constant_initial",
    "dirk_perturbation_gains",
    "interval_sequence",
    "perturbation_gain",
    "preimage_constants",
    "preimage_field",
    "__version__",
]
