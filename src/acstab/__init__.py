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
from .fields import *
from .solvers import *
from .schemes import *
from .stability import *
from .robustness import *
from . import fields, robustness, schemes, solvers, stability

__version__ = "0.1.0"

# each module's __all__ is its share of the package's public names
__all__ = ["AnalysisError", "ConfigurationError",
           *fields.__all__, *solvers.__all__, *schemes.__all__, *stability.__all__,
           *robustness.__all__, "__version__"]
