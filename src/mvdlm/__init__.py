"""Matrix-variate dynamic linear models with per-variable degrees of freedom.

The package provides the covariance and forecast distribution family, the
conjugate filtering recursions with entrywise missing-data masks, a bivariate
local-level simulation harness, and a command line interface. Each module's
``__all__`` is its public surface; the package exports their union.
"""

from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .distributions import *  # noqa: F403
from .dlm import *  # noqa: F403
from .simulate import *  # noqa: F403
from . import distributions, dlm, errors, linalg, simulate

__version__ = "0.1.0"

__all__ = errors.__all__ + linalg.__all__ + distributions.__all__ + dlm.__all__ + simulate.__all__
