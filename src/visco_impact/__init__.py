"""Linear viscoelastic impact models for soft-tissue drop testing.

Closed-form impact solutions for the parallel (spring-dashpot),
series, and three-element solid models; a hereditary-integral
reference integrator for cross-validation; a thin fluid-saturated
layer reduction; and analysis utilities for measured drop tests.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all. The CLI (``visco_impact.cli``) is not
imported here.
"""

from . import analysis, biphasic, errors, kelvin_voigt, maxwell, models, oracle, standard_solid
from .analysis import *
from .biphasic import *
from .errors import *
from .kelvin_voigt import *
from .maxwell import *
from .models import *
from .oracle import *
from .standard_solid import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        analysis, biphasic, errors, kelvin_voigt, maxwell, models, oracle, standard_solid
    )
    for name in module.__all__
]
