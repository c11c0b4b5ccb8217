"""Renewal-operator numerics for infinite-measure interval maps.

Scalar and operator renewal sequences for intermittent maps of the unit
interval, with Karamata-type first-order asymptotics, higher-order
expansions driven by complex Tauberian kernels, and the supporting
special-function, polynomial-approximation and contour-integral machinery.

The Tauberian names (``indicator_majorant``, ``kernel_extract`` and the
rest of ``_TAUBERIAN``) load ``renewalops.tauberian``, and with it
``scipy.optimize``, on first use: the operator half of the package needs
only numpy and ``scipy.sparse``.
"""

from .errors import DomainError, NumericalError
from .grid import Grid, GridObservable
from .specfun import (
    Norming,
    SlowlyVarying,
    expansion_order,
    gamma,
    harmonic_sum,
    karamata_constant,
)
from .maps import (
    MapSpec,
    TailModel,
    return_time_tail,
    tail_sequence,
)
from .induced import InducedOperator, assemble_operator, invariant_density
from .renewal_engine import RenewalAccumulator, renewal_action
from .scalar import (
    AsymptoticExpansion,
    ReturnDistribution,
    ScalarRenewal,
    SecondOrderConstant,
    renewal_sequence,
    residual_diagnostics,
    second_order_constant,
)
from .dual_ergodic import (
    DualErgodicReport,
    dual_ergodic_report,
    norming_from_tail,
    return_distribution_from_operator,
    tail_model_from_operator,
)
from .diagnostics import SlopeFit, slope_fit

# names of ``.tauberian``, which ``__getattr__`` imports on first use
_TAUBERIAN = (
    "KernelExtract",
    "KernelParams",
    "OneSidedPoly",
    "indicator_majorant",
    "kernel_extract",
    "line_power_integral",
    "one_sided_fit",
    "phi_from_sequence",
    "rotated_gamma_integral",
    "window_power_integral",
)

__all__ = [
    "DomainError",
    "NumericalError",
    "Grid",
    "GridObservable",
    "SlowlyVarying",
    "Norming",
    "gamma",
    "karamata_constant",
    "harmonic_sum",
    "expansion_order",
    "MapSpec",
    "TailModel",
    "tail_sequence",
    "return_time_tail",
    "InducedOperator",
    "assemble_operator",
    "invariant_density",
    "RenewalAccumulator",
    "renewal_action",
    "AsymptoticExpansion",
    "ReturnDistribution",
    "ScalarRenewal",
    "SecondOrderConstant",
    "renewal_sequence",
    "residual_diagnostics",
    "second_order_constant",
    *_TAUBERIAN,
    "DualErgodicReport",
    "dual_ergodic_report",
    "norming_from_tail",
    "return_distribution_from_operator",
    "tail_model_from_operator",
    "SlopeFit",
    "slope_fit",
]

__version__ = "0.1.0"


def __getattr__(name):
    """Resolve a Tauberian name by importing ``.tauberian`` on first read."""
    if name in _TAUBERIAN:
        from . import tauberian

        return getattr(tauberian, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_TAUBERIAN))
