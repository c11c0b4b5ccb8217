"""Renewal-operator numerics for infinite-measure interval maps.

Scalar and operator renewal sequences for intermittent maps of the unit
interval, with Karamata-type first-order asymptotics, higher-order
expansions driven by complex Tauberian kernels, and the supporting
special-function, polynomial-approximation and contour-integral machinery.
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
    apply_map,
    entry_level_sets,
    return_time_tail,
    tail_sequence,
)
from .induced import (
    InducedOperator,
    SpectralData,
    assemble_operator,
    block_series,
    invariant_density,
    spectral_data,
)
from .renewal_engine import RenewalAccumulator, renewal_action
from .scalar import (
    AsymptoticExpansion,
    ReturnDistribution,
    ScalarRenewal,
    SecondOrderConstant,
    karamata_first_order,
    renewal_sequence,
    residual_diagnostics,
    second_order_constant,
)
from .tauberian import (
    KernelExtract,
    KernelParams,
    OneSidedPoly,
    indicator_majorant,
    kernel_extract,
    line_power_integral,
    one_sided_fit,
    phi_from_sequence,
    rotated_gamma_integral,
    taub_theorem_check,
    window_power_integral,
)
from .fullmap import (
    GradedMesh,
    MeshObservable,
    extended_density,
    full_map_transfer,
    iterate_full_map,
    ladder_pushforward,
)
from .dual_ergodic import (
    DualErgodicReport,
    dual_ergodic_report,
    norming_from_tail,
    return_distribution_from_operator,
    tail_model_from_operator,
)
from .diagnostics import SlopeFit, slope_fit

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
    "apply_map",
    "tail_sequence",
    "entry_level_sets",
    "return_time_tail",
    "InducedOperator",
    "assemble_operator",
    "invariant_density",
    "block_series",
    "SpectralData",
    "spectral_data",
    "RenewalAccumulator",
    "renewal_action",
    "AsymptoticExpansion",
    "ReturnDistribution",
    "ScalarRenewal",
    "SecondOrderConstant",
    "karamata_first_order",
    "renewal_sequence",
    "residual_diagnostics",
    "second_order_constant",
    "KernelExtract",
    "KernelParams",
    "OneSidedPoly",
    "indicator_majorant",
    "kernel_extract",
    "line_power_integral",
    "one_sided_fit",
    "phi_from_sequence",
    "rotated_gamma_integral",
    "taub_theorem_check",
    "window_power_integral",
    "GradedMesh",
    "MeshObservable",
    "extended_density",
    "full_map_transfer",
    "iterate_full_map",
    "ladder_pushforward",
    "DualErgodicReport",
    "dual_ergodic_report",
    "norming_from_tail",
    "return_distribution_from_operator",
    "tail_model_from_operator",
    "SlopeFit",
    "slope_fit",
]

__version__ = "0.1.0"
