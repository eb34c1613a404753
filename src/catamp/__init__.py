"""Two-mode cat states in a dissipative nondegenerate parametric amplifier.

Closed-form quantum statistics (characteristic function, squeezing,
photon-number distributions, reduced factorial moments, Wigner function)
with an independent truncated Fock-space reference and a CLI for figure
reproduction and parameter scans.
"""

from .params import (
    AmplifierParams,
    CatSpec,
    DegenerateCat,
    Regime,
    System,
    normalization,
)
from .coeffs import EvolvedCoeffs, coeffs_at, evolve_terms
from .rho_terms import TermClass, enumerate_terms
from .charfn import (
    MAX_MOMENT_ORDER,
    OrderTooHigh,
    char_full,
    moment,
)
from .squeezing import (
    DomainError,
    SqueezeFactors,
    q_factor_even_even,
    q_factor_even_yurke,
    q_factor_odd_even,
    single_mode_squeezing,
    squeeze_survival_time,
    two_mode_squeeze_time_bound,
    two_mode_squeezing,
)
from .photon_stats import (
    Distribution,
    TruncationWarning,
    factorial_moments,
    generating_quantities,
    single_pnd,
    sum_pnd,
)
from .wigner import (
    GridSpec,
    PhaseGrid,
    SupportWarning,
    count_peaks,
    default_grid,
    wigner_cut,
    wigner_grid,
)
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "AmplifierParams",
    "CatSpec",
    "DegenerateCat",
    "Distribution",
    "DomainError",
    "EvolvedCoeffs",
    "GridSpec",
    "MAX_MOMENT_ORDER",
    "OrderTooHigh",
    "PhaseGrid",
    "Regime",
    "SqueezeFactors",
    "SupportWarning",
    "System",
    "TermClass",
    "TruncationWarning",
    "char_full",
    "coeffs_at",
    "count_peaks",
    "default_grid",
    "enumerate_terms",
    "evolve_terms",
    "factorial_moments",
    "generating_quantities",
    "moment",
    "normalization",
    "oracle",
    "q_factor_even_even",
    "q_factor_even_yurke",
    "q_factor_odd_even",
    "single_mode_squeezing",
    "single_pnd",
    "squeeze_survival_time",
    "sum_pnd",
    "two_mode_squeeze_time_bound",
    "two_mode_squeezing",
    "wigner_cut",
    "wigner_grid",
]
