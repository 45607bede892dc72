"""Monte-Carlo study of how random sensor placement affects energy-based
point-source localization: forward sensing chain, ML estimation,
error bounds, and localization-outage statistics over geometry ensembles.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateGeometry,
    EmptySubset,
    PackingFailure,
    ParseError,
    QuadratureFailure,
    SingularFim,
    ValidationError,
)
from .geometry import (
    NetworkGeometry,
    SourceParams,
    count_within,
    distances,
    load_geometry,
    sample_geometry,
    save_geometry,
)
from .signal_model import (
    SensorEnsembleConfig,
    received_power,
    simulate_round,
    simulate_rounds,
    transmit_and_detect,
)
from .likelihood import (
    EstimateResult,
    log_likelihood,
)
from .crlb import (
    CrlbResult,
    ThresholdResult,
    crlb_sgle,
    fisher_information,
    mixture_integral,
    optimize_thresholds,
)
from .montecarlo import (
    EnsembleSpec,
    GeometryTrialResult,
    OutageCurve,
    build_ccdf,
    conditioned_ccdf,
    default_gamma_grid,
    empirical_sgle,
    outage_ccdf,
    run_ensemble,
)

__all__ = [
    "DegenerateGeometry",
    "EmptySubset",
    "PackingFailure",
    "ParseError",
    "QuadratureFailure",
    "SingularFim",
    "ValidationError",
    "NetworkGeometry",
    "SourceParams",
    "count_within",
    "distances",
    "load_geometry",
    "sample_geometry",
    "save_geometry",
    "SensorEnsembleConfig",
    "received_power",
    "simulate_round",
    "simulate_rounds",
    "transmit_and_detect",
    "EstimateResult",
    "log_likelihood",
    "CrlbResult",
    "ThresholdResult",
    "crlb_sgle",
    "fisher_information",
    "mixture_integral",
    "optimize_thresholds",
    "EnsembleSpec",
    "GeometryTrialResult",
    "OutageCurve",
    "build_ccdf",
    "conditioned_ccdf",
    "default_gamma_grid",
    "empirical_sgle",
    "outage_ccdf",
    "run_ensemble",
]
