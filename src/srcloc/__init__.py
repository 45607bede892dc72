"""Monte-Carlo study of how random sensor placement affects energy-based
point-source localization: forward sensing chain, ML estimation,
error bounds, and localization-outage statistics over geometry ensembles.

The likelihood layer is the one module that imports scipy; its public
names here load it on first access, so ``import srcloc`` does not.
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
from .crlb import (
    CrlbResult,
    ThresholdResult,
    crlb_sgle,
    fisher_information,
    mixture_integral,
    optimize_thresholds,
)
from .montecarlo import (
    GeometryTrialResult,
    OutageCurve,
    build_ccdf,
    conditioned_ccdf,
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
    "GeometryTrialResult",
    "OutageCurve",
    "build_ccdf",
    "conditioned_ccdf",
    "empirical_sgle",
    "outage_ccdf",
    "run_ensemble",
]

_LAZY = ("EstimateResult", "log_likelihood")


def __getattr__(name):
    if name in _LAZY:
        from . import likelihood

        return getattr(likelihood, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
