"""Frozen search-quality cases for the ML estimator.

One K = 50 geometry of the reference model (R = 50, R_ex = 5) at channel
SNRs -10 to 40 dB, 50 rounds each, with the common threshold tuned once
and stored.  ``search_quality.json`` holds each round's log-likelihood as
found by the estimator that generated it: the Nelder-Mead-only search
(simplices run to a scaled diameter of 1e-6 R and a value spread of
1e-9) that preceded the two-stage search.  The tests compare today's
estimator against it; ``search_reference.py`` freezes a stronger
reference on the same rounds.  Regenerate (from the repository root) with

    PYTHONPATH=src python -m tests.search_quality

which overwrites ``tests/search_quality.json`` with the current
estimator's results, so run it only to re-baseline deliberately.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from srcloc.crlb import optimize_thresholds
from srcloc.geometry import SourceParams, sample_geometry
from srcloc.signal_model import SensorEnsembleConfig, simulate_rounds
from srcloc.likelihood import ml_estimate_batch

FIXTURE = Path(__file__).with_name("search_quality.json")
COMMAND = "PYTHONPATH=src python -m tests.search_quality"
SOURCE = SourceParams(P0=10_000.0, xT=5.0, yT=10.0)
GEOMETRY_SEED = 7
CHANNEL_SNRS_DB = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
N_ROUNDS = 50


def geometry():
    return sample_geometry(50, 50.0, 5.0, rng=GEOMETRY_SEED)


def sensor_config(channel_snr_db: float) -> SensorEnsembleConfig:
    return SensorEnsembleConfig.from_snr_db(SOURCE.P0, 40.0, channel_snr_db)


def rounds(index: int, channel_snr_db: float, beta: float) -> tuple:
    """The estimator's arguments (ts, geom, cfg, p0_nominal) for case
    ``index`` at threshold beta."""
    geom = geometry()
    cfg = sensor_config(channel_snr_db).with_beta(beta)
    ts = simulate_rounds(geom, SOURCE, cfg, N_ROUNDS, np.random.default_rng((GEOMETRY_SEED, index)))
    return ts, geom, cfg, SOURCE.P0


def estimate(index: int, channel_snr_db: float, beta: float) -> list:
    """The estimator's results for case ``index`` at threshold beta."""
    return ml_estimate_batch(*rounds(index, channel_snr_db, beta))


def main() -> None:
    cases = []
    for index, snr in enumerate(CHANNEL_SNRS_DB):
        beta = optimize_thresholds(SOURCE, geometry(), sensor_config(snr))
        results = estimate(index, snr, beta)
        cases.append(
            {
                "channel_snr_db": snr,
                "beta": beta,
                "loglik": [r.log_likelihood for r in results],
            }
        )
    FIXTURE.write_text(json.dumps({"command": COMMAND, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
