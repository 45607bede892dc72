"""Frozen common-threshold tunings.

Twenty-four geometries of the reference model (R = 50, source (5, 10),
P0 = 1e4, 40 dB observation SNR, 1 dB transmit energy) at channel SNRs
-10 to 40 dB: geometries 0 and 1 of ensemble 700, and 22 seeded ones
with K from 5 to 100 and R_ex from 0 to 5.  ``thresholds.json`` holds
each tuning's common ``beta``, and the exact ``sgle_bound`` at that
beta, as ``repr`` floats, as the search that scored every threshold with
the exact bound found them.  The tests require today's search and bound
to give the same two numbers bit for bit.  Regenerate (from the repository root) with

    PYTHONPATH=src python -m tests.thresholds

which overwrites ``tests/thresholds.json`` with the current search's
results, so run it only to re-baseline deliberately.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from srcloc.config import ExperimentConfig
from srcloc.crlb import crlb_sgle, optimize_thresholds
from srcloc.geometry import sample_geometry
from srcloc.montecarlo import place_geometry

FIXTURE = Path(__file__).with_name("thresholds.json")
COMMAND = "PYTHONPATH=src python -m tests.thresholds"
CHANNEL_SNRS_DB = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
FROZEN_SEED = 700
N_SEEDED = 22


def geometries() -> list:
    """(label, geometry) of every frozen case, in fixture order."""
    base = ExperimentConfig(K=50, R=50.0, R_ex=5.0, seed=FROZEN_SEED)
    out = [(f"ensemble {FROZEN_SEED} geometry {gi}", place_geometry(base, gi)) for gi in (0, 1)]
    for k in range(N_SEEDED):
        rng = np.random.default_rng([FROZEN_SEED, k])
        K = int(np.round(5 + 95 * k / (N_SEEDED - 1)))
        R_ex = round(5.0 * ((7 * k) % N_SEEDED) / (N_SEEDED - 1), 3)
        out.append((f"K={K} R_ex={R_ex}", sample_geometry(K, base.R, R_ex, rng=rng, source_xy=base.source)))
    return out


def tune(geom, channel_snr_db: float) -> tuple:
    """The common threshold of one case, and the exact bound it achieves."""
    config = ExperimentConfig(channel_snr_db=channel_snr_db)
    source, cfg = config.source_params, config.sensor_config()
    beta = optimize_thresholds(source, geom, cfg, mode="common")
    return beta, crlb_sgle(source, geom, cfg.with_beta(beta)).sgle_bound


def main() -> None:
    cases = []
    for label, geom in geometries():
        for snr in CHANNEL_SNRS_DB:
            beta, bound = tune(geom, snr)
            cases.append(
                {"geometry": label, "channel_snr_db": snr, "beta": repr(beta), "sgle_bound": repr(bound)}
            )
    FIXTURE.write_text(json.dumps({"command": COMMAND, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
