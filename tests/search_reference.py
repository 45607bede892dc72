"""Reference maxima for the ML search, frozen per round.

Rounds: the 300 rounds of ``search_quality.py`` (one K = 50 geometry at
-10 to 40 dB, thresholds as frozen there), then geometries 0-3 of the
outage-desk ensemble 501000 (K = 50, R = 50, R_ex = 5, 0 dB, common
thresholds tuned, 200 rounds each), drawn as ``srcloc outage`` draws
them.  ``search_reference.json`` holds two values per round:

- ``parent_loglik``: the log-likelihood found by the search that the
  lattice search replaced (lockstep Nelder-Mead from the 4 best
  distinct polar-grid seeds and a random start, then the Newton polish;
  commit 4d2f321);
- ``reference``: the best log-likelihood of three searches: that one;
  a dense search, which scores a square lattice of spacing R/20 inside
  the disk crossed with P0 factors 10^-3 to 10^3 in half-decade steps
  and runs the Newton polish from each round's 20 best seeds at least
  R/10 apart; and the estimator at generation time.

The tests count the rounds on which the estimator ends more than 1e-3
nats below ``reference``.  Regenerate (from the repository root) with

    PYTHONPATH=src python -m tests.search_reference

which reruns the dense search and the current estimator and writes each
round's reference as the best of those and the frozen value, so the
reference only rises; ``parent_loglik`` is copied as frozen.  To freeze
another checkout's estimator as ``parent_loglik``, write its values with
that checkout's own module, from its root (``PYTHONPATH=src python -m
tests.search_reference --estimates FILE``: this tree's ``tests`` need not
match another checkout's ``src``), and pass ``--parent FILE`` to the
regeneration here.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from srcloc.config import load_config
from srcloc.likelihood import ml_estimate_batch
from srcloc.montecarlo import ROUND_NS, place_geometry, with_thresholds
from srcloc.signal_model import simulate_round
from tests import search_quality

FIXTURE = Path(__file__).with_name("search_reference.json")
COMMAND = "PYTHONPATH=src python -m tests.search_reference"
DESK = dict(K=50, R=50.0, R_ex=5.0, channel_snr_db=0.0, n_geom=8, n_mc=200, seed=501000)
DESK_GEOMETRIES = (0, 1, 2, 3)
DENSE_SPACING_FRAC = 1.0 / 20.0
DENSE_P0_FACTORS = 10.0 ** np.arange(-3.0, 3.25, 0.5)
DENSE_STARTS = 20
DENSE_SEP_FRAC = 1.0 / 10.0


def rounds():
    """(label, estimator arguments (ts, geom, cfg, p0_nominal)) of every case."""
    frozen = json.loads(search_quality.FIXTURE.read_text())["cases"]
    for index, case in enumerate(frozen):
        snr = case["channel_snr_db"]
        yield f"search-quality {snr:g} dB", search_quality.rounds(index, snr, case["beta"])
    config = load_config(None, mode="outage", overrides=DESK)
    for gi in DESK_GEOMETRIES:
        geom = place_geometry(config, gi)
        cfg = with_thresholds(config, geom)
        seeds = [np.random.SeedSequence(config.seed, spawn_key=(gi, ROUND_NS, m)) for m in range(config.n_mc)]
        ts = np.stack([simulate_round(geom, config.source_params, cfg, np.random.default_rng(s)) for s in seeds])
        yield f"outage-desk {config.seed} geometry {gi}", (ts, geom, cfg, config.P0)


def estimator_loglik(args) -> list:
    return [r.log_likelihood for r in ml_estimate_batch(*args)]


def dense_loglik(ts, geom, cfg, p0_nominal) -> np.ndarray:
    """Each round's best log-likelihood under the dense search."""
    from srcloc.likelihood import _EnsembleLikelihood, _newton_polish, _SearchObjective

    el = _EnsembleLikelihood(ts, geom, cfg)
    R, M = geom.R, ts.shape[0]
    ticks = np.arange(-20, 21) * (DENSE_SPACING_FRAC * R)
    lx, ly = np.meshgrid(ticks, ticks, indexing="ij")
    inside = lx * lx + ly * ly <= R * R
    gx = np.repeat(lx[inside], DENSE_P0_FACTORS.size)
    gy = np.repeat(ly[inside], DENSE_P0_FACTORS.size)
    gp = np.tile(p0_nominal * DENSE_P0_FACTORS, np.count_nonzero(inside))
    seed_ll = el.grid_loglik(gp, gx, gy)
    x0s = np.empty((M, DENSE_STARTS, 3))
    for m in range(M):
        picked = []
        for i in np.argsort(-seed_ll[m], kind="stable"):
            if all(np.hypot(gx[i] - gx[j], gy[i] - gy[j]) >= DENSE_SEP_FRAC * R for j in picked):
                picked.append(i)
                if len(picked) == DENSE_STARTS:
                    break
        x0s[m] = np.column_stack([gx[picked], gy[picked], np.log(gp[picked])])
    ln_lo, ln_hi = np.log(p0_nominal) - np.log(1e3), np.log(p0_nominal) + np.log(1e3)
    rows = np.repeat(np.arange(M), DENSE_STARTS)
    objective = _SearchObjective(el, rows, R, ln_lo, ln_hi)
    polished, _, _ = _newton_polish(objective.score, x0s.reshape(-1, 3), np.array([1.0 / R**2, 1.0 / R**2, 1.0]))
    x, y = polished[:, 0], polished[:, 1]
    shrink = np.minimum(1.0, R / np.maximum(np.hypot(x, y), 1e-300))
    p0 = np.exp(np.clip(polished[:, 2], ln_lo, ln_hi))
    ll = el.loglik(rows, p0, x * shrink, y * shrink).reshape(M, DENSE_STARTS)
    return np.maximum(ll.max(axis=1), seed_ll.max(axis=1))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--estimates", help="write only the estimator's per-round values here")
    parser.add_argument("--parent", help="per-round values to freeze as parent_loglik")
    args = parser.parse_args(argv)
    if args.estimates:
        values = {label: estimator_loglik(a) for label, a in rounds()}
        Path(args.estimates).write_text(json.dumps(values) + "\n")
        return
    old = {c["label"]: c for c in json.loads(FIXTURE.read_text())["cases"]} if FIXTURE.exists() else {}
    parent = json.loads(Path(args.parent).read_text()) if args.parent else None
    cases = []
    for label, case in rounds():
        parent_ll = np.array(parent[label] if parent else old[label]["parent_loglik"])
        best = np.maximum.reduce([parent_ll, dense_loglik(*case), np.array(estimator_loglik(case))])
        if label in old:
            best = np.maximum(best, old[label]["reference"])
        cases.append({"label": label, "parent_loglik": parent_ll.tolist(), "reference": best.tolist()})
    FIXTURE.write_text(json.dumps({"command": COMMAND, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
