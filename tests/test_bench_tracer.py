"""The benchmark's tracer reads each ML batch's result round by round.

``bench/tracer.py`` wraps ``ml_estimate_batch``, iterates its result and
reads ``log_likelihood`` and ``converged`` on each round.  The tracer is
loaded here by file path and only its ``Recorder`` is used: ``install``
is never called, so no srcloc function is replaced.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from srcloc.geometry import sample_geometry
from srcloc.likelihood import ml_estimate_batch
from srcloc.signal_model import simulate_rounds
from tests.conftest import ref_config

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dumped_batch_matches_the_record_columns(ref_source, tmp_path):
    recorder = _tracer().Recorder()
    estimate = recorder.wrap("likelihood.ml_estimate_batch", ml_estimate_batch)
    geom = sample_geometry(12, 50.0, 0.0, rng=49)
    cfg = ref_config(channel_snr_db=10.0, beta=4.0)
    ts = simulate_rounds(geom, ref_source, cfg, 5, np.random.default_rng(50))
    found = estimate(ts, geom, cfg, ref_source.P0)
    recorder.dump(str(tmp_path / "spans.json"))

    (batch,) = json.loads((tmp_path / "spans.json").read_text())["batches"]
    assert batch["energies"] == ts.tolist()
    assert batch["loglik"] == found.log_likelihood.tolist()
    assert batch["converged"] == found.converged.tolist()
