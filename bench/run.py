"""srcloc benchmark: three CLI workloads, output checks and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every operation is one ``srcloc`` command in a fresh process,
run one at a time to completion (a batch job: no arrival schedule).
With ``--trace 0`` the benchmark repeats whole rounds of its workload
until the commands have run for ``--seconds`` seconds, checks every
output against reference computations (``oracle.py``) and prints the
end-to-end metrics.  With ``--trace 1`` it runs round 0 once untraced
and once under ``tracer.py`` and prints the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
# Relative to ROOT, where the commands run too: srcloc echoes the
# --geometry path into its result files, which must not depend on where
# the checkout lives.
WORK = Path(".bench_work")
OP_TIMEOUT_S = 120.0
SETUP_REPEATS = 6
REL_BOUND_TOL = 1e-7  # 10x the rel 1e-8 mixture_integral promises
REL_LOGLIK_TOL = 1e-9

# Workload parameters; README explains the choices.
OUTAGE_GEOMETRIES = 8  # per srcloc outage command
OUTAGE_WORKERS = 2
ESTIMATE_ROUNDS = 1000  # per srcloc estimate command
FROZEN_SEED = 700  # ensemble whose geometries 0 and 1 are frozen inputs
K, R, R_EX, N_MC = 50, 50.0, 5.0, 200
R_T = 14.0  # srcloc's default K_T radius

PROBE = (
    "import sys, srcloc.cli, srcloc.config as c; "
    "c.load_config(sys.argv[1], mode=sys.argv[2], overrides={'geometry_file': sys.argv[3] or None}); "
    "print(srcloc.cli.__file__)"
)
CLI = "import sys; from srcloc.cli import main; sys.exit(main())"


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- processes --------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS/OpenMP thread per process, so 2 workers use 2 cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SRCLOC_OUT", None)
    return env


@dataclass
class ProcResult:
    code: int
    wall_s: float
    cpu_s: float  # user + system of the process and the workers it reaped
    rss_mib: float  # peak resident set of the process or any reaped worker


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], log: Path) -> ProcResult:
    """Run argv to completion in its own process group and measure it."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
    )


# --- operations and workloads -----------------------------------------------


@dataclass
class Op:
    """One srcloc command and the number of operations it performs."""

    label: str
    mode: str
    config: dict
    units: int
    geometry: Optional[Path] = None
    flags: list = field(default_factory=list)
    workers: Optional[int] = None


@dataclass
class Done:
    op: Op
    out: Path
    proc: ProcResult
    spans: Optional[dict] = None


@dataclass
class Verdict:
    failed: int = 0  # operations that failed (counted in ``failed``)
    problems: list = field(default_factory=list)  # wrong outputs of ops that did not fail
    notes: list = field(default_factory=list)  # why each failed op failed


def write_geometry(path: Path, seed: int, gi: int) -> np.ndarray:
    """Write geometry gi of ensemble ``seed`` in srcloc's JSON geometry format."""
    sensors = oracle.placement(seed, gi, K, R, R_EX)
    doc = {
        "format": "network-geometry", "version": 1, "K": K, "R": R, "R_ex": R_EX,
        "seed": seed, "sensors": sensors.tolist(),
    }
    path.write_text(json.dumps(doc) + "\n")
    return sensors


def outage_ops(seed: int, r: int, inputs: Path) -> list[Op]:
    config = {
        "K": K, "R": R, "R_ex": R_EX, "channel_snr_db": 0.0, "threshold_mode": "common",
        "n_geom": OUTAGE_GEOMETRIES, "n_mc": N_MC, "seed": 1000 * seed + r,
    }
    return [Op("outage", "outage", config, OUTAGE_GEOMETRIES, workers=OUTAGE_WORKERS)]


def estimate_ops(seed: int, r: int, inputs: Path) -> list[Op]:
    geometry = inputs / f"geometry-{FROZEN_SEED}-0.json"
    write_geometry(geometry, FROZEN_SEED, 0)
    config = {
        "channel_snr_db": 10.0, "threshold_mode": "fixed", "beta": 8.0,
        "n_mc": ESTIMATE_ROUNDS, "seed": 1000 * seed + r,
    }
    return [Op("estimate", "estimate", config, ESTIMATE_ROUNDS, geometry, ["--dump-energies"])]


def crlb_ops(seed: int, r: int, inputs: Path) -> list[Op]:
    """Frozen geometries at 0-30 dB plus per-sensor at 10 dB; a seeded one at 0 and 10 dB.

    30 dB runs only on the frozen geometries: every geometry tried there
    misses the oracle, and they must fail whatever the seed.
    """
    plan = [((FROZEN_SEED, 0), (0.0, 10.0, 20.0, 30.0), True),
            ((FROZEN_SEED, 1), (0.0, 10.0, 20.0, 30.0), True),
            ((1000 * seed + r, 0), (0.0, 10.0), False)]
    ops = []
    for (ens, gi), snrs, per_sensor in plan:
        geometry = inputs / f"geometry-{ens}-{gi}.json"
        write_geometry(geometry, ens, gi)
        modes = [("common", snr) for snr in snrs] + ([("per-sensor", 10.0)] if per_sensor else [])
        for mode, snr in modes:
            config = {"channel_snr_db": snr, "threshold_mode": mode, "seed": ens}
            ops.append(Op(f"g{ens}-{gi}-{mode}-{snr:g}dB", "crlb", config, 1, geometry))
    return ops


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_outage(done: list[Done]) -> Verdict:
    v = Verdict()
    for d in done:
        cfg = d.op.config
        ens, n = cfg["seed"], cfg["n_geom"]
        if d.proc.code != 0:
            v.failed += d.op.units
            v.notes.append(f"{d.op.label} seed {ens}: exit code {d.proc.code}")
            continue
        trials = _rows(d.out / "geometry_trials.csv")
        if [int(t["geometry_id"]) for t in trials] != list(range(n)):
            v.problems.append(f"seed {ens}: geometry ids {[t['geometry_id'] for t in trials]}")
            continue
        emp, bounds = [], []
        for gi, t in enumerate(trials):
            where = f"seed {ens} geometry {gi}"
            sensors = oracle.placement(ens, gi, K, R, R_EX)
            v.problems += [f"{where}: {p}" for p in oracle.geometry_problems(sensors, R, R_EX)]
            if int(t[f"k_t@{R_T:.17g}"]) != oracle.k_t(sensors, R_T):
                v.problems.append(f"{where}: K_T {t[f'k_t@{R_T:.17g}']} != {oracle.k_t(sensors, R_T)}")
            sub_d0 = bool(np.any(np.hypot(sensors[:, 0] - oracle.SOURCE[0], sensors[:, 1] - oracle.SOURCE[1]) < oracle.D0))
            if int(t["has_sub_d0_sensor"]) != sub_d0:
                v.problems.append(f"{where}: has_sub_d0_sensor {t['has_sub_d0_sensor']}")
            if int(t["seed"]) != ens or int(t["n_mc"]) != N_MC or int(t["crlb_singular"]) != 0:
                v.problems.append(f"{where}: seed/n_mc/crlb_singular {t['seed']}/{t['n_mc']}/{t['crlb_singular']}")
            e, var = float(t["empirical_sgle"]), float(t["sgle_var"])
            if not (math.isfinite(e) and e > 0.0 and math.isfinite(var) and var >= 0.0):
                v.problems.append(f"{where}: empirical_sgle {e}, sgle_var {var}")
            ref = oracle.bound(sensors, float(t["beta_common"]), cfg["channel_snr_db"])
            rel = _rel(float(t["crlb_sgle"]), ref)
            if rel > REL_BOUND_TOL:
                v.failed += 1
                v.notes.append(f"{where}: bound off the oracle by {rel:.3g} relative")
            emp.append(e)
            bounds.append(float(t["crlb_sgle"]))
        curve = _rows(d.out / "outage_curve.csv")
        gamma = np.array([float(c["gamma"]) for c in curve])
        if gamma.size != 64 or np.max(np.abs(gamma / np.geomspace(0.1, 2.0 * R, 64) - 1.0)) > 1e-14:
            v.problems.append(f"seed {ens}: gamma grid is not 64 log-spaced points from 0.1 to {2 * R}")
            continue
        for col, values in (("ccdf_empirical", emp), ("ccdf_crlb", bounds)):
            got = np.array([float(c[col]) for c in curve])
            if not np.array_equal(got, oracle.ccdf(np.array(values), gamma)):
                v.problems.append(f"seed {ens}: {col} differs from the CCDF of geometry_trials.csv")
            if np.any(np.diff(got) > 0.0) or got.min() < 0.0 or got.max() > 1.0:
                v.problems.append(f"seed {ens}: {col} is not a non-increasing curve in [0, 1]")
    return v


def check_estimate(done: list[Done]) -> Verdict:
    v = Verdict()
    p0_lo, p0_hi = oracle.P0 / oracle.P0_SPAN, oracle.P0 * oracle.P0_SPAN
    for d in done:
        cfg = d.op.config
        n, beta, snr = cfg["n_mc"], cfg["beta"], cfg["channel_snr_db"]
        where = f"seed {cfg['seed']}"
        if d.proc.code != 0:
            v.failed += d.op.units
            v.notes.append(f"{where}: exit code {d.proc.code}")
            continue
        sensors = np.array(json.loads(d.op.geometry.read_text())["sensors"])
        est = _rows(d.out / "estimates.csv")
        energies = np.loadtxt(d.out / "energies.csv", delimiter=",", skiprows=1)
        if len(est) != n or energies.shape != (n * K, 3):
            v.problems.append(f"{where}: {len(est)} estimates, energies {energies.shape}")
            continue
        if not np.array_equal(energies[:, 0], np.repeat(np.arange(n), K)) or np.any(energies[:, 2] < 0):
            v.problems.append(f"{where}: energies.csv rows out of order or negative")
        t = energies[:, 2].reshape(n, K)
        x, y, p0, ll, sgle = (np.array([float(e[c]) for e in est]) for c in
                              ("x_hat", "y_hat", "p0_hat", "log_likelihood", "sgle"))
        ours = oracle.loglik(t, sensors, beta, snr, p0, x, y)
        worst = np.max(np.abs(ours - ll) / np.abs(ll))
        if worst > REL_LOGLIK_TOL:
            v.problems.append(f"{where}: reported log-likelihood off by {worst:.3g} relative")
        if np.any(np.hypot(x, y) > R * (1 + 1e-12)) or np.any(p0 < p0_lo * (1 - 1e-12)) or np.any(p0 > p0_hi * (1 + 1e-12)):
            v.problems.append(f"{where}: an estimate lies outside the search disk or P0 range")
        gp, gx, gy = oracle.polar_seeds(R)
        best_seed = np.max([oracle.loglik(t, sensors, beta, snr, np.full(n, a), np.full(n, b), np.full(n, c))
                            for a, b, c in zip(gp, gx, gy)], axis=0)
        below = int(np.count_nonzero(ll < best_seed - REL_LOGLIK_TOL * np.abs(best_seed)))
        if below:
            v.problems.append(f"{where}: {below} rounds below their best polar-grid seed")
        ref_sgle = (x - oracle.SOURCE[0]) ** 2 + (y - oracle.SOURCE[1]) ** 2
        if np.max(np.abs(sgle - ref_sgle) / ref_sgle) > 1e-12:
            v.problems.append(f"{where}: sgle column differs from (x-xT)^2+(y-yT)^2")
        summary = json.loads((d.out / "estimate_summary.json").read_text())
        if _rel(summary["empirical_sgle"], ref_sgle.mean()) > 1e-12 or summary["n_mc"] != n:
            v.problems.append(f"{where}: summary mean {summary['empirical_sgle']} != {ref_sgle.mean()}")
        if summary["beta_common"] != beta:
            v.problems.append(f"{where}: summary beta {summary['beta_common']} != {beta}")
        rel = _rel(summary["crlb_sgle"], oracle.bound(sensors, beta, snr))
        if rel > REL_BOUND_TOL:
            v.problems.append(f"{where}: bound off the oracle by {rel:.3g} relative")
    return v


def check_crlb(done: list[Done]) -> Verdict:
    v = Verdict()
    common = {}
    for d in done:
        cfg = d.op.config
        if d.proc.code != 0:
            v.failed += 1
            v.notes.append(f"{d.op.label}: exit code {d.proc.code}")
            continue
        doc = json.loads((d.out / "crlb.json").read_text())
        sensors = np.array(json.loads(d.op.geometry.read_text())["sensors"])
        bound = doc["sgle_bound"]
        if _rel(oracle.bound_from_fim(doc["fim"]), bound) > 1e-9:
            v.problems.append(f"{d.op.label}: bound {bound} does not follow from the reported FIM")
        norms = np.array(doc["per_sensor_term_norms"])
        if norms.shape != (K,) or not np.all(np.isfinite(norms)) or np.any(norms < 0):
            v.problems.append(f"{d.op.label}: per-sensor term norms malformed")
        if doc["config"]["channel_snr_db"] != cfg["channel_snr_db"]:
            v.problems.append(f"{d.op.label}: config echo has channel SNR {doc['config']['channel_snr_db']}")
        key = (d.op.geometry, cfg["channel_snr_db"])
        if cfg["threshold_mode"] == "common":
            common[key] = bound
            rel = _rel(bound, oracle.bound(sensors, doc["beta_common"], cfg["channel_snr_db"]))
            if rel > REL_BOUND_TOL:
                v.failed += 1
                v.notes.append(f"{d.op.label}: bound off the oracle by {rel:.3g} relative")
        elif key not in common:
            v.problems.append(f"{d.op.label}: no common-mode run to compare with")
        elif bound > common[key] * (1 + 1e-9):
            v.problems.append(f"{d.op.label}: per-sensor bound {bound} above common bound {common[key]}")
    return v


@dataclass
class Workload:
    ops: Callable[[int, int, Path], list]
    check: Callable[[list], Verdict]
    snr_db: float  # channel SNR of its ML rounds, for the truth likelihood
    counts: Callable[[list], dict]  # exact call counts (and ML rounds) the traced run must show


WORKLOADS = {
    "outage-desk": Workload(
        outage_ops, check_outage, 0.0,
        lambda ops: {
            "geometry.sample_geometry": sum(o.units for o in ops),
            "crlb.optimize_thresholds": sum(o.units for o in ops),
            "likelihood.ml_estimate_batch": sum(o.units for o in ops),
            "montecarlo.run_geometry_trial": sum(o.units for o in ops),
            "signal_model.simulate_round": N_MC * sum(o.units for o in ops),
            "montecarlo.run_ensemble": len(ops),
            "ml_rounds": N_MC * sum(o.units for o in ops),
        },
    ),
    "estimate-fixed": Workload(
        estimate_ops, check_estimate, 10.0,
        lambda ops: {
            "likelihood.ml_estimate_batch": len(ops),
            "signal_model.simulate_round": sum(o.units for o in ops),
            "crlb.crlb_sgle": len(ops),
            "crlb.optimize_thresholds": 0,
            "ml_rounds": sum(o.units for o in ops),
        },
    ),
    "crlb-snr": Workload(
        crlb_ops, check_crlb, math.nan,
        lambda ops: {
            "crlb.optimize_thresholds": len(ops),
            "crlb.per_sensor_term_norms": len(ops),
            "likelihood.ml_estimate_batch": 0,
            "ml_rounds": 0,
        },
    ),
}


# --- running ----------------------------------------------------------------


def run_op(op: Op, out: Path, tracer: bool, workers: Optional[int]) -> Done:
    out.mkdir(parents=True, exist_ok=True)
    config_path = out.parent / f"{op.label}.config.json"
    config_path.write_text(json.dumps(op.config) + "\n")
    args = [op.mode, "--config", str(config_path), "--out", str(out)] + op.flags
    if op.geometry is not None:
        args += ["--geometry", str(op.geometry)]
    if workers is not None:
        args += ["--workers", str(workers)]
    spans_path = out.parent / f"{op.label}.spans.json"
    if tracer:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path)] + args
    else:
        argv = [sys.executable, "-c", CLI] + args
    proc = run_process(argv, out.parent / f"{op.label}.log")
    spans = json.loads(spans_path.read_text()) if tracer and proc.code == 0 else None
    return Done(op, out, proc, spans)


def run_round(ops: list[Op], where: Path, tracer: bool = False) -> list[Done]:
    return [run_op(op, where / op.label, tracer, op.workers) for op in ops]


def result_hashes(done: list[Done]) -> dict:
    """sha256 of every result file, run_manifest.json excluded."""
    out = {}
    for d in done:
        for f in sorted(d.out.iterdir()):
            if f.name != "run_manifest.json":
                out[f"{d.op.label}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "srcloc").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(key: str, hashes: dict) -> list[str]:
    """Compare with the hashes an earlier run of the same source and seed stored."""
    store = WORK / "hashes" / f"{source_fingerprint()}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return [f"{key}: {name} differs from an earlier run"
                for name, h in hashes.items() if known[key].get(name) != h]
    known[key] = hashes
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return []


def preflight() -> None:
    if not (ROOT / "src" / "srcloc" / "cli.py").is_file():
        raise Abort(f"no srcloc sources under {ROOT / 'src'}; run from the root of a checkout")


def setup_times(op: Op, where: Path, n: int) -> list[float]:
    """Wall time of n fresh processes that import srcloc and load op's config."""
    where.mkdir(parents=True, exist_ok=True)
    config_path = where / "setup.config.json"
    config_path.write_text(json.dumps(op.config) + "\n")
    times = []
    for i in range(n):
        log = where / f"setup{i}.log"
        argv = [sys.executable, "-c", PROBE, str(config_path), op.mode, str(op.geometry or "")]
        proc = run_process(argv, log)
        loaded_from = Path(log.read_text().strip().splitlines()[-1]) if proc.code == 0 else None
        if loaded_from is None or (ROOT / "src") not in loaded_from.resolve().parents:
            raise Abort(f"srcloc did not load from {ROOT / 'src'}: {log.read_text()[-400:]}")
        times.append(proc.wall_s)
    return times


def fresh(path: Path) -> Path:
    """An empty directory at path."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_run(name: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[name]
    base = fresh(WORK / name)
    inputs = fresh(base / "inputs")
    probe = wl.ops(seed, 0, inputs)[0]
    # half the set-up samples before the rounds and half after, so their
    # median spans the run as the throughput does
    setup = setup_times(probe, base / "setup", SETUP_REPEATS // 2)
    attempted = failed = 0
    wall = cpu = rss = 0.0
    problems: list[str] = []
    r = 0
    while r == 0 or wall < seconds:
        ops = wl.ops(seed, r, inputs)
        where = fresh(base / f"r{r}")
        done = run_round(ops, where)
        verdict = wl.check(done)
        hashes = result_hashes(done)
        problems += verdict.problems + check_repeat(f"{name}/{seed}/{r}", hashes)
        attempted += sum(op.units for op in ops)
        failed += verdict.failed
        wall += sum(d.proc.wall_s for d in done)
        cpu += sum(d.proc.cpu_s for d in done)
        rss = max([rss] + [d.proc.rss_mib for d in done])
        for note in verdict.notes:
            print(f"failed: {note}")
        for d in done:
            print(f"op {d.op.label} seed {d.op.config['seed']}: {d.proc.wall_s:.3f} s wall, "
                  f"{d.proc.cpu_s:.3f} s cpu, exit {d.proc.code}")
        for key, h in hashes.items():
            print(f"sha256 r{r} {key} {h}")
        shutil.rmtree(where)
        r += 1
    setup += setup_times(probe, base / "setup", SETUP_REPEATS - SETUP_REPEATS // 2)
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    completed = attempted - failed
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / wall, "1/s"),
        "cpu_s_per_op": (cpu / max(completed, 1), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_stats(spans: list[dict]) -> dict:
    """Per-function calls, total and self seconds over several span files."""
    stats: dict = {}
    for doc in spans:
        names, rows = doc["names"], doc["spans"]
        child = [0.0] * len(rows)
        for name_idx, start, end, parent in rows:
            if parent >= 0:
                child[parent] += end - start
        for (name_idx, start, end, parent), c in zip(rows, child):
            s = stats.setdefault(names[name_idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - c
    return stats


# (function, statistic) pairs reported from the serial traced pass
LAYER_METRICS = [
    ("geometry.sample_geometry", "calls"), ("geometry.sample_geometry", "self_s"),
    ("signal_model.simulate_round", "calls"), ("signal_model.simulate_round", "self_s"),
    ("likelihood.ml_estimate_batch", "calls"), ("likelihood.ml_estimate_batch", "self_s"),
    ("crlb.optimize_thresholds", "calls"), ("crlb.optimize_thresholds", "self_s"),
    ("crlb.crlb_sgle", "calls"), ("crlb.crlb_sgle", "self_s"),
    ("crlb.fisher_information", "calls"),
    ("crlb.mixture_integral", "calls"), ("crlb.mixture_integral", "self_s"),
    ("crlb.per_sensor_term_norms", "self_s"),
    ("montecarlo.run_geometry_trial", "calls"), ("montecarlo.run_geometry_trial", "self_s"),
    ("montecarlo.empirical_sgle", "self_s"),
    ("cli.main", "self_s"), ("cli.run", "self_s"),
    ("config.load_config", "self_s"),
]


def traced_run(name: str, seed: int) -> dict:
    wl = WORKLOADS[name]
    base = fresh(WORK / name)
    ops = wl.ops(seed, 0, fresh(base / "inputs"))
    # Untraced and traced serially, so the difference is the tracing
    # overhead; outage-desk is also traced at its timed worker count, for
    # the ensemble wall time.  Every pass must write the same bytes.
    plain_dir, traced_dir = fresh(base / "plain"), fresh(base / "traced")
    plain, traced = [], []
    for op in ops:  # interleaved, so both passes see the same machine load
        plain.append(run_op(op, plain_dir / op.label, False, 1))
        traced.append(run_op(op, traced_dir / op.label, True, 1))
    passes = {"plain": plain, "traced": traced}
    if name == "outage-desk":
        passes["traced-pool"] = run_round(ops, fresh(base / "traced-pool"), tracer=True)

    problems: list[str] = []
    reference = result_hashes(plain)
    for label, done in passes.items():
        verdict = wl.check(done)
        problems += [f"{label}: {p}" for p in verdict.problems]
        hashes = result_hashes(done)
        problems += check_repeat(f"{name}/{seed}/0", hashes)
        if hashes != reference:
            problems.append(f"{label}: result files differ from the untraced serial run")
    verdict = wl.check(traced)  # attempted and failed are the serial traced pass's
    for note in verdict.notes:
        print(f"failed: {note}")
    for key, h in reference.items():
        print(f"sha256 {key} {h}")

    stats = layer_stats([d.spans for d in traced if d.spans])

    def get(fn: str, key: str) -> float:
        return stats.get(fn, {}).get(key, 0.0 if key.endswith("_s") else 0)

    rounds = converged = below = 0
    for d in traced:
        for b in (d.spans or {}).get("batches", []):
            t = np.array(b["energies"])
            n = t.shape[0]
            truth = oracle.loglik(t, np.array(b["sensors"]), np.array(b["beta"]), wl.snr_db,
                                  np.full(n, oracle.P0), np.full(n, oracle.SOURCE[0]), np.full(n, oracle.SOURCE[1]))
            rounds += n
            converged += sum(b["converged"])
            below += int(np.count_nonzero(np.array(b["loglik"]) < truth))
    want_counts = wl.counts(ops)
    got_counts = {fn: rounds if fn == "ml_rounds" else get(fn, "calls") for fn in want_counts}
    if got_counts != want_counts:
        problems.append(f"traced call counts {got_counts}, the workload implies {want_counts}")

    wall = {label: sum(d.proc.wall_s for d in done) for label, done in passes.items()}
    overhead = wall["traced"] - wall["plain"]
    ensemble_wall = 0.0
    efficiency = 0.0
    if name == "outage-desk":
        pool_stats = layer_stats([d.spans for d in passes["traced-pool"] if d.spans])
        ensemble_wall = pool_stats.get("montecarlo.run_ensemble", {}).get("total_s", 0.0)
        if ensemble_wall > 0.0:
            efficiency = get("montecarlo.run_geometry_trial", "total_s") / (OUTAGE_WORKERS * ensemble_wall)
    artifact_bytes = sum(f.stat().st_size for d in traced for f in d.out.iterdir() if f.name != "run_manifest.json")
    for label, s in wall.items():
        print(f"pass {label}: {s:.3f} s wall")

    metrics = {f"{fn}.{key}": (get(fn, key), "s" if key.endswith("_s") else "count") for fn, key in LAYER_METRICS}
    metrics.update({
        "likelihood.ml_estimate_batch.rounds": (rounds, "count"),
        "likelihood.converged_rounds": (converged, "count"),
        "likelihood.rounds_below_truth": (below, "count"),
        "montecarlo.run_ensemble.wall_s": (ensemble_wall, "s"),
        "montecarlo.parallel_efficiency": (efficiency, "ratio"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
        "trace.overhead_s": (overhead, "s"),
    })
    return {"problems": problems, "attempted": sum(o.units for o in ops), "failed": verdict.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        preflight()
        problems = oracle.self_test()
        if args.trace:
            res = traced_run(args.workload, args.seed)
        else:
            res = timed_run(args.workload, args.seed, args.seconds)
    except Abort as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    problems += res["problems"]
    for p in problems:
        print(f"check failed: {p}")
    print(f"workload {args.workload}: attempted {res['attempted']}, failed {res['failed']}")
    for key, (value, unit) in res["metrics"].items():
        print(f"{key}: {value} {unit}")
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
