"""Command-line front end.

Subcommands: geometry, estimate, crlb, outage.  Every run writes its
result artifacts plus a run_manifest.json into the output directory.
Result artifacts are deterministic given (config, seed); only the
manifest carries wall-clock timestamps.

Exit codes: 0 success, 2 configuration, 3 packing, 4 numerical, 5 I/O,
6 a pool worker died, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import (
    GEOMETRY_MODES,
    ExperimentConfig,
    load_config,
    parse_k_t_bin,
    require_bound_sensors,
    require_source_in_disk,
)
from .crlb import crlb_sgle, per_sensor_term_norms
from .errors import ConfigError, PackingFailure, ParseError, SrclocError
from .geometry import NetworkGeometry, has_sub_d0_sensor, load_geometry, save_geometry
from .montecarlo import (
    _fmt,
    build_ccdf,
    curve_to_csv,
    curves_to_csv,
    default_workers,
    place_geometry,
    run_ensemble,
    run_trials,
    squared_errors,
    trial_result,
    trials_from_csv,
    trials_to_csv,
    with_thresholds,
)

OUT_DIR_ENV = "SRCLOC_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PACKING = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5
EXIT_WORKER = 6
EXIT_INTERRUPTED = 130


def _resolve_out_dir(config: ExperimentConfig) -> Path:
    if config.out_dir:
        return Path(config.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV) or "srcloc_runs") / f"{config.mode}-seed{config.seed}"


def _fixed_geometry(config: ExperimentConfig) -> NetworkGeometry:
    """The working geometry: loaded from file, or geometry 0 of the ensemble."""
    if not config.geometry_file:
        return place_geometry(config, 0)
    geom = load_geometry(config.geometry_file)
    require_source_in_disk(config.source, geom.R)
    require_bound_sensors(config, geom.K)
    return geom


# --- mode runners -----------------------------------------------------------


def _run_geometry(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    save_geometry(out / "geometry.json", geom, seed=config.seed)
    return ["geometry.json"]


def _run_estimate(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    source = config.source_params
    cfg = with_thresholds(config, geom)
    stream = np.random.SeedSequence(config.seed, spawn_key=(0,))
    ts, estimates = run_trials(geom, source, cfg, config.n_mc, stream, workers=_workers(config))

    est_lines = ["trial,x_hat,y_hat,p0_hat,log_likelihood,converged,sgle"]
    energy_lines = ["round,sensor,t"] if config.dump_energies else None
    for m, (est, sgle) in enumerate(zip(estimates, squared_errors(estimates, source))):
        th = est.theta_hat
        est_lines.append(
            f"{m},{_fmt(th.xT)},{_fmt(th.yT)},{_fmt(th.P0)},"
            f"{_fmt(est.log_likelihood)},{int(est.converged)},{_fmt(sgle)}"
        )
        if energy_lines is not None:
            energy_lines.extend(f"{m},{i},{_fmt(v)}" for i, v in enumerate(ts[m]))
    (out / "estimates.csv").write_text("\n".join(est_lines) + "\n")

    trial = trial_result(geom, source, cfg, estimates, config.r_t_list)
    summary = {
        "empirical_sgle": trial.empirical_sgle,
        "rmse": float(np.sqrt(trial.empirical_sgle)),
        "sgle_var": trial.sgle_var,
        "crlb_sgle": None if trial.crlb_singular else trial.crlb_sgle,
        "crlb_singular": trial.crlb_singular,
        "beta_common": trial.beta_common,
        "k_t": {_fmt(rt): n for rt, n in trial.k_t.items()},
        "has_sub_d0_sensor": trial.has_sub_d0_sensor,
        "n_mc": config.n_mc,
        "config": config.to_dict(),
    }
    (out / "estimate_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    artifacts = ["estimates.csv", "estimate_summary.json"]
    if energy_lines is not None:
        (out / "energies.csv").write_text("\n".join(energy_lines) + "\n")
        artifacts.append("energies.csv")
    return artifacts


def _run_crlb(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    source = config.source_params
    cfg = with_thresholds(config, geom)
    bound = crlb_sgle(source, geom, cfg)
    doc = {
        "sgle_bound": bound.sgle_bound,
        "condition_indicator": bound.condition_indicator,
        "fim": bound.fim.tolist(),
        "fim_eigenvalues": bound.eigenvalues.tolist(),
        "per_sensor_term_norms": per_sensor_term_norms(bound).tolist(),
        "beta": np.asarray(cfg.beta, dtype=float).tolist(),
        "beta_common": cfg.beta_common,
        "has_sub_d0_sensor": has_sub_d0_sensor(geom, source, config.d0),
        "config": config.to_dict(),
    }
    (out / "crlb.json").write_text(json.dumps(doc, indent=2) + "\n")
    return ["crlb.json"]


def _workers(config: ExperimentConfig) -> int:
    """Configured worker count, else the CPUs this process may run on."""
    return config.workers or default_workers()


def _run_outage(config: ExperimentConfig, out: Path) -> list:
    """The ensemble's outage CCDF, whole and split into K_T bins at each
    radius of r_t_list, in list order; a bin that holds no geometry gets
    no curve.  The trials come from a fresh ensemble, or from a previous
    run's table (trials_file), split at the table's own radii, without
    rerunning anything."""
    if config.trials_file:
        data = Path(config.trials_file).read_bytes()
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{config.trials_file}: malformed trials table ({exc})") from exc
        trials, r_t_list = trials_from_csv(text, config.trials_file)
        fresh = []
    else:
        trials = run_ensemble(config, workers=_workers(config))
        r_t_list = config.r_t_list
        (out / "geometry_trials.csv").write_text(trials_to_csv(trials, r_t_list))
        fresh = ["geometry_trials.csv"]

    gamma = config.gamma_grid()
    curve = build_ccdf(trials, gamma)
    (out / "outage_curve.csv").write_text(curve_to_csv(curve))

    curves = [("all", curve)]
    bins = [parse_k_t_bin(spec) for spec in config.k_t_bins]
    for r_t in r_t_list:
        for predicate, label in bins:
            subset = [tr for tr in trials if predicate(tr.k_t[r_t])]
            if subset:
                curves.append((f"{label}@R_T={_fmt(r_t)}", build_ccdf(subset, gamma)))
    (out / "conditioned_curves.csv").write_text(curves_to_csv(curves))
    return ["outage_curve.csv", *fresh, "conditioned_curves.csv"]


_RUNNERS = {
    "geometry": _run_geometry,
    "estimate": _run_estimate,
    "crlb": _run_crlb,
    "outage": _run_outage,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment and write its artifacts and manifest."""
    out = _resolve_out_dir(config)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    artifacts = _RUNNERS[config.mode](config, out)
    finished = datetime.now(timezone.utc)
    manifest = {
        "tool": "srcloc",
        "version": __version__,
        "mode": config.mode,
        "master_seed": config.seed,
        "workers": _workers(config),
        "artifacts": artifacts,
        "started_utc": started.isoformat(),
        "finished_utc": finished.isoformat(),
        "duration_s": time.monotonic() - t0,
        "config": config.to_dict(),
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return EXIT_OK


def _error_record(out: Optional[Path], exc: BaseException, code: int) -> int:
    """Report a failure on stderr and, once there is an output directory, in its error.json; returns code."""
    record = {"error_class": type(exc).__name__, "message": str(exc), "exit_code": code}
    sys.stderr.write(json.dumps(record) + "\n")
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "error.json").write_text(json.dumps(record, indent=2) + "\n")
        except OSError:
            pass
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srcloc",
        description="Monte-Carlo study of random sensor placement effects on "
        "energy-based point-source localization.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _RUNNERS:
        # every flag but --config sets the config key named by its dest;
        # an absent flag is None and leaves the file's value
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", dest="out_dir", default=None, help="output directory override")
        p.add_argument("--workers", type=int, default=None)
        if mode in GEOMETRY_MODES:
            p.add_argument("--geometry", dest="geometry_file", default=None, help="geometry file override")
        if mode == "outage":
            p.add_argument("--trials", dest="trials_file", default=None, help="reuse a geometry_trials.csv")
        if mode == "estimate":
            p.add_argument("--dump-energies", action="store_true", default=None)
    return parser


def main(argv=None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    path, mode = overrides.pop("config"), overrides.pop("mode")
    try:
        config = load_config(path, mode=mode, overrides=overrides)
    except ConfigError as exc:  # no output directory yet, so no error.json
        return _error_record(None, exc, EXIT_CONFIG)

    out = _resolve_out_dir(config)
    try:
        return run(config)
    except PackingFailure as exc:
        return _error_record(out, exc, EXIT_PACKING)
    except OSError as exc:
        return _error_record(out, exc, EXIT_IO)
    except ConfigError as exc:  # a malformed geometry file or trials table
        return _error_record(out, exc, EXIT_CONFIG)
    except SrclocError as exc:  # SingularFim or DegenerateGeometry
        return _error_record(out, exc, EXIT_NUMERICAL)
    # BrokenProcessPool (srcloc runs no thread pool): a broken pool implies
    # concurrent.futures is loaded, so a command with no pool never imports it
    except getattr(sys.modules.get("concurrent.futures"), "BrokenExecutor", ()) as exc:
        return _error_record(out, exc, EXIT_WORKER)
    except KeyboardInterrupt as exc:
        return _error_record(out, exc, EXIT_INTERRUPTED)


if __name__ == "__main__":
    sys.exit(main())
