"""Command-line front end.

Subcommands: geometry, estimate, crlb, sweep-snr, outage,
conditioned-outage.  Every run writes its result artifacts plus a
run_manifest.json into the output directory.  Result artifacts are
deterministic given (config, seed); only the manifest carries wall-clock
timestamps.

Exit codes: 0 success, 2 configuration, 3 packing, 4 numerical, 5 I/O,
6 a pool worker died, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config, parse_k_t_bin
from .crlb import crlb_result_to_dict, crlb_sgle, per_sensor_term_norms
from .errors import (
    ConfigError,
    DegenerateGeometry,
    EmptySubset,
    PackingFailure,
    QuadratureFailure,
    SingularFim,
    SrclocError,
)
from .geometry import NetworkGeometry, SourceParams, distances, load_geometry, save_geometry
from .montecarlo import (
    EnsembleSpec,
    _fmt,
    build_ccdf,
    conditioned_ccdf,
    curve_to_csv,
    curve_to_dict,
    curves_to_csv,
    default_workers,
    outage_ccdf,
    place_geometry,
    run_trials,
    squared_errors,
    trial_result,
    trials_from_csv,
    trials_to_csv,
    with_thresholds,
)
from .signal_model import SensorEnsembleConfig
from .streams import root_stream, substream

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
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env) / f"{config.mode}-seed{config.seed}"
    return Path("srcloc_runs") / f"{config.mode}-seed{config.seed}"


def _sensor_config(config: ExperimentConfig, channel_snr_db: float) -> SensorEnsembleConfig:
    return SensorEnsembleConfig.from_snr_db(
        p0=config.P0,
        obs_snr_db=config.obs_snr_db,
        channel_snr_db=channel_snr_db,
        tx_energy_db=config.tx_energy_db,
        d0=config.d0,
        alpha=config.alpha,
        beta=0.0 if config.beta is None else config.beta,
    )


def _threshold_mode(config: ExperimentConfig) -> str:
    """A configured beta means fixed thresholds, whatever threshold_mode says."""
    return "fixed" if config.beta is not None else config.threshold_mode


def _source(config: ExperimentConfig) -> SourceParams:
    return SourceParams(P0=config.P0, xT=config.source[0], yT=config.source[1])


def _fixed_geometry(config: ExperimentConfig) -> NetworkGeometry:
    """The working geometry: loaded from file, or geometry 0 of the ensemble."""
    if config.geometry_file:
        return load_geometry(config.geometry_file)
    return place_geometry(_ensemble_spec(config), config.seed, 0)


def _gamma_grid(config: ExperimentConfig, R: float) -> np.ndarray:
    hi = config.gamma_max if config.gamma_max is not None else 2.0 * R
    return np.geomspace(config.gamma_min, hi, config.gamma_num)


# --- mode runners -----------------------------------------------------------


def _run_geometry(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    save_geometry(out / "geometry.json", geom, seed=config.seed)
    save_geometry(out / "geometry.txt", geom, seed=config.seed)
    return ["geometry.json", "geometry.txt"]


def _run_estimate(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    source = _source(config)
    cfg = _sensor_config(config, config.channel_snr_values()[0])
    cfg = with_thresholds(source, geom, cfg, _threshold_mode(config))
    stream = substream(root_stream(config.seed), 0)
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
    source = _source(config)
    cfg = _sensor_config(config, config.channel_snr_values()[0])
    cfg = with_thresholds(source, geom, cfg, _threshold_mode(config))
    doc = crlb_result_to_dict(crlb_sgle(source, geom, cfg))
    doc.update(
        {
            "per_sensor_term_norms": [float(v) for v in per_sensor_term_norms(source, geom, cfg)],
            "beta": np.asarray(cfg.beta, dtype=float).tolist(),
            "beta_common": cfg.beta_common,
            "has_sub_d0_sensor": bool(np.any(distances(geom, source) < config.d0)),
            "config": config.to_dict(),
        }
    )
    (out / "crlb.json").write_text(json.dumps(doc, indent=2) + "\n")
    return ["crlb.json"]


def _run_sweep_snr(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    source = _source(config)
    stream = substream(root_stream(config.seed), 0)
    workers = _workers(config)

    lines = ["channel_snr_db,beta_common,rmse,empirical_sgle,sgle_stderr,crlb_sgle,crlb_rmse,n_mc"]
    rows = []
    for eta_db in config.channel_snr_values():
        cfg = with_thresholds(source, geom, _sensor_config(config, eta_db), _threshold_mode(config))
        _, estimates = run_trials(geom, source, cfg, config.n_mc, stream, workers=workers)
        trial = trial_result(geom, source, cfg, estimates)
        crlb_rmse = float(np.sqrt(trial.crlb_sgle))
        row = {
            "channel_snr_db": eta_db,
            "beta_common": trial.beta_common,
            "rmse": float(np.sqrt(trial.empirical_sgle)),
            "empirical_sgle": trial.empirical_sgle,
            "sgle_stderr": trial.sgle_stderr if config.n_mc > 1 else 0.0,
            "crlb_sgle": None if trial.crlb_singular else trial.crlb_sgle,
            "crlb_rmse": None if trial.crlb_singular else crlb_rmse,
            "n_mc": config.n_mc,
        }
        rows.append(row)
        # the CSV row holds the JSON row's fields, with nan for a singular bound
        cells = dict(row, crlb_sgle=trial.crlb_sgle, crlb_rmse=crlb_rmse).values()
        lines.append(
            ",".join("" if v is None else str(v) if isinstance(v, int) else _fmt(v) for v in cells)
        )
    (out / "snr_sweep.csv").write_text("\n".join(lines) + "\n")
    (out / "snr_sweep.json").write_text(
        json.dumps({"rows": rows, "config": config.to_dict()}, indent=2) + "\n"
    )
    return ["snr_sweep.csv", "snr_sweep.json"]


def _ensemble_spec(config: ExperimentConfig) -> EnsembleSpec:
    source = _source(config)
    cfg = _sensor_config(config, config.channel_snr_values()[0])
    r_t_list = list(config.r_t_list)
    if config.conditioning_r_t is not None and config.conditioning_r_t not in r_t_list:
        r_t_list.append(config.conditioning_r_t)
    return EnsembleSpec(
        K=config.K,
        R=config.R,
        R_ex=config.R_ex,
        source=source,
        cfg=cfg,
        n_geom=config.n_geom,
        n_mc=config.n_mc,
        gamma=_gamma_grid(config, config.R),
        r_t_list=r_t_list,
        threshold_mode=_threshold_mode(config),
        max_attempts=config.max_attempts,
        source_exclusion=config.source_exclusion,
    )


def _workers(config: ExperimentConfig) -> int:
    """Configured worker count, else the CPUs this process may run on."""
    return config.workers or default_workers()


def _run_outage(config: ExperimentConfig, out: Path) -> list:
    spec = _ensemble_spec(config)
    curve, trials = outage_ccdf(spec, config.seed, workers=_workers(config))
    (out / "outage_curve.csv").write_text(curve_to_csv(curve))
    (out / "geometry_trials.csv").write_text(trials_to_csv(trials, spec.r_t_list))
    doc = {"curve": curve_to_dict(curve), "config": config.to_dict()}
    (out / "outage_curve.json").write_text(json.dumps(doc, indent=2) + "\n")
    return ["outage_curve.csv", "geometry_trials.csv", "outage_curve.json"]


def _run_conditioned_outage(config: ExperimentConfig, out: Path) -> list:
    if config.trials_file:
        trials, r_t_list = trials_from_csv(Path(config.trials_file).read_text(), config.trials_file)
        gamma = _gamma_grid(config, config.R if config.R else max(r_t_list) * 4)
        artifacts = []
    else:
        spec = _ensemble_spec(config)
        _, trials = outage_ccdf(spec, config.seed, workers=_workers(config))
        gamma = spec.gamma
        (out / "geometry_trials.csv").write_text(trials_to_csv(trials, spec.r_t_list))
        artifacts = ["geometry_trials.csv"]

    r_t = float(config.conditioning_r_t)
    curves = [build_ccdf(trials, gamma)]
    empty_bins = []
    for spec_str in config.k_t_bins:
        predicate, label = parse_k_t_bin(spec_str)
        try:
            curves.append(conditioned_ccdf(trials, r_t, predicate, gamma, f"{label}@R_T={_fmt(r_t)}"))
        except EmptySubset:
            empty_bins.append(spec_str)
    (out / "conditioned_curves.csv").write_text(curves_to_csv(curves))
    doc = {
        "conditioning_r_t": r_t,
        "curves": [curve_to_dict(c) for c in curves],
        "empty_bins": empty_bins,
        "config": config.to_dict(),
    }
    (out / "conditioned_curves.json").write_text(json.dumps(doc, indent=2) + "\n")
    return artifacts + ["conditioned_curves.csv", "conditioned_curves.json"]


_RUNNERS = {
    "geometry": _run_geometry,
    "estimate": _run_estimate,
    "crlb": _run_crlb,
    "sweep-snr": _run_sweep_snr,
    "outage": _run_outage,
    "conditioned-outage": _run_conditioned_outage,
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


def _error_record(out: Path, exc: BaseException, code: int) -> None:
    record = {"error_class": type(exc).__name__, "message": str(exc), "exit_code": code}
    sys.stderr.write(json.dumps(record) + "\n")
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").write_text(json.dumps(record, indent=2) + "\n")
    except OSError:
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srcloc",
        description="Monte-Carlo study of random sensor placement effects on "
        "energy-based point-source localization.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _RUNNERS:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--profile", choices=("desk", "paper"), default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--geometry", default=None, help="geometry file override")
        if mode == "conditioned-outage":
            p.add_argument("--trials", default=None, help="reuse a geometry_trials.csv")
        if mode == "estimate":
            p.add_argument("--dump-energies", action="store_true", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "profile": args.profile,
        "workers": args.workers,
        "geometry_file": args.geometry,
        "trials_file": getattr(args, "trials", None),
        "dump_energies": getattr(args, "dump_energies", None),
    }
    try:
        config = load_config(args.config, mode=args.mode, overrides=overrides)
    except ConfigError as exc:
        sys.stderr.write(
            json.dumps({"error_class": type(exc).__name__, "message": str(exc), "exit_code": EXIT_CONFIG})
            + "\n"
        )
        return EXIT_CONFIG

    out = _resolve_out_dir(config)
    try:
        return run(config)
    except PackingFailure as exc:
        _error_record(out, exc, EXIT_PACKING)
        return EXIT_PACKING
    except (SingularFim, QuadratureFailure, DegenerateGeometry, FloatingPointError) as exc:
        _error_record(out, exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL
    except OSError as exc:
        _error_record(out, exc, EXIT_IO)
        return EXIT_IO
    except ConfigError as exc:  # a malformed geometry file or trials table
        _error_record(out, exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except SrclocError as exc:
        _error_record(out, exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL
    except BrokenProcessPool as exc:
        _error_record(out, exc, EXIT_WORKER)
        return EXIT_WORKER
    except KeyboardInterrupt as exc:
        _error_record(out, exc, EXIT_INTERRUPTED)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
