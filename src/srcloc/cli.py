"""Command-line front end.

Subcommands: geometry, estimate, crlb, sweep-snr, outage,
conditioned-outage.  Every run writes its result artifacts plus a
run_manifest.json into the output directory.  Result artifacts are
deterministic given (config, seed); only the manifest carries wall-clock
timestamps.

Exit codes: 0 success, 2 configuration, 3 packing, 4 numerical, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config, parse_k_t_bin
from .crlb import crlb_result_to_dict, crlb_sgle, optimize_thresholds, per_sensor_term_norms
from .errors import (
    ConfigError,
    DegenerateGeometry,
    EmptySubset,
    PackingFailure,
    QuadratureFailure,
    SingularFim,
    SrclocError,
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
from .likelihood import SearchOptions
from .montecarlo import (
    EnsembleSpec,
    _fmt,
    build_ccdf,
    conditioned_ccdf,
    curve_to_csv,
    curve_to_dict,
    curves_to_csv,
    outage_ccdf,
    run_trials,
    trials_from_csv,
    trials_to_csv,
)
from .signal_model import SensorEnsembleConfig
from .streams import PLACEMENT_NS, generator, root_stream, substream

OUT_DIR_ENV = "SRCLOC_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PACKING = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _resolve_out_dir(config: ExperimentConfig) -> Path:
    if config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env) / f"{config.mode}-seed{config.seed}"
    return Path("srcloc_runs") / f"{config.mode}-seed{config.seed}"


def _write(path: Path, text: str) -> None:
    path.write_text(text)


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


def _source(config: ExperimentConfig) -> SourceParams:
    return SourceParams(P0=config.P0, xT=config.source[0], yT=config.source[1])


def _fixed_geometry(config: ExperimentConfig) -> NetworkGeometry:
    """The working geometry: loaded from file, or slot 0 of the ensemble."""
    if config.geometry_file:
        return load_geometry(config.geometry_file)
    rng = generator(substream(root_stream(config.seed), 0, PLACEMENT_NS))
    return sample_geometry(
        config.K,
        config.R,
        config.R_ex,
        max_attempts=config.max_attempts,
        rng=rng,
        source_xy=config.source,
        source_exclusion=config.source_exclusion,
    )


def _tuned_config(config, source, geom, channel_snr_db):
    """Sensor config with thresholds either fixed or bound-optimized."""
    cfg = _sensor_config(config, channel_snr_db)
    if config.threshold_mode == "fixed" or config.beta is not None:
        return cfg, float(config.beta)
    tuned = optimize_thresholds(source, geom, cfg, mode=config.threshold_mode)
    beta = tuned.beta
    return cfg.with_beta(beta), (float(beta) if np.ndim(beta) == 0 else None)


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
    cfg, beta_common = _tuned_config(config, source, geom, config.channel_snr_values()[0])
    search = SearchOptions(radius=geom.R, p0_nominal=config.P0)
    stream = substream(root_stream(config.seed), 0)

    est_lines = ["trial,x_hat,y_hat,p0_hat,log_likelihood,converged,sgle"]
    energy_lines = ["round,sensor,t"] if config.dump_energies else None
    sq_errors = []
    ts, estimates = run_trials(geom, source, cfg, config.n_mc, stream, search)
    for m, est in enumerate(estimates):
        th = est.theta_hat
        sgle = (th.xT - source.xT) ** 2 + (th.yT - source.yT) ** 2
        sq_errors.append(sgle)
        est_lines.append(
            f"{m},{_fmt(th.xT)},{_fmt(th.yT)},{_fmt(th.P0)},"
            f"{_fmt(est.log_likelihood)},{int(est.converged)},{_fmt(sgle)}"
        )
        if energy_lines is not None:
            energy_lines.extend(f"{m},{i},{_fmt(v)}" for i, v in enumerate(ts[m]))
    _write(out / "estimates.csv", "\n".join(est_lines) + "\n")

    sq = np.asarray(sq_errors)
    try:
        bound = crlb_sgle(source, geom, cfg).sgle_bound
        singular = False
    except SingularFim:
        bound, singular = None, True
    summary = {
        "empirical_sgle": float(sq.mean()),
        "rmse": float(np.sqrt(sq.mean())),
        "sgle_var": float(sq.var(ddof=1)) if sq.size > 1 else 0.0,
        "crlb_sgle": bound,
        "crlb_singular": singular,
        "beta_common": beta_common,
        "k_t": {_fmt(rt): count_within(geom, source, rt) for rt in config.r_t_list},
        "has_sub_d0_sensor": bool(np.any(distances(geom, source) < config.d0)),
        "n_mc": config.n_mc,
        "config": config.to_dict(),
    }
    _write(out / "estimate_summary.json", json.dumps(summary, indent=2) + "\n")
    artifacts = ["estimates.csv", "estimate_summary.json"]
    if energy_lines is not None:
        _write(out / "energies.csv", "\n".join(energy_lines) + "\n")
        artifacts.append("energies.csv")
    return artifacts


def _run_crlb(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    source = _source(config)
    cfg, beta_common = _tuned_config(config, source, geom, config.channel_snr_values()[0])
    result = crlb_sgle(source, geom, cfg)
    doc = crlb_result_to_dict(result)
    doc.update(
        {
            "per_sensor_term_norms": [float(v) for v in per_sensor_term_norms(source, geom, cfg)],
            "beta": np.asarray(cfg.beta, dtype=float).tolist(),
            "beta_common": beta_common,
            "has_sub_d0_sensor": bool(np.any(distances(geom, source) < config.d0)),
            "config": config.to_dict(),
        }
    )
    _write(out / "crlb.json", json.dumps(doc, indent=2) + "\n")
    return ["crlb.json"]


def _run_sweep_snr(config: ExperimentConfig, out: Path) -> list:
    geom = _fixed_geometry(config)
    source = _source(config)
    search = SearchOptions(radius=geom.R, p0_nominal=config.P0)
    stream = substream(root_stream(config.seed), 0)

    lines = ["channel_snr_db,beta_common,rmse,empirical_sgle,sgle_stderr,crlb_sgle,crlb_rmse,n_mc"]
    rows = []
    for eta_db in config.channel_snr_values():
        cfg, beta_common = _tuned_config(config, source, geom, eta_db)
        _, estimates = run_trials(geom, source, cfg, config.n_mc, stream, search)
        sq = np.array(
            [
                (e.theta_hat.xT - source.xT) ** 2 + (e.theta_hat.yT - source.yT) ** 2
                for e in estimates
            ]
        )
        try:
            bound = crlb_sgle(source, geom, cfg).sgle_bound
        except SingularFim:
            bound = float("nan")
        stderr = float(np.sqrt(sq.var(ddof=1) / sq.size)) if sq.size > 1 else 0.0
        crlb_rmse = float(np.sqrt(bound))
        row = {
            "channel_snr_db": eta_db,
            "beta_common": beta_common,
            "rmse": float(np.sqrt(sq.mean())),
            "empirical_sgle": float(sq.mean()),
            "sgle_stderr": stderr,
            "crlb_sgle": bound if np.isfinite(bound) else None,
            "crlb_rmse": crlb_rmse if np.isfinite(crlb_rmse) else None,
            "n_mc": config.n_mc,
        }
        rows.append(row)
        lines.append(
            ",".join(
                [
                    _fmt(eta_db),
                    "" if beta_common is None else _fmt(beta_common),
                    _fmt(row["rmse"]),
                    _fmt(row["empirical_sgle"]),
                    _fmt(row["sgle_stderr"]),
                    _fmt(bound),
                    _fmt(crlb_rmse),
                    str(config.n_mc),
                ]
            )
        )
    _write(out / "snr_sweep.csv", "\n".join(lines) + "\n")
    _write(
        out / "snr_sweep.json",
        json.dumps({"rows": rows, "config": config.to_dict()}, indent=2) + "\n",
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
        threshold_mode="fixed" if config.beta is not None else config.threshold_mode,
        max_attempts=config.max_attempts,
        source_exclusion=config.source_exclusion,
        search=SearchOptions(radius=config.R, p0_nominal=config.P0),
    )


def _workers(config: ExperimentConfig) -> int:
    """Configured worker count, else the CPUs this process may run on."""
    if config.workers:
        return config.workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_outage(config: ExperimentConfig, out: Path) -> list:
    spec = _ensemble_spec(config)
    curve, trials = outage_ccdf(spec, config.seed, workers=_workers(config))
    _write(out / "outage_curve.csv", curve_to_csv(curve))
    _write(out / "geometry_trials.csv", trials_to_csv(trials, spec.r_t_list))
    doc = {"curve": curve_to_dict(curve), "config": config.to_dict()}
    _write(out / "outage_curve.json", json.dumps(doc, indent=2) + "\n")
    return ["outage_curve.csv", "geometry_trials.csv", "outage_curve.json"]


def _run_conditioned_outage(config: ExperimentConfig, out: Path) -> list:
    if config.trials_file:
        trials, r_t_list = trials_from_csv(Path(config.trials_file).read_text())
        gamma = _gamma_grid(config, config.R if config.R else max(r_t_list) * 4)
        artifacts = []
    else:
        spec = _ensemble_spec(config)
        _, trials = outage_ccdf(spec, config.seed, workers=_workers(config))
        gamma = spec.gamma
        _write(out / "geometry_trials.csv", trials_to_csv(trials, spec.r_t_list))
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
    _write(out / "conditioned_curves.csv", curves_to_csv(curves))
    doc = {
        "conditioning_r_t": r_t,
        "curves": [curve_to_dict(c) for c in curves],
        "empty_bins": empty_bins,
        "config": config.to_dict(),
    }
    _write(out / "conditioned_curves.json", json.dumps(doc, indent=2) + "\n")
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
    _write(out / "run_manifest.json", json.dumps(manifest, indent=2) + "\n")
    return EXIT_OK


def _error_record(out: Path, exc: Exception, code: int) -> None:
    record = {"error_class": type(exc).__name__, "message": str(exc), "exit_code": code}
    sys.stderr.write(json.dumps(record) + "\n")
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write(out / "error.json", json.dumps(record, indent=2) + "\n")
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
    except SrclocError as exc:
        _error_record(out, exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
