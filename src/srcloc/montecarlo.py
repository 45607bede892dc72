"""Two-level Monte-Carlo driver: rounds within a geometry, geometries
within an ensemble, and outage CCDFs over the ensemble.

Per geometry, the quantization thresholds are tuned once against the
true source parameters, the error bound is computed once, and the
empirical mean squared location error is averaged over independent
sensing rounds.  Over the ensemble, the outage CCDF at threshold gamma
is the fraction of geometries whose mean squared error (empirical, and
separately the bound) exceeds gamma^2.  A conditioned CCDF, such as one
K_T bin's, is the same reduction, ``build_ccdf``, over the subset of
trials that the condition keeps.

Every draw is keyed by a numpy SeedSequence spawn key under the master
seed: geometry gi places its sensors from key (gi, PLACEMENT_NS) and
runs round m from key (gi, ROUND_NS, m).  So results are bitwise
identical at any worker count, and any trial can be replayed alone.

Parallelism is one process pool at a time: an ensemble spreads its
geometries over the workers, and a single geometry's rounds run serially
inside them; a lone geometry (``run_trials`` with ``workers > 1``)
spreads its rounds instead, in contiguous blocks of at least
``_MIN_BLOCK`` rounds.

The ML estimator, and with it scipy, is imported only where rounds are
estimated: ``run_trials`` imports it before it estimates, and
``run_ensemble`` before its pool forks, so the workers inherit it and a
command imports it once.  ``run_ensemble`` likewise builds the
channel's tuning data (the information curve, or the per-sensor
operating point) before the fork, so a command builds it once.
Placement, threshold tuning and the bound run without scipy.  Likewise
``concurrent.futures`` and ``multiprocessing`` load only when a pool
starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .crlb import crlb_sgle, optimize_thresholds, prepare_tuning
from .errors import ParseError, SingularFim
from .geometry import NetworkGeometry, SourceParams, count_within, has_sub_d0_sensor, sample_geometry
from .signal_model import SensorEnsembleConfig, simulate_round

if TYPE_CHECKING:
    from .likelihood import EstimateResult

# Spawn-key namespaces under a geometry's key: its placement, and its rounds.
PLACEMENT_NS = 0
ROUND_NS = 1

# Fixed-order CSV schemas; floats carry 17 significant digits so files
# round-trip exactly and reruns are byte-comparable.


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"flag cell {cell!r} is neither 0 nor 1")
    return cell == "1"


def _mean_square(cell: str) -> float:
    x = float(cell)
    if not 0.0 <= x < np.inf:
        raise ValueError(f"{cell!r} is not a finite nonnegative mean square")
    return x


_INT = {"fmt": str, "parse": int}
_FLAG = {"fmt": lambda b: str(int(b)), "parse": _flag}
_MEAN_SQUARE = {"fmt": _fmt, "parse": _mean_square}
_OPTIONAL = {"fmt": lambda b: "" if b is None else _fmt(b), "parse": lambda c: float(c) if c else None}


@dataclass
class GeometryTrialResult:
    """Per-geometry outcome of the inner Monte-Carlo loop, and the schema of
    the trials table: each field is a column, written by its metadata's
    ``fmt`` and read back by its ``parse``, except that a ``per_radius``
    field is one ``<name>@<R_T>`` column per radius."""

    geometry_id: int = field(metadata=_INT)
    seed: int = field(metadata=_INT)
    empirical_sgle: float = field(metadata=_MEAN_SQUARE)
    sgle_var: float = field(metadata=_MEAN_SQUARE)
    # nan when the information matrix was singular
    crlb_sgle: float = field(metadata={"fmt": _fmt, "parse": float})
    crlb_singular: bool = field(metadata=_FLAG)
    k_t: dict = field(metadata={**_INT, "per_radius": True})  # R_T -> sensor count around the source
    has_sub_d0_sensor: bool = field(metadata=_FLAG)
    n_mc: int = field(metadata=_INT)
    beta_common: Optional[float] = field(default=None, metadata=_OPTIONAL)

    @property
    def sgle_stderr(self) -> float:
        if self.n_mc < 2 or not np.isfinite(self.sgle_var):
            return np.nan
        return float(np.sqrt(self.sgle_var / self.n_mc))


@dataclass
class OutageCurve:
    """Empirical outage CCDFs over a geometry ensemble."""

    gamma: np.ndarray
    ccdf_empirical: np.ndarray
    ccdf_crlb: np.ndarray
    n_geometries: int


# Fewest rounds worth a pool task.  Smaller lockstep batches cost more
# per round: the seed pass's per-call overhead and the polish's tail,
# where few of a batch's starts are still active, are paid once per
# batch.  The polish's step cap (100 steps) and stall stop bound that
# tail, but each of its lockstep calls still costs about as much for one
# start as for fifty.
_MIN_BLOCK = 100


def default_workers() -> int:
    """Worker count to use when none is configured: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_map(fn: Callable, calls: Sequence[tuple], workers: int) -> list:
    """``[fn(*args) for args in calls]``, in a process pool when workers > 1.

    Results come back in ``calls`` order whatever the worker count.  On
    an error or an interrupt, calls not yet started are cancelled.
    """
    if workers <= 1 or len(calls) <= 1:
        return [fn(*args) for args in calls]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, only for a pool

    with ProcessPoolExecutor(max_workers=min(workers, len(calls))) as pool:
        try:
            return list(pool.map(fn, *zip(*calls)))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_trials(
    geom: NetworkGeometry,
    source: SourceParams,
    cfg: SensorEnsembleConfig,
    n_mc: int,
    stream: np.random.SeedSequence,
    workers: int = 1,
) -> tuple[np.ndarray, list[EstimateResult]]:
    """Energies and ML estimates for n_mc rounds of one geometry.

    ``stream`` is the geometry's, key (gi,); round m simulates its
    energies from key (gi, ROUND_NS, m), and its estimate depends on
    those energies alone, so every trial is replayable alone.
    ``ml_estimate_batch``, with the source's P0 as its nominal P0,
    refines the rounds in lockstep batches: one batch, or with
    workers > 1 up to ``n_mc // _MIN_BLOCK`` contiguous blocks run in a
    process pool.  Each round's estimate does not depend on the other
    rounds of its batch, so the result is the same at any worker count.
    Energies are always simulated here, in the calling process.
    """
    from .likelihood import ml_estimate_batch

    entropy, key = stream.entropy, (*stream.spawn_key, ROUND_NS)
    seeds = [np.random.SeedSequence(entropy, spawn_key=(*key, m)) for m in range(n_mc)]
    ts = np.stack([simulate_round(geom, source, cfg, np.random.default_rng(s)) for s in seeds])

    n_blocks = max(1, min(workers, n_mc // _MIN_BLOCK))
    edges = [n_mc * b // n_blocks for b in range(n_blocks + 1)]
    blocks = [(ts[a:b], geom, cfg, source.P0) for a, b in zip(edges, edges[1:])]
    return ts, [est for part in _ordered_map(ml_estimate_batch, blocks, n_blocks) for est in part]


def squared_errors(estimates: Sequence[EstimateResult], source: SourceParams) -> np.ndarray:
    """Squared location error of each estimate."""
    return np.array(
        [(e.theta_hat.xT - source.xT) ** 2 + (e.theta_hat.yT - source.yT) ** 2 for e in estimates]
    )


def trial_result(
    geom: NetworkGeometry,
    source: SourceParams,
    cfg: SensorEnsembleConfig,
    estimates: Sequence[EstimateResult],
    r_t_list: Sequence[float] = (),
    geometry_id: int = 0,
    seed: int = -1,
) -> GeometryTrialResult:
    """Outcome of one geometry from the estimates of its rounds.

    The error bound is computed once, at ``cfg``'s thresholds; a singular
    information matrix is recorded (nan bound, flag set) rather than
    aborting the empirical estimate.
    """
    sq = squared_errors(estimates, source)
    try:
        bound = crlb_sgle(source, geom, cfg).sgle_bound
        singular = False
    except SingularFim:
        bound = np.nan
        singular = True
    return GeometryTrialResult(
        geometry_id=geometry_id,
        seed=seed,
        empirical_sgle=float(sq.mean()),
        sgle_var=float(sq.var(ddof=1)) if sq.size > 1 else 0.0,
        crlb_sgle=bound,
        crlb_singular=singular,
        k_t={float(rt): count_within(geom, source, rt) for rt in r_t_list},
        has_sub_d0_sensor=has_sub_d0_sensor(geom, source, cfg.d0),
        n_mc=sq.size,
        beta_common=cfg.beta_common,
    )


def place_geometry(config: ExperimentConfig, geometry_id: int) -> NetworkGeometry:
    """Geometry ``geometry_id`` of the config's ensemble, placed from key (geometry_id, PLACEMENT_NS)."""
    seeds = np.random.SeedSequence(config.seed, spawn_key=(geometry_id, PLACEMENT_NS))
    return sample_geometry(
        config.K,
        config.R,
        config.R_ex,
        max_attempts=config.max_attempts,
        rng=np.random.default_rng(seeds),
        source_xy=config.source,
        source_exclusion=config.source_exclusion,
    )


def with_thresholds(config: ExperimentConfig, geom: NetworkGeometry) -> SensorEnsembleConfig:
    """The sensor model, its thresholds tuned against the bound at the true
    source, or as configured under the fixed policy."""
    cfg = config.sensor_config()
    if config.threshold_policy == "fixed":
        return cfg
    return cfg.with_beta(optimize_thresholds(config.source_params, geom, cfg, mode=config.threshold_policy))


def run_geometry_trial(config: ExperimentConfig, geometry_id: int) -> GeometryTrialResult:
    """Place, tune, and evaluate geometry ``geometry_id`` of the config's ensemble."""
    geom = place_geometry(config, geometry_id)
    source = config.source_params
    cfg = with_thresholds(config, geom)
    stream = np.random.SeedSequence(config.seed, spawn_key=(geometry_id,))
    _, estimates = run_trials(geom, source, cfg, config.n_mc, stream)
    return trial_result(geom, source, cfg, estimates, config.r_t_list, geometry_id, config.seed)


def run_ensemble(config: ExperimentConfig, workers: int = 1) -> list[GeometryTrialResult]:
    """All geometry trials of the config's ensemble, in geometry-index order.

    Trials are independent; with workers > 1 they run in a process pool
    and come back in index order, so the output is identical at any
    worker count.  Each trial's rounds run serially in its worker.
    """
    if config.n_geom < 1:
        raise ValueError("n_geom must be >= 1")
    from . import likelihood  # noqa: F401  (loaded once here, not in every worker)

    if config.threshold_policy != "fixed":  # the channel's tuning data, likewise built once here
        prepare_tuning(config.sensor_config(), config.threshold_policy)

    calls = [(config, gi) for gi in range(config.n_geom)]
    return _ordered_map(run_geometry_trial, calls, workers)


def build_ccdf(trials: Sequence[GeometryTrialResult], gamma: np.ndarray) -> OutageCurve:
    """Outage CCDFs over the given trials at each gamma.

    A geometry is in outage at gamma when its mean squared error exceeds
    gamma^2.  Geometries with a singular information matrix count as
    outage at every gamma on the bound curve (their bound is unbounded).
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 1 or gamma.size < 1:
        raise ValueError("gamma grid must be a nonempty 1-D array")
    if np.any(gamma <= 0) or np.any(np.diff(gamma) <= 0):
        raise ValueError("gamma grid must be positive and strictly increasing")
    emp = np.array([tr.empirical_sgle for tr in trials])
    bound = np.array(
        [np.inf if tr.crlb_singular else tr.crlb_sgle for tr in trials]
    )
    g2 = gamma * gamma
    return OutageCurve(
        gamma=gamma,
        ccdf_empirical=(emp[None, :] > g2[:, None]).mean(axis=1),
        ccdf_crlb=(bound[None, :] > g2[:, None]).mean(axis=1),
        n_geometries=len(trials),
    )


# --- artifact serialization -------------------------------------------------


def trials_to_csv(trials: Sequence[GeometryTrialResult], r_t_list: Sequence[float]) -> str:
    header = []
    for f in fields(GeometryTrialResult):
        header += [f"{f.name}@{_fmt(rt)}" for rt in r_t_list] if f.metadata.get("per_radius") else [f.name]
    lines = [",".join(header)]
    for tr in trials:
        row = []
        for f in fields(GeometryTrialResult):
            fmt, value = f.metadata["fmt"], getattr(tr, f.name)
            row += [fmt(value[rt]) for rt in r_t_list] if f.metadata.get("per_radius") else [fmt(value)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trials_from_csv(
    text: str, origin: str = "trials table"
) -> tuple[list[GeometryTrialResult], list[float]]:
    """Inverse of trials_to_csv; raises ParseError, naming ``origin``, on a
    table it could not have written or one with no rows."""
    try:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        r_t_list = [float(c.split("@", 1)[1]) for c in lines[0].split(",") if "@" in c]
        if lines[0] + "\n" != trials_to_csv([], r_t_list):
            raise ValueError(f"header {lines[0]!r} is not a trials table's")
        if len(set(r_t_list)) != len(r_t_list):
            raise ValueError(f"header {lines[0]!r} repeats a k_t radius")
        trials = []
        for ln in lines[1:]:
            if ln.count(",") != lines[0].count(","):
                raise ValueError(f"row {ln!r} is not as wide as the header")
            cells = iter(ln.split(","))
            row = {}
            for f in fields(GeometryTrialResult):
                parse = f.metadata["parse"]
                if f.metadata.get("per_radius"):
                    row[f.name] = {rt: parse(next(cells)) for rt in r_t_list}
                else:
                    row[f.name] = parse(next(cells))
            trials.append(GeometryTrialResult(**row))
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{origin}: malformed trials table ({type(exc).__name__}: {exc})") from exc
    if not trials:
        raise ParseError(f"{origin}: trials table has no rows")
    return trials, r_t_list


_CURVE_COLUMNS = "gamma,ccdf_empirical,ccdf_crlb"


def _curve_rows(curve: OutageCurve) -> list[str]:
    """One row of ``_CURVE_COLUMNS`` per gamma of the curve."""
    rows = zip(curve.gamma, curve.ccdf_empirical, curve.ccdf_crlb)
    return [f"{_fmt(g)},{_fmt(ce)},{_fmt(cb)}" for g, ce, cb in rows]


def curve_to_csv(curve: OutageCurve) -> str:
    return "\n".join([_CURVE_COLUMNS, *_curve_rows(curve)]) + "\n"


def curves_to_csv(curves: Sequence[tuple[str, OutageCurve]]) -> str:
    """Long-format CSV for a family of (label, curve) pairs, in the given order."""
    lines = [f"condition,n_geometries,{_CURVE_COLUMNS}"]
    for label, curve in curves:
        lines += [f"{label},{curve.n_geometries},{row}" for row in _curve_rows(curve)]
    return "\n".join(lines) + "\n"
