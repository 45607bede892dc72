"""Two-level Monte-Carlo driver: rounds within a geometry, geometries
within an ensemble, and outage CCDFs over the ensemble.

Per geometry, the quantization thresholds are tuned once against the
true source parameters, the error bound is computed once, and the
empirical mean squared location error is averaged over independent
sensing rounds.  Over the ensemble, the outage CCDF at threshold gamma
is the fraction of geometries whose mean squared error (empirical, and
separately the bound) exceeds gamma^2.

Every trial draws from a stream keyed by (master seed, geometry index,
round index), so results are bitwise identical at any worker count and
any single trial can be replayed in isolation.

Parallelism is one process pool at a time: an ensemble spreads its
geometries over the workers, and a single geometry's rounds run serially
inside them; a lone geometry (``run_trials`` with ``workers > 1``)
spreads its rounds instead, in contiguous blocks of at least
``_MIN_BLOCK`` rounds.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .crlb import crlb_sgle, optimize_thresholds
from .errors import EmptySubset, ParseError, SingularFim
from .geometry import NetworkGeometry, SourceParams, count_within, distances, sample_geometry
from .likelihood import EstimateResult, ml_estimate_batch
from .signal_model import SensorEnsembleConfig, simulate_round
from .streams import ROUND_NS, PLACEMENT_NS, generator, root_stream, substream

Estimator = Callable[
    [np.ndarray, NetworkGeometry, SensorEnsembleConfig, np.random.Generator], EstimateResult
]


@dataclass
class GeometryTrialResult:
    """Per-geometry outcome of the inner Monte-Carlo loop."""

    geometry_id: int
    seed: int
    empirical_sgle: float
    sgle_var: float
    crlb_sgle: float  # nan when the information matrix was singular
    crlb_singular: bool
    k_t: dict  # R_T -> sensor count around the source
    has_sub_d0_sensor: bool
    n_mc: int
    beta_common: Optional[float] = None

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
    n_crlb_singular: int = 0
    conditioning: Optional[str] = None


# Fewest rounds worth a pool task.  Smaller lockstep batches cost more
# per round: the Nelder-Mead tail, where few of a batch's rounds are
# still active, is paid once per batch.
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
    chunk = max(1, len(calls) // (workers * 8))
    with ProcessPoolExecutor(max_workers=min(workers, len(calls))) as pool:
        try:
            return list(pool.map(fn, *zip(*calls), chunksize=chunk))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def default_gamma_grid(R: float, num: int = 64, lo: float = 0.1) -> np.ndarray:
    """Log-spaced outage thresholds from sub-unit errors to the disk diameter."""
    return np.geomspace(lo, 2.0 * R, num)


def run_trials(
    geom: NetworkGeometry,
    source: SourceParams,
    cfg: SensorEnsembleConfig,
    n_mc: int,
    stream: np.random.SeedSequence,
    estimator: Optional[Estimator] = None,
    workers: int = 1,
) -> tuple[np.ndarray, list[EstimateResult]]:
    """Energies and estimates for n_mc rounds of one geometry.

    Round m draws from the (ROUND_NS, m) substream of ``stream``, and
    the estimator's random restarts consume the remainder of that
    round's stream, so every trial is individually replayable.  The
    default estimator, ``ml_estimate_batch`` with the source's P0 as its
    nominal P0, refines rounds in lockstep batches: one batch, or
    with workers > 1 up to ``n_mc // _MIN_BLOCK`` contiguous blocks run
    in a process pool.  Each round's estimate does not depend on the
    other rounds of its batch, so the result is the same at any worker
    count.  An injected estimator is called per round, serially.
    Energies are always simulated here, in the calling process.
    """
    rngs = [generator(substream(stream, ROUND_NS, m)) for m in range(n_mc)]
    ts = np.stack([simulate_round(geom, source, cfg, rng) for rng in rngs])
    if estimator is not None:
        return ts, [estimator(ts[m], geom, cfg, rngs[m]) for m in range(n_mc)]
    n_blocks = max(1, min(workers, n_mc // _MIN_BLOCK))
    edges = [n_mc * b // n_blocks for b in range(n_blocks + 1)]
    blocks = [(ts[a:b], geom, cfg, source.P0, rngs[a:b]) for a, b in zip(edges, edges[1:])]
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
        has_sub_d0_sensor=bool(np.any(distances(geom, source) < cfg.d0)),
        n_mc=sq.size,
        beta_common=cfg.beta_common,
    )


def empirical_sgle(
    geom: NetworkGeometry,
    source: SourceParams,
    cfg: SensorEnsembleConfig,
    n_mc: int,
    stream: np.random.SeedSequence,
    *,
    estimator: Optional[Estimator] = None,
    r_t_list: Sequence[float] = (),
    geometry_id: int = 0,
) -> GeometryTrialResult:
    """Average squared location error over n_mc rounds of one geometry.

    Thresholds must already be set on ``cfg`` before calling.  The
    result's seed is the entropy of ``stream``, the master seed of the
    streams ``run_geometry_trial`` derives.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    _, estimates = run_trials(geom, source, cfg, n_mc, stream, estimator)
    seed = stream.entropy if isinstance(stream.entropy, int) else -1
    return trial_result(geom, source, cfg, estimates, r_t_list, geometry_id, seed)


@dataclass
class EnsembleSpec:
    """Everything one geometry ensemble needs besides the master seed."""

    K: int
    R: float
    R_ex: float
    source: SourceParams
    cfg: SensorEnsembleConfig
    n_geom: int
    n_mc: int
    gamma: np.ndarray
    r_t_list: Sequence[float] = (14.0,)
    threshold_mode: str = "common"  # common | per-sensor | fixed
    max_attempts: int = 10_000
    source_exclusion: float = 0.0


def place_geometry(spec: EnsembleSpec, master_seed: int, geometry_id: int) -> NetworkGeometry:
    """Geometry ``geometry_id`` of an ensemble, placed from stream (geometry_id, PLACEMENT_NS)."""
    return sample_geometry(
        spec.K,
        spec.R,
        spec.R_ex,
        max_attempts=spec.max_attempts,
        rng=generator(substream(root_stream(master_seed), geometry_id, PLACEMENT_NS)),
        source_xy=(spec.source.xT, spec.source.yT),
        source_exclusion=spec.source_exclusion,
    )


def with_thresholds(
    source: SourceParams, geom: NetworkGeometry, cfg: SensorEnsembleConfig, mode: str
) -> SensorEnsembleConfig:
    """``cfg`` with its thresholds tuned against the bound, or as given in fixed mode."""
    if mode == "fixed":
        return cfg
    return cfg.with_beta(optimize_thresholds(source, geom, cfg, mode=mode).beta)


def run_geometry_trial(spec: EnsembleSpec, master_seed: int, geometry_id: int) -> GeometryTrialResult:
    """Place, tune, and evaluate geometry ``geometry_id`` of an ensemble."""
    geom = place_geometry(spec, master_seed, geometry_id)
    return empirical_sgle(
        geom,
        spec.source,
        with_thresholds(spec.source, geom, spec.cfg, spec.threshold_mode),
        spec.n_mc,
        substream(root_stream(master_seed), geometry_id),
        r_t_list=spec.r_t_list,
        geometry_id=geometry_id,
    )


def run_ensemble(
    spec: EnsembleSpec, master_seed: int, workers: int = 1
) -> list[GeometryTrialResult]:
    """All geometry trials of an ensemble, in geometry-index order.

    Trials are independent; with workers > 1 they run in a process pool
    and come back in index order, so the output is identical at any
    worker count.  Each trial's rounds run serially in its worker.
    """
    if spec.n_geom < 1:
        raise ValueError("n_geom must be >= 1")
    calls = [(spec, master_seed, gi) for gi in range(spec.n_geom)]
    return _ordered_map(run_geometry_trial, calls, workers)


def build_ccdf(
    trials: Sequence[GeometryTrialResult],
    gamma: np.ndarray,
    conditioning: Optional[str] = None,
) -> OutageCurve:
    """Outage CCDFs over the given trials at each gamma.

    A geometry is in outage at gamma when its mean squared error exceeds
    gamma^2.  Geometries with a singular information matrix count as
    outage at every gamma on the bound curve (their bound is unbounded)
    and are tallied in n_crlb_singular.
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
        n_crlb_singular=int(sum(tr.crlb_singular for tr in trials)),
        conditioning=conditioning,
    )


def outage_ccdf(
    spec: EnsembleSpec, master_seed: int, workers: int = 1
) -> tuple[OutageCurve, list[GeometryTrialResult]]:
    """Run an ensemble and estimate its outage CCDFs.

    Returns the curve plus the per-geometry trials for post-hoc
    conditioning.  A PackingFailure in any geometry aborts the ensemble.
    """
    trials = run_ensemble(spec, master_seed, workers=workers)
    return build_ccdf(trials, spec.gamma), trials


def conditioned_ccdf(
    trials: Sequence[GeometryTrialResult],
    r_t: float,
    k_t_condition: Callable[[int], bool],
    gamma: np.ndarray,
    description: Optional[str] = None,
) -> OutageCurve:
    """Outage CCDF over the geometries whose K_T satisfies a predicate.

    Raises EmptySubset when no trial matches, and ValueError when the
    trials do not carry a count for the requested radius.
    """
    r_t = float(r_t)
    subset = []
    for tr in trials:
        if r_t not in tr.k_t:
            raise ValueError(f"trials carry no sensor count for R_T={r_t}")
        if k_t_condition(tr.k_t[r_t]):
            subset.append(tr)
    if not subset:
        raise EmptySubset(f"no geometry satisfies the K_T condition at R_T={r_t}")
    return build_ccdf(subset, gamma, conditioning=description)


# --- artifact serialization -------------------------------------------------
#
# Fixed-order CSV schemas; floats carry 17 significant digits so files
# round-trip exactly and reruns are byte-comparable.


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def trials_to_csv(trials: Sequence[GeometryTrialResult], r_t_list: Sequence[float]) -> str:
    cols = ["geometry_id", "seed", "empirical_sgle", "sgle_var", "crlb_sgle", "crlb_singular"]
    cols += [f"k_t@{_fmt(float(rt))}" for rt in r_t_list]
    cols += ["has_sub_d0_sensor", "n_mc", "beta_common"]
    lines = [",".join(cols)]
    for tr in trials:
        row = [
            str(tr.geometry_id),
            str(tr.seed),
            _fmt(tr.empirical_sgle),
            _fmt(tr.sgle_var),
            _fmt(tr.crlb_sgle),
            str(int(tr.crlb_singular)),
        ]
        row += [str(tr.k_t[float(rt)]) for rt in r_t_list]
        row += [
            str(int(tr.has_sub_d0_sensor)),
            str(tr.n_mc),
            "" if tr.beta_common is None else _fmt(tr.beta_common),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trials_from_csv(
    text: str, origin: str = "trials table"
) -> tuple[list[GeometryTrialResult], list[float]]:
    """Inverse of trials_to_csv; raises ParseError, naming ``origin``, on a malformed table."""
    try:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        r_t_list = [float(c.split("@", 1)[1]) for c in header if c.startswith("k_t@")]
        k_t_cols = [i for i, c in enumerate(header) if c.startswith("k_t@")]
        col = {name: i for i, name in enumerate(header)}
        trials = []
        for ln in lines[1:]:
            parts = ln.split(",")
            beta_raw = parts[col["beta_common"]]
            trials.append(
                GeometryTrialResult(
                    geometry_id=int(parts[col["geometry_id"]]),
                    seed=int(parts[col["seed"]]),
                    empirical_sgle=float(parts[col["empirical_sgle"]]),
                    sgle_var=float(parts[col["sgle_var"]]),
                    crlb_sgle=float(parts[col["crlb_sgle"]]),
                    crlb_singular=bool(int(parts[col["crlb_singular"]])),
                    k_t={rt: int(parts[i]) for rt, i in zip(r_t_list, k_t_cols)},
                    has_sub_d0_sensor=bool(int(parts[col["has_sub_d0_sensor"]])),
                    n_mc=int(parts[col["n_mc"]]),
                    beta_common=None if beta_raw == "" else float(beta_raw),
                )
            )
    except (ValueError, KeyError, IndexError) as exc:
        raise ParseError(f"{origin}: malformed trials table ({type(exc).__name__}: {exc})") from exc
    return trials, r_t_list


def curve_to_csv(curve: OutageCurve) -> str:
    lines = ["gamma,ccdf_empirical,ccdf_crlb"]
    for g, ce, cb in zip(curve.gamma, curve.ccdf_empirical, curve.ccdf_crlb):
        lines.append(f"{_fmt(g)},{_fmt(ce)},{_fmt(cb)}")
    return "\n".join(lines) + "\n"


def curves_to_csv(curves: Sequence[OutageCurve]) -> str:
    """Long-format CSV for a family of (possibly conditioned) curves."""
    lines = ["condition,n_geometries,gamma,ccdf_empirical,ccdf_crlb"]
    for curve in curves:
        label = curve.conditioning or "all"
        for g, ce, cb in zip(curve.gamma, curve.ccdf_empirical, curve.ccdf_crlb):
            lines.append(
                f"{label},{curve.n_geometries},{_fmt(g)},{_fmt(ce)},{_fmt(cb)}"
            )
    return "\n".join(lines) + "\n"


def curve_to_dict(curve: OutageCurve) -> dict:
    return {
        "gamma": [float(g) for g in curve.gamma],
        "ccdf_empirical": [float(v) for v in curve.ccdf_empirical],
        "ccdf_crlb": [float(v) for v in curve.ccdf_crlb],
        "n_geometries": curve.n_geometries,
        "n_crlb_singular": curve.n_crlb_singular,
        "conditioning": curve.conditioning,
    }
