"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 7 computes
the two geometry ensembles and criterion 8 reuses them (module-level
cache, so criterion 7's timing owns the heavy work).  Each criterion
asserts its stated tolerance and runtime budget.
"""

import functools
import json
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import expon, kstest

from srcloc import (
    EnsembleSpec,
    NetworkGeometry,
    SensorEnsembleConfig,
    SingularFim,
    SourceParams,
    conditioned_ccdf,
    count_within,
    crlb_sgle,
    default_gamma_grid,
    fisher_information,
    optimize_thresholds,
    outage_ccdf,
    received_power,
    sample_geometry,
    simulate_rounds,
    transmit_and_detect,
)
from srcloc.cli import main
from srcloc.crlb import _gradients
from srcloc.montecarlo import _MIN_BLOCK, default_workers, run_trials
from srcloc.streams import root_stream
from tests.conftest import marginal_energy_cdf, marginal_energy_pdf

pytestmark = pytest.mark.acceptance

SRC = SourceParams(10_000.0, 5.0, 10.0)
EB_1DB = 10.0 ** 0.1
_T0 = time.monotonic()

# Frozen reference geometries (K=50, R=50, no exclusion zone): seed 2 has
# eight sensors within R_T=14 of the source, seed 5 has one.
RICH_SEED, POOR_SEED = 2, 5


def criterion(n, budget_s):
    """Print one PASS/FAIL line and enforce the runtime budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_start = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as exc:
                elapsed = time.monotonic() - t_start
                first = str(exc).splitlines()[0] if str(exc) else "assertion failed"
                print(f"FAIL criterion {n}: {first} [{elapsed:.1f}s / budget {budget_s:.0f}s]")
                raise
            elapsed = time.monotonic() - t_start
            assert elapsed < budget_s, (
                f"criterion {n} exceeded its runtime budget: {elapsed:.1f}s > {budget_s:.0f}s"
            )
            print(f"PASS criterion {n}: {detail} [{elapsed:.1f}s / budget {budget_s:.0f}s]")

        return wrapper

    return decorate


def _cfg(channel_snr_db, beta=0.0):
    return SensorEnsembleConfig.from_snr_db(
        p0=SRC.P0, obs_snr_db=40.0, channel_snr_db=channel_snr_db,
        tx_energy_db=1.0, d0=1.0, alpha=2.0, beta=beta,
    )


@criterion(1, 10)
def test_criterion_1_normalization():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        args = (
            rng.uniform(0.0, 500.0),   # P_i
            rng.uniform(-5.0, 30.0),   # beta
            rng.uniform(0.2, 5.0),     # sigma
            rng.uniform(0.1, 10.0),    # eb
            rng.uniform(0.1, 10.0),    # tau2
        )
        val, _ = quad(marginal_energy_pdf, 0.0, np.inf, args=args)
        worst = max(worst, abs(val - 1.0))
        assert abs(val - 1.0) < 1e-8
    return f"100 pdf normalizations, worst |integral-1| = {worst:.2e}"


@criterion(2, 30)
def test_criterion_2_distributional():
    # conditional energies: exponential with mean eb*u + tau2
    pvals = []
    for u, seed in ((0, 201), (1, 202)):
        t = transmit_and_detect(
            np.full(100_000, float(u)), EB_1DB, 0.8, np.random.default_rng(seed)
        )
        res = kstest(t, expon(scale=EB_1DB * u + 0.8).cdf)
        pvals.append(res.pvalue)
        assert res.pvalue >= 0.01, f"t|u={u}: KS p={res.pvalue}"
    # full forward chain against the analytic marginal mixture, per sensor
    geom = sample_geometry(4, 50.0, 0.0, rng=np.random.SeedSequence(203))
    cfg = _cfg(3.0, beta=4.0)
    beta = cfg.thresholds(geom.K)
    d = np.hypot(geom.sensors[:, 0] - SRC.xT, geom.sensors[:, 1] - SRC.yT)
    P = received_power(SRC.P0, 1.0, 2.0, d)
    t = simulate_rounds(geom, SRC, cfg, 100_000, np.random.default_rng(204))
    for i in range(geom.K):
        res = kstest(
            t[:, i],
            lambda v, i=i: marginal_energy_cdf(
                v, P[i], beta[i], np.sqrt(cfg.sigma2), cfg.eb, cfg.tau2
            ),
        )
        pvals.append(res.pvalue)
        assert res.pvalue >= 0.01, f"sensor {i}: KS p={res.pvalue}"
    return f"6 KS tests at alpha=0.01, min p = {min(pvals):.3f}"


@criterion(3, 30)
def test_criterion_3_fim_structure():
    rng = np.random.default_rng(301)
    for _ in range(100):
        K = int(rng.integers(3, 8))
        geom = sample_geometry(K, 30.0, 0.0, rng=rng)
        theta = SourceParams(
            rng.uniform(100.0, 1e5), rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0)
        )
        cfg = SensorEnsembleConfig(
            d0=1.0, alpha=float(rng.uniform(1.5, 3.5)),
            sigma2=float(rng.uniform(0.5, 4.0)), beta=float(rng.uniform(0.0, 12.0)),
            eb=float(rng.uniform(0.5, 4.0)), tau2=float(rng.uniform(0.5, 4.0)),
        )
        # geometry factors: symmetric, rank <= 1
        for i in range(K):
            v = _gradients(theta, geom.sensors[i : i + 1], cfg.alpha)[0]
            G = np.outer(v, v)
            np.testing.assert_array_equal(G, G.T)
            scale = max(np.abs(G).max(), 1e-300)
            for r in range(3):
                for s in range(r + 1, 3):
                    for c in range(3):
                        for q in range(c + 1, 3):
                            minor = G[r, c] * G[s, q] - G[r, q] * G[s, c]
                            assert abs(minor) <= 1e-10 * scale * scale
        fim = fisher_information(theta, geom, cfg)
        np.testing.assert_array_equal(fim, fim.T)
        eigs = np.linalg.eigvalsh(fim)
        assert eigs.min() >= -1e-10 * max(np.trace(fim), 1e-300)
        # additive over sensors
        parts = sum(
            fisher_information(
                theta, NetworkGeometry(sensors=geom.sensors[i : i + 1], R=geom.R), cfg
            )
            for i in range(K)
        )
        np.testing.assert_allclose(fim, parts, rtol=1e-12, atol=0.0)
        # rotation leaves the position-error bound unchanged
        try:
            base = crlb_sgle(theta, geom, cfg, fim=fim).sgle_bound
        except SingularFim:
            continue
        phi = rng.uniform(0.0, 2 * np.pi)
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        geom_r = NetworkGeometry(sensors=geom.sensors @ rot.T, R=geom.R)
        sx, sy = rot @ np.array([theta.xT, theta.yT])
        rotated = crlb_sgle(SourceParams(theta.P0, sx, sy), geom_r, cfg).sgle_bound
        assert rotated == pytest.approx(base, rel=1e-8)
    return "100 draws: G rank-1/symmetric, FIM PSD/additive/rotation-invariant"


@criterion(4, 300)
def test_criterion_4_fim_oracle():
    geom = NetworkGeometry(sensors=np.array([[0.0, 0.0], [12.0, 4.0], [3.0, -9.0]]), R=20.0)
    src = SourceParams(900.0, 4.0, 2.0)
    cfg = SensorEnsembleConfig(d0=1.0, alpha=2.0, sigma2=4.0, beta=5.0, eb=2.0, tau2=1.5)
    fim = fisher_information(src, geom, cfg)
    T = simulate_rounds(geom, src, cfg, 1_000_000, np.random.default_rng(401))

    def batch_ll(xT):
        d = np.hypot(xT - geom.sensors[:, 0], src.yT - geom.sensors[:, 1])
        P = received_power(src.P0, 1.0, 2.0, d)
        s = (np.sqrt(P) - 5.0) / 2.0
        lf0 = -T / 1.5 - np.log(1.5)
        lf1 = -T / 3.5 - np.log(3.5)
        return np.logaddexp(lf0 + log_ndtr(-s), lf1 + log_ndtr(s)).sum(axis=1)

    h = 1e-3
    score = (batch_ll(src.xT + h) - batch_ll(src.xT - h)) / (2 * h)
    mc = float(np.mean(score**2))
    ratio = mc / fim[1, 1]
    # any systematic constant-factor discrepancy surfaces in this message
    assert abs(ratio - 1.0) <= 0.05, (
        f"score-variance oracle disagrees with the analytic FIM entry: "
        f"MC={mc:.6g} vs analytic={fim[1, 1]:.6g} (ratio {ratio:.4f})"
    )
    return f"FIM (2,2) vs 1e6-sample score variance: ratio {ratio:.4f}"


@criterion(5, 300)
def test_criterion_5_threshold_optimality():
    worst_excess = -np.inf
    for trial in range(10):
        geom = sample_geometry(15, 50.0, 0.0, rng=np.random.SeedSequence(500 + trial))
        cfg = _cfg(0.0)
        tuned = optimize_thresholds(SRC, geom, cfg)
        grid = np.linspace(0.0, np.sqrt(SRC.P0), 200)
        objs = np.empty(grid.size)
        for j, b in enumerate(grid):
            try:
                objs[j] = crlb_sgle(SRC, geom, cfg.with_beta(float(b))).sgle_bound
            except SingularFim:
                objs[j] = np.inf
        k = int(np.argmin(objs))
        # grid-resolution slack: objective variation across the argmin cell
        local = objs[max(0, k - 1) : k + 2]
        slack = float(np.max(np.abs(local - objs[k])))
        excess = tuned.sgle_bound - objs[k]
        worst_excess = max(worst_excess, excess - slack)
        assert tuned.sgle_bound <= objs[k] + slack + 1e-9 * abs(objs[k])
    return f"10 geometries, worst (excess - slack) = {worst_excess:.3e}"


def _sgle_trials(geom, cfg, n_mc, stream):
    _, estimates = run_trials(geom, SRC, cfg, n_mc, stream, workers=default_workers())
    return np.array(
        [(e.theta_hat.xT - SRC.xT) ** 2 + (e.theta_hat.yT - SRC.yT) ** 2 for e in estimates]
    )


@criterion(6, 600)
def test_criterion_6_snr_trend_two_geometries():
    n_mc = 500
    etas = (0.0, 10.0, 20.0)
    geoms = {}
    for label, seed, want in (("rich", RICH_SEED, 5), ("poor", POOR_SEED, 2)):
        geom = sample_geometry(50, 50.0, 0.0, rng=np.random.SeedSequence(seed))
        k_t = count_within(geom, SRC, 14.0)
        assert (k_t >= want) if label == "rich" else (k_t <= want)
        geoms[label] = geom
    sgle = {}
    bound = {}
    for label, geom in geoms.items():
        for eta in etas:
            cfg = _cfg(eta)
            cfg = cfg.with_beta(optimize_thresholds(SRC, geom, cfg).beta)
            bound[label, eta] = crlb_sgle(SRC, geom, cfg).sgle_bound
            # matched rounds across eta: the stream key has no eta in it
            stream = root_stream(600 + {"rich": 0, "poor": 1}[label])
            sgle[label, eta] = _sgle_trials(geom, cfg, n_mc, stream)
    for label in geoms:
        for lo, hi in zip(etas, etas[1:]):
            delta = sgle[label, hi] - sgle[label, lo]
            se = delta.std(ddof=1) / np.sqrt(n_mc)
            assert delta.mean() <= 2.0 * se, (
                f"{label}: mean squared error increased from eta={lo} to {hi} "
                f"({delta.mean():.3f} vs 2SE={2 * se:.3f})"
            )
        ratios = [
            np.sqrt(sgle[label, eta].mean()) / np.sqrt(bound[label, eta]) for eta in etas
        ]
        assert ratios[-1] < ratios[0], f"{label}: RMSE/sqrt(CRLB) did not shrink: {ratios}"
        assert all(r2 <= r1 * 1.05 for r1, r2 in zip(ratios, ratios[1:])), (
            f"{label}: ratio sequence not non-increasing: {ratios}"
        )
    for eta in etas:
        rich_rmse = np.sqrt(sgle["rich", eta].mean())
        poor_rmse = np.sqrt(sgle["poor", eta].mean())
        assert rich_rmse < poor_rmse, (
            f"eta={eta}: sensor-rich geometry not better ({rich_rmse:.2f} vs {poor_rmse:.2f})"
        )
    return "RMSE non-increasing in eta, RMSE/bound ratio shrinking, rich < poor at every eta"


# Criterion 7 owns the two-ensemble computation; criterion 8 reuses it.
_ENSEMBLES = {}


def _outage_ensembles():
    if not _ENSEMBLES:
        workers = default_workers()
        for r_ex in (0.0, 5.0):
            spec = EnsembleSpec(
                K=50, R=50.0, R_ex=r_ex, source=SRC, cfg=_cfg(0.0),
                n_geom=100, n_mc=200, gamma=default_gamma_grid(50.0),
                r_t_list=(14.0,), threshold_mode="common",
            )
            _ENSEMBLES[r_ex] = outage_ccdf(spec, master_seed=700, workers=workers)
    return _ENSEMBLES


def _two_proportion_z(p1, n1, p0, n0):
    pooled = (p1 * n1 + p0 * n0) / (n1 + n0)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n0))
    return (p1 - p0) / se if se > 0 else np.inf if p1 > p0 else 0.0


@criterion(7, 900)
def test_criterion_7_exclusion_zone_outage():
    ensembles = _outage_ensembles()
    curve0, trials0 = ensembles[0.0]
    curve5, trials5 = ensembles[5.0]
    gamma = curve0.gamma
    # discriminative mid-curve point: the grid gamma nearest the pooled
    # median RMSE (both curves sit near CCDF 1/2 there)
    rmse_all = np.sqrt([tr.empirical_sgle for tr in trials0 + trials5])
    g_idx = int(np.argmin(np.abs(gamma - np.median(rmse_all))))
    p0 = curve0.ccdf_empirical[g_idx]
    p5 = curve5.ccdf_empirical[g_idx]
    z = _two_proportion_z(p5, curve5.n_geometries, p0, curve0.n_geometries)
    assert p5 > p0, (
        f"outage under exclusion zones not higher at gamma={gamma[g_idx]:.2f}: "
        f"{p5:.2f} vs {p0:.2f}"
    )
    assert z > 1.645, (
        f"exclusion-zone outage margin not significant at 0.05 "
        f"(gamma={gamma[g_idx]:.2f}: R_ex=5 {p5:.2f} vs R_ex=0 {p0:.2f}, z={z:.2f})"
    )
    return f"CCDF at gamma={gamma[g_idx]:.2f}: R_ex=5 {p5:.2f} > R_ex=0 {p0:.2f} (z={z:.2f})"


@criterion(8, 900)
def test_criterion_8_k_t_conditioning():
    curve0, trials0 = _outage_ensembles()[0.0]
    gamma = curve0.gamma
    rmse0 = np.sqrt([tr.empirical_sgle for tr in trials0])
    g_idx = int(np.argmin(np.abs(gamma - np.median(rmse0))))

    bins = [
        ("K_T==1", lambda k: k == 1),
        ("K_T==2", lambda k: k == 2),
        ("K_T>=3", lambda k: k >= 3),
    ]
    probs, ns = [], []
    for label, pred in bins:
        curve = conditioned_ccdf(trials0, 14.0, pred, gamma, label)
        probs.append(curve.ccdf_empirical[g_idx])
        ns.append(curve.n_geometries)
    for j in range(1, len(probs)):
        se = np.sqrt(
            probs[j - 1] * (1 - probs[j - 1]) / ns[j - 1] + probs[j] * (1 - probs[j]) / ns[j]
        )
        assert probs[j] <= probs[j - 1] + 2.0 * se, (
            f"conditioned outage not non-increasing in K_T: {probs} (n={ns})"
        )
    # complete exact-K_T partition reconstructs the unconditioned curve
    mix = np.zeros_like(gamma)
    for k in sorted({tr.k_t[14.0] for tr in trials0}):
        cond = conditioned_ccdf(trials0, 14.0, lambda n, k=k: n == k, gamma)
        mix += cond.ccdf_empirical * (cond.n_geometries / curve0.n_geometries)
    np.testing.assert_allclose(mix, curve0.ccdf_empirical, rtol=0.0, atol=1e-12)
    return (
        f"CCDF at gamma={gamma[g_idx]:.2f} over K_T bins {ns}: "
        f"{[f'{p:.2f}' for p in probs]}; exact mixture reconstruction"
    )


@criterion(9, 120)
def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "K": 10, "R": 50.0, "seed": 900, "n_geom": 4, "n_mc": 3,
        "beta": 4.0, "gamma_num": 16, "channel_snr_db": 10.0,
    }))
    # enough rounds, and an odd count, for the estimate to split its
    # rounds into two unequal blocks at 2 workers
    big_path = tmp_path / "config_big.json"
    big_path.write_text(json.dumps({
        "K": 10, "R": 50.0, "seed": 901, "n_mc": 2 * _MIN_BLOCK + 1,
        "beta": 4.0, "channel_snr_db": 10.0,
    }))
    runs = {}
    for tag, args, path in (
        ("est_a", ["estimate"], cfg_path),
        ("est_b", ["estimate"], cfg_path),
        ("out_w1", ["outage", "--workers", "1"], cfg_path),
        ("out_w2", ["outage", "--workers", "2"], cfg_path),
        ("est_w1", ["estimate", "--dump-energies", "--workers", "1"], big_path),
        ("est_w2", ["estimate", "--dump-energies", "--workers", "2"], big_path),
    ):
        out = tmp_path / tag
        assert main(args + ["--config", str(path), "--out", str(out)]) == 0
        runs[tag] = out
    for name in ("estimates.csv", "estimate_summary.json"):
        assert (runs["est_a"] / name).read_bytes() == (runs["est_b"] / name).read_bytes()
    for name in ("outage_curve.csv", "geometry_trials.csv", "outage_curve.json"):
        assert (runs["out_w1"] / name).read_bytes() == (runs["out_w2"] / name).read_bytes()
    for name in ("estimates.csv", "energies.csv", "estimate_summary.json"):
        assert (runs["est_w1"] / name).read_bytes() == (runs["est_w2"] / name).read_bytes()
    # manifests agree on everything except wall-clock fields
    for pair in (("est_a", "est_b"), ("out_w1", "out_w2"), ("est_w1", "est_w2")):
        docs = [json.loads((runs[t] / "run_manifest.json").read_text()) for t in pair]
        for doc in docs:
            for key in ("started_utc", "finished_utc", "duration_s", "workers"):
                doc.pop(key)
        assert docs[0] == docs[1]
    return "reruns and worker counts give byte-identical result files"


@criterion(10, 45 * 60)
def test_criterion_10_total_runtime():
    total = time.monotonic() - _T0
    assert total < 45 * 60, f"acceptance suite took {total / 60:.1f} min"
    return f"criteria 1-9 completed in {total / 60:.1f} min"
