import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr
from scipy.stats import chisquare, norm, wilcoxon

from srcloc import (
    NetworkGeometry,
    SensorEnsembleConfig,
    SourceParams,
    log_likelihood,
    optimize_thresholds,
    received_power,
    sample_geometry,
    simulate_round,
    simulate_rounds,
)
from srcloc.likelihood import (
    _N_RANDOM_STARTS,
    _N_STARTS,
    _EnsembleLikelihood,
    _polar_grid_seeds,
    ml_estimate_batch,
)
from tests.conftest import marginal_energy_cdf, marginal_energy_pdf, ref_config


def p_one(P_i, beta_i, sigma_i):
    """Probability that a sensor with received power P_i reports a 1."""
    return ndtr((np.sqrt(P_i) - beta_i) / sigma_i)


def ml_estimate(t, geom, cfg, p0_nominal, rng):
    """The production search on one round, with its random start from rng."""
    return ml_estimate_batch(np.asarray(t)[None, :], geom, cfg, p0_nominal, [rng])[0]


class TestPOne:
    def test_threshold_at_amplitude_is_half(self):
        assert p_one(100.0, 10.0, 1.0) == pytest.approx(0.5)

    def test_extreme_thresholds(self):
        assert p_one(100.0, 1e6, 1.0) == 0.0
        assert p_one(100.0, -1e6, 1.0) == 1.0

    def test_against_gaussian_tail_table(self):
        # sqrt(P)=100, beta=99, sigma=1: one sigma below the amplitude
        assert p_one(10_000.0, 99.0, 1.0) == pytest.approx(0.841345, abs=1e-6)
        assert p_one(10_000.0, 99.0, 1.0) == pytest.approx(norm.sf(-1.0), rel=1e-12)

    @given(
        st.floats(0.0, 1e6),
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
        st.floats(0.01, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_in_unit_interval_and_monotone(self, P, b1, b2, sigma):
        lo, hi = min(b1, b2), max(b1, b2)
        p_lo, p_hi = p_one(P, lo, sigma), p_one(P, hi, sigma)
        assert 0.0 <= p_hi <= p_lo <= 1.0


class TestMarginalEnergyPdf:
    def test_equal_weights_at_origin(self):
        # sqrt(P)=beta: both mixture weights are 1/2
        eb, tau2 = 2.0, 0.5
        val = marginal_energy_pdf(0.0, 25.0, 5.0, 1.0, eb, tau2)
        assert val == pytest.approx(0.5 / tau2 + 0.5 / (eb + tau2), rel=1e-12)

    def test_silent_sensor_is_pure_noise_exponential(self):
        t = np.linspace(0.0, 20.0, 200)
        val = marginal_energy_pdf(t, 25.0, 1e6, 1.0, 2.0, 0.5)
        np.testing.assert_allclose(val, np.exp(-t / 0.5) / 0.5, rtol=1e-12)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            marginal_energy_pdf(-0.1, 25.0, 5.0, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            marginal_energy_cdf(-0.1, 25.0, 5.0, 1.0, 2.0, 0.5)

    def test_normalization_random_draws(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            args = (
                rng.uniform(0.0, 400.0),
                rng.uniform(-5.0, 25.0),
                rng.uniform(0.2, 4.0),
                rng.uniform(0.1, 10.0),
                rng.uniform(0.1, 10.0),
            )
            val, _ = quad(marginal_energy_pdf, 0.0, np.inf, args=args)
            assert abs(val - 1.0) < 1e-8

    def test_cdf_matches_pdf_integral(self):
        args = (49.0, 6.0, 1.3, 2.0, 0.8)
        for t_hi in (0.3, 1.7, 6.0):
            val, _ = quad(marginal_energy_pdf, 0.0, t_hi, args=args)
            assert val == pytest.approx(marginal_energy_cdf(t_hi, *args), abs=1e-10)

    def test_simulated_energies_match_pdf_chisquare(self, ref_source):
        # equal-probability bins from the analytic CDF; expected count per
        # bin is n/nbins, so chi-square directly checks the mixture shape
        geom = sample_geometry(4, 50.0, 0.0, rng=21)
        cfg = ref_config(channel_snr_db=5.0, beta=4.0)
        beta = cfg.thresholds(geom.K)
        d = np.hypot(geom.sensors[:, 0] - 5.0, geom.sensors[:, 1] - 10.0)
        P = received_power(10_000.0, 1.0, 2.0, d)
        n = 100_000
        t = simulate_rounds(geom, ref_source, cfg, n, np.random.default_rng(22))
        nbins = 40
        for i in range(geom.K):
            args = (P[i], beta[i], np.sqrt(cfg.sigma2), cfg.eb, cfg.tau2)
            edges = [
                brentq(lambda v: marginal_energy_cdf(v, *args) - p, 0.0, 1e4)
                for p in np.linspace(0.0, 1.0, nbins + 1)[1:-1]
            ]
            counts, _ = np.histogram(t[:, i], bins=[0.0] + edges + [np.inf])
            result = chisquare(counts)
            assert result.pvalue >= 0.01, f"sensor {i}: p={result.pvalue}"


class TestLogLikelihood:
    def test_single_sensor_equals_log_pdf(self):
        geom = NetworkGeometry(sensors=np.array([[3.0, 4.0]]), R=10.0)
        theta = SourceParams(100.0, 0.0, 0.0)
        cfg = SensorEnsembleConfig(d0=1.0, alpha=2.0, sigma2=1.0, beta=1.5, eb=2.0, tau2=0.5)
        t = np.array([0.7])
        P = received_power(100.0, 1.0, 2.0, 5.0)
        expected = np.log(marginal_energy_pdf(0.7, P, 1.5, 1.0, 2.0, 0.5))
        assert log_likelihood(t, theta, geom, cfg) == pytest.approx(expected, rel=1e-12)

    def test_sensor_permutation_invariance(self, ref_source):
        geom = sample_geometry(12, 50.0, 0.0, rng=23)
        cfg = ref_config(channel_snr_db=5.0, beta=4.0)
        t = simulate_round(geom, ref_source, cfg, np.random.default_rng(24))
        perm = np.random.default_rng(25).permutation(12)
        geom_p = NetworkGeometry(sensors=geom.sensors[perm], R=geom.R)
        assert log_likelihood(t, ref_source, geom, cfg) == pytest.approx(
            log_likelihood(t[perm], ref_source, geom_p, cfg), rel=1e-12
        )

    def test_finite_for_extreme_parameters(self, ref_source):
        geom = sample_geometry(10, 50.0, 0.0, rng=26)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        t = simulate_round(geom, ref_source, cfg, np.random.default_rng(27))
        for theta in (
            SourceParams(1e-3, -49.0, 0.0),
            SourceParams(1e7, 49.0, 0.0),
            SourceParams(10_000.0, 0.0, 49.9),
        ):
            assert np.isfinite(log_likelihood(t, theta, geom, cfg))

    def test_gradient_matches_finite_differences(self, ref_source):
        # analytic score (chain rule through the mixture weights) vs
        # central differences of the implementation
        geom = sample_geometry(15, 50.0, 0.0, rng=28)
        cfg = ref_config(channel_snr_db=5.0, beta=4.0)
        sigma2, beta, eb, tau2 = cfg.sigma2, cfg.thresholds(geom.K), cfg.eb, cfg.tau2
        t = simulate_round(geom, ref_source, cfg, np.random.default_rng(29))
        rng = np.random.default_rng(30)
        for _ in range(5):
            theta = SourceParams(10_000.0, rng.uniform(-20, 20), rng.uniform(-20, 20))
            d = np.hypot(geom.sensors[:, 0] - theta.xT, geom.sensors[:, 1] - theta.yT)
            if np.any(d < 2.0):  # keep clear of the clamped region
                continue
            P = received_power(theta.P0, 1.0, 2.0, d)
            sqrt_p = np.sqrt(P)
            s = (sqrt_p - beta) / np.sqrt(sigma2)
            a, b = 1.0 / (eb + tau2), 1.0 / tau2
            f = (
                norm.cdf(-s) * b * np.exp(-b * t)
                + norm.cdf(s) * a * np.exp(-a * t)
            )
            dsqrtp_dx = -cfg.alpha * sqrt_p * (theta.xT - geom.sensors[:, 0]) / (2 * d**2)
            dq1_dx = norm.pdf(s) / np.sqrt(sigma2) * dsqrtp_dx
            analytic = float(
                np.sum(dq1_dx * (a * np.exp(-a * t) - b * np.exp(-b * t)) / f)
            )
            h = 1e-5 * geom.R
            fd = (
                log_likelihood(t, SourceParams(theta.P0, theta.xT + h, theta.yT), geom, cfg)
                - log_likelihood(t, SourceParams(theta.P0, theta.xT - h, theta.yT), geom, cfg)
            ) / (2 * h)
            assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-10)


def _kernel_case(obs_snr_db, channel_snr_db, n_rounds=12, n_probes=5000):
    """Rounds on a K=50 geometry plus probes from the truth to the disk edge."""
    src = SourceParams(10_000.0, 5.0, 10.0)
    geom = sample_geometry(50, 50.0, 0.0, rng=41)
    cfg = SensorEnsembleConfig.from_snr_db(10_000.0, obs_snr_db, channel_snr_db, 1.0, beta=4.0)
    ts = simulate_rounds(geom, src, cfg, n_rounds, np.random.default_rng((42, int(channel_snr_db) + 10)))
    rng = np.random.default_rng(43)
    # rays from the truth to the edge of the disk, at every distance along them
    ang = rng.uniform(0.0, 2.0 * np.pi, n_probes)
    ux, uy = np.cos(ang), np.sin(ang)
    b = src.xT * ux + src.yT * uy
    reach = -b + np.sqrt(b * b - (src.xT**2 + src.yT**2 - geom.R**2))
    frac = np.concatenate(([0.0, 1e-3, 1.0], rng.uniform(0.0, 1.0, n_probes - 3)))
    x = src.xT + frac * reach * ux
    y = src.yT + frac * reach * uy
    p0 = src.P0 * 10.0 ** rng.uniform(-3.0, 3.0, n_probes)
    rows = rng.integers(0, n_rounds, n_probes)
    return ts, geom, cfg, rows, p0, x, y


def _log_domain_terms(ts, geom, cfg, p0, x, y):
    """(probes, K) mixture terms as log_ndtr weights combined with logaddexp."""
    sigma2, beta, eb, tau2 = cfg.sigma2, cfg.thresholds(geom.K), cfg.eb, cfg.tau2
    d2 = (x[:, None] - geom.sensors[:, 0]) ** 2 + (y[:, None] - geom.sensors[:, 1]) ** 2
    P = p0[:, None] * (cfg.d0**2 / np.maximum(d2, cfg.d0**2)) ** (cfg.alpha / 2.0)
    s = (np.sqrt(P) - beta) / np.sqrt(sigma2)
    return np.logaddexp(
        -ts / tau2 - np.log(tau2) + log_ndtr(-s),
        -ts / (eb + tau2) - np.log(eb + tau2) + log_ndtr(s),
    )


class TestEnsembleKernel:
    @pytest.mark.parametrize("channel_snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize("obs_snr_db", [40.0, 60.0])
    def test_matches_log_domain_reference(self, obs_snr_db, channel_snr_db):
        ts, geom, cfg, rows, p0, x, y = _kernel_case(obs_snr_db, channel_snr_db)
        ours = _EnsembleLikelihood(ts, geom, cfg).loglik(rows, p0, x, y)
        ref = _log_domain_terms(ts[rows], geom, cfg, p0, x, y)
        assert np.all(np.isfinite(ours))
        # per-probe sums to rel 1e-12 of the summed term magnitudes, which
        # stays meaningful where positive and negative terms cancel
        err = np.abs(ours - ref.sum(axis=1))
        assert np.all(err <= 1e-12 * np.abs(ref).sum(axis=1))
        if obs_snr_db == 60.0 and channel_snr_db >= 30.0:
            # sharp sensors and a clean channel: f0 of a bit-1 energy and
            # q1 of a far probe both underflow, so the linear term is 0
            assert np.count_nonzero(ref < np.log(np.finfo(float).tiny)) > 100

    @pytest.mark.parametrize("obs_snr_db, channel_snr_db", [(40.0, 0.0), (60.0, 40.0)])
    def test_grid_loglik_equals_loglik_row_by_row(self, obs_snr_db, channel_snr_db):
        ts, geom, cfg, _, _, _, _ = _kernel_case(obs_snr_db, channel_snr_db, n_rounds=6)
        el = _EnsembleLikelihood(ts, geom, cfg)
        gp, gx, gy = _polar_grid_seeds(geom.R, 10_000.0)
        grid = el.grid_loglik(gp, gx, gy)
        assert grid.shape == (6, gx.size)
        for m in range(6):
            np.testing.assert_array_equal(grid[m], el.loglik(np.full(gx.size, m), gp, gx, gy))


class TestMlEstimate:
    def test_grid_dominance(self, ref_source):
        geom = sample_geometry(30, 50.0, 0.0, rng=31)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        seeds = _polar_grid_seeds(geom.R, 10_000.0)
        for m in range(10):
            rng = np.random.default_rng((32, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0, rng)
            grid_best = _EnsembleLikelihood(t[None, :], geom, cfg).grid_loglik(*seeds).max()
            assert est.log_likelihood >= grid_best - 1e-12

    def test_degenerate_all_silent_data_no_crash(self, ref_source):
        geom = sample_geometry(20, 50.0, 0.0, rng=33)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        silent = cfg.with_beta(1e9)  # forces u_i = 0 in the data
        rng = np.random.default_rng(34)
        t = simulate_round(geom, ref_source, silent, rng)
        est = ml_estimate(t, geom, cfg, 1e4, rng)
        assert np.isfinite(est.log_likelihood)
        assert est.theta_hat.xT**2 + est.theta_hat.yT**2 <= geom.R**2 + 1e-9
        assert est.theta_hat.P0 > 0

    def test_estimates_stay_in_search_domain(self, ref_source):
        geom = sample_geometry(25, 50.0, 0.0, rng=35)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        for m in range(15):
            rng = np.random.default_rng((36, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0, rng)
            assert np.hypot(est.theta_hat.xT, est.theta_hat.yT) <= geom.R + 1e-12
            assert 10.0 <= est.theta_hat.P0 <= 1e7
            assert est.starts_used == _N_STARTS + _N_RANDOM_STARTS

    def test_asymptotic_consistency_high_channel_snr(self, ref_source):
        # favorable fixed geometry, strong channel: RMSE over 200 rounds
        # must come in below 5 length units
        geom = sample_geometry(50, 50.0, 0.0, rng=7)
        cfg = ref_config(channel_snr_db=30.0)
        tuned = optimize_thresholds(ref_source, geom, cfg)
        cfg = cfg.with_beta(tuned.beta)
        sq = []
        for m in range(200):
            rng = np.random.default_rng((37, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0, rng)
            sq.append((est.theta_hat.xT - 5.0) ** 2 + (est.theta_hat.yT - 10.0) ** 2)
        assert np.sqrt(np.mean(sq)) < 5.0

    @pytest.mark.xfail(
        strict=True,
        reason="the joint P0 search ends far below the truth's likelihood on this "
        "sharp instance (ROADMAP item 2)",
    )
    def test_two_ring_instance_under_joint_p0_search(self):
        # near-noiseless observations, clean channel, eight sensors on two
        # tight rings around the source: the likelihood cell around the
        # truth is sharp and the search must land inside it
        src = SourceParams(10_000.0, 5.0, 10.0)
        inner_a = 2 * np.pi * np.arange(4) / 4
        outer_a = 2 * np.pi * (np.arange(4) + 0.5) / 4
        sensors = np.vstack(
            [
                np.column_stack([5.0 + 8.9 * np.cos(inner_a), 10.0 + 8.9 * np.sin(inner_a)]),
                np.column_stack([5.0 + 9.5 * np.cos(outer_a), 10.0 + 9.5 * np.sin(outer_a)]),
            ]
        )
        geom = NetworkGeometry(sensors=sensors, R=50.0)
        cfg = SensorEnsembleConfig.from_snr_db(10_000.0, 60.0, 40.0, 1.0).with_beta(100.0 / 9.2)
        hits = 0
        n_runs = 40
        for m in range(n_runs):
            rng = np.random.default_rng((77, m))
            t = simulate_round(geom, src, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0, rng)
            hits += np.hypot(est.theta_hat.xT - 5.0, est.theta_hat.yT - 10.0) < 0.5
        assert hits >= 0.95 * n_runs


@pytest.mark.slow
def test_monotone_quality_in_channel_snr(ref_source):
    # matched noise seeds across the channel-SNR sweep: better channels
    # must not increase the median squared location error
    geom = sample_geometry(50, 50.0, 0.0, rng=7)
    sgle = {}
    for eta in (0.0, 10.0, 20.0):
        cfg = ref_config(channel_snr_db=eta)
        cfg = cfg.with_beta(optimize_thresholds(ref_source, geom, cfg).beta)
        errs = []
        for m in range(100):
            rng = np.random.default_rng((1234, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0, rng)
            errs.append((est.theta_hat.xT - 5.0) ** 2 + (est.theta_hat.yT - 10.0) ** 2)
        sgle[eta] = np.array(errs)
    med = {eta: np.median(v) for eta, v in sgle.items()}
    assert med[10.0] <= med[0.0] * 1.10
    assert med[20.0] <= med[10.0] * 1.10
    res = wilcoxon(sgle[0.0], sgle[20.0], alternative="greater")
    assert res.pvalue < 0.05
