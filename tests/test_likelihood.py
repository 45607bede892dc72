import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr
from scipy.stats import chisquare, norm, wilcoxon

from srcloc import likelihood
from srcloc.config import load_config
from srcloc.crlb import optimize_thresholds
from srcloc.geometry import NetworkGeometry, SourceParams, sample_geometry
from srcloc.likelihood import (
    _EnsembleLikelihood,
    _SearchObjective,
    _newton_polish,
    _seed_points,
    ml_estimate_batch,
)
from srcloc.montecarlo import ROUND_NS, place_geometry, with_thresholds
from srcloc.signal_model import (
    SensorEnsembleConfig,
    received_power,
    simulate_round,
    simulate_rounds,
)
from tests import search_quality, search_reference
from tests.conftest import marginal_energy_cdf, marginal_energy_pdf, ref_config


# objective probes of the search on the 0 dB fixture case, and seeds the
# shared pass scores per round (see test_probe_budget_on_the_fixture_case)
PROBE_BUDGET = 4_520
SEED_BUDGET = 832


def p_one(P_i, beta_i, sigma_i):
    """Probability that a sensor with received power P_i reports a 1."""
    return ndtr((np.sqrt(P_i) - beta_i) / sigma_i)


def ml_estimate(t, geom, cfg, p0_nominal):
    """The production search on one round, a function of its energies t alone."""
    return ml_estimate_batch(np.asarray(t)[None, :], geom, cfg, p0_nominal)[0]


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
        ll = _EnsembleLikelihood(t[None, :], geom, cfg).loglik(
            np.zeros(1, dtype=int), np.array([theta.P0]), np.array([theta.xT]), np.array([theta.yT])
        )
        assert ll[0] == pytest.approx(expected, rel=1e-12)

    def test_sensor_permutation_invariance(self, ref_source):
        geom = sample_geometry(12, 50.0, 0.0, rng=23)
        cfg = ref_config(channel_snr_db=5.0, beta=4.0)
        t = simulate_round(geom, ref_source, cfg, np.random.default_rng(24))
        perm = np.random.default_rng(25).permutation(12)
        geom_p = NetworkGeometry(sensors=geom.sensors[perm], R=geom.R)
        at_source = (
            np.zeros(1, dtype=int), np.array([ref_source.P0]), np.array([ref_source.xT]), np.array([ref_source.yT])
        )
        ll = _EnsembleLikelihood(t[None, :], geom, cfg).loglik(*at_source)
        ll_p = _EnsembleLikelihood(t[None, perm], geom_p, cfg).loglik(*at_source)
        assert ll[0] == pytest.approx(ll_p[0], rel=1e-12)

    def test_finite_for_extreme_parameters(self, ref_source):
        geom = sample_geometry(10, 50.0, 0.0, rng=26)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        t = simulate_round(geom, ref_source, cfg, np.random.default_rng(27))
        # (P0, xT, yT) at the P0 extremes and by the disk edge
        p0, x, y = np.array([[1e-3, -49.0, 0.0], [1e7, 49.0, 0.0], [10_000.0, 0.0, 49.9]]).T
        ll = _EnsembleLikelihood(t[None, :], geom, cfg).loglik(np.zeros(3, dtype=int), p0, x, y)
        assert np.all(np.isfinite(ll))

    def test_gradient_matches_finite_differences(self, ref_source):
        # the module's score vs central differences of the implementation
        geom = sample_geometry(15, 50.0, 0.0, rng=28)
        cfg = ref_config(channel_snr_db=5.0, beta=4.0)
        t = simulate_round(geom, ref_source, cfg, np.random.default_rng(29))
        el = _EnsembleLikelihood(t[None, :], geom, cfg)
        rng = np.random.default_rng(30)
        for _ in range(5):
            theta = SourceParams(10_000.0, rng.uniform(-20, 20), rng.uniform(-20, 20))
            d = np.hypot(geom.sensors[:, 0] - theta.xT, geom.sensors[:, 1] - theta.yT)
            if np.any(d < 2.0):  # keep clear of the clamped region
                continue
            _, grad, _ = el.score(np.zeros(1, dtype=int), np.array([theta.P0]),
                                  np.array([theta.xT]), np.array([theta.yT]))
            analytic = float(grad[0, 0])
            h = 1e-5 * geom.R
            ll = el.loglik(np.zeros(2, dtype=int), np.full(2, theta.P0), theta.xT + np.array([h, -h]),
                           np.full(2, theta.yT))
            fd = (ll[0] - ll[1]) / (2 * h)
            assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-10)


def _kernel_case(obs_snr_db, channel_snr_db, n_rounds=12, n_probes=5000, K=50):
    """Rounds on a K-sensor geometry plus probes from the truth to the disk edge."""
    src = SourceParams(10_000.0, 5.0, 10.0)
    geom = sample_geometry(K, 50.0, 0.0, rng=41)
    cfg = SensorEnsembleConfig.from_snr_db(10_000.0, obs_snr_db, channel_snr_db, beta=4.0)
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

    @pytest.mark.parametrize("channel_snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0])
    @pytest.mark.parametrize("obs_snr_db", [40.0, 60.0])
    def test_score_matches_central_differences(self, obs_snr_db, channel_snr_db):
        # gradient and Hessian in (x, y, ln P0) against central first and
        # second differences of loglik, on _kernel_case's probes plus
        # probes within d0 of a sensor
        ts, geom, cfg, rows, p0, x, y = _kernel_case(obs_snr_db, channel_snr_db, n_probes=400)
        rng = np.random.default_rng(44)
        k = rng.integers(0, geom.K, 40)
        rad, ang = cfg.d0 * rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
        x = np.concatenate([x, geom.sensors[k, 0] + rad * np.cos(ang)])
        y = np.concatenate([y, geom.sensors[k, 1] + rad * np.sin(ang)])
        p0 = np.concatenate([p0, 10_000.0 * 10.0 ** rng.uniform(-3.0, 3.0, 40)])
        rows = np.concatenate([rows, rng.integers(0, len(ts), 40)])
        el = _EnsembleLikelihood(ts, geom, cfg)
        terms = el._log_terms(el._weights(el._offsets(p0, x, y)[3]), rows).copy()
        if obs_snr_db == 60.0 and channel_snr_db >= 30.0:
            assert np.count_nonzero(terms < np.log(el.floor)) > 100
        ll, grad, hess = el.score(rows, p0, x, y)
        np.testing.assert_array_equal(ll, terms.sum(axis=1))

        V = np.column_stack([x, y, np.log(p0)])
        h = np.array([1e-4, 1e-4, 1e-5])
        d = np.hypot(x[:, None] - geom.sensors[:, 0], y[:, None] - geom.sensors[:, 1])
        # a difference across the clamp radius d0 sees the kink, not the slope
        keep = np.all(np.abs(d - cfg.d0) > 3.0 * h[0], axis=1)
        assert np.count_nonzero(keep & np.any(d < cfg.d0, axis=1)) >= 30

        def f(W):
            return el.loglik(rows, np.exp(W[:, 2]), W[:, 0], W[:, 1])

        # rounding of a difference of sums of |T| this large
        noise = 10.0 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        for i in range(3):
            ei = np.eye(3)[i] * h[i]
            fd = (f(V + ei) - f(V - ei)) / (2.0 * h[i])
            err = np.abs(fd - grad[:, i]) - (1e-4 * np.abs(grad[:, i]) + noise / h[i])
            assert np.all(err[keep] <= 0.0), i
            for j in range(3):
                ej = np.eye(3)[j] * h[j]
                fd2 = (f(V + ei + ej) - f(V + ei - ej) - f(V - ei + ej) + f(V - ei - ej)) / (
                    4.0 * h[i] * h[j]
                )
                scale = np.sqrt(np.abs(hess[:, i, i] * hess[:, j, j]))
                err = np.abs(fd2 - hess[:, i, j]) - (1e-4 * scale + noise / (h[i] * h[j]))
                assert np.all(err[keep] <= 0.0), (i, j)

    @pytest.mark.parametrize("obs_snr_db, channel_snr_db", [(40.0, 0.0), (60.0, 40.0)])
    def test_grid_loglik_equals_loglik_row_by_row(self, obs_snr_db, channel_snr_db):
        ts, geom, cfg, _, _, _, _ = _kernel_case(obs_snr_db, channel_snr_db, n_rounds=6)
        el = _EnsembleLikelihood(ts, geom, cfg)
        gp, gx, gy = _seed_points(geom.R, 10_000.0)
        grid = el.grid_loglik(gp, gx, gy)
        assert grid.shape == (6, gx.size)
        for m in range(6):
            np.testing.assert_array_equal(grid[m], el.loglik(np.full(gx.size, m), gp, gx, gy))

    @pytest.mark.parametrize("K", [20, 50])
    @pytest.mark.parametrize("obs_snr_db, channel_snr_db", [(40.0, 0.0), (60.0, 40.0)])
    def test_blocking_is_bit_identical(self, monkeypatch, obs_snr_db, channel_snr_db, K):
        # one probe or round per block against the default element budget,
        # whose last blocks are ragged here (210 rounds, 2,000 probes, 20
        # seeds); at (60, 40) dB the log-domain fallback runs, at (40, 0) dB
        # it is skipped
        ts, geom, cfg, rows, p0, x, y = _kernel_case(obs_snr_db, channel_snr_db, n_rounds=210, n_probes=2000, K=K)
        seeds = [v[:20] for v in _seed_points(geom.R, 10_000.0)]

        def outputs():
            el = _EnsembleLikelihood(ts, geom, cfg)
            assert el.check_floor == (channel_snr_db == 40.0)
            return [el.loglik(rows, p0, x, y), *el.score(rows, p0, x, y), el.grid_loglik(*seeds)]

        default = outputs()
        assert 2000 % (likelihood._ELEMENT_BUDGET // K) != 0
        assert 210 % (likelihood._ELEMENT_BUDGET // (likelihood._GRID_CHUNK * K)) != 0
        monkeypatch.setattr(likelihood, "_ELEMENT_BUDGET", 1)
        for one, whole in zip(outputs(), default, strict=True):
            np.testing.assert_array_equal(one.view(np.int64), whole.view(np.int64))

    def test_work_arrays_bound_the_memory_of_a_call(self):
        # outage-desk-shaped (K = 50, 0 dB, 200 rounds): once its work arrays
        # exist, a call allocates little beyond its outputs, where per-block
        # temporaries of this size would take megabytes
        ts, geom, cfg, rows, p0, x, y = _kernel_case(40.0, 0.0, n_rounds=200, n_probes=5000)
        el = _EnsembleLikelihood(ts, geom, cfg)
        calls = [(el.score, 1400, 1400 * 13 * 8), (el.loglik, 5000, 5000 * 8)]
        for call, m, output_bytes in calls:
            call(rows[:m], p0[:m], x[:m], y[:m])
            tracemalloc.start()
            try:
                call(rows[:m], p0[:m], x[:m], y[:m])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < output_bytes + 1_000_000, (call.__name__, peak)


class TestMlEstimate:
    def test_grid_dominance(self, ref_source):
        geom = sample_geometry(30, 50.0, 0.0, rng=31)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        seeds = _seed_points(geom.R, 10_000.0)
        for m in range(10):
            rng = np.random.default_rng((32, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0)
            grid_best = _EnsembleLikelihood(t[None, :], geom, cfg).grid_loglik(*seeds).max()
            assert est.log_likelihood >= grid_best - 1e-12

    def test_degenerate_all_silent_data_no_crash(self, ref_source):
        geom = sample_geometry(20, 50.0, 0.0, rng=33)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        silent = cfg.with_beta(1e9)  # forces u_i = 0 in the data
        rng = np.random.default_rng(34)
        t = simulate_round(geom, ref_source, silent, rng)
        est = ml_estimate(t, geom, cfg, 1e4)
        assert np.isfinite(est.log_likelihood)
        assert est.theta_hat.xT**2 + est.theta_hat.yT**2 <= geom.R**2 + 1e-9
        assert est.theta_hat.P0 > 0

    def test_estimates_stay_in_search_domain(self, ref_source):
        geom = sample_geometry(25, 50.0, 0.0, rng=35)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        for m in range(15):
            rng = np.random.default_rng((36, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0)
            assert np.hypot(est.theta_hat.xT, est.theta_hat.yT) <= geom.R + 1e-12
            assert 10.0 <= est.theta_hat.P0 <= 1e7

    def test_asymptotic_consistency_high_channel_snr(self, ref_source):
        # favorable fixed geometry, strong channel: RMSE over 200 rounds
        # must come in below 5 length units
        geom = sample_geometry(50, 50.0, 0.0, rng=7)
        cfg = ref_config(channel_snr_db=30.0)
        cfg = cfg.with_beta(optimize_thresholds(ref_source, geom, cfg))
        sq = []
        for m in range(200):
            rng = np.random.default_rng((37, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0)
            sq.append((est.theta_hat.xT - 5.0) ** 2 + (est.theta_hat.yT - 10.0) ** 2)
        assert np.sqrt(np.mean(sq)) < 5.0

    def test_polish_never_raises_the_objective(self, ref_source):
        # every start ends at or below where it began, and most starts are
        # improved by the polish
        geom = sample_geometry(50, 50.0, 5.0, rng=38)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        n = 20
        ts = simulate_rounds(geom, ref_source, cfg, n, np.random.default_rng(39))
        rng = np.random.default_rng(40)
        rows = np.repeat(np.arange(n), 3)
        ang, rad = rng.uniform(0.0, 2.0 * np.pi, 3 * n), 50.0 * np.sqrt(rng.uniform(size=3 * n))
        lnp0 = np.log(1e4) + rng.normal(0.0, 1.0, 3 * n)
        x0s = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), lnp0])
        el = _EnsembleLikelihood(ts, geom, cfg)
        objective = _SearchObjective(el, rows, 50.0, np.log(10.0), np.log(1e7))
        polished, _, _ = _newton_polish(objective.score, x0s, np.array([1.0 / 50.0**2, 1.0 / 50.0**2, 1.0]))
        ids = np.arange(3 * n)
        before, after = objective.score(x0s, ids)[0], objective.score(polished, ids)[0]
        assert np.all(after <= before)
        assert np.count_nonzero(after < before) >= 2 * n

    def test_polish_stops_a_creeping_start_and_not_a_progressing_one(self):
        # f = 100 + (x^2 + y^2)/2 - eps log(z): every Newton step doubles z
        # and gains about eps log 2, without end.  At eps = 1e-9 each gain is
        # below 1e-8 |f|, so the start stops after _STALL_STEPS of them; at
        # eps = 1e-3 every step is real progress and the start runs the
        # whole budget.
        eps = np.array([1e-9, 1e-3])

        def score(V, ids):
            calls[ids] += 1
            x, y, z = V.T
            e = eps[ids]
            with np.errstate(invalid="ignore"):
                f = 100.0 + 0.5 * (x * x + y * y) - e * np.log(z)
            hess = np.zeros((len(V), 3, 3))
            hess[:, 0, 0] = hess[:, 1, 1] = 1.0
            hess[:, 2, 2] = e / z**2
            return f, np.column_stack([x, y, -e / z]), hess

        calls = np.zeros(2, dtype=int)
        x0 = np.array([[1.0, -2.0, 1.0], [1.0, -2.0, 1.0]])
        before = score(x0, np.arange(2))[0]
        calls[:] = 0
        polished, _, converged = _newton_polish(score, x0, np.zeros(3))
        made = calls.copy()
        after = score(polished, np.arange(2))[0]
        assert np.all(after <= before)
        assert np.all(polished[:, 2] > x0[:, 2])
        # the initial score, the steps that solve (x, y), then the stall
        assert made[0] <= likelihood._STALL_STEPS + 5
        assert made[1] == 1 + likelihood._POLISH_MAX_ITER
        assert converged.tolist() == [True, False]

    def test_polish_moves_p0_where_the_location_is_flat(self):
        # f = (z - 5)^2/2 + 1e-3 x + 1e-12 (x^2 + y^2)/2 plus the search's
        # disk penalty at R = 50: near the P0 floor the location's
        # curvature is about 1e-12.  Scaled by |diag H| alone, the damping
        # barely shortens the x step, every trial lands far outside the disk
        # and the damping saturates before z moves; with the search's floor
        # on the scaling the start reaches z = 5 at the disk edge.
        R = 50.0

        def score(V, ids):
            x, y, z = V.T
            r = np.hypot(x, y)
            over = r > R
            f = 0.5 * (z - 5.0) ** 2 + 1e-3 * x + 0.5e-12 * (x * x + y * y)
            g = np.column_stack([1e-3 + 1e-12 * x, 1e-12 * y, z - 5.0])
            H = np.zeros((len(V), 3, 3))
            H[:, 0, 0] = H[:, 1, 1] = 1e-12
            H[:, 2, 2] = 1.0
            u = np.column_stack([x, y])[over] / r[over, None]
            k = 2e6 * (r[over] / R - 1.0) / R
            uu = u[:, :, None] * u[:, None, :]
            f[over] += 1e6 * (r[over] / R - 1.0) ** 2
            g[over, :2] += k[:, None] * u
            H[over, :2, :2] += (k / r[over])[:, None, None] * (np.eye(2) - uu) + 2e6 / R**2 * uu
            return f, g, H

        x0 = np.array([[0.0, 0.0, 2.3]])
        stuck, _, stuck_conv = _newton_polish(score, x0, np.zeros(3))
        moved, _, moved_conv = _newton_polish(score, x0, np.array([1.0 / R**2, 1.0 / R**2, 1.0]))
        assert stuck[0, 2] == 2.3 and not stuck_conv[0]
        assert moved[0, 2] == pytest.approx(5.0, abs=1e-5) and moved_conv[0]
        assert np.hypot(moved[0, 0], moved[0, 1]) == pytest.approx(R, rel=1e-6)

    @pytest.mark.parametrize(
        "seed, geometry_id, m, loglik",
        [(508000, 7, 1, -47.58608395216154), (509000, 3, 164, -59.40028903204369)],
    )
    def test_basin_check_keeps_rounds_a_plain_basin_stop_lost(self, seed, geometry_id, m, loglik):
        # outage-desk rounds where stopping every simplex at basin scale
        # lost a basin, by 0.06 nats (a saddle by the P0 floor) and 0.52
        # nats (a flat slope that a finer simplex walks down); loglik is
        # what the search found before the basin-scale stop
        config = load_config(None, mode="outage", overrides=dict(
            K=50, R=50.0, R_ex=5.0, channel_snr_db=0.0, n_geom=8, n_mc=200, seed=seed))
        geom = place_geometry(config, geometry_id)
        cfg = with_thresholds(config, geom)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(geometry_id, ROUND_NS, m)))
        t = simulate_round(geom, config.source_params, cfg, rng)
        est = ml_estimate(t, geom, cfg, config.P0)
        assert est.log_likelihood >= loglik - 1e-9 * abs(loglik)

    def test_one_ulp_in_the_energies_keeps_the_estimate(self):
        # round 173 of the estimate-fixed benchmark (geometry 0 of ensemble
        # 700, 10 dB, beta = 8) at master seed 501000, whose fitted P0 sat at
        # the range floor, where the likelihood is flat in location; an
        # earlier search landed 67 m apart on energies that differed in
        # the last bits.  Near-ties break toward the smallest (x, y)
        base = dict(K=50, R=50.0, R_ex=5.0)
        geom = place_geometry(load_config(None, mode="estimate", overrides=dict(base, seed=700)), 0)
        config = load_config(None, mode="estimate", overrides=dict(
            base, channel_snr_db=10.0, threshold_mode="fixed", beta=8.0, seed=501000))
        cfg = config.sensor_config()
        found = []
        for direction in (None, np.inf, 0.0):
            rng = np.random.default_rng(np.random.SeedSequence(501000, spawn_key=(0, ROUND_NS, 173)))
            t = simulate_round(geom, config.source_params, cfg, rng)
            if direction is not None:
                t = np.nextafter(t, direction)
            found.append(ml_estimate(t, geom, cfg, config.P0))
        for est in found[1:]:
            assert est.theta_hat.xT == pytest.approx(found[0].theta_hat.xT, abs=1e-6)
            assert est.theta_hat.yT == pytest.approx(found[0].theta_hat.yT, abs=1e-6)
            assert est.theta_hat.P0 == pytest.approx(found[0].theta_hat.P0, rel=1e-9)
            assert est.log_likelihood == pytest.approx(found[0].log_likelihood, rel=1e-12)

    def test_probe_budget_on_the_fixture_case(self, monkeypatch):
        # objective probes of the whole search on the 0 dB case of
        # tests/search_quality.py (the polish's scores; the Nelder-Mead
        # search this replaced made 28,928), and the seeds the shared pass
        # scores per round, so that neither grows unnoticed.  Deterministic.
        probes = [0]
        seeds = []
        score, grid = _SearchObjective.score, _EnsembleLikelihood.grid_loglik

        def counted_score(self, V, sidx):
            probes[0] += len(V)
            return score(self, V, sidx)

        def counted_grid(self, p0, x, y):
            seeds.append(len(x))
            return grid(self, p0, x, y)

        monkeypatch.setattr(_SearchObjective, "score", counted_score)
        monkeypatch.setattr(_EnsembleLikelihood, "grid_loglik", counted_grid)
        index = search_quality.CHANNEL_SNRS_DB.index(0.0)
        case = json.loads(search_quality.FIXTURE.read_text())["cases"][index]
        search_quality.estimate(index, case["channel_snr_db"], case["beta"])
        assert probes[0] <= PROBE_BUDGET
        assert sum(seeds) <= SEED_BUDGET

    def test_returned_loglik_is_the_kernel_value_at_the_estimate(self):
        # the polish's final value stands in for a rescoring inside the
        # search domain, so it must be the raw log-likelihood bit for bit
        index = search_quality.CHANNEL_SNRS_DB.index(0.0)
        case = json.loads(search_quality.FIXTURE.read_text())["cases"][index]
        ts, geom, cfg, p0_nominal = search_quality.rounds(index, case["channel_snr_db"], case["beta"])
        found = ml_estimate_batch(ts, geom, cfg, p0_nominal)
        theta = np.array([[r.theta_hat.P0, r.theta_hat.xT, r.theta_hat.yT] for r in found])
        ll = _EnsembleLikelihood(ts, geom, cfg).loglik(np.arange(len(ts)), *theta.T)
        assert [r.log_likelihood for r in found] == ll.tolist()

    def test_objective_score_matches_central_differences(self, ref_source):
        # the penalized objective's derivatives, inside and outside the disk
        # and below, inside and above the P0 range
        geom = sample_geometry(50, 50.0, 5.0, rng=38)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        ts = simulate_rounds(geom, ref_source, cfg, 4, np.random.default_rng(39))
        ln_lo, ln_hi = np.log(10.0), np.log(1e7)
        el = _EnsembleLikelihood(ts, geom, cfg)
        objective = _SearchObjective(el, np.arange(4), 50.0, ln_lo, ln_hi)
        rad = np.array([20.0, 49.0, 50.5, 53.0] * 3)
        ang = np.linspace(0.3, 5.9, 12)
        lnp0 = np.repeat([ln_lo - 0.2, np.log(1e4), ln_hi + 0.3], 4)
        V = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), lnp0])
        ids = np.arange(12) % 4
        _, grad, hess = objective.score(V, ids)
        h = np.array([1e-5, 1e-5, 1e-6])
        for i in range(3):
            ei = np.eye(3)[i] * h[i]
            fd = (objective.score(V + ei, ids)[0] - objective.score(V - ei, ids)[0]) / (2.0 * h[i])
            np.testing.assert_allclose(grad[:, i], fd, rtol=1e-5, atol=1e-4)
            gd = (objective.score(V + ei, ids)[1] - objective.score(V - ei, ids)[1]) / (2.0 * h[i])
            np.testing.assert_allclose(hess[:, :, i], gd, rtol=1e-5, atol=1e-2)

    def test_block_split_is_bit_identical(self, ref_source):
        geom = sample_geometry(50, 50.0, 5.0, rng=45)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        n, cut = 30, 11
        ts = simulate_rounds(geom, ref_source, cfg, n, np.random.default_rng(46))

        def run(blocks):
            out = {}
            for lo, hi in blocks:
                block = ml_estimate_batch(ts[lo:hi], geom, cfg, 1e4)
                for m, est in zip(range(lo, hi), block):
                    th = est.theta_hat
                    out[m] = (est.log_likelihood, th.P0, th.xT, th.yT, est.converged)
            return [out[m] for m in range(n)]

        whole = run([(0, n)])
        assert run([(0, cut), (cut, n)]) == whole
        assert run([(cut, n), (0, cut)]) == whole

    def test_search_quality_against_frozen_fixture(self):
        # each round's log-likelihood against the fixtures: never more than
        # 1e-3 nats below tests/search_quality.json, and more than 1e-3 nats
        # below tests/search_reference.json's reference in fewer rounds than
        # the search it replaced (the fixture's parent_loglik)
        quality = json.loads(search_quality.FIXTURE.read_text())["cases"]
        assert [c["channel_snr_db"] for c in quality] == list(search_quality.CHANNEL_SNRS_DB)
        reference = json.loads(search_reference.FIXTURE.read_text())["cases"]
        below = parent_below = 0
        for index, (case, (label, args)) in enumerate(zip(reference, search_reference.rounds(), strict=True)):
            assert case["label"] == label
            ll = np.array(search_reference.estimator_loglik(args))
            if index < len(quality):
                assert np.all(ll >= np.array(quality[index]["loglik"]) - 1e-3), label
            ref = np.array(case["reference"])
            below += np.count_nonzero(ll < ref - 1e-3)
            parent_below += np.count_nonzero(np.array(case["parent_loglik"]) < ref - 1e-3)
        assert below < parent_below

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
        cfg = SensorEnsembleConfig.from_snr_db(10_000.0, 60.0, 40.0).with_beta(100.0 / 9.2)
        hits = 0
        n_runs = 40
        for m in range(n_runs):
            rng = np.random.default_rng((77, m))
            t = simulate_round(geom, src, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0)
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
        cfg = cfg.with_beta(optimize_thresholds(ref_source, geom, cfg))
        errs = []
        for m in range(100):
            rng = np.random.default_rng((1234, m))
            t = simulate_round(geom, ref_source, cfg, rng)
            est = ml_estimate(t, geom, cfg, 10_000.0)
            errs.append((est.theta_hat.xT - 5.0) ** 2 + (est.theta_hat.yT - 10.0) ** 2)
        sgle[eta] = np.array(errs)
    med = {eta: np.median(v) for eta, v in sgle.items()}
    assert med[10.0] <= med[0.0] * 1.10
    assert med[20.0] <= med[10.0] * 1.10
    res = wilcoxon(sgle[0.0], sgle[20.0], alternative="greater")
    assert res.pvalue < 0.05
