import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import log_ndtr

from srcloc import (
    DegenerateGeometry,
    NetworkGeometry,
    QuadratureFailure,
    SensorEnsembleConfig,
    SingularFim,
    SourceParams,
    crlb_sgle,
    fisher_information,
    mixture_integral,
    optimize_thresholds,
    received_power,
    sample_geometry,
    simulate_rounds,
)
from srcloc.crlb import _gradients, condition_indicator, per_sensor_term_norms
from tests.conftest import ref_config


def _trapezoid_mixture_integral(P, beta, sigma, eb, tau2, t_hi=400.0, n=4_000_001):
    a, b = 1.0 / (eb + tau2), 1.0 / tau2
    from scipy.stats import norm

    s = (np.sqrt(P) - beta) / sigma
    q0, q1 = norm.cdf(-s), norm.cdf(s)
    t = np.linspace(0.0, t_hi, n)
    g = (a * np.exp(-a * t) - b * np.exp(-b * t)) ** 2
    f = q0 * b * np.exp(-b * t) + q1 * a * np.exp(-a * t)
    return np.trapezoid(g / f, t)


def _quad_mixture_integral(s, eb, tau2):
    """scipy ``quad`` reference, split at the integrand's features.

    Breaks at 2*tau2, 10*tau2, the branch crossing t*, the mixture
    crossover t_cross, a few slow-branch lengths past the last of them,
    and geometric steps from 2*tau2 on, with the rest taken to infinity.
    The integrand is evaluated in log form.
    """
    a, b = 1.0 / (eb + tau2), 1.0 / tau2
    log_qa = float(log_ndtr(s)) + math.log(a)
    log_qb = float(log_ndtr(-s)) + math.log(b)
    t_star = math.log(b / a) / (b - a)

    def f(t):
        # a - b exp(-(b - a) t) without cancellation near t*
        diff = -a * math.expm1((b - a) * (t_star - t))
        if diff == 0.0:
            return 0.0
        log_den = np.logaddexp(log_qa, log_qb - (b - a) * t)
        return math.exp(-a * t + 2.0 * math.log(abs(diff)) - log_den)

    points = {2.0 * tau2, 10.0 * tau2, t_star}
    t_cross = (log_qb - log_qa) / (b - a)
    if t_cross > 0.0:
        points.add(t_cross)
    last = max(points)
    points.update(last + k / a for k in (1.0, 5.0, 20.0))
    t = 2.0 * tau2
    while t < last + 20.0 / a:
        points.add(t)
        t *= 4.0
    edges = [0.0] + sorted(points) + [math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(
            quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )


def g_matrix(theta, sensor, d0, alpha):
    """Rank-one geometry factor v v^T of one sensor's information term."""
    v = _gradients(theta, np.asarray(sensor, dtype=float).reshape(1, 2), alpha)[0]
    return np.outer(v, v)


class TestGMatrix:
    def test_axis_aligned_sensor(self):
        # sensor at (xT + d, yT): only the x-direction carries position
        # information; the P0/x cross term is alpha*(x_i - xT)/d^2 = +alpha/d
        theta = SourceParams(10_000.0, 5.0, 10.0)
        G = g_matrix(theta, (9.0, 10.0), d0=1.0, alpha=2.0)
        d = 4.0
        assert G[1, 1] == pytest.approx(10_000.0 * 4.0 / d**2, rel=1e-12)
        assert G[2, 2] == 0.0
        assert G[1, 2] == 0.0
        assert G[0, 1] == pytest.approx(2.0 / d, rel=1e-12)

    def test_direct_arithmetic(self):
        theta = SourceParams(10_000.0, 5.0, 10.0)
        G = g_matrix(theta, (8.0, 14.0), d0=1.0, alpha=2.0)
        assert G[1, 1] == pytest.approx(10_000.0 * 4.0 * 9.0 / 625.0, rel=1e-12)  # 576
        assert G[2, 2] == pytest.approx(10_000.0 * 4.0 * 16.0 / 625.0, rel=1e-12)
        assert G[0, 0] == pytest.approx(1e-4, rel=1e-12)
        assert G[1, 2] == pytest.approx(10_000.0 * 4.0 * 12.0 / 625.0, rel=1e-12)

    def test_symmetric_and_rank_one(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            theta = SourceParams(rng.uniform(10, 1e5), rng.uniform(-20, 20), rng.uniform(-20, 20))
            sensor = (theta.xT + rng.uniform(0.5, 30), theta.yT + rng.uniform(0.5, 30))
            G = g_matrix(theta, sensor, d0=1.0, alpha=rng.uniform(1.5, 4.0))
            np.testing.assert_array_equal(G, G.T)
            scale = np.abs(G).max()
            for i in range(3):
                for j in range(i + 1, 3):
                    for k in range(3):
                        for l in range(k + 1, 3):
                            minor = G[i, k] * G[j, l] - G[i, l] * G[j, k]
                            assert abs(minor) <= 1e-10 * scale * scale

    def test_coincident_sensor_raises(self):
        with pytest.raises(DegenerateGeometry):
            g_matrix(SourceParams(1.0, 5.0, 10.0), (5.0, 10.0), 1.0, 2.0)


class TestMixtureIntegral:
    @pytest.mark.parametrize("channel_snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0])
    def test_against_quad_reference(self, channel_snr_db):
        # every s at which a sensor's weight exp(-s^2) is nonzero
        cfg = ref_config(channel_snr_db)
        eb, tau2 = float(cfg.eb), float(cfg.tau2)
        s = np.arange(-27.0, 27.01, 0.5)
        got = mixture_integral(s, eb, tau2)
        ref = np.array([_quad_mixture_integral(v, eb, tau2) for v in s])
        np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0.0)

    def test_zero_transmit_energy(self):
        assert mixture_integral((10.0 - 5.0) / 1.0, 0.0, 1.0) == 0.0

    def test_against_dense_trapezoid(self):
        # balanced mixture weights, eb = tau2 = 1
        val = mixture_integral((2.0 - 2.0) / 1.0, 1.0, 1.0)
        oracle = _trapezoid_mixture_integral(4.0, 2.0, 1.0, 1.0, 1.0, t_hi=200.0)
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_random_parameters_against_trapezoid(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            P = rng.uniform(0.0, 200.0)
            beta = rng.uniform(-3.0, 18.0)
            sigma = rng.uniform(0.3, 3.0)
            eb = rng.uniform(0.2, 5.0)
            tau2 = rng.uniform(0.2, 5.0)
            val = mixture_integral((np.sqrt(P) - beta) / sigma, eb, tau2)
            oracle = _trapezoid_mixture_integral(P, beta, sigma, eb, tau2, t_hi=600.0)
            assert val == pytest.approx(oracle, rel=1e-5)

    def test_energy_scale_invariance(self):
        # rescaling (eb, tau2) by c rescales the integrand pointwise by 1/c
        # under t -> ct, and the measure change cancels it exactly
        s = (2.0 - 2.0) / 1.0
        base = mixture_integral(s, 1.0, 1.0)
        for c in (0.3, 3.7, 11.0):
            scaled = mixture_integral(s, c * 1.0, c * 1.0)
            assert scaled == pytest.approx(base, rel=1e-7)
            oracle = _trapezoid_mixture_integral(4.0, 2.0, 1.0, c, c, t_hi=200.0 * max(1, c))
            assert scaled == pytest.approx(oracle, rel=1e-6)

    def test_divergent_degenerate_weights(self):
        # the always-silent limit with eb > tau2 genuinely diverges
        with pytest.raises(QuadratureFailure):
            mixture_integral((1.0 - 1e3) / 1.0, 4.0, 1.0)

    def test_convergent_degenerate_weights(self):
        # always-silent limit but eb < tau2: integrable; check the oracle
        val = mixture_integral((1.0 - 1e3) / 1.0, 0.5, 2.0)
        oracle = _trapezoid_mixture_integral(1.0, 1e3, 1.0, 0.5, 2.0, t_hi=800.0)
        assert val == pytest.approx(oracle, rel=1e-5)


class TestFisherInformation:
    def test_additive_over_sensors(self, ref_source):
        geom = sample_geometry(4, 50.0, 0.0, rng=42)
        cfg = ref_config(channel_snr_db=3.0, beta=4.0)
        total = fisher_information(ref_source, geom, cfg)
        parts = sum(
            fisher_information(
                ref_source, NetworkGeometry(sensors=geom.sensors[i : i + 1], R=geom.R), cfg
            )
            for i in range(4)
        )
        np.testing.assert_allclose(total, parts, rtol=1e-12, atol=0.0)

    def test_symmetric_psd_random_draws(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            geom = sample_geometry(int(rng.integers(3, 12)), 30.0, 0.0, rng=rng)
            theta = SourceParams(rng.uniform(100, 1e5), rng.uniform(-10, 10), rng.uniform(-10, 10))
            cfg = SensorEnsembleConfig(
                d0=1.0,
                alpha=2.0,
                sigma2=rng.uniform(0.5, 4.0),
                beta=rng.uniform(0.0, 10.0),
                eb=rng.uniform(0.5, 4.0),
                tau2=rng.uniform(0.5, 4.0),
            )
            fim = fisher_information(theta, geom, cfg)
            np.testing.assert_array_equal(fim, fim.T)
            eigs = np.linalg.eigvalsh(fim)
            assert eigs.min() >= -1e-10 * max(np.trace(fim), 1e-300)

    def test_coincident_sensor_raises(self):
        geom = NetworkGeometry(sensors=np.array([[5.0, 10.0], [1.0, 1.0]]), R=20.0)
        with pytest.raises(DegenerateGeometry):
            fisher_information(SourceParams(100.0, 5.0, 10.0), geom, ref_config(0.0))

    def test_score_variance_oracle_quick(self, toy_triangle):
        # E[(d ln f / d xT)^2] from simulation vs the analytic (2,2) entry
        src = SourceParams(900.0, 4.0, 2.0)
        cfg = SensorEnsembleConfig(d0=1.0, alpha=2.0, sigma2=4.0, beta=5.0, eb=2.0, tau2=1.5)
        fim = fisher_information(src, toy_triangle, cfg)
        T = simulate_rounds(toy_triangle, src, cfg, 200_000, np.random.default_rng(44))

        def batch_ll(xT):
            d = np.hypot(xT - toy_triangle.sensors[:, 0], src.yT - toy_triangle.sensors[:, 1])
            P = received_power(src.P0, 1.0, 2.0, d)
            s = (np.sqrt(P) - 5.0) / 2.0
            lf0 = -T / 1.5 - np.log(1.5)
            lf1 = -T / 3.5 - np.log(3.5)
            return np.logaddexp(lf0 + log_ndtr(-s), lf1 + log_ndtr(s)).sum(axis=1)

        h = 1e-3
        score = (batch_ll(src.xT + h) - batch_ll(src.xT - h)) / (2 * h)
        assert np.mean(score**2) == pytest.approx(fim[1, 1], rel=0.05)


class TestCrlbSgle:
    def test_single_sensor_singular(self, ref_source):
        geom = NetworkGeometry(sensors=np.array([[20.0, 0.0]]), R=50.0)
        with pytest.raises(SingularFim):
            crlb_sgle(ref_source, geom, ref_config(channel_snr_db=0.0, beta=4.0))

    def test_collinear_geometry_singular(self):
        geom = NetworkGeometry(
            sensors=np.array([[5.0, 0.0], [10.0, 0.0], [-8.0, 0.0], [17.0, 0.0]]), R=20.0
        )
        theta = SourceParams(10_000.0, 0.0, 0.0)
        cfg = SensorEnsembleConfig(d0=1.0, alpha=2.0, sigma2=1.0, beta=5.0, eb=2.0, tau2=1.0)
        fim = fisher_information(theta, geom, cfg)
        assert fim[2, 2] == 0.0  # no information along the empty axis
        with pytest.raises(SingularFim):
            crlb_sgle(theta, geom, cfg)

    def test_doubling_sensors_halves_bound(self, ref_source):
        geom = sample_geometry(8, 50.0, 0.0, rng=45)
        cfg = ref_config(channel_snr_db=3.0, beta=4.0)
        doubled = NetworkGeometry(sensors=np.vstack([geom.sensors, geom.sensors]), R=geom.R)
        b1 = crlb_sgle(ref_source, geom, cfg).sgle_bound
        b2 = crlb_sgle(ref_source, doubled, cfg).sgle_bound
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_bound_decreases_with_channel_snr(self, ref_source):
        geom = sample_geometry(50, 50.0, 5.0, rng=1)
        bounds = []
        for eta in (0.0, 5.0, 10.0, 15.0, 20.0):
            cfg = ref_config(channel_snr_db=eta)
            tuned = optimize_thresholds(ref_source, geom, cfg)
            bounds.append(crlb_sgle(ref_source, geom, cfg.with_beta(tuned.beta)).sgle_bound)
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_rotation_invariance(self, ref_source):
        geom = sample_geometry(12, 40.0, 0.0, rng=46)
        cfg = ref_config(channel_snr_db=5.0, beta=4.0)
        base = crlb_sgle(ref_source, geom, cfg).sgle_bound
        for phi in (0.3, 1.2, 2.7):
            c, s = np.cos(phi), np.sin(phi)
            rot = np.array([[c, -s], [s, c]])
            geom_r = NetworkGeometry(sensors=geom.sensors @ rot.T, R=geom.R)
            sx, sy = rot @ np.array([ref_source.xT, ref_source.yT])
            src_r = SourceParams(ref_source.P0, sx, sy)
            rotated = crlb_sgle(src_r, geom_r, cfg).sgle_bound
            assert rotated == pytest.approx(base, rel=1e-8)

    def test_condition_indicator(self):
        assert condition_indicator(np.diag([1.0, 2.0, 4.0])) == 4.0
        assert condition_indicator(np.diag([1.0, 1.0, 0.0])) == np.inf

    def test_subnormal_fim_raises_instead_of_nan(self, ref_source):
        # all-subnormal eigenvalues pass the ratio gate but overflow the
        # inverse; this must surface as SingularFim, never as a nan bound
        geom = sample_geometry(4, 50.0, 0.0, rng=53)
        cfg = ref_config(channel_snr_db=0.0, beta=4.0)
        dead = np.diag([1e-320, 2e-321, 5e-322])
        with pytest.raises(SingularFim):
            crlb_sgle(ref_source, geom, cfg, fim=dead)

    def test_per_sensor_term_norms(self, ref_source):
        geom = sample_geometry(6, 50.0, 0.0, rng=47)
        cfg = ref_config(channel_snr_db=3.0, beta=4.0)
        norms = per_sensor_term_norms(ref_source, geom, cfg)
        assert norms.shape == (6,)
        assert np.all(norms >= 0)


PER_SENSOR_SNRS_DB = [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0]


def _random_geometry(channel_snr_db, k):
    """Geometry k of the per-sensor cases at this SNR: K = 6 to 10, R = 50."""
    rng = np.random.default_rng([55, int(channel_snr_db) + 10, k])
    return sample_geometry(int(rng.integers(6, 11)), 50.0, 0.0, rng=rng)


class TestOptimizeThresholds:
    def test_beats_grid_scan(self, ref_source):
        geom = sample_geometry(15, 50.0, 0.0, rng=48)
        cfg = ref_config(channel_snr_db=0.0)
        tuned = optimize_thresholds(ref_source, geom, cfg)
        grid = np.linspace(0.0, np.sqrt(ref_source.P0), 200)
        grid_objs = []
        for b in grid:
            try:
                grid_objs.append(crlb_sgle(ref_source, geom, cfg.with_beta(float(b))).sgle_bound)
            except SingularFim:
                grid_objs.append(np.inf)
        grid_objs = np.array(grid_objs)
        k = int(np.argmin(grid_objs))
        local = np.abs(grid_objs[max(0, k - 1) : k + 2] - grid_objs[k]).max()
        assert tuned.sgle_bound <= grid_objs[k] + local + 1e-12

    def test_all_silent_thresholds_singular(self, ref_source):
        geom = sample_geometry(10, 50.0, 0.0, rng=49)
        cfg = ref_config(channel_snr_db=0.0, beta=1e9)
        # information vanishes when every sensor is pushed silent
        with pytest.raises(SingularFim):
            crlb_sgle(ref_source, geom, cfg)

    def test_reflection_symmetry(self, ref_source):
        geom = sample_geometry(12, 50.0, 0.0, rng=50)
        cfg = ref_config(channel_snr_db=0.0)
        tuned = optimize_thresholds(ref_source, geom, cfg)
        mirrored = NetworkGeometry(sensors=geom.sensors * np.array([1.0, -1.0]), R=geom.R)
        src_m = SourceParams(ref_source.P0, ref_source.xT, -ref_source.yT)
        tuned_m = optimize_thresholds(src_m, mirrored, cfg)
        assert tuned_m.beta == tuned.beta

    def test_per_sensor_no_worse_than_common(self, ref_source):
        cases = [(sample_geometry(6, 50.0, 0.0, rng=51), 3.0)]
        cases += [(_random_geometry(snr, k), snr) for snr in PER_SENSOR_SNRS_DB for k in range(2)]
        for geom, snr in cases:
            cfg = ref_config(channel_snr_db=snr)
            common = optimize_thresholds(ref_source, geom, cfg, mode="common")
            per = optimize_thresholds(ref_source, geom, cfg, mode="per-sensor")
            assert per.beta.shape == (geom.K,)
            assert per.sgle_bound <= common.sgle_bound + 1e-12

    @pytest.mark.parametrize("channel_snr_db", PER_SENSOR_SNRS_DB)
    def test_per_sensor_thresholds_coordinatewise_optimal(self, ref_source, channel_snr_db):
        # no sensor's threshold, moved alone across the common-mode bracket,
        # lowers the per-sensor bound
        cfg = ref_config(channel_snr_db)
        sigma = math.sqrt(float(cfg.sigma2))
        grid = np.linspace(-3.0 * sigma, math.sqrt(ref_source.P0) + 3.0 * sigma, 65)
        for k in range(2):
            geom = _random_geometry(channel_snr_db, k)
            per = optimize_thresholds(ref_source, geom, cfg, mode="per-sensor")
            for i in range(geom.K):
                for b in grid:
                    beta = per.beta.copy()
                    beta[i] = b
                    try:
                        bound = crlb_sgle(ref_source, geom, cfg.with_beta(beta)).sgle_bound
                    except SingularFim:
                        continue
                    assert bound >= per.sgle_bound * (1.0 - 1e-12), (i, b)

    def test_per_sensor_two_basin_geometry(self, ref_source):
        # the bound as a function of sensor 33's threshold alone has two
        # basins here, and settling in the worse one gives 1.56161
        geom = sample_geometry(50, 50.0, 5.0, rng=7)
        per = optimize_thresholds(ref_source, geom, ref_config(10.0), mode="per-sensor")
        assert per.sgle_bound <= 1.5402

    def test_unknown_mode_rejected(self, ref_source):
        geom = sample_geometry(4, 50.0, 0.0, rng=52)
        with pytest.raises(ValueError):
            optimize_thresholds(ref_source, geom, ref_config(0.0), mode="bogus")
