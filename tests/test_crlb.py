import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import log_ndtr, ndtr

from srcloc import crlb
from srcloc.crlb import (
    CONDITION_LIMIT,
    _CURVE_HALF_WIDTH,
    _assemble,
    _bounds,
    _checked_bound,
    _exact_terms,
    _gradients,
    _information_curve,
    _normal_cdf,
    crlb_sgle,
    mixture_integral,
    optimize_thresholds,
    per_sensor_term_norms,
)
from srcloc.errors import DegenerateGeometry, SingularFim
from srcloc.geometry import NetworkGeometry, SourceParams, sample_geometry
from srcloc.signal_model import SensorEnsembleConfig, received_power, simulate_rounds
from tests import kernel_bits, thresholds
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
    @pytest.mark.parametrize("channel_snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 60.0, 100.0, 200.0, 300.0])
    def test_against_quad_reference(self, channel_snr_db):
        # every s at which a sensor's weight exp(-s^2) is nonzero, up to the
        # highest channel SNR the CLI accepts
        cfg = ref_config(channel_snr_db)
        eb, tau2 = float(cfg.eb), float(cfg.tau2)
        s = np.arange(-27.0, 27.01, 0.5)
        got = mixture_integral(s, eb, tau2)
        ref = np.array([_quad_mixture_integral(v, eb, tau2) for v in s])
        np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("channel_snr_db", [-100.0, -120.0, -140.0, -155.0, -161.0])
    def test_low_channel_snr_limit(self, channel_snr_db):
        # as eb/tau2 -> 0 the integral tends to (eb/tau2)^2 (1 + O(eb/tau2))
        # whatever the weights, down to the lowest SNR the CLI accepts
        cfg = ref_config(channel_snr_db)
        eb, tau2 = float(cfg.eb), float(cfg.tau2)
        got = mixture_integral(np.array([-1.0, 0.0, 1.0]), eb, tau2)
        np.testing.assert_allclose(got / (eb / tau2) ** 2, 1.0, rtol=0.0, atol=1e-8)

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
        # s = -999, where the always-silent limit with eb > tau2 diverges,
        # lies outside the domain every caller stays in
        with pytest.raises(ValueError):
            mixture_integral((1.0 - 1e3) / 1.0, 4.0, 1.0)

    @pytest.mark.parametrize("channel_snr_db", [-161.0, 0.0, 40.0])
    def test_domain_is_what_the_callers_pass(self, channel_snr_db):
        # |s| <= _CURVE_HALF_WIDTH, where a sensor's weight exp(-s^2) is
        # nonzero, and scalar eb > 0 and tau2 > 0; anything else raises
        cfg = ref_config(channel_snr_db)
        edges = mixture_integral(np.array([-_CURVE_HALF_WIDTH, _CURVE_HALF_WIDTH]), cfg.eb, cfg.tau2)
        assert np.all(np.isfinite(edges)) and np.all(edges > 0.0)
        for s in (np.nextafter(-_CURVE_HALF_WIDTH, -np.inf), np.nextafter(_CURVE_HALF_WIDTH, np.inf), np.nan):
            with pytest.raises(ValueError):
                mixture_integral(np.array([0.0, s]), cfg.eb, cfg.tau2)
        for eb, tau2 in ((0.0, cfg.tau2), (cfg.eb, 0.0), (np.array([cfg.eb]), cfg.tau2)):
            with pytest.raises(ValueError):
                mixture_integral(0.0, eb, tau2)

    @pytest.mark.parametrize("tau2, channel_snr_db", [(1.0, 0.0), (1.0, 30.0), (100.0, -30.0), (100.0, -3.0)])
    def test_blocking_is_bit_identical(self, monkeypatch, tau2, channel_snr_db):
        # a value does not depend on the call it is in: one call over every
        # point equals, bit for bit, calls of 1, 7 and _BLOCK points.  At
        # tau2 = 100 and -30 dB the cancellation-free forms run
        eb = tau2 * 10.0 ** (channel_snr_db / 10.0)
        s = np.linspace(-27.0, 27.0, 151)
        lows = []
        real = crlb._integrand

        def spying(half, mid, q0, q1, low, *rest):
            lows.append(low)
            return real(half, mid, q0, q1, low, *rest)

        monkeypatch.setattr(crlb, "_integrand", spying)
        whole = mixture_integral(s, eb, tau2)
        assert set(lows) == {channel_snr_db < -20.0}
        for size in (1, 7, crlb._BLOCK):
            parts = np.concatenate([mixture_integral(s[i : i + size], eb, tau2) for i in range(0, s.size, size)])
            np.testing.assert_array_equal(parts.view(np.int64), whole.view(np.int64))
        assert mixture_integral(float(s[-1]), eb, tau2) == whole[-1]

    def test_work_arrays_bound_the_memory_of_a_call(self):
        # a warm call at the curve's 1,155 points peaks at a few megabytes,
        # where whole-call (1155, 45, 20) temporaries take 8.3 MB each
        cfg = ref_config(0.0)
        s = np.linspace(-_CURVE_HALF_WIDTH, _CURVE_HALF_WIDTH, 1155)
        mixture_integral(s, cfg.eb, cfg.tau2)
        tracemalloc.start()
        try:
            mixture_integral(s, cfg.eb, cfg.tau2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak


class TestNormalCdf:
    def test_matches_scipy_ndtr(self):
        # over |s| <= 27, the range mixture_integral promises, with 0, +-1
        # (where ndtr switches from erf to erfc) and the points where the
        # erfc argument s/sqrt(2) crosses libm's and CPython's erfc branches
        edges = np.sqrt(2.0) * np.array([1.0 / np.sqrt(2.0), 0.84375, 1.25, 1.5, 1.0 / 0.35, 6.0])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 30.0)])
        s = np.concatenate([np.linspace(-27.0, 27.0, 108_001), [0.0, 1.0, -1.0], edges, -edges])
        got = _normal_cdf(s)
        np.testing.assert_allclose(got, ndtr(s), rtol=1e-13, atol=0.0)
        assert np.max(np.abs(got + _normal_cdf(-s) - 1.0)) <= 2.0 * np.finfo(float).eps


class TestFisherInformation:
    def test_additive_over_sensors(self, ref_source):
        geom = sample_geometry(4, 50.0, 0.0, rng=42)
        cfg = ref_config(channel_snr_db=3.0, beta=4.0)
        total = crlb_sgle(ref_source, geom, cfg).fim
        parts = sum(
            _assemble(*_exact_terms(ref_source, NetworkGeometry(sensors=geom.sensors[i : i + 1], R=geom.R), cfg))
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
            fim = _assemble(*_exact_terms(theta, geom, cfg))
            np.testing.assert_array_equal(fim, fim.T)
            eigs = np.linalg.eigvalsh(fim)
            assert eigs.min() >= -1e-10 * max(np.trace(fim), 1e-300)

    def test_coincident_sensor_raises(self):
        geom = NetworkGeometry(sensors=np.array([[5.0, 10.0], [1.0, 1.0]]), R=20.0)
        with pytest.raises(DegenerateGeometry):
            _exact_terms(SourceParams(100.0, 5.0, 10.0), geom, ref_config(0.0))

    def test_score_variance_oracle_quick(self, toy_triangle):
        # E[(d ln f / d xT)^2] from simulation vs the analytic (2,2) entry
        src = SourceParams(900.0, 4.0, 2.0)
        cfg = SensorEnsembleConfig(d0=1.0, alpha=2.0, sigma2=4.0, beta=5.0, eb=2.0, tau2=1.5)
        fim = crlb_sgle(src, toy_triangle, cfg).fim
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
        fim = _assemble(*_exact_terms(theta, geom, cfg))
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
            beta = optimize_thresholds(ref_source, geom, cfg)
            bounds.append(crlb_sgle(ref_source, geom, cfg.with_beta(beta)).sgle_bound)
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
        assert _bounds(np.diag([1.0, 2.0, 4.0]))[1] == 4.0
        assert _bounds(np.diag([1.0, 1.0, 0.0]))[1] == np.inf
        # an indicator of exactly CONDITION_LIMIT is not singular
        _, cond, bound = _bounds(np.diag([1.0, 1.0, CONDITION_LIMIT]))
        assert cond == CONDITION_LIMIT and bound == 1.0 + 1.0 / CONDITION_LIMIT

    def test_subnormal_fim_raises_instead_of_nan(self):
        # all-subnormal eigenvalues pass the ratio gate but overflow the
        # inverse; this must surface as SingularFim, never as a nan bound
        dead = np.diag([1e-320, 2e-321, 5e-322])
        with pytest.raises(SingularFim):
            _checked_bound(dead)
        # met while tuning a K = 56 geometry at -30 dB: the eigenvalue ratio
        # passes, and LU meets an exactly zero pivot
        dead = np.array([[0.0, -5e-324, 0.0], [-5e-324, 1.3335e-320, 1.2554e-320], [0.0, 1.2554e-320, 1.1818e-320]])
        with pytest.raises(SingularFim):
            _checked_bound(dead)

    def test_result_carries_its_one_exact_pass(self, ref_source):
        # the terms, matrix and eigenvalues in the result are those of the
        # reference computations, bit for bit
        geom = sample_geometry(9, 50.0, 0.0, rng=58)
        cfg = ref_config(channel_snr_db=3.0, beta=4.0)
        result = crlb_sgle(ref_source, geom, cfg)
        np.testing.assert_array_equal(result.fim, _assemble(*_exact_terms(ref_source, geom, cfg)))
        np.testing.assert_array_equal(result.eigenvalues, np.linalg.eigvalsh(result.fim))
        assert result.condition_indicator == _bounds(result.fim)[1]
        summed = sum(c * np.outer(v, v) for c, v in zip(result.terms, result.gradients))
        np.testing.assert_allclose(summed, result.fim, rtol=1e-13, atol=0.0)

    def test_per_sensor_term_norms(self, ref_source):
        geom = sample_geometry(6, 50.0, 0.0, rng=47)
        cfg = ref_config(channel_snr_db=3.0, beta=4.0)
        norms = per_sensor_term_norms(crlb_sgle(ref_source, geom, cfg))
        assert norms.shape == (6,)
        assert np.all(norms >= 0)


PER_SENSOR_SNRS_DB = [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0]


def _random_geometry(channel_snr_db, k):
    """Geometry k of the per-sensor cases at this SNR: K = 6 to 10, R = 50."""
    rng = np.random.default_rng([55, int(channel_snr_db) + 10, k])
    return sample_geometry(int(rng.integers(6, 11)), 50.0, 0.0, rng=rng)


def _lone_golden_section(f, lo, hi, tol):
    """One bracket refined by itself, one probe per call of f: the rule
    each bracket of _golden_sections follows.  Returns every (value, point)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    probed = [(fc, c), (fd, d)]
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
            probed.append((fc, c))
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
            probed.append((fd, d))
    return probed


class TestGoldenSections:
    # disjoint brackets, the second already narrower than the tolerance
    BRACKETS = [(-2.0, 1.0), (3.0, 3.0 + 5e-7), (10.0, 14.0)]
    TOL = 1e-6

    @staticmethod
    def objective(x):
        # arithmetic only, so a point's value does not depend on its call
        return ((x * x - 1.7) * (x - 12.1)) ** 2 + 0.25 * x

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_bracket_refines_as_if_alone(self, n):
        brackets = self.BRACKETS[:n]
        calls = []

        def stacked(x):
            calls.append(x.size)
            return self.objective(x)

        got = crlb._golden_sections(stacked, brackets, self.TOL)
        alone = [
            _lone_golden_section(lambda x: float(self.objective(np.array([x]))[0]), lo, hi, self.TOL)
            for lo, hi in brackets
        ]
        hexed = lambda probed: sorted((float(v).hex(), float(x).hex()) for v, x in probed)
        for (lo, hi), lone in zip(brackets, alone):
            assert hexed(p for p in got if lo < p[1] < hi) == hexed(lone)
        assert len(got) == sum(map(len, alone))
        # one call scores both first probes of every bracket, then one
        # call per step scores the next probe of each bracket still wider
        # than the tolerance
        steps = [len(lone) - 2 for lone in alone]
        assert calls == [2 * n] + [sum(k < m for m in steps) for k in range(max(steps))]

    def test_common_tuning_scores_in_stacked_passes(self, ref_source, monkeypatch):
        # one _N_COARSE scan, then one pass per golden-section step over
        # every live basin: 15 bound passes here, where refining the three
        # basins one candidate at a time makes one pass per candidate, 46
        geom = sample_geometry(50, 50.0, 0.0, rng=47)
        cfg = ref_config(channel_snr_db=0.0)
        passes = []
        real = crlb._bounds

        def counting(fim):
            passes.append(len(fim))
            return real(fim)

        monkeypatch.setattr(crlb, "_bounds", counting)
        optimize_thresholds(ref_source, geom, cfg)
        assert passes[:3] == [crlb._N_COARSE, 6, 3] and max(passes[2:]) == 3
        assert len(passes) == 15 and 1 + sum(passes[1:]) == 46


class TestOptimizeThresholds:
    def test_beats_grid_scan(self, ref_source):
        geom = sample_geometry(15, 50.0, 0.0, rng=48)
        cfg = ref_config(channel_snr_db=0.0)
        tuned = crlb_sgle(ref_source, geom, cfg.with_beta(optimize_thresholds(ref_source, geom, cfg)))
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
        assert optimize_thresholds(src_m, mirrored, cfg) == tuned

    def test_per_sensor_no_worse_than_common(self, ref_source):
        cases = [(sample_geometry(6, 50.0, 0.0, rng=51), 3.0)]
        cases += [(_random_geometry(snr, k), snr) for snr in PER_SENSOR_SNRS_DB for k in range(2)]
        for geom, snr in cases:
            cfg = ref_config(channel_snr_db=snr)
            common = optimize_thresholds(ref_source, geom, cfg, mode="common")
            per = optimize_thresholds(ref_source, geom, cfg, mode="per-sensor")
            assert isinstance(common, float) and per.shape == (geom.K,)
            per_bound = crlb_sgle(ref_source, geom, cfg.with_beta(per)).sgle_bound
            assert per_bound <= crlb_sgle(ref_source, geom, cfg.with_beta(common)).sgle_bound + 1e-12

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
            per_bound = crlb_sgle(ref_source, geom, cfg.with_beta(per)).sgle_bound
            for i in range(geom.K):
                for b in grid:
                    beta = per.copy()
                    beta[i] = b
                    try:
                        bound = crlb_sgle(ref_source, geom, cfg.with_beta(beta)).sgle_bound
                    except SingularFim:
                        continue
                    assert bound >= per_bound * (1.0 - 1e-12), (i, b)

    def test_per_sensor_two_basin_geometry(self, ref_source):
        # the bound as a function of sensor 33's threshold alone has two
        # basins here, and settling in the worse one gives 1.56161
        geom = sample_geometry(50, 50.0, 5.0, rng=7)
        cfg = ref_config(10.0)
        per = optimize_thresholds(ref_source, geom, cfg, mode="per-sensor")
        assert crlb_sgle(ref_source, geom, cfg.with_beta(per)).sgle_bound <= 1.5402

    def test_unknown_mode_rejected(self, ref_source):
        geom = sample_geometry(4, 50.0, 0.0, rng=52)
        with pytest.raises(ValueError):
            optimize_thresholds(ref_source, geom, ref_config(0.0), mode="bogus")


class TestInformationCurve:
    @pytest.mark.parametrize("channel_snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0])
    def test_against_kernel(self, channel_snr_db):
        # rel 1e-12 where sensors that shape the bound operate, and finite
        # and positive wherever a sensor's weight is nonzero
        cfg = ref_config(channel_snr_db)
        curve = _information_curve(cfg.eb, cfg.tau2)
        s = np.linspace(-_CURVE_HALF_WIDTH, _CURVE_HALF_WIDTH, 5461)
        got = curve(s)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        near = s[np.abs(s) <= 10.0]
        np.testing.assert_allclose(curve(near), mixture_integral(near, cfg.eb, cfg.tau2), rtol=1e-12, atol=0.0)

    def test_memoized_per_channel(self, ref_source, monkeypatch):
        # the curve is built once per (eb, tau2), in one kernel call at its
        # 55 x 21 Chebyshev nodes; a second tuning on that channel does
        # not call the kernel
        cfg = ref_config(channel_snr_db=7.25)
        calls = []
        real = crlb.mixture_integral

        def counting(s, eb, tau2):
            calls.append(np.size(s))
            return real(s, eb, tau2)

        monkeypatch.setattr(crlb, "mixture_integral", counting)
        _information_curve.cache_clear()
        optimize_thresholds(ref_source, sample_geometry(20, 50.0, 0.0, rng=56), cfg)
        assert calls == [1155]
        calls.clear()
        optimize_thresholds(ref_source, sample_geometry(30, 50.0, 2.0, rng=57), cfg)
        assert calls == []


_FROZEN = json.loads(thresholds.FIXTURE.read_text())["cases"]


@pytest.mark.parametrize("channel_snr_db", thresholds.CHANNEL_SNRS_DB)
def test_common_thresholds_match_exact_search(channel_snr_db):
    # the curve search picks, bit for bit, the threshold and bound that
    # scoring every candidate with the exact bound picked
    geoms = dict(thresholds.geometries())
    cases = [c for c in _FROZEN if c["channel_snr_db"] == channel_snr_db]
    assert len(cases) == len(geoms)
    for case in cases:
        beta, bound = thresholds.tune(geoms[case["geometry"]], channel_snr_db)
        got = (repr(beta), repr(bound))
        assert got == (case["beta"], case["sgle_bound"]), case["geometry"]


def test_kernel_and_curve_bits_match_frozen_hashes():
    # mixture_integral in one call, and the information curve, give the
    # bytes frozen in kernel_bits.json on every channel case
    frozen = json.loads(kernel_bits.FIXTURE.read_text())["cases"]
    assert kernel_bits.bits() == frozen, f"regenerate deliberately with {kernel_bits.COMMAND}"
