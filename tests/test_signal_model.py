import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import expon, kstest

from srcloc.geometry import NetworkGeometry, SourceParams, sample_geometry
from srcloc.signal_model import (
    SensorEnsembleConfig,
    received_power,
    simulate_round,
    simulate_rounds,
    transmit_and_detect,
)
from tests.conftest import marginal_energy_cdf, ref_config


EB_1DB = 10.0 ** 0.1  # transmit energy at the 1 dB operating point


class TestReceivedPower:
    def test_at_reference_distance(self):
        assert received_power(10_000.0, 1.0, 2.0, 1.0) == 10_000.0

    def test_inverse_square(self):
        assert received_power(10_000.0, 1.0, 2.0, 10.0) == pytest.approx(100.0)

    def test_clamped_inside_reference(self):
        assert received_power(10_000.0, 1.0, 2.0, 0.5) == 10_000.0
        assert received_power(10_000.0, 1.0, 2.0, 0.0) == 10_000.0

    def test_vectorized_monotone(self):
        d = np.linspace(0.0, 40.0, 200)
        p = received_power(10_000.0, 1.0, 2.0, d)
        assert np.all(np.diff(p) <= 0)

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 3.7, 4.0])
    def test_scalar_matches_array_bitwise(self, alpha):
        # numpy's scalar power can differ in the last bit from its array power
        d = np.linspace(0.5, 100.0, 5100)
        arr = received_power(10_000.0, 1.0, alpha, d)
        scalar = np.array([received_power(10_000.0, 1.0, alpha, float(x)) for x in d])
        np.testing.assert_array_equal(scalar, arr)


def _sensing_bits(distance, beta, sigma2=1e-300, seed=0):
    """Bits of one round, read off the energies of a noiseless channel.

    Sensors sit at the given distances from a P0 = 1e4 source.  With
    tau2 = 1e-300 a silent sensor's energy is about 1e-300 and a firing
    one's is eb * |h|^2, so the energy shows the bit.
    """
    src = SourceParams(10_000.0, 0.0, 0.0)
    d = np.atleast_1d(np.asarray(distance, dtype=float))
    geom = NetworkGeometry(sensors=np.column_stack([d, np.zeros_like(d)]), R=float(d.max()) + 1.0)
    cfg = SensorEnsembleConfig(d0=1.0, alpha=2.0, sigma2=sigma2, beta=beta, eb=2.0, tau2=1e-300)
    return simulate_round(geom, src, cfg, np.random.default_rng(seed)) > 1e-6


class TestSense:
    def test_noiseless_limit(self):
        # sigma2 = 1e-300: the observation is the amplitude sqrt(1e4) = 100
        # exactly, so the bit flips between beta = 100 and the next float
        assert _sensing_bits(1.0, 100.0)[0]
        assert not _sensing_bits(1.0, np.nextafter(100.0, np.inf))[0]


class TestQuantize:
    def test_boundary_maps_to_one(self):
        # one sensor at distance 10 from a P0 = 1e4 source: sqrt(P) = 10.0
        # exactly, and a noiseless observation on the threshold reports 1
        assert _sensing_bits(10.0, 10.0)[0]

    def test_below_threshold(self):
        assert not _sensing_bits(10.0, np.nextafter(10.0, np.inf))[0]

    def test_minus_infinity_threshold(self):
        assert np.all(_sensing_bits(np.linspace(1.0, 1e6, 20), -np.inf, sigma2=1e6))

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_non_increasing_in_threshold(self, b1, b2, seed):
        # the same stream gives the same observations at both thresholds
        lo, hi = min(b1, b2), max(b1, b2)
        d = np.geomspace(1.0, 1e3, 12)
        assert np.all(_sensing_bits(d, lo, 1e4, seed) >= _sensing_bits(d, hi, 1e4, seed))


class TestTransmitAndDetect:
    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        t = transmit_and_detect(np.ones(10_000), 2.0, 1.0, rng)
        assert np.all(t >= 0)

    def test_silent_sensor_noise_energy(self):
        rng = np.random.default_rng(4)
        t = transmit_and_detect(np.zeros(1_000_000), EB_1DB, 0.7, rng)
        assert abs(t.mean() - 0.7) / 0.7 < 0.005

    def test_active_sensor_mean_energy(self):
        # 1 dB transmit energy, 0 dB channel SNR: mean = eb + tau2
        rng = np.random.default_rng(5)
        t = transmit_and_detect(np.ones(1_000_000), EB_1DB, EB_1DB, rng)
        expected = 2.0 * EB_1DB  # = 2.5178508235883346
        assert abs(t.mean() - expected) / expected < 0.005

    @pytest.mark.parametrize("u", [0, 1])
    def test_conditional_energy_is_exponential(self, u):
        rng = np.random.default_rng(6 + u)
        eb, tau2 = EB_1DB, 0.9
        t = transmit_and_detect(np.full(100_000, float(u)), eb, tau2, rng)
        result = kstest(t, expon(scale=eb * u + tau2).cdf)
        assert result.pvalue >= 0.01


class TestSimulateRound:
    def test_deterministic_bits_when_noiseless(self, ref_source):
        geom = sample_geometry(20, 50.0, 0.0, rng=8)
        cfg = SensorEnsembleConfig(
            d0=1.0, alpha=2.0, sigma2=1e-300, beta=-1.0, eb=2.0, tau2=0.5
        )
        # every sensor fires: energies are draws from Exponential(eb + tau2)
        rng = np.random.default_rng(9)
        t = np.array([simulate_round(geom, ref_source, cfg, rng) for _ in range(5000)])
        assert abs(t.mean() - 2.5) / 2.5 < 0.02

    def test_round_mean_matches_mixture_mean(self, ref_source):
        geom = sample_geometry(50, 50.0, 0.0, rng=10)
        cfg = ref_config(channel_snr_db=0.0, beta=3.0)
        sigma2, beta, eb, tau2 = cfg.sigma2, cfg.thresholds(geom.K), cfg.eb, cfg.tau2
        d = np.hypot(geom.sensors[:, 0] - 5.0, geom.sensors[:, 1] - 10.0)
        P = received_power(10_000.0, 1.0, 2.0, d)
        p1 = ndtr((np.sqrt(P) - beta) / np.sqrt(sigma2))
        expected = np.mean(p1 * (eb + tau2) + (1 - p1) * tau2)
        t = simulate_rounds(geom, ref_source, cfg, 10_000, np.random.default_rng(11))
        assert abs(t.mean() - expected) / expected < 0.01

    def test_energies_match_analytic_mixture_cdf(self, ref_source):
        geom = sample_geometry(5, 50.0, 0.0, rng=12)
        cfg = ref_config(channel_snr_db=3.0, beta=3.0)
        beta = cfg.thresholds(geom.K)
        d = np.hypot(geom.sensors[:, 0] - 5.0, geom.sensors[:, 1] - 10.0)
        P = received_power(10_000.0, 1.0, 2.0, d)
        t = simulate_rounds(geom, ref_source, cfg, 100_000, np.random.default_rng(13))
        for i in range(geom.K):
            result = kstest(
                t[:, i],
                lambda v, i=i: marginal_energy_cdf(
                    v, P[i], beta[i], np.sqrt(cfg.sigma2), cfg.eb, cfg.tau2
                ),
            )
            assert result.pvalue >= 0.01, f"sensor {i}: p={result.pvalue}"

    def test_sensor_on_source_clamps(self):
        geom = sample_geometry(3, 50.0, 0.0, rng=14)
        geom.sensors[0] = (5.0, 10.0)
        src = SourceParams(10_000.0, 5.0, 10.0)
        cfg = SensorEnsembleConfig(
            d0=1.0, alpha=2.0, sigma2=1e-300, beta=99.0, eb=2.0, tau2=1e-300
        )
        # clamped power 1e4 -> amplitude 100 >= beta, so sensor 0 fires
        t = simulate_round(geom, src, cfg, np.random.default_rng(15))
        assert t[0] > 1e-6


class TestConfig:
    def test_db_conventions(self):
        cfg = ref_config(channel_snr_db=0.0)
        assert cfg.sigma2 == pytest.approx(1.0)  # P0/10^(40/10) with P0=1e4
        assert cfg.eb == pytest.approx(EB_1DB)
        assert cfg.tau2 == pytest.approx(EB_1DB)

    def test_broadcast_and_length_check(self):
        cfg = SensorEnsembleConfig(d0=1.0, alpha=2.0, sigma2=1.0, beta=0.0, eb=2.0, tau2=1.0)
        assert cfg.thresholds(4).shape == (4,)
        cfg2 = cfg.with_beta(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            cfg2.thresholds(4)
