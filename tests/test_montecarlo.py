from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcloc import montecarlo
from srcloc.config import load_config
from srcloc.errors import PackingFailure
from srcloc.geometry import NetworkGeometry, SourceParams, sample_geometry
from srcloc.likelihood import EstimateResult
from srcloc.montecarlo import (
    GeometryTrialResult,
    build_ccdf,
    curve_to_csv,
    curves_to_csv,
    run_ensemble,
    run_trials,
    squared_errors,
    trial_result,
    trials_from_csv,
    trials_to_csv,
)
from srcloc.signal_model import simulate_round
from tests.conftest import ref_config

SRC = SourceParams(10_000.0, 5.0, 10.0)


def _estimates(offsets):
    """Fabricated estimates at SRC displaced by each (dx, dy) offset."""
    return [
        EstimateResult(
            theta_hat=SourceParams(SRC.P0, SRC.xT + dx, SRC.yT + dy),
            log_likelihood=0.0,
            converged=True,
        )
        for dx, dy in offsets
    ]


def _mini_config(seed, **kw):
    """A small fixed-threshold outage ensemble; beta=None tunes the thresholds."""
    overrides = dict(K=8, R=50.0, seed=seed, n_geom=4, n_mc=3, channel_snr_db=10.0, beta=4.0, gamma_num=16)
    overrides.update(kw)
    return load_config(None, mode="outage", overrides=overrides)


class TestEmpiricalSgle:
    """A geometry's outcome, from ``trial_result`` on fabricated estimates."""

    def test_single_trial_equals_its_sgle(self):
        # round m replays identically whatever n_mc, and one round's
        # outcome is its own squared error with no spread
        geom = sample_geometry(10, 50.0, 0.0, rng=60)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        stream = np.random.SeedSequence(123, spawn_key=(0,))
        ts1, one = run_trials(geom, SRC, cfg, 1, stream)
        ts2, two = run_trials(geom, SRC, cfg, 2, stream)
        np.testing.assert_array_equal(ts1, ts2[:1])
        assert one == two[:1]
        res = trial_result(geom, SRC, cfg, one, r_t_list=(14.0,))
        assert res.n_mc == 1 and res.sgle_var == 0.0
        assert res.empirical_sgle == squared_errors(two, SRC)[0]

    def test_perfect_estimator_gives_zero(self):
        geom = sample_geometry(6, 50.0, 0.0, rng=61)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        res = trial_result(geom, SRC, cfg, _estimates(np.zeros((5, 2))))
        assert res.empirical_sgle == 0.0
        assert res.sgle_var == 0.0
        assert res.n_mc == 5

    def test_singular_bound_recorded_not_raised(self):
        geom = NetworkGeometry(sensors=np.array([[20.0, 0.0]]), R=50.0)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        res = trial_result(geom, SRC, cfg, _estimates(np.zeros((2, 2))))
        assert res.crlb_singular and np.isnan(res.crlb_sgle)

    def test_k_t_and_flags_recorded(self):
        geom = sample_geometry(30, 50.0, 0.0, rng=62)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        res = trial_result(geom, SRC, cfg, _estimates(np.zeros((2, 2))), r_t_list=(5.0, 14.0))
        assert set(res.k_t) == {5.0, 14.0}
        assert 0 <= res.k_t[5.0] <= res.k_t[14.0] <= 30

    def test_standard_error_scales_inverse_sqrt_n(self):
        # harness self-test on seeded noisy estimates: the tracked
        # per-trial variance must shrink the standard error like 1/sqrt(N)
        geom = sample_geometry(5, 50.0, 0.0, rng=63)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        n_values = (100, 400, 1600)
        reps = 60
        mean_log_se = []
        for n in n_values:
            ses = []
            for rep in range(reps):
                offsets = 0.8 * np.random.default_rng(1000 + rep).standard_normal((n, 2))
                res = trial_result(geom, SRC, cfg, _estimates(offsets))
                ses.append(np.log(res.sgle_stderr))
            mean_log_se.append(np.mean(ses))
        slope = np.polyfit(np.log(n_values), mean_log_se, 1)[0]
        assert abs(slope + 0.5) < 0.05


class TestRunTrials:
    @staticmethod
    def _args(n_mc):
        geom = sample_geometry(10, 50.0, 0.0, rng=65)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        return geom, SRC, cfg, n_mc, np.random.SeedSequence(66, spawn_key=(0,))

    def test_below_min_block_stays_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("run_trials started a process pool")

        # _ordered_map imports the pool class from here when it starts a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        n_mc = montecarlo._MIN_BLOCK - 1
        ts1, serial = run_trials(*self._args(n_mc))
        ts2, asked_two = run_trials(*self._args(n_mc), workers=2)
        np.testing.assert_array_equal(ts1, ts2)
        assert asked_two == serial

    def test_blocks_match_one_batch(self, monkeypatch):
        # two contiguous blocks of 3 and 4 rounds in a real pool reproduce
        # the single lockstep batch bit for bit
        monkeypatch.setattr(montecarlo, "_MIN_BLOCK", 2)
        ts1, serial = run_trials(*self._args(7))
        ts2, split = run_trials(*self._args(7), workers=2)
        np.testing.assert_array_equal(ts1, ts2)
        assert split == serial


def test_documented_spawn_key_layout():
    # geometry gi places its sensors from key (gi, 0) under the master
    # seed, and round m draws its energies from key (gi, 1, m)
    config = _mini_config(31)
    geom = montecarlo.place_geometry(config, 3)
    placed = sample_geometry(
        config.K,
        config.R,
        config.R_ex,
        max_attempts=config.max_attempts,
        rng=np.random.default_rng(np.random.SeedSequence(31, spawn_key=(3, 0))),
        source_xy=config.source,
        source_exclusion=config.source_exclusion,
    )
    np.testing.assert_array_equal(geom.sensors, placed.sensors)

    cfg = config.sensor_config()
    ts, _ = run_trials(geom, config.source_params, cfg, config.n_mc, np.random.SeedSequence(31, spawn_key=(3,)))
    for m in range(config.n_mc):
        rng = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(3, 1, m)))
        np.testing.assert_array_equal(ts[m], simulate_round(geom, config.source_params, cfg, rng))


class TestRunEnsemble:
    def test_worker_count_invariance(self):
        config = _mini_config(99)
        serial = run_ensemble(config, workers=1)
        parallel = run_ensemble(config, workers=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.geometry_id == b.geometry_id
            assert a.empirical_sgle == b.empirical_sgle
            assert a.sgle_var == b.sgle_var
            assert (a.crlb_sgle == b.crlb_sgle) or (
                np.isnan(a.crlb_sgle) and np.isnan(b.crlb_sgle)
            )
            assert a.k_t == b.k_t

    def test_rerun_is_bitwise_identical(self):
        config = _mini_config(42)
        a = run_ensemble(config, workers=1)
        b = run_ensemble(config, workers=1)
        assert [t.empirical_sgle for t in a] == [t.empirical_sgle for t in b]

    def test_packing_failure_aborts(self):
        # the source moves inside the radius-5 disk, which the config requires
        config = _mini_config(1, K=100, R=5.0, R_ex=5.0, max_attempts=200, source=[0.0, 1.0])
        with pytest.raises(PackingFailure):
            run_ensemble(config, workers=1)

    def test_threshold_optimization_path(self):
        config = _mini_config(3, n_geom=2, beta=None, threshold_mode="common")
        trials = run_ensemble(config, workers=1)
        assert all(t.beta_common is not None for t in trials)


class TestBuildCcdf:
    def test_endpoints(self):
        trials = [
            GeometryTrialResult(i, 0, sgle, 0.0, sgle / 2, False, {}, False, 1)
            for i, sgle in enumerate((4.0, 9.0, 25.0))
        ]
        gamma = np.array([0.1, 100.0])
        curve = build_ccdf(trials, gamma)
        assert curve.ccdf_empirical[0] == 1.0 and curve.ccdf_empirical[-1] == 0.0

    def test_single_geometry_step(self):
        trials = [GeometryTrialResult(0, 0, 9.0, 0.0, 4.0, False, {}, False, 1)]
        gamma = np.array([1.0, 2.0, 2.9, 3.1, 10.0])
        curve = build_ccdf(trials, gamma)
        np.testing.assert_array_equal(curve.ccdf_empirical, [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_singular_counts_as_outage_on_bound_curve(self):
        trials = [
            GeometryTrialResult(0, 0, 1.0, 0.0, np.nan, True, {}, False, 1),
            GeometryTrialResult(1, 0, 1.0, 0.0, 1.0, False, {}, False, 1),
        ]
        curve = build_ccdf(trials, np.array([5.0, 500.0]))
        np.testing.assert_array_equal(curve.ccdf_crlb, [0.5, 0.5])

    def test_grid_validation(self):
        trials = [GeometryTrialResult(0, 0, 1.0, 0.0, 1.0, False, {}, False, 1)]
        with pytest.raises(ValueError):
            build_ccdf(trials, np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            build_ccdf(trials, np.array([-1.0, 1.0]))

    @given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_monotone_range_and_quantized(self, sgles):
        trials = [
            GeometryTrialResult(i, 0, s, 0.0, s, False, {}, False, 1)
            for i, s in enumerate(sgles)
        ]
        curve = build_ccdf(trials, np.geomspace(0.1, 100.0, 32))
        n = len(sgles)
        for arr in (curve.ccdf_empirical, curve.ccdf_crlb):
            assert np.all(np.diff(arr) <= 0)
            assert np.all((arr >= 0) & (arr <= 1))
            np.testing.assert_allclose(arr * n, np.round(arr * n), atol=1e-9)


class TestConditionedCcdf:
    def _trials(self):
        rng = np.random.default_rng(64)
        trials = []
        for i in range(60):
            k = int(rng.integers(0, 5))
            trials.append(
                GeometryTrialResult(
                    i, 0, float(rng.uniform(1, 400)), 0.0, 1.0, False, {14.0: k}, False, 1
                )
            )
        return trials

    def test_trivial_condition_matches_unconditioned(self):
        trials = self._trials()
        gamma = np.geomspace(0.1, 100.0, 16)
        full = build_ccdf(trials, gamma)
        cond = build_ccdf([t for t in trials if t.k_t[14.0] >= 0], gamma)
        np.testing.assert_array_equal(cond.ccdf_empirical, full.ccdf_empirical)

    def test_mixture_reconstructs_unconditioned(self):
        trials = self._trials()
        gamma = np.geomspace(0.1, 100.0, 24)
        full = build_ccdf(trials, gamma)
        ks = sorted({t.k_t[14.0] for t in trials})
        mix = np.zeros_like(gamma)
        for k in ks:
            cond = build_ccdf([t for t in trials if t.k_t[14.0] == k], gamma)
            mix += cond.ccdf_empirical * (cond.n_geometries / full.n_geometries)
        np.testing.assert_allclose(mix, full.ccdf_empirical, rtol=0.0, atol=1e-12)


class TestSerialization:
    def test_trials_csv_roundtrip_exact(self):
        # every column of every kind: a singular row (nan bound, flag 1), a
        # per-sensor row (no common threshold), a row with a sensor inside d0,
        # and two radii; floats that need all 17 digits
        r_t_list = [7.5, 14.0]
        trials = [
            GeometryTrialResult(0, 11, 1 / 3, 0.1 + 0.2, np.nan, True, {7.5: 0, 14.0: 2}, False, 200, 4.0),
            GeometryTrialResult(1, 11, 2.5e-300, 0.0, 1e-7 / 3, False, {7.5: 1, 14.0: 3}, False, 200, None),
            GeometryTrialResult(2, 11, 1e300 / 7, 7e-3, 2 / 3, False, {7.5: 3, 14.0: 9}, True, 2, np.pi),
        ]
        text = trials_to_csv(trials, r_t_list)
        back, back_r_t = trials_from_csv(text)
        assert back_r_t == r_t_list
        assert trials_to_csv(back, back_r_t) == text
        assert len(back) == len(trials)
        for a, b in zip(trials, back):
            for f in fields(GeometryTrialResult):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert type(x) is type(y), f.name
                assert x == y or (np.isnan(x) and np.isnan(y)), f.name

    def test_curve_csv_layout(self):
        trials = [GeometryTrialResult(0, 0, 9.0, 0.0, 4.0, False, {}, False, 1)]
        curve = build_ccdf(trials, np.array([1.0, 10.0]))
        lines = curve_to_csv(curve).splitlines()
        assert lines[0] == "gamma,ccdf_empirical,ccdf_crlb"
        assert len(lines) == 3

    def test_curves_long_format(self):
        trials = [GeometryTrialResult(0, 0, 9.0, 0.0, 4.0, False, {14.0: 1}, False, 1)]
        gamma = np.array([1.0, 10.0])
        full = build_ccdf(trials, gamma)
        cond = build_ccdf([t for t in trials if t.k_t[14.0] == 1], gamma)
        lines = curves_to_csv([("all", full), ("K_T==1@R_T=14", cond)]).splitlines()
        assert lines[0] == "condition,n_geometries,gamma,ccdf_empirical,ccdf_crlb"
        assert lines[1].startswith("all,1,")
        assert lines[3].startswith("K_T==1@R_T=14,1,")


def test_outage_ccdf_end_to_end():
    config = _mini_config(21, n_geom=3, n_mc=2)
    trials = run_ensemble(config, workers=1)
    curve = build_ccdf(trials, config.gamma_grid())
    assert curve.n_geometries == 3 and len(trials) == 3
    assert np.all(np.diff(curve.ccdf_empirical) <= 0)
