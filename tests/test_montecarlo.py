import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcloc import (
    EmptySubset,
    EnsembleSpec,
    EstimateResult,
    NetworkGeometry,
    PackingFailure,
    SourceParams,
    build_ccdf,
    conditioned_ccdf,
    default_gamma_grid,
    empirical_sgle,
    outage_ccdf,
    run_ensemble,
)
from srcloc import montecarlo
from srcloc.montecarlo import (
    GeometryTrialResult,
    curve_to_csv,
    curves_to_csv,
    run_trials,
    trials_from_csv,
    trials_to_csv,
)
from srcloc.streams import root_stream, substream
from srcloc import sample_geometry
from tests.conftest import ref_config

SRC = SourceParams(10_000.0, 5.0, 10.0)


def _perfect_estimator(t, geom, cfg, rng):
    return EstimateResult(
        theta_hat=SourceParams(SRC.P0, SRC.xT, SRC.yT),
        log_likelihood=0.0,
        converged=True,
        starts_used=0,
    )


def _noisy_stub(t, geom, cfg, rng):
    dx, dy = 0.8 * rng.standard_normal(2)
    return EstimateResult(
        theta_hat=SourceParams(SRC.P0, SRC.xT + dx, SRC.yT + dy),
        log_likelihood=0.0,
        converged=True,
        starts_used=0,
    )


def _mini_spec(**kw):
    defaults = dict(
        K=8,
        R=50.0,
        R_ex=0.0,
        source=SRC,
        cfg=ref_config(channel_snr_db=10.0, beta=4.0),
        n_geom=4,
        n_mc=3,
        gamma=default_gamma_grid(50.0, num=16),
        r_t_list=(14.0,),
        threshold_mode="fixed",
    )
    defaults.update(kw)
    return EnsembleSpec(**defaults)


class TestEmpiricalSgle:
    def test_single_trial_equals_its_sgle(self):
        geom = sample_geometry(10, 50.0, 0.0, rng=60)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        stream = substream(root_stream(123), 0)
        r1 = empirical_sgle(geom, SRC, cfg, 1, stream, r_t_list=(14.0,))
        r2 = empirical_sgle(geom, SRC, cfg, 2, stream)
        assert r1.n_mc == 1 and r1.sgle_var == 0.0
        assert r1.empirical_sgle >= 0.0
        # the first round is replayed identically when n_mc grows
        assert r2.empirical_sgle != r1.empirical_sgle or r2.sgle_var == 0.0

    def test_perfect_estimator_gives_zero(self):
        geom = sample_geometry(6, 50.0, 0.0, rng=61)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        res = empirical_sgle(
            geom, SRC, cfg, 5, substream(root_stream(5), 0), estimator=_perfect_estimator
        )
        assert res.empirical_sgle == 0.0
        assert res.sgle_var == 0.0

    def test_singular_bound_recorded_not_raised(self):
        geom = NetworkGeometry(sensors=np.array([[20.0, 0.0]]), R=50.0)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        res = empirical_sgle(
            geom, SRC, cfg, 2, substream(root_stream(6), 0), estimator=_perfect_estimator
        )
        assert res.crlb_singular and np.isnan(res.crlb_sgle)

    def test_k_t_and_flags_recorded(self):
        geom = sample_geometry(30, 50.0, 0.0, rng=62)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        res = empirical_sgle(
            geom,
            SRC,
            cfg,
            2,
            substream(root_stream(7), 0),
            estimator=_perfect_estimator,
            r_t_list=(5.0, 14.0),
        )
        assert set(res.k_t) == {5.0, 14.0}
        assert 0 <= res.k_t[5.0] <= res.k_t[14.0] <= 30

    def test_standard_error_scales_inverse_sqrt_n(self):
        # harness self-test with an injected noisy estimator: the tracked
        # per-trial variance must shrink the standard error like 1/sqrt(N)
        geom = sample_geometry(5, 50.0, 0.0, rng=63)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        n_values = (100, 400, 1600)
        reps = 60
        mean_log_se = []
        for n in n_values:
            ses = []
            for rep in range(reps):
                res = empirical_sgle(
                    geom,
                    SRC,
                    cfg,
                    n,
                    substream(root_stream(1000 + rep), 0),
                    estimator=_noisy_stub,
                )
                ses.append(np.log(res.sgle_stderr))
            mean_log_se.append(np.mean(ses))
        slope = np.polyfit(np.log(n_values), mean_log_se, 1)[0]
        assert abs(slope + 0.5) < 0.05


class TestRunTrials:
    @staticmethod
    def _args(n_mc):
        geom = sample_geometry(10, 50.0, 0.0, rng=65)
        cfg = ref_config(channel_snr_db=10.0, beta=4.0)
        return geom, SRC, cfg, n_mc, substream(root_stream(66), 0)

    def test_below_min_block_stays_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("run_trials started a process pool")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
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


class TestRunEnsemble:
    def test_worker_count_invariance(self):
        spec = _mini_spec()
        serial = run_ensemble(spec, 99, workers=1)
        parallel = run_ensemble(spec, 99, workers=2)
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
        spec = _mini_spec()
        a = run_ensemble(spec, 42, workers=1)
        b = run_ensemble(spec, 42, workers=1)
        assert [t.empirical_sgle for t in a] == [t.empirical_sgle for t in b]

    def test_packing_failure_aborts(self):
        spec = _mini_spec(K=100, R=5.0, R_ex=5.0, max_attempts=200)
        with pytest.raises(PackingFailure):
            run_ensemble(spec, 1, workers=1)

    def test_threshold_optimization_path(self):
        spec = _mini_spec(n_geom=2, threshold_mode="common")
        trials = run_ensemble(spec, 3, workers=1)
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
        assert curve.n_crlb_singular == 1

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
        curve = build_ccdf(trials, default_gamma_grid(50.0, num=32))
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
        gamma = default_gamma_grid(50.0, num=16)
        full = build_ccdf(trials, gamma)
        cond = conditioned_ccdf(trials, 14.0, lambda k: k >= 0, gamma)
        np.testing.assert_array_equal(cond.ccdf_empirical, full.ccdf_empirical)

    def test_empty_subset_raises(self):
        with pytest.raises(EmptySubset):
            conditioned_ccdf(self._trials(), 14.0, lambda k: k > 99, default_gamma_grid(50.0))

    def test_missing_radius_raises(self):
        with pytest.raises(ValueError):
            conditioned_ccdf(self._trials(), 7.0, lambda k: True, default_gamma_grid(50.0))

    def test_mixture_reconstructs_unconditioned(self):
        trials = self._trials()
        gamma = default_gamma_grid(50.0, num=24)
        full = build_ccdf(trials, gamma)
        ks = sorted({t.k_t[14.0] for t in trials})
        mix = np.zeros_like(gamma)
        for k in ks:
            cond = conditioned_ccdf(trials, 14.0, lambda n, k=k: n == k, gamma)
            mix += cond.ccdf_empirical * (cond.n_geometries / full.n_geometries)
        np.testing.assert_allclose(mix, full.ccdf_empirical, rtol=0.0, atol=1e-12)


class TestSerialization:
    def test_trials_csv_roundtrip_exact(self):
        spec = _mini_spec(n_geom=3)
        trials = run_ensemble(spec, 11, workers=1)
        text = trials_to_csv(trials, spec.r_t_list)
        back, r_t_list = trials_from_csv(text)
        assert r_t_list == [14.0]
        for a, b in zip(trials, back):
            assert a.geometry_id == b.geometry_id
            assert a.empirical_sgle == b.empirical_sgle
            assert a.sgle_var == b.sgle_var
            assert a.k_t == b.k_t
            assert a.beta_common == b.beta_common

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
        cond = conditioned_ccdf(trials, 14.0, lambda k: k == 1, gamma, "K_T==1@R_T=14")
        lines = curves_to_csv([full, cond]).splitlines()
        assert lines[0] == "condition,n_geometries,gamma,ccdf_empirical,ccdf_crlb"
        assert lines[1].startswith("all,1,")
        assert lines[3].startswith("K_T==1@R_T=14,1,")


def test_outage_ccdf_end_to_end():
    spec = _mini_spec(n_geom=3, n_mc=2)
    curve, trials = outage_ccdf(spec, 21, workers=1)
    assert curve.n_geometries == 3 and len(trials) == 3
    assert np.all(np.diff(curve.ccdf_empirical) <= 0)
