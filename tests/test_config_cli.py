import json
import os
import pickle
import subprocess
import sys
import types
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import srcloc
from srcloc import SensorEnsembleConfig, SourceParams, crlb_sgle, cli, montecarlo
from srcloc.cli import _workers, main
from srcloc.config import load_config, parse_k_t_bin
from srcloc import errors
from srcloc.errors import (
    ConfigError,
    DegenerateGeometry,
    EmptySubset,
    PackingFailure,
    ParseError,
    QuadratureFailure,
    SingularFim,
    SrclocError,
    ValidationError,
)
from srcloc.geometry import load_geometry
from srcloc.montecarlo import trials_from_csv


def write_config(tmp_path: Path, name="config.json", **kw) -> Path:
    base = {"K": 8, "R": 50.0, "seed": 7}
    base.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


class TestLoadConfig:
    def test_reference_defaults_echo(self, tmp_path):
        path = write_config(tmp_path, K=50, R=50.0, seed=1)
        cfg = load_config(path, mode="outage")
        assert cfg.K == 50 and cfg.R == 50.0
        assert cfg.P0 == 10_000.0 and cfg.alpha == 2.0 and cfg.d0 == 1.0
        assert cfg.obs_snr_db == 40.0 and cfg.tx_energy_db == 1.0
        assert cfg.source == (5.0, 10.0)
        assert cfg.n_geom == 100 and cfg.n_mc == 200  # desk profile

    def test_paper_profile_counts(self, tmp_path):
        path = write_config(tmp_path, profile="paper")
        cfg = load_config(path, mode="outage")
        assert cfg.n_geom == 500 and cfg.n_mc == 1000

    def test_missing_k_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"R": 50.0, "seed": 1}))
        with pytest.raises(ValidationError) as err:
            load_config(path, mode="outage")
        assert err.value.field == "K"

    def test_missing_seed_rejected_unless_overridden(self, tmp_path):
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps({"K": 5, "R": 20.0}))
        with pytest.raises(ValidationError) as err:
            load_config(path, mode="geometry")
        assert err.value.field == "seed"
        cfg = load_config(path, mode="geometry", overrides={"seed": 3})
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, bogus_knob=1)
        with pytest.raises(ValidationError) as err:
            load_config(path, mode="outage")
        assert err.value.field == "bogus_knob"

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"K": 5,\n  "R": }')
        with pytest.raises(ParseError) as err:
            load_config(path, mode="outage")
        assert "line 2" in str(err.value)

    def test_snr_sweep_list_only_in_sweep_mode(self, tmp_path):
        path = write_config(tmp_path, channel_snr_db=[0.0, 10.0, 20.0])
        cfg = load_config(path, mode="sweep-snr")
        assert cfg.channel_snr_values() == [0.0, 10.0, 20.0]
        with pytest.raises(ValidationError) as err:
            load_config(path, mode="outage")
        assert err.value.field == "channel_snr_db"

    def test_invariant_validation(self, tmp_path):
        for field, bad in [
            ("K", 0),
            ("R", -1.0),
            ("n_mc", 0),
            ("alpha", 0.0),
            ("source", [100.0, 0.0]),  # outside the disk
            ("threshold_mode", "nope"),
            ("gamma_min", -2.0),
        ]:
            path = write_config(tmp_path, name=f"{field}.json", **{field: bad})
            with pytest.raises(ValidationError) as err:
                load_config(path, mode="outage")
            assert err.value.field == field

    def test_geometry_file_waives_k_and_r(self, tmp_path):
        path = tmp_path / "geomcfg.json"
        path.write_text(json.dumps({"seed": 2, "geometry_file": "geometry.json"}))
        cfg = load_config(path, mode="crlb")
        assert cfg.K is None and cfg.R is None

    def test_k_t_bin_specs(self):
        pred, label = parse_k_t_bin("2")
        assert label == "K_T==2" and pred(2) and not pred(3)
        pred, label = parse_k_t_bin("3+")
        assert label == "K_T>=3" and pred(7) and not pred(2)
        with pytest.raises(ValidationError):
            parse_k_t_bin("x")


class TestCliModes:
    def test_geometry_mode_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, K=12, R_ex=3.0)
        out = tmp_path / "out"
        assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 0
        geom = load_geometry(out / "geometry.json")
        assert geom.K == 12 and geom.R_ex == 3.0
        geom_txt = load_geometry(out / "geometry.txt")
        np.testing.assert_array_equal(geom.sensors, geom_txt.sensors)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["mode"] == "geometry" and manifest["master_seed"] == 7
        assert set(manifest["artifacts"]) == {"geometry.json", "geometry.txt"}

    def test_estimate_mode_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, n_mc=3, beta=4.0, channel_snr_db=10.0)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["estimate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["estimate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("estimates.csv", "estimate_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = (out1 / "estimates.csv").read_text().splitlines()
        assert rows[0] == "trial,x_hat,y_hat,p0_hat,log_likelihood,converged,sgle"
        assert len(rows) == 4

    def test_estimate_energy_dump(self, tmp_path):
        cfg = write_config(tmp_path, K=5, n_mc=2, beta=4.0)
        out = tmp_path / "dump"
        assert main(["estimate", "--config", str(cfg), "--out", str(out), "--dump-energies"]) == 0
        lines = (out / "energies.csv").read_text().splitlines()
        assert lines[0] == "round,sensor,t"
        assert len(lines) == 1 + 2 * 5

    def test_geometry_file_feeds_other_modes(self, tmp_path):
        cfg = write_config(tmp_path, K=15, R_ex=2.0)
        gout = tmp_path / "g"
        main(["geometry", "--config", str(cfg), "--out", str(gout)])
        cfg2 = write_config(tmp_path, name="c2.json", n_mc=2, beta=4.0)
        out = tmp_path / "est"
        code = main(
            [
                "estimate",
                "--config",
                str(cfg2),
                "--out",
                str(out),
                "--geometry",
                str(gout / "geometry.json"),
            ]
        )
        assert code == 0
        summary = json.loads((out / "estimate_summary.json").read_text())
        assert summary["config"]["geometry_file"].endswith("geometry.json")

    def test_crlb_mode(self, tmp_path):
        cfg = write_config(tmp_path, K=10, beta=4.0)
        out = tmp_path / "crlb"
        assert main(["crlb", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "crlb.json").read_text())
        assert doc["sgle_bound"] > 0
        assert len(doc["fim"]) == 3
        assert len(doc["per_sensor_term_norms"]) == 10
        assert doc["config"]["seed"] == 7
        assert doc["beta"] == doc["beta_common"] == 4.0

    def test_crlb_per_sensor_records_thresholds(self, tmp_path):
        # the recorded per-sensor thresholds reproduce the recorded bound
        cfg = write_config(tmp_path, K=6, channel_snr_db=10.0, threshold_mode="per-sensor")
        gout, out = tmp_path / "g", tmp_path / "crlb"
        assert main(["geometry", "--config", str(cfg), "--out", str(gout)]) == 0
        assert main(["crlb", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "crlb.json").read_text())
        assert doc["beta_common"] is None
        assert len(doc["beta"]) == 6
        echo = doc["config"]
        sensor_cfg = SensorEnsembleConfig.from_snr_db(
            p0=echo["P0"],
            obs_snr_db=echo["obs_snr_db"],
            channel_snr_db=echo["channel_snr_db"],
            tx_energy_db=echo["tx_energy_db"],
            d0=echo["d0"],
            alpha=echo["alpha"],
            beta=np.array(doc["beta"]),
        )
        source = SourceParams(echo["P0"], *echo["source"])
        geom = load_geometry(gout / "geometry.json")
        assert crlb_sgle(source, geom, sensor_cfg).sgle_bound == doc["sgle_bound"]

    def test_sweep_snr_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, K=12, n_mc=2, beta=4.0, channel_snr_db=[0.0, 10.0]
        )
        out = tmp_path / "sweep"
        assert main(["sweep-snr", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "snr_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("channel_snr_db,beta_common,rmse")
        assert len(lines) == 3
        doc = json.loads((out / "snr_sweep.json").read_text())
        # the bound tightens with channel quality
        assert doc["rows"][1]["crlb_sgle"] < doc["rows"][0]["crlb_sgle"]

    def test_sweep_snr_worker_invariance(self, tmp_path, monkeypatch):
        # blocks of 2 rounds, so 5 rounds split over a real 2-worker pool
        monkeypatch.setattr(montecarlo, "_MIN_BLOCK", 2)
        cfg = write_config(tmp_path, K=10, n_mc=5, beta=4.0, channel_snr_db=[0.0, 10.0])
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((out1, "1"), (out2, "2")):
            args = ["sweep-snr", "--config", str(cfg), "--out", str(out), "--workers", workers]
            assert main(args) == 0
        for name in ("snr_sweep.csv", "snr_sweep.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outage_mode_and_worker_invariance(self, tmp_path):
        cfg = write_config(
            tmp_path, K=8, n_geom=3, n_mc=2, beta=4.0, gamma_num=16, channel_snr_db=10.0
        )
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["outage", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["outage", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
        for name in ("outage_curve.csv", "geometry_trials.csv", "outage_curve.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = (out1 / "outage_curve.csv").read_text().splitlines()
        assert rows[0] == "gamma,ccdf_empirical,ccdf_crlb"
        assert len(rows) == 17
        ccdf = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(np.diff(ccdf[:, 1]) <= 0) and np.all(np.diff(ccdf[:, 2]) <= 0)

    @pytest.mark.parametrize(
        "kw", [{}, {"threshold_mode": "per-sensor"}, {"beta": 4.0}], ids=["common", "per-sensor", "fixed"]
    )
    def test_estimate_outage_and_sweep_agree_on_one_geometry(self, tmp_path, kw):
        # estimate, row 0 of an outage ensemble and a one-SNR sweep all
        # evaluate geometry 0 of the same seed
        base = dict(K=20, R_ex=5.0, seed=61, n_mc=4, r_t_list=[10.0, 14.0], **kw)
        runs = {
            "estimate": write_config(tmp_path, "estimate.json", **base),
            "outage": write_config(tmp_path, "outage.json", n_geom=1, **base),
            "sweep-snr": write_config(tmp_path, "sweep.json", channel_snr_db=[0.0], **base),
        }
        for mode, cfg in runs.items():
            assert main([mode, "--config", str(cfg), "--out", str(tmp_path / mode)]) == 0
        est = json.loads((tmp_path / "estimate" / "estimate_summary.json").read_text())
        trials, _ = trials_from_csv((tmp_path / "outage" / "geometry_trials.csv").read_text())
        row = trials[0]
        assert est["empirical_sgle"] == row.empirical_sgle
        assert est["sgle_var"] == row.sgle_var
        assert est["crlb_sgle"] == row.crlb_sgle
        assert est["beta_common"] == row.beta_common
        assert est["k_t"] == {f"{rt:.17g}": n for rt, n in row.k_t.items()}
        assert est["has_sub_d0_sensor"] == row.has_sub_d0_sensor
        sweep = json.loads((tmp_path / "sweep-snr" / "snr_sweep.json").read_text())["rows"][0]
        for key in ("empirical_sgle", "rmse", "crlb_sgle", "beta_common", "n_mc"):
            assert sweep[key] == est[key], key

    def test_conditioned_outage_from_trials_file(self, tmp_path):
        cfg = write_config(
            tmp_path, K=20, n_geom=4, n_mc=2, beta=4.0, gamma_num=8, channel_snr_db=10.0
        )
        out = tmp_path / "oc"
        main(["outage", "--config", str(cfg), "--out", str(out)])
        out2 = tmp_path / "cond"
        code = main(
            [
                "conditioned-outage",
                "--config",
                str(cfg),
                "--out",
                str(out2),
                "--trials",
                str(out / "geometry_trials.csv"),
            ]
        )
        assert code == 0
        doc = json.loads((out2 / "conditioned_curves.json").read_text())
        assert doc["conditioning_r_t"] == 14.0
        assert doc["curves"][0]["conditioning"] is None
        lines = (out2 / "conditioned_curves.csv").read_text().splitlines()
        assert lines[0] == "condition,n_geometries,gamma,ccdf_empirical,ccdf_crlb"

    def test_conditioned_outage_runs_own_ensemble(self, tmp_path):
        cfg = write_config(
            tmp_path, K=20, n_geom=3, n_mc=2, beta=4.0, gamma_num=8, k_t_bins=["0", "1+"]
        )
        out = tmp_path / "cond2"
        assert main(["conditioned-outage", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "geometry_trials.csv").exists()
        doc = json.loads((out / "conditioned_curves.json").read_text())
        labels = [c["conditioning"] for c in doc["curves"][1:]]
        for label in labels:
            assert label.startswith("K_T")

    def test_per_sensor_threshold_mode(self, tmp_path):
        cfg = write_config(
            tmp_path, K=5, n_geom=1, n_mc=1, gamma_num=8, threshold_mode="per-sensor"
        )
        out = tmp_path / "persensor"
        assert main(["outage", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "geometry_trials.csv").read_text().splitlines()
        # per-sensor thresholds have no scalar summary column value
        assert rows[1].endswith(",")

    def test_flag_precedence_over_file(self, tmp_path):
        cfg = write_config(tmp_path, seed=7, n_geom=2, n_mc=1, beta=4.0, gamma_num=8)
        out = tmp_path / "flagged"
        assert main(["outage", "--config", str(cfg), "--out", str(out), "--seed", "123"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["master_seed"] == 123

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SRCLOC_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, K=4)
        assert main(["geometry", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "geometry-seed7" / "geometry.json").exists()


class TestWorkers:
    def test_default_follows_cpu_affinity(self, tmp_path, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        config = load_config(write_config(tmp_path), mode="outage")
        assert config.workers is None
        assert _workers(config) == 1


def test_package_exports_resolve_and_are_not_modules():
    assert len(set(srcloc.__all__)) == len(srcloc.__all__)
    for name in srcloc.__all__:
        assert not isinstance(getattr(srcloc, name), types.ModuleType), name


def test_cli_import_leaves_out_scipy_spatial():
    # every srcloc command is a fresh process, so import cost is paid per run
    env = dict(os.environ)
    src_dir = str(Path(srcloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
    code = "import sys, srcloc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


ERROR_SAMPLES = [
    SrclocError("base"),
    PackingFailure(3, 200),
    DegenerateGeometry("sensor coincides with the source"),
    SingularFim(1e13),
    SingularFim(2.0, "information matrix inverse is not usable"),
    QuadratureFailure("tail bound above tolerance"),
    EmptySubset("no geometry satisfies the K_T condition"),
    ConfigError("bad config"),
    ParseError("config.json: line 1, column 2: Expecting value"),
    ValidationError("K"),
    ValidationError("K", "K must be an integer >= 1"),
]


def test_every_error_class_has_a_pickle_sample():
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, SrclocError)}
    assert classes == {type(e) for e in ERROR_SAMPLES}


@pytest.mark.parametrize("exc", ERROR_SAMPLES, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(exc):
    # an error raised in a pool worker reaches the parent pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args and vars(back) == vars(exc)


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"R": 50.0, "seed": 1}))
        assert main(["outage", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError"

    def test_packing_failure_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            K=100,
            R=5.0,
            R_ex=5.0,
            source=[0.0, 1.0],
            max_attempts=200,
            n_geom=1,
            n_mc=1,
            beta=4.0,
        )
        out = tmp_path / "packfail"
        assert main(["outage", "--config", str(cfg), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == "PackingFailure" and record["exit_code"] == 3

    @pytest.mark.parametrize(
        "kw, code, error_class",
        [
            (dict(K=100, R=5.0, R_ex=5.0, source=[0.0, 1.0], max_attempts=200, beta=4.0),
             3, "PackingFailure"),
            (dict(K=2, R=50.0), 4, "SingularFim"),
        ],
        ids=["packing", "singular-common-tuning"],
    )
    def test_error_in_pool_worker_keeps_exit_code(self, tmp_path, kw, code, error_class):
        cfg = write_config(tmp_path, n_geom=2, n_mc=2, **kw)
        out = tmp_path / "poolfail"
        args = ["outage", "--config", str(cfg), "--out", str(out), "--workers", "2"]
        assert main(args) == code
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == error_class and record["exit_code"] == code

    def test_numerical_error_exit_4(self, tmp_path):
        # a single sensor cannot localize: the bound is undefined
        cfg = write_config(tmp_path, K=1, beta=4.0)
        out = tmp_path / "numfail"
        assert main(["crlb", "--config", str(cfg), "--out", str(out)]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == "SingularFim"

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["outage", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "mode, flag, name, content",
        [
            ("crlb", "--geometry", "geometry.txt", "# R: 50\nindex x y\n0 1.0\n"),
            ("crlb", "--geometry", "geometry.json", '{"format": "network-geometry", "R": 50.0}'),
            ("conditioned-outage", "--trials", "trials.csv", "geometry_id,seed\n0,7\n"),
            ("conditioned-outage", "--trials", "trials.csv", ""),
        ],
        ids=["text-row", "json-no-sensors", "csv-no-beta-column", "empty-trials"],
    )
    def test_malformed_input_file_exit_2(self, tmp_path, mode, flag, name, content):
        bad = tmp_path / name
        bad.write_text(content)
        out = tmp_path / "out"
        args = [mode, "--config", str(write_config(tmp_path, beta=4.0)), "--out", str(out)]
        assert main(args + [flag, str(bad)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == "ParseError" and record["exit_code"] == 2
        assert str(bad) in record["message"]

    @pytest.mark.parametrize(
        "exc, code",
        [(BrokenProcessPool("a worker died"), 6), (KeyboardInterrupt(), 130)],
        ids=["broken-pool", "interrupt"],
    )
    def test_pool_failure_and_interrupt_exit_codes(self, tmp_path, monkeypatch, exc, code):
        def runner(config, out):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "outage", runner)
        out = tmp_path / "stopped"
        assert main(["outage", "--config", str(write_config(tmp_path)), "--out", str(out)]) == code
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == type(exc).__name__ and record["exit_code"] == code
