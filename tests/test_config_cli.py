import ast
import json
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import srcloc
from srcloc import cli, crlb, errors, montecarlo
from srcloc.cli import _workers, main
from srcloc.config import GEOMETRY_MODES, MODES, ExperimentConfig, load_config, parse_k_t_bin
from srcloc.crlb import crlb_sgle
from srcloc.errors import (
    ConfigError,
    DegenerateGeometry,
    PackingFailure,
    ParseError,
    SingularFim,
    SrclocError,
    ValidationError,
)
from srcloc.geometry import SourceParams, load_geometry
from srcloc.montecarlo import trials_from_csv
from srcloc.signal_model import SensorEnsembleConfig
from tests import fingerprint

TRIALS_HEADER = (
    "geometry_id,seed,empirical_sgle,sgle_var,crlb_sgle,crlb_singular,k_t@14,"
    "has_sub_d0_sensor,n_mc,beta_common\n"
)

# a geometry file that states K = 20 but lists 8 sensors, as a truncated
# file would
_EIGHT_SENSORS = [[3.0 * i, 1.0] for i in range(8)]
SHORT_GEOMETRY_JSON = json.dumps({"format": "network-geometry", "K": 20, "R": 50.0, "sensors": _EIGHT_SENSORS})
# the retired text form: metadata comments, a header, `index x y` rows
OLD_TEXT_GEOMETRY = "# network-geometry v1\n# K: 2\n# R: 50\nindex x y\n0 1.0 2.0\n1 3.0 4.0\n"


def write_config(tmp_path: Path, name="config.json", **kw) -> Path:
    base = {"K": 8, "R": 50.0, "seed": 7}
    base.update(kw)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def _conditions(out: Path) -> list:
    """The curve labels of an outage run's conditioned_curves.csv, in file order."""
    rows = (out / "conditioned_curves.csv").read_text().splitlines()[1:]
    return list(dict.fromkeys(row.split(",")[0] for row in rows))


class TestLoadConfig:
    def test_reference_defaults_echo(self, tmp_path):
        path = write_config(tmp_path, K=50, R=50.0, seed=1)
        cfg = load_config(path, mode="outage")
        assert cfg.K == 50 and cfg.R == 50.0
        assert cfg.P0 == 10_000.0 and cfg.alpha == 2.0 and cfg.d0 == 1.0
        assert cfg.obs_snr_db == 40.0
        assert cfg.source == (5.0, 10.0)
        assert cfg.n_geom == 100 and cfg.n_mc == 200

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

    @pytest.mark.parametrize("mode", MODES)
    def test_channel_snr_list_exits_2_in_every_mode(self, tmp_path, capsys, mode):
        # an SNR sweep is a loop over estimate runs, one scalar SNR each
        path = write_config(tmp_path, channel_snr_db=[0.0, 10.0, 20.0])
        assert main([mode, "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and "channel_snr_db" in record["message"]

    def test_invariant_validation(self, tmp_path):
        for field, bad in [
            ("K", 0),
            ("R", -1.0),
            ("n_mc", 0),
            ("alpha", 0.0),
            ("source", [100.0, 0.0]),  # outside the disk
            ("threshold_mode", "nope"),
            ("gamma_min", -2.0),
            # the only checks of these values: the modules take them as checked
            ("R_ex", -0.5),
            ("max_attempts", 0),
            ("P0", 0.0),
            ("d0", 0.0),
            ("n_geom", 0),
            ("r_t_list", [-1.0]),
            ("gamma_max", 0.0),
        ]:
            path = write_config(tmp_path, name=f"{field}.json", **{field: bad})
            with pytest.raises(ValidationError) as err:
                load_config(path, mode="outage")
            assert err.value.field == field

    def test_echo_key_order(self):
        # the echo is embedded in every JSON result file and the manifest,
        # so a reordered field would move their bytes
        assert list(ExperimentConfig().to_dict()) == [
            "mode", "K", "R", "R_ex", "source", "P0", "d0", "alpha", "obs_snr_db",
            "channel_snr_db", "beta", "threshold_mode", "n_geom", "n_mc", "gamma_num",
            "gamma_min", "gamma_max", "r_t_list", "k_t_bins", "source_exclusion",
            "max_attempts", "seed", "geometry_file", "trials_file", "dump_energies",
        ]

    @pytest.mark.parametrize(
        "mode, kw",
        [
            ("estimate", {"obs_snr_db": 4000}),  # sigma2 underflows to 0
            ("estimate", {"channel_snr_db": 4000}),  # tau2 underflows to 0
        ],
        ids=["sigma2", "tau2"],
    )
    def test_degenerate_noise_level_rejected(self, tmp_path, mode, kw):
        path = write_config(tmp_path, beta=4.0, **kw)
        with pytest.raises(ValidationError) as err:
            load_config(path, mode=mode)
        assert err.value.field == next(iter(kw))

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
        pred, label = parse_k_t_bin("0")
        assert label == "K_T==0" and pred(0) and not pred(1)
        with pytest.raises(ValidationError):
            parse_k_t_bin("x")

    @pytest.mark.parametrize("mode", MODES)
    def test_any_value_of_any_key_loads_or_is_a_config_error(self, tmp_path, mode):
        # every key, including one added later, either takes the value or
        # refuses it as a configuration error, never a crash
        path = tmp_path / "odd.json"
        for f in fields(ExperimentConfig):
            if f.name == "mode":
                continue
            for bad in (None, True, {}, [], "", 10**400, -1, 1e308):
                path.write_text(json.dumps({"K": 8, "R": 50.0, "seed": 7, f.name: bad}))
                try:
                    load_config(path, mode=mode)
                except ConfigError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{f.name} = {bad!r} under {mode}: {exc!r}")


class TestCliModes:
    def test_geometry_mode_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, K=12, R_ex=3.0)
        out = tmp_path / "out"
        assert main(["geometry", "--config", str(cfg), "--out", str(out)]) == 0
        geom = load_geometry(out / "geometry.json")
        assert geom.K == 12 and geom.R_ex == 3.0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["mode"] == "geometry" and manifest["master_seed"] == 7
        assert manifest["artifacts"] == ["geometry.json"]

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

    def test_geometry_from_file_records_no_seed(self, tmp_path):
        # a geometry read from a file was placed from no seed of this run
        first, second = tmp_path / "placed", tmp_path / "resaved"
        cfg = write_config(tmp_path, K=9, R_ex=2.0, seed=3)
        assert main(["geometry", "--config", str(cfg), "--out", str(first)]) == 0
        cfg = write_config(tmp_path, name="c2.json", seed=999)
        geometry = ["--geometry", str(first / "geometry.json")]
        assert main(["geometry", "--config", str(cfg), "--out", str(second), *geometry]) == 0
        placed, resaved = (json.loads((out / "geometry.json").read_text()) for out in (first, second))
        assert placed["seed"] == 3 and resaved["seed"] is None
        assert [resaved[k] for k in ("sensors", "R", "R_ex")] == [placed[k] for k in ("sensors", "R", "R_ex")]

    def test_source_outside_geometry_file_disk_exit_2(self, tmp_path, capsys):
        # the config holds no R, so only the file's disk can reject the source
        gout = tmp_path / "g"
        assert main(["geometry", "--config", str(write_config(tmp_path, R=10.0, source=[0.0, 0.0])), "--out", str(gout)]) == 0
        path = tmp_path / "no-r.json"
        path.write_text(json.dumps({"seed": 7, "beta": 4.0, "source": [40.0, 0.0]}))
        geometry = ["--geometry", str(gout / "geometry.json")]
        assert main(["crlb", "--config", str(path), "--out", str(tmp_path / "crlb"), *geometry]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error_class"] == "ValidationError" and record["exit_code"] == 2
        assert "source" in record["message"]
        assert not (tmp_path / "crlb" / "crlb.json").exists()

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
            d0=echo["d0"],
            alpha=echo["alpha"],
            beta=np.array(doc["beta"]),
        )
        source = SourceParams(echo["P0"], *echo["source"])
        geom = load_geometry(gout / "geometry.json")
        assert crlb_sgle(source, geom, sensor_cfg).sgle_bound == doc["sgle_bound"]

    @pytest.mark.parametrize("mode", ["crlb", "estimate"])
    def test_tuned_command_runs_one_exact_pass(self, tmp_path, monkeypatch, mode):
        # once the channel's information curve is built, a tuned geometry
        # calls the exact kernel once and decomposes one matrix once
        cfg = write_config(tmp_path, K=10, n_mc=2, channel_snr_db=4.5)
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "warm")]) == 0
        calls = {"kernel": 0, "eigvalsh": 0}
        kernel, eigvalsh = crlb.mixture_integral, np.linalg.eigvalsh

        def counting_kernel(*args, **kwargs):
            calls["kernel"] += 1
            return kernel(*args, **kwargs)

        def counting_eigvalsh(a):
            calls["eigvalsh"] += np.ndim(a) == 2  # one matrix, not a stack of candidates
            return eigvalsh(a)

        monkeypatch.setattr(crlb, "mixture_integral", counting_kernel)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "counted")]) == 0
        assert calls == {"kernel": 1, "eigvalsh": 1}

    def test_outage_mode_and_worker_invariance(self, tmp_path):
        cfg = write_config(
            tmp_path, K=8, n_geom=3, n_mc=2, beta=4.0, gamma_num=16, channel_snr_db=10.0
        )
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["outage", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["outage", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
        for name in ("outage_curve.csv", "geometry_trials.csv", "conditioned_curves.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = (out1 / "outage_curve.csv").read_text().splitlines()
        assert rows[0] == "gamma,ccdf_empirical,ccdf_crlb"
        assert len(rows) == 17
        ccdf = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(np.diff(ccdf[:, 1]) <= 0) and np.all(np.diff(ccdf[:, 2]) <= 0)

    @pytest.mark.parametrize("policy, nodes", [("common", 1155), ("per-sensor", crlb._S_GRID.size)])
    def test_ensemble_tunes_each_channel_once(self, tmp_path, monkeypatch, policy, nodes):
        # the channel's tuning data, the curve's one 1,155-node kernel call
        # or s*'s one grid call, is built once per command: at one worker
        # for every geometry, and at two in the parent before its pool
        # forks; the results are the same either way
        calls = []
        real = crlb.mixture_integral

        def counting(s, eb, tau2):
            calls.append(np.size(s))
            return real(s, eb, tau2)

        monkeypatch.setattr(crlb, "mixture_integral", counting)
        cfg = write_config(tmp_path, K=8, n_geom=3, n_mc=2, threshold_mode=policy)
        outs = {}
        for workers in (1, 2):
            crlb._information_curve.cache_clear()
            crlb._best_operating_point.cache_clear()
            calls.clear()
            outs[workers] = tmp_path / f"w{workers}"
            args = ["outage", "--config", str(cfg), "--out", str(outs[workers]), "--workers", str(workers)]
            assert main(args) == 0
            assert calls.count(nodes) == 1, (workers, calls)
        for name in ("outage_curve.csv", "geometry_trials.csv", "conditioned_curves.csv"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()

    @pytest.mark.parametrize(
        "kw", [{}, {"threshold_mode": "per-sensor"}, {"beta": 4.0}], ids=["common", "per-sensor", "fixed"]
    )
    def test_estimate_outage_and_sweep_agree_on_one_geometry(self, tmp_path, kw):
        # estimate and row 0 of an outage ensemble both evaluate geometry 0
        # of the same seed
        base = dict(K=20, R_ex=5.0, seed=61, n_mc=4, r_t_list=[10.0, 14.0], **kw)
        runs = {
            "estimate": write_config(tmp_path, "estimate.json", **base),
            "outage": write_config(tmp_path, "outage.json", n_geom=1, **base),
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

    def test_conditioned_outage_from_trials_file(self, tmp_path):
        # re-aggregating a run's own trials table reruns nothing and moves no byte
        cfg = write_config(
            tmp_path, K=20, n_geom=4, n_mc=2, beta=4.0, gamma_num=8, channel_snr_db=10.0
        )
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert main(["outage", "--config", str(cfg), "--out", str(fresh)]) == 0
        trials = str(fresh / "geometry_trials.csv")
        assert main(["outage", "--config", str(cfg), "--out", str(reused), "--trials", trials]) == 0
        for name in ("outage_curve.csv", "conditioned_curves.csv"):
            assert (fresh / name).read_bytes() == (reused / name).read_bytes(), name
        manifest = json.loads((reused / "run_manifest.json").read_text())
        assert manifest["artifacts"] == ["outage_curve.csv", "conditioned_curves.csv"]
        lines = (reused / "conditioned_curves.csv").read_text().splitlines()
        assert lines[0] == "condition,n_geometries,gamma,ccdf_empirical,ccdf_crlb"
        conditions = _conditions(reused)
        assert conditions[0] == "all" and len(conditions) > 1
        assert all(c.endswith("@R_T=14") for c in conditions[1:])

    def test_conditioned_outage_runs_own_ensemble(self, tmp_path):
        cfg = write_config(
            tmp_path, K=20, n_geom=3, n_mc=2, beta=4.0, gamma_num=8, k_t_bins=["0", "1+"]
        )
        out = tmp_path / "cond2"
        assert main(["outage", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "geometry_trials.csv").exists()
        for label in _conditions(out)[1:]:
            assert label.startswith("K_T")

    def test_k_t_bin_that_holds_no_geometry_writes_no_curve(self, tmp_path):
        # no geometry of 20 sensors has 99 near the source
        cfg = write_config(
            tmp_path, K=20, n_geom=3, n_mc=2, beta=4.0, gamma_num=8, k_t_bins=["0+", "99+"]
        )
        out = tmp_path / "out"
        assert main(["outage", "--config", str(cfg), "--out", str(out)]) == 0
        assert _conditions(out) == ["all", "K_T>=0@R_T=14"]

    def test_outage_conditions_at_every_radius_in_list_order(self, tmp_path):
        # a second radius appends its curves to the one-radius run's bytes
        base = dict(K=20, n_geom=4, n_mc=2, beta=4.0, gamma_num=8, k_t_bins=["0", "1", "2+"])
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["outage", "--config", str(write_config(tmp_path, "1.json", r_t_list=[10.0], **base)),
                     "--out", str(one)]) == 0
        assert main(["outage", "--config", str(write_config(tmp_path, "2.json", r_t_list=[10.0, 20.0], **base)),
                     "--out", str(two)]) == 0
        first = (one / "conditioned_curves.csv").read_bytes()
        both = (two / "conditioned_curves.csv").read_bytes()
        assert both.startswith(first) and len(both) > len(first)
        labels = _conditions(two)[1:]
        at_10 = [c for c in labels if c.endswith("@R_T=10")]
        assert labels == at_10 + [c for c in labels if c.endswith("@R_T=20")] and at_10

    def test_empty_radius_list_writes_the_whole_curve_alone(self, tmp_path):
        cfg = write_config(tmp_path, K=8, n_geom=2, n_mc=2, beta=4.0, gamma_num=8, r_t_list=[])
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert main(["outage", "--config", str(cfg), "--out", str(fresh)]) == 0
        assert "k_t@" not in (fresh / "geometry_trials.csv").read_text()
        trials = str(fresh / "geometry_trials.csv")
        assert main(["outage", "--config", str(cfg), "--out", str(reused), "--trials", trials]) == 0
        assert _conditions(fresh) == _conditions(reused) == ["all"]

    def test_trials_table_conditions_at_its_own_radii(self, tmp_path):
        # --trials splits at the table's k_t@ columns, whatever r_t_list says
        base = dict(K=20, n_geom=4, n_mc=2, beta=4.0, gamma_num=8)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        cfg = write_config(tmp_path, "fresh.json", r_t_list=[10.0], **base)
        assert main(["outage", "--config", str(cfg), "--out", str(fresh)]) == 0
        other = write_config(tmp_path, "other.json", r_t_list=[14.0, 20.0], **base)
        trials = str(fresh / "geometry_trials.csv")
        assert main(["outage", "--config", str(other), "--out", str(reused), "--trials", trials]) == 0
        assert (fresh / "conditioned_curves.csv").read_bytes() == (reused / "conditioned_curves.csv").read_bytes()

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

    def test_largest_seed_names_a_writable_default_directory(self, tmp_path, monkeypatch, capsys):
        # the default directory is <mode>-seed<seed>; the seed ceiling keeps
        # that name writable, and a seed above it is a configuration error
        monkeypatch.setenv("SRCLOC_OUT", str(tmp_path / "envout"))
        top = 10**200
        assert main(["geometry", "--config", str(write_config(tmp_path, K=4, seed=top))]) == 0
        assert (tmp_path / "envout" / f"geometry-seed{top}" / "geometry.json").exists()
        assert main(["geometry", "--config", str(write_config(tmp_path, K=4, seed=top + 1))]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and "seed" in record["message"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_artifacts(mode: str, dump_energies=False, trials=False) -> list[str]:
    """The result files README's Artifacts table lists for one run of ``mode``, in table order."""
    section = README.read_text().split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
    names, row_mode = [], None
    for line in section.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        row_mode = cells[0] or row_mode
        if row_mode != mode:
            continue
        if "(opt)" in cells[1] and not dump_energies or "not with `--trials`" in cells[1] and trials:
            continue
        names += re.findall(r"`([\w.]+\.(?:csv|json))`", cells[1])
    return names


def test_manifest_artifacts_match_readme_table(tmp_path):
    # each mode writes exactly the files README lists for it, plus the manifest
    cfg = str(write_config(tmp_path, K=8, n_geom=2, n_mc=2, beta=4.0, gamma_num=8))
    runs = [
        ("geometry", "geometry", [], {}),
        ("estimate", "estimate", [], {}),
        ("estimate-dump", "estimate", ["--dump-energies"], {"dump_energies": True}),
        ("crlb", "crlb", [], {}),
        ("outage", "outage", [], {}),
        ("outage-trials", "outage", ["--trials", str(tmp_path / "outage" / "geometry_trials.csv")], {"trials": True}),
    ]
    for name, mode, flags, kw in runs:
        out = tmp_path / name
        assert main([mode, "--config", cfg, "--out", str(out), *flags]) == 0, name
        listed = _readme_artifacts(mode, **kw)
        assert listed, name
        assert json.loads((out / "run_manifest.json").read_text())["artifacts"] == listed, name
        assert sorted(f.name for f in out.iterdir()) == sorted([*listed, "run_manifest.json"]), name


def test_result_files_match_frozen_fingerprint(tmp_path):
    # every result file of a fixed command matrix hashes as frozen in
    # tests/fingerprint.json
    frozen = json.loads(fingerprint.FIXTURE.read_text())["runs"]
    got = fingerprint.fingerprint(tmp_path)
    assert list(got) == list(frozen)
    for label, hashes in got.items():
        assert hashes == frozen[label], label


class TestWorkers:
    def test_default_follows_cpu_affinity(self, tmp_path, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        config = load_config(write_config(tmp_path), mode="outage")
        assert config.workers is None
        assert _workers(config) == 1


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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, skipping lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    for module in sorted(Path(srcloc.__file__).parent.glob("*.py")):
        assert _unused_imports(module.read_text()) == [], module.name


def test_unused_import_check_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from . import likelihood  # noqa: F401\n"
        "from .errors import (\n    ParseError,\n    SingularFim,\n)\n"
        "def f(x: np.ndarray) -> SingularFim:\n    return os.sep\n"
    )
    assert _unused_imports(source) == ["line 2: sys", "line 6: ParseError"]


def _reads(node, params=frozenset()) -> set:
    """Names a syntax tree reads, less the reads of an enclosing function's parameters."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        params = params | {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return set() if node.id in params else {node.id}
    return set().union(*(_reads(child, params) for child in ast.iter_child_nodes(node)))


def _uncalled_public_functions(sources: dict, entry_points: set) -> list[str]:
    """``module.name`` of each public top-level function in a package, given
    as {module: source}, that no other module imports and its own module
    never reads, leaving out the (module, name) entry points."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {
        (node.module.split(".")[-1], alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
    }
    uncalled = []
    for module, tree in trees.items():
        reads = _reads(tree)
        uncalled += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and node.name not in reads
            and (module, node.name) not in imported | entry_points
        ]
    return uncalled


def test_every_public_function_has_a_caller_in_the_package():
    # a public function only tests call is API kept for the tests' sake;
    # the command's entry point is called from outside
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(srcloc.__file__).resolve().parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"].values()
    entry_points = {tuple(target.removeprefix("srcloc.").split(":")) for target in scripts}
    package = Path(srcloc.__file__).parent
    sources = {module.stem: module.read_text() for module in sorted(package.glob("*.py"))}
    assert _uncalled_public_functions(sources, entry_points) == []


def test_uncalled_function_check_sees_what_it_must():
    a = (
        "from dataclasses import dataclass\n"
        "def read(): pass\n"
        "def imported(): pass\n"
        "def unread(): pass\n"
        "def shadowed(): pass\n"
        "def size(): pass\n"
        "def main(): pass\n"
        "def _private(): pass\n"
        "def uses(shadowed):\n    return shadowed + read()\n"
        "HANDLERS = [uses, lambda unread: unread]\n"
        "@dataclass\nclass C:\n    size: int = 0\n"
    )
    sources = {"a": a, "b": "from .a import imported\n"}
    assert _uncalled_public_functions(sources, {("a", "main")}) == ["a.unread", "a.shadowed", "a.size"]


def _unraised_error_classes(sources: dict, base: str = "SrclocError") -> list[str]:
    """Classes of a package, given as {module: source}, that derive from
    ``base``, have no subclass of their own, and that no ``raise``
    statement in the package names."""
    trees = [ast.parse(source) for source in sources.values()]
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def derives(name):
        return any(b == base or derives(b) for b in bases.get(name, ()))

    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    parents = set().union(*bases.values())
    return [name for name in bases if derives(name) and name not in parents and name not in raised]


def test_every_leaf_error_class_is_raised_in_the_package():
    # an error class nothing raises is a code path that cannot happen; a
    # class with subclasses is caught by its base name and need not be raised
    package = Path(srcloc.__file__).parent
    sources = {module.stem: module.read_text() for module in sorted(package.glob("*.py"))}
    assert _unraised_error_classes(sources) == []


def test_unraised_error_class_check_sees_what_it_must():
    errors_src = (
        "class SrclocError(Exception): pass\n"
        "class Base(SrclocError): pass\n"
        "class Called(Base): pass\n"
        "class Bare(SrclocError): pass\n"
        "class Dotted(SrclocError): pass\n"
        "class Dead(SrclocError): pass\n"
        "class Caught(SrclocError): pass\n"
        "class Unrelated(Exception): pass\n"
    )
    user = (
        "from . import errors\n"
        "from .errors import Bare, Called, Caught\n"
        "def f(x):\n"
        "    try:\n"
        "        raise Called(x)\n"
        "    except Caught:\n"
        "        raise\n"
        "    if x:\n"
        "        raise Bare\n"
        "    raise errors.Dotted() from None\n"
    )
    assert _unraised_error_classes({"errors": errors_src, "user": user}) == ["Dead", "Caught"]


_RAISE_MODE_SETTERS = {"numpy.seterr", "scipy.special.seterr", "scipy.special.errstate"}


def _raise_mode_calls(sources: dict) -> list[str]:
    """Calls in a package, given as {module: source}, that can turn a
    floating-point event into an exception: numpy's or scipy.special's
    seterr, scipy.special's errstate, or numpy's errstate given "raise".
    Names are resolved through each module's imports."""
    found = []  # (module, line, name)
    for module, source in sources.items():
        tree = ast.parse(source)
        names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):  # "import a.b" binds a, "import a.b as c" binds c to a.b
                names.update((a.asname, a.name) if a.asname else (a.name.split(".")[0],) * 2 for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            attrs, func = [], node.func
            while isinstance(func, ast.Attribute):
                attrs.insert(0, func.attr)
                func = func.value
            if not isinstance(func, ast.Name):
                continue
            name = ".".join([names.get(func.id, func.id), *attrs])
            args = [*node.args, *(k.value for k in node.keywords)]
            raising = any(isinstance(a, ast.Constant) and a.value == "raise" for a in args)
            if name in _RAISE_MODE_SETTERS or (name == "numpy.errstate" and raising):
                found.append((module, node.lineno, name))
    return [f"{module}:{line} {name}" for module, line, name in sorted(found)]


def test_no_module_makes_floating_point_events_raise():
    # the CLI maps no FloatingPointError to an exit code: every numpy and
    # scipy.special error mode in the package stays at warn or ignore
    package = Path(srcloc.__file__).parent
    sources = {module.stem: module.read_text() for module in sorted(package.glob("*.py"))}
    assert _raise_mode_calls(sources) == []


def test_raise_mode_check_sees_what_it_must():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "import scipy.special\n"
        "from scipy import special as sp\n"
        "from scipy.special import errstate\n"
        "from numpy import seterr as modes\n"
        "def f(x, kw):\n"
        "    with np.errstate(over='ignore', invalid='ignore'):\n"
        "        pass\n"
        "    with np.errstate(divide='raise'):\n"
        "        pass\n"
        "    numpy.errstate('raise')\n"
        "    np.seterr(all='ignore')\n"
        "    modes(over='warn')\n"
        "    sp.seterr(all='raise')\n"
        "    scipy.special.errstate(all='ignore')\n"
        "    errstate(all='raise')\n"
        "    x.errstate(all='raise')\n"
        "    np.errstate(**kw)\n"
    )
    assert _raise_mode_calls({"m": source}) == [
        "m:10 numpy.errstate", "m:12 numpy.errstate", "m:13 numpy.seterr", "m:14 numpy.seterr",
        "m:15 scipy.special.seterr", "m:16 scipy.special.errstate", "m:17 scipy.special.errstate",
    ]


_SCIPY_FREE_MODES = """
import sys
scipy_modules = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
pool_modules = lambda: sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
import srcloc.cli
assert scipy_modules() == [], ("import srcloc.cli", scipy_modules())
assert pool_modules() == [], ("import srcloc.cli", pool_modules())
config, per_sensor, trials, out = sys.argv[1:]
runs = {
    "geometry": ["geometry", "--config", config],
    "crlb-common": ["crlb", "--config", config],
    "crlb-per-sensor": ["crlb", "--config", per_sensor],
    "outage-trials": ["outage", "--config", config, "--trials", trials],
}
for name, argv in runs.items():
    assert srcloc.cli.main(argv + ["--out", f"{out}/{name}"]) == 0, name
    assert scipy_modules() == [], (name, scipy_modules())
    assert pool_modules() == [], (name, pool_modules())
"""


def test_only_ml_modes_load_scipy(tmp_path):
    # scipy is the likelihood layer's import: a bound-only command never
    # loads it, and an ensemble loads it in the parent before its pool forks.
    # multiprocessing and concurrent.futures likewise load only where a
    # pool starts.
    env = dict(os.environ)
    src_dir = str(Path(srcloc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
    config = write_config(tmp_path, n_geom=2, n_mc=2, gamma_num=8, channel_snr_db=10.0)
    per_sensor = write_config(tmp_path, name="per-sensor.json", threshold_mode="per-sensor")
    outage = (
        "import sys, srcloc.cli; "
        "code = srcloc.cli.main(['outage', '--workers', '2', '--config', sys.argv[1], '--out', sys.argv[2]]); "
        "print(code, 'scipy.special' in sys.modules)"
    )
    trials = tmp_path / "outage" / "geometry_trials.csv"
    runs = [
        [outage, config, trials.parent],
        [_SCIPY_FREE_MODES, config, per_sensor, trials, tmp_path],
    ]
    results = [
        subprocess.run(
            [sys.executable, "-c", *map(str, argv)], env=env, capture_output=True, text=True, timeout=120
        )
        for argv in runs
    ]
    for res in results:
        assert res.returncode == 0, res.stderr
    assert results[0].stdout.split() == ["0", "True"]


ERROR_SAMPLES = [
    SrclocError("base"),
    PackingFailure("could not place sensor 3 after 200 attempts"),
    DegenerateGeometry("sensor coincides with the source"),
    SingularFim("Fisher information matrix is singular (condition indicator 1.000e+13)"),
    SingularFim("information matrix inverse is not usable"),
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
        # a required key in neither the file nor the flags
        path = tmp_path / "bad.json"
        for doc, key in (({"R": 50.0, "seed": 1}, "K"), ({"K": 8, "R": 50.0}, "seed")):
            path.write_text(json.dumps(doc))
            assert main(["outage", "--config", str(path)]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error_class"] == "ValidationError" and repr(key) in record["message"]

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
            (dict(alpha=1e200), 4, "SingularFim"),
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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kw", [{"R": 1e200}, {"P0": 1e308, "beta": 4.0}], ids=["R", "P0"])
    def test_value_above_ceiling_exit_2_in_every_mode(self, tmp_path, capsys, mode, kw):
        # R**2 overflowed in the disk test, and P0 * 10 in the ML search's seeds
        path = write_config(tmp_path, n_geom=2, n_mc=2, **kw)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and next(iter(kw)) in record["message"]

    @pytest.mark.parametrize("mode", ["crlb", "estimate", "outage"])
    def test_non_finite_information_exit_4(self, tmp_path, mode):
        # a decay exponent this large drives the information matrix to inf and
        # nan, which reads as singular rather than reaching the eigensolver
        cfg = write_config(tmp_path, alpha=1e200, n_geom=2, n_mc=2)
        out = tmp_path / "numfail"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == "SingularFim"

    def test_numerical_error_exit_4(self, tmp_path):
        # sensors on one line through the source cannot localize across
        # it: the bound is undefined
        geometry = tmp_path / "collinear.json"
        sensors = [[5.0 + t, 10.0 + 2.0 * t] for t in (-2.0, -1.0, 1.0, 2.0, 3.0)]
        geometry.write_text(json.dumps({"format": "network-geometry", "R": 50.0, "sensors": sensors}))
        cfg = write_config(tmp_path, beta=4.0)
        out = tmp_path / "numfail"
        assert main(["crlb", "--config", str(cfg), "--out", str(out), "--geometry", str(geometry)]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == "SingularFim"

    @pytest.mark.parametrize(
        "mode, kw",
        [("crlb", {}), ("crlb", {"threshold_mode": "per-sensor"}), ("crlb", {"beta": 4.0}), ("estimate", {"beta": 4.0})],
        ids=["crlb-common", "crlb-per-sensor", "crlb-fixed", "estimate-fixed"],
    )
    def test_sensor_at_the_source_exit_4(self, tmp_path, mode, kw):
        # the bound's gradients are undefined at a sensor on the source,
        # whether tuning or the bound itself reaches them first
        geometry = tmp_path / "on_source.json"
        sensors = [[5.0, 10.0], [-20.0, 3.0], [12.0, -30.0], [-8.0, -15.0]]
        geometry.write_text(json.dumps({"format": "network-geometry", "R": 50.0, "sensors": sensors}))
        cfg = write_config(tmp_path, n_mc=2, **kw)
        out = tmp_path / "numfail"
        assert main([mode, "--config", str(cfg), "--out", str(out), "--geometry", str(geometry)]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == "DegenerateGeometry" and record["exit_code"] == 4

    @pytest.mark.parametrize(
        "mode, kw",
        [
            ("crlb", {"K": 1, "beta": 4.0}),
            ("crlb", {"K": 2}),
            ("estimate", {"K": 2}),
            ("outage", {"K": 2, "threshold_mode": "per-sensor"}),
            ("outage", {"K": 1}),
        ],
        ids=["crlb-fixed-K1", "crlb-common-K2", "estimate-common-K2", "outage-per-sensor-K2", "outage-common-K1"],
    )
    def test_too_few_sensors_for_the_bound_exit_2(self, tmp_path, capsys, mode, kw):
        # fewer than 3 sensors leave the information matrix singular at any
        # thresholds, so crlb and threshold tuning are refused before any work
        path = write_config(tmp_path, n_geom=2, n_mc=2, **kw)
        out = tmp_path / "out"
        assert main([mode, "--config", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and record["message"].startswith(f"K = {kw['K']}:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, kw, code",
        [("crlb", {"beta": 4.0}, 2), ("estimate", {"threshold_mode": "per-sensor"}, 2), ("estimate", {"beta": 4.0}, 0)],
        ids=["crlb-fixed", "estimate-per-sensor", "estimate-fixed"],
    )
    def test_too_few_sensors_in_a_geometry_file(self, tmp_path, mode, kw, code):
        # a geometry file meets the 3-sensor rule once it is read
        geometry = tmp_path / "two.json"
        geometry.write_text(json.dumps({"format": "network-geometry", "R": 50.0, "sensors": [[1.0, 2.0], [-3.0, 4.0]]}))
        out = tmp_path / "out"
        args = [mode, "--config", str(write_config(tmp_path, n_mc=2, **kw)), "--out", str(out), "--geometry", str(geometry)]
        assert main(args) == code
        if code == 2:
            record = json.loads((out / "error.json").read_text())
            assert record["error_class"] == "ValidationError" and record["message"].startswith("K = 2:")

    @pytest.mark.parametrize("mode", ["estimate", "outage"])
    def test_fixed_thresholds_run_with_two_sensors(self, tmp_path, mode):
        # with a fixed threshold nothing is tuned: the run completes and
        # records the bound as singular
        path = write_config(tmp_path, K=2, beta=4.0, n_geom=2, n_mc=2)
        out = tmp_path / "out"
        assert main([mode, "--config", str(path), "--out", str(out), "--workers", "1"]) == 0
        if mode == "estimate":
            assert json.loads((out / "estimate_summary.json").read_text())["crlb_singular"] is True
        else:
            trials, _ = trials_from_csv((out / "geometry_trials.csv").read_text())
            assert [tr.crlb_singular for tr in trials] == [True, True]

    def test_degenerate_noise_level_exit_2(self, tmp_path, capsys):
        path = tmp_path / "loud.json"
        path.write_text(json.dumps({"K": 5, "R": 50.0, "seed": 1, "obs_snr_db": 4000, "beta": 4.0}))
        assert main(["estimate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and "obs_snr_db" in record["message"]

    @pytest.mark.parametrize("channel_snr_db", [-158.0, -170.0])
    @pytest.mark.parametrize("mode", ["crlb", "estimate"])
    def test_degenerate_channel_snr_exit_2(self, tmp_path, capsys, mode, channel_snr_db):
        # tau2 so far above eb that 1/(eb + tau2) rounds to 1/tau2: the two
        # energy branches are one, with fixed or tuned thresholds
        for kw in ({}, {"beta": 4.0}):
            path = write_config(tmp_path, K=20, n_mc=2, channel_snr_db=channel_snr_db, **kw)
            assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error_class"] == "ValidationError" and "channel_snr_db" in record["message"]

    def test_lowest_distinct_channel_snr_runs(self, tmp_path):
        # at -161 dB the two branch rates still differ in floating point
        path = write_config(tmp_path, K=20, channel_snr_db=-161.0)
        assert main(["crlb", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("mode", ["crlb", "estimate", "outage"])
    def test_channel_snr_ceiling(self, tmp_path, capsys, mode):
        # 300 dB, the ceiling, runs with tuned thresholds and warns of
        # nothing; above it a run exits 2 before its output directory
        # exists, as at 1,550 dB, where the kernel's squared gap overflows
        path = write_config(tmp_path, K=10, n_geom=2, n_mc=2, gamma_num=8, channel_snr_db=300.0)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "top")]) == 0
        assert capsys.readouterr().err == ""
        for snr in (float(np.nextafter(300.0, np.inf)), 1550.0):
            path = write_config(tmp_path, K=10, channel_snr_db=snr)
            out = tmp_path / f"over-{snr}"
            assert main([mode, "--config", str(path), "--out", str(out)]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error_class"] == "ValidationError" and "channel_snr_db" in record["message"]
            assert not out.exists()

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("r_t_list", ["abc"]),
            ("r_t_list", ["14"]),
            ("r_t_list", [True]),
            ("r_t_list", [float("inf")]),
            ("r_t_list", [14, 14.0]),  # a radius listed twice
            ("source", [True, 0.0]),
            ("source", [0.0, False]),
            ("profile", []),  # a removed key
            # integers beyond the float range
            ("channel_snr_db", 10**400),
            ("source", [10**400, 0]),
            ("r_t_list", [10**400]),
            # counts beyond their ceilings, rejected before any work starts
            ("K", 10**400),
            ("n_geom", 10**400),
            ("n_mc", 10**400),
            ("gamma_num", 10**400),
            ("max_attempts", 10**400),
            ("workers", 10**400),
            ("K", 10**5 + 1),
            ("n_geom", 10**7 + 1),
            ("n_mc", 10**7 + 1),
            ("gamma_num", 10**6 + 1),
            ("max_attempts", 10**9 + 1),
            ("workers", 257),
            # a trials table path that is not a nonempty string
            ("trials_file", 5),
            ("trials_file", ""),
            # null where the default is not null
            ("R_ex", None),
            ("source_exclusion", None),
            ("P0", None),
            ("d0", None),
            ("alpha", None),
            ("gamma_min", None),
            ("max_attempts", None),
            ("gamma_num", None),
            # beyond the R, d0, P0 and channel SNR ceilings, or a source whose square overflows
            ("R", 1e200),
            ("d0", 1e155),
            ("P0", 1e308),
            ("channel_snr_db", float(np.nextafter(300.0, np.inf))),
            ("source", [1e200, 0.0]),
            # a K_T bin with a negative count
            ("k_t_bins", ["-1"]),
            ("k_t_bins", ["1", "-2+"]),
            # a fixed beta where each sensor's threshold is tuned, and none where it is fixed
            ("beta", {"beta": 4.0, "threshold_mode": "per-sensor"}),
            ("beta", {"threshold_mode": "fixed"}),
            # one K_T bin spec, not a list of them
            ("k_t_bins", "3+"),
            # a seed whose default directory name would be too long
            ("seed", 10**300),
        ],
        ids=[
            "r_t-word", "r_t-numeric-string", "r_t-bool", "r_t-inf", "r_t-repeated", "source-bool-x", "source-bool-y",
            "profile-list", "snr-huge-int", "source-huge-int", "r_t_list-huge-int",
            "K-huge-int", "n_geom-huge-int", "n_mc-huge-int", "gamma_num-huge-int",
            "max_attempts-huge-int", "workers-huge-int",
            "K-over-ceiling", "n_geom-over-ceiling", "n_mc-over-ceiling", "gamma_num-over-ceiling",
            "max_attempts-over-ceiling", "workers-over-ceiling", "trials_file-int", "trials_file-empty",
            "R_ex-null", "source_exclusion-null", "P0-null", "d0-null", "alpha-null", "gamma_min-null",
            "max_attempts-null", "gamma_num-null", "R-over-ceiling", "d0-over-ceiling", "P0-over-ceiling",
            "snr-over-ceiling", "source-huge",
            "k_t_bins-negative", "k_t_bins-negative-at-least", "beta-per-sensor", "beta-fixed-missing",
            "k_t_bins-string", "seed-over-ceiling",
        ],
    )
    def test_mistyped_value_exit_2(self, tmp_path, capsys, key, bad):
        # a dict value is several keys at once, of which ``key`` is the one named
        keys = bad if isinstance(bad, dict) else {key: bad}
        path = write_config(tmp_path, **{"r_t_list": [1.0, 14.0], **keys})
        out = tmp_path / "out"
        assert main(["outage", "--config", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and record["exit_code"] == 2
        assert key in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, bad, flags",
        [
            ("out_dir", 5, []),
            ("out_dir", "", []),
            ("out_dir", None, ["--out", ""]),
            ("geometry_file", 7, []),
            ("geometry_file", "", []),
            ("geometry_file", None, ["--geometry", ""]),
        ],
        ids=["out_dir-int", "out_dir-empty", "out-flag-empty", "geometry_file-int", "geometry_file-empty",
             "geometry-flag-empty"],
    )
    def test_path_key_not_a_nonempty_string_exit_2(self, tmp_path, monkeypatch, capsys, key, bad, flags):
        # run from tmp_path without --out, which would override the file's
        # out_dir; nothing may be written, not even to the default directory
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, beta=4.0, **({} if bad is None else {key: bad}))
        assert main(["crlb", "--config", str(path), *flags]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and record["exit_code"] == 2
        assert key in record["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "gamma, key",
        [
            ({"gamma_min": 20.0, "gamma_max": 10.0}, "gamma_min"),
            ({"gamma_min": 200.0}, "gamma_min"),
            # 64 log-spaced points between bounds one ulp apart cannot all
            # be distinct; the grid would fail only after the ensemble ran
            ({"gamma_min": 1.0, "gamma_max": 1.0000000000000002, "beta": 4.0}, "gamma_num"),
        ],
        ids=["max", "diameter", "repeated-points"],
    )
    def test_empty_gamma_grid_exit_2_before_any_work(self, tmp_path, capsys, gamma, key):
        # the grid's upper end is gamma_max, else 2R = 100
        path = write_config(tmp_path, K=5, R=50.0, seed=1, n_geom=2, n_mc=2, **gamma)
        out = tmp_path / "out"
        assert main(["outage", "--config", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and key in record["message"]
        assert not out.exists()

    def test_integer_conditioning_radius_is_a_float(self, tmp_path):
        # outage conditions at each radius of r_t_list
        path = write_config(tmp_path, r_t_list=[1, 14])
        cfg = load_config(path, mode="outage")
        assert cfg.r_t_list == (1.0, 14.0) and all(type(r) is float for r in cfg.r_t_list)

    @pytest.mark.parametrize("mode", sorted(set(MODES) - set(GEOMETRY_MODES)))
    def test_ensemble_modes_read_no_geometry(self, tmp_path, capsys, mode):
        # an ensemble places its own geometries, so a geometry file is refused
        # as a flag and as a config key, before it is read
        cfg = write_config(tmp_path, n_geom=2, n_mc=2, beta=4.0)
        with pytest.raises(SystemExit) as exit_:
            main([mode, "--config", str(cfg), "--geometry", "g.json"])
        assert exit_.value.code == 2
        capsys.readouterr()
        keyed = write_config(tmp_path, name="keyed.json", n_geom=2, n_mc=2, geometry_file="g.json")
        assert main([mode, "--config", str(keyed), "--out", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and "geometry_file" in record["message"]

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "outage"])
    def test_trials_file_only_in_outage(self, tmp_path, capsys, mode):
        # only outage re-aggregates a trials table; elsewhere the flag does not
        # exist and the key is refused, before any work
        cfg = write_config(tmp_path, beta=4.0)
        with pytest.raises(SystemExit) as exit_:
            main([mode, "--config", str(cfg), "--trials", "t.csv"])
        assert exit_.value.code == 2
        capsys.readouterr()
        keyed = write_config(tmp_path, name="keyed.json", beta=4.0, trials_file="nonexistent.csv")
        out = tmp_path / "out"
        assert main([mode, "--config", str(keyed), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ValidationError" and "trials_file" in record["message"]
        assert not out.exists()

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["outage", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "content, detail",
        [(b"\x80", "UnicodeDecodeError"), (b"[" * 100_000, "RecursionError"), (b'{"K": 8,', "line 1, column")],
        ids=["not-utf-8", "too-deep", "truncated"],
    )
    def test_malformed_config_file_exit_2(self, tmp_path, capsys, content, detail):
        # bytes that are not text, nesting past the parser's depth and a
        # syntax error are parse errors naming the file, not tracebacks
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["crlb", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error_class"] == "ParseError" and str(path) in record["message"]
        assert detail in record["message"]

    @pytest.mark.parametrize(
        "mode, flag, name, content",
        [
            ("crlb", "--geometry", "geometry.json", '{"format": "network-geometry", "R": 50.0, "sensors": [[1.0]]}'),
            ("crlb", "--geometry", "geometry.json", '{"format": "network-geometry", "R": 50.0}'),
            ("crlb", "--geometry", "geometry.txt", OLD_TEXT_GEOMETRY),
            ("crlb", "--geometry", "geometry.json", SHORT_GEOMETRY_JSON),
            # JSON that is not an object
            ("crlb", "--geometry", "geometry.json", "[1, 2]"),
            ("crlb", "--geometry", "geometry.json", "null"),
            # bytes that are not text, nesting past the parser's depth, an
            # integer beyond the float range
            ("crlb", "--geometry", "geometry.json", b"\x80\x81"),
            ("crlb", "--geometry", "geometry.json", '{"format": "network-geometry", "sensors": ' + "[" * 100_000),
            (
                "crlb", "--geometry", "geometry.json",
                '{"format": "network-geometry", "R": 50.0, "sensors": [[1' + "0" * 400 + ", 0.0]]}",
            ),
            ("outage", "--trials", "trials.csv", "geometry_id,seed\n0,7\n"),
            ("outage", "--trials", "trials.csv", b"\x80"),
            ("outage", "--trials", "trials.csv", ""),
            ("outage", "--trials", "trials.csv", montecarlo.trials_to_csv([], [14.0])),
            # rows the writer never produces, under a header it does
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,1.25,2,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,1.25,0,2,0,2,4,9\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,nan,0.5,1.25,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,-0.5,1.25,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,-1.25,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,0,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,inf,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,1.25,1,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,nan,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "-1,7,1.5,0.5,1.25,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,-7,1.5,0.5,1.25,0,2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,1.25,0,-2,0,2,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,1.25,0,2,0,0,4\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,1.25,0,2,0,2,nan\n"),
            ("outage", "--trials", "trials.csv", TRIALS_HEADER + "0,7,1.5,0.5,1.25,0,2,0,2,-inf\n"),
            # a radius twice, whose later cell would silently win
            (
                "outage", "--trials", "trials.csv",
                montecarlo.trials_to_csv([], [14.0, 14.0]) + "0,7,1.5,0.5,1.25,0,2,3,0,2,4\n",
            ),
        ],
        ids=[
            "json-short-row", "json-no-sensors", "old-text-form", "json-fewer-rows-than-k",
            "json-list", "json-null", "not-utf-8", "json-too-deep", "json-huge-int",
            "csv-no-beta-column", "trials-not-utf-8", "empty-trials", "header-only",
            "flag-not-0-or-1", "row-wider-than-header", "nan-mean-square",
            "negative-variance", "negative-bound", "zero-bound", "infinite-bound",
            "finite-bound-flagged-singular", "nan-bound-not-flagged", "negative-geometry-id",
            "negative-seed", "negative-k-t", "zero-n-mc", "nan-beta", "infinite-beta", "repeated-radius",
        ],
    )
    def test_malformed_input_file_exit_2(self, tmp_path, mode, flag, name, content):
        bad = tmp_path / name
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        out = tmp_path / "out"
        args = [mode, "--config", str(write_config(tmp_path, beta=4.0)), "--out", str(out)]
        assert main(args + [flag, str(bad)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == "ParseError" and record["exit_code"] == 2
        assert str(bad) in record["message"]

    @pytest.mark.parametrize(
        "exc, code",
        [
            (BrokenProcessPool("a worker died"), 6),
            (KeyboardInterrupt(), 130),
            (SrclocError("numerical"), 4),
            (DegenerateGeometry("a sensor on the source"), 4),
            (SingularFim("Fisher information matrix is singular (condition indicator 1.000e+20)"), 4),
            (OSError("disk full"), 5),
            (ParseError("bad table"), 2),
            (ValidationError("K"), 2),
            (PackingFailure("could not place sensor 3 after 100 attempts"), 3),
        ],
        ids=[
            "broken-pool", "interrupt", "srcloc-error", "degenerate-geometry", "singular-fim",
            "os-error", "parse-error", "validation-error", "packing",
        ],
    )
    def test_pool_failure_and_interrupt_exit_codes(self, tmp_path, monkeypatch, exc, code):
        def runner(config, out):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "outage", runner)
        out = tmp_path / "stopped"
        assert main(["outage", "--config", str(write_config(tmp_path)), "--out", str(out)]) == code
        record = json.loads((out / "error.json").read_text())
        assert record["error_class"] == type(exc).__name__ and record["exit_code"] == code
