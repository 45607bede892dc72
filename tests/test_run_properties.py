"""Run-level properties of the command-line front end, checked through
``cli.main`` without frozen numbers.

- Every config that ``load_config`` accepts ends in a documented exit
  code, and exit 4 only on a numerical error.
- A power-of-two scale of the geometry, the source and d0 scales every
  result exactly: amplitudes depend only on (d0/d)^alpha, which such a
  scale leaves bit for bit, and the ML search's seeds, penalty and
  floors all scale with R.
- Reflecting the geometry and the source in the x axis leaves every
  distance, and so the energies and the bound, bit for bit, and mirrors
  the estimates: the seed lattice is symmetric and the polar grid is up
  to the rounding of its angles.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from srcloc.cli import main
from srcloc.config import load_config
from srcloc.errors import ConfigError

EXIT_CODES = {0, 2, 3, 4}
NUMERICAL_CLASSES = {"SingularFim", "DegenerateGeometry"}
N_CONFIGS = 350


def random_config(rng: np.random.Generator) -> dict:
    """A tiny config drawn across the ranges the keys accept; most, not all, load."""
    R = float(rng.uniform(5.0, 100.0))
    radius, angle = R * np.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * np.pi)
    cfg = {
        "K": int(rng.integers(1, 13)),
        "R": R,
        "R_ex": float(rng.choice([0.0, rng.uniform(0.0, R / 3)])),
        "source": [radius * np.cos(angle), radius * np.sin(angle)],
        "P0": float(10.0 ** rng.uniform(0.0, 8.0)),
        "d0": float(rng.uniform(0.1, 5.0)),
        "alpha": float(rng.uniform(1.0, 6.0)),
        "obs_snr_db": float(rng.uniform(-10.0, 80.0)),
        # past both ends of the accepted range, about -161 to 300 dB
        "channel_snr_db": float(rng.uniform(-170.0, 310.0)),
        "threshold_mode": str(rng.choice(["common", "per-sensor", "fixed"])),
        "n_geom": int(rng.integers(1, 4)),
        "n_mc": int(rng.integers(1, 5)),
        "gamma_num": int(rng.integers(2, 9)),
        "r_t_list": sorted(float(r) for r in rng.uniform(0.0, R, rng.integers(0, 4))),
        "k_t_bins": [str(b) for b in rng.choice(["0", "1", "2", "1+", "3+"], rng.integers(1, 4), replace=False)],
        "source_exclusion": float(rng.choice([0.0, rng.uniform(0.0, R / 10)])),
        "max_attempts": int(rng.integers(50, 2000)),
        "seed": int(rng.integers(0, 2**31)),
    }
    if cfg["threshold_mode"] != "per-sensor" and rng.uniform() < 0.5:
        cfg["beta"] = float(rng.uniform(0.0, 30.0))
    return cfg


def test_accepted_configs_exit_with_a_documented_code(tmp_path):
    # each accepted config runs in one mode; outage --trials re-reads the
    # last table an outage wrote, and geometry modes may read the last
    # geometry file
    rng = np.random.default_rng(20261020)
    config_path = tmp_path / "config.json"
    codes = {}
    trials, geometry = None, None
    for i in range(N_CONFIGS):
        mode = str(rng.choice(["geometry", "estimate", "crlb", "outage"]))
        cfg = random_config(rng)
        flags = []
        if mode == "outage" and trials is not None and rng.uniform() < 0.3:
            flags = ["--trials", str(trials)]
        elif mode != "outage" and geometry is not None and rng.uniform() < 0.3:
            flags = ["--geometry", str(geometry)]
        config_path.write_text(json.dumps(cfg))
        try:
            load_config(config_path, mode=mode)
        except ConfigError:
            continue
        out = tmp_path / str(i)
        code = main([mode, "--config", str(config_path), "--out", str(out), "--workers", "1", *flags])
        where = f"config {i}, {mode} {flags}: {cfg}"
        assert code in EXIT_CODES, where
        if code == 4:
            assert json.loads((out / "error.json").read_text())["error_class"] in NUMERICAL_CLASSES, where
        if code == 0 and mode == "outage" and not flags:
            trials = out / "geometry_trials.csv"
        if code == 0 and mode == "geometry":
            geometry = out / "geometry.json"
        codes[code] = codes.get(code, 0) + 1
    assert sum(codes.values()) >= N_CONFIGS // 2, codes
    assert codes.get(0, 0) >= N_CONFIGS // 4, codes


@pytest.mark.parametrize("key, value", [("profile", "paper"), ("tx_energy_db", 1.0), ("conditioning_r_t", 14.0)])
@pytest.mark.parametrize("mode", ["geometry", "estimate", "crlb", "outage"])
def test_removed_key_exits_2(tmp_path, capsys, mode, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"K": 8, "R": 50.0, "seed": 7, key: value}))
    out = tmp_path / "out"
    assert main([mode, "--config", str(path), "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ValidationError" and key in record["message"]
    assert not out.exists()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _written_geometry(tmp_path: Path) -> dict:
    """``srcloc geometry``'s K = 20 document (R = 50, R_ex = 2, seed 11), at tmp_path/g/geometry.json."""
    geometry_config = tmp_path / "geometry.config.json"
    geometry_config.write_text(json.dumps({"K": 20, "R": 50.0, "R_ex": 2.0, "seed": 11}))
    assert main(["geometry", "--config", str(geometry_config), "--out", str(tmp_path / "g")]) == 0
    return json.loads((tmp_path / "g" / "geometry.json").read_text())


@pytest.mark.parametrize(
    "policy", [{}, {"threshold_mode": "per-sensor"}, {"beta": 4.0}], ids=["common", "per-sensor", "fixed"]
)
def test_power_of_two_scale_is_exact(tmp_path, policy):
    # doubling the sensors, R, R_ex, the source and d0 doubles every
    # location, quadruples every squared error and bound, and leaves the
    # thresholds, P0 and log-likelihoods bit for bit
    doc = _written_geometry(tmp_path)
    scaled = {**doc, "R": 2 * doc["R"], "R_ex": 2 * doc["R_ex"], "sensors": (2 * np.array(doc["sensors"])).tolist()}
    (tmp_path / "g2.json").write_text(json.dumps(scaled))

    base = {"seed": 11, "channel_snr_db": 10.0, "n_mc": 40, **policy}
    runs = {}
    for tag, geometry, source, d0 in (("x1", tmp_path / "g" / "geometry.json", [5.0, 10.0], 1.0),
                                      ("x2", tmp_path / "g2.json", [10.0, 20.0], 2.0)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({**base, "source": source, "d0": d0}))
        for mode in ("crlb", "estimate"):
            out = tmp_path / f"{mode}-{tag}"
            assert main([mode, "--config", str(path), "--out", str(out), "--geometry", str(geometry)]) == 0
            runs[mode, tag] = out

    crlb = {tag: json.loads((runs["crlb", tag] / "crlb.json").read_text()) for tag in ("x1", "x2")}
    assert crlb["x2"]["sgle_bound"] == 4 * crlb["x1"]["sgle_bound"]
    assert crlb["x2"]["beta"] == crlb["x1"]["beta"]

    est = {tag: _rows(runs["estimate", tag] / "estimates.csv") for tag in ("x1", "x2")}
    assert len(est["x1"]) == len(est["x2"]) == 40
    for one, two in zip(est["x1"], est["x2"]):
        for col in ("x_hat", "y_hat"):
            assert float(two[col]) == 2 * float(one[col]), (one["trial"], col)
        assert float(two["sgle"]) == 4 * float(one["sgle"]), one["trial"]
        for col in ("p0_hat", "log_likelihood", "converged"):
            assert two[col] == one[col], (one["trial"], col)
    summary = {tag: json.loads((runs["estimate", tag] / "estimate_summary.json").read_text()) for tag in ("x1", "x2")}
    assert summary["x2"]["crlb_sgle"] == 4 * summary["x1"]["crlb_sgle"]


@pytest.mark.parametrize(
    "policy", [{}, {"threshold_mode": "per-sensor"}, {"beta": 4.0}], ids=["common", "per-sensor", "fixed"]
)
def test_power_of_two_scale_of_an_outage_is_exact(tmp_path, policy):
    # doubling every length of an ensemble doubles each placement draw, so
    # each geometry's squared errors and bound scale by exactly 4, its K_T
    # counts and thresholds stay, and every outage fraction stays bit for bit
    base = {"K": 12, "seed": 11, "channel_snr_db": 10.0, "n_geom": 4, "n_mc": 30, "k_t_bins": ["0", "1", "2+"],
            "workers": 1, **policy}
    lengths = {"R": 50.0, "R_ex": 3.0, "d0": 1.0, "source_exclusion": 2.0, "gamma_min": 0.5, "gamma_max": 100.0}
    runs = {}
    for scale in (1, 2):
        path = tmp_path / f"x{scale}.json"
        path.write_text(json.dumps({
            **base, **{key: scale * v for key, v in lengths.items()},
            "source": [scale * 5.0, scale * 10.0], "r_t_list": [scale * 10.0, scale * 14.0],
        }))
        runs[scale] = tmp_path / f"outage-x{scale}"
        assert main(["outage", "--config", str(path), "--out", str(runs[scale])]) == 0

    one, two = (_rows(runs[s] / "geometry_trials.csv") for s in (1, 2))
    assert len(one) == len(two) == 4
    for a, b in zip(one, two):
        for rt in (10, 14):
            assert b[f"k_t@{2 * rt}"] == a[f"k_t@{rt}"], a["geometry_id"]
        assert b["beta_common"] == a["beta_common"], a["geometry_id"]
        for col in ("empirical_sgle", "crlb_sgle"):
            assert float(b[col]) == 4 * float(a[col]), (a["geometry_id"], col)

    def ccdfs(name, scale):
        # the CCDF columns, and each curve's label at the unscaled radii; the
        # gamma column is the rounded log-spaced grid, not exactly doubled
        curves = []
        for row in _rows(runs[scale] / name):
            label = row.get("condition", "").replace("R_T=20", "R_T=10").replace("R_T=28", "R_T=14")
            curves.append((label, row.get("n_geometries"), row["ccdf_empirical"], row["ccdf_crlb"]))
        return curves

    assert ccdfs("outage_curve.csv", 2) == ccdfs("outage_curve.csv", 1)
    conditioned = ccdfs("conditioned_curves.csv", 1)
    assert ccdfs("conditioned_curves.csv", 2) == conditioned
    assert len({row[0] for row in conditioned}) > 3


@pytest.mark.parametrize(
    "policy", [{}, {"threshold_mode": "per-sensor"}, {"beta": 4.0}], ids=["common", "per-sensor", "fixed"]
)
def test_reflection_in_x_axis_mirrors_the_estimates(tmp_path, policy):
    # y -> -y in the sensors and the source: the bound and the thresholds
    # are bit for bit the same, and each estimate mirrors to well within
    # the search's resolution
    doc = _written_geometry(tmp_path)
    mirrored = {**doc, "sensors": (np.array(doc["sensors"]) * [1.0, -1.0]).tolist()}
    (tmp_path / "g2.json").write_text(json.dumps(mirrored))

    base = {"seed": 11, "channel_snr_db": 10.0, "n_mc": 40, **policy}
    runs = {}
    for tag, geometry, source in (("up", tmp_path / "g" / "geometry.json", [5.0, 10.0]),
                                  ("down", tmp_path / "g2.json", [5.0, -10.0])):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({**base, "source": source}))
        for mode in ("crlb", "estimate"):
            out = tmp_path / f"{mode}-{tag}"
            assert main([mode, "--config", str(path), "--out", str(out), "--geometry", str(geometry)]) == 0
            runs[mode, tag] = out

    crlb = {tag: json.loads((runs["crlb", tag] / "crlb.json").read_text()) for tag in ("up", "down")}
    assert crlb["down"]["sgle_bound"] == crlb["up"]["sgle_bound"]
    assert crlb["down"]["beta"] == crlb["up"]["beta"]

    est = {tag: _rows(runs["estimate", tag] / "estimates.csv") for tag in ("up", "down")}
    assert len(est["up"]) == len(est["down"]) == 40
    for up, down in zip(est["up"], est["down"]):
        assert float(down["x_hat"]) == pytest.approx(float(up["x_hat"]), abs=1e-9), up["trial"]
        assert float(down["y_hat"]) == pytest.approx(-float(up["y_hat"]), abs=1e-9), up["trial"]
