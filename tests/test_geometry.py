import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from srcloc import (
    NetworkGeometry,
    PackingFailure,
    SourceParams,
    count_within,
    distances,
    sample_geometry,
)
from srcloc.geometry import (
    geometry_from_json,
    geometry_from_text,
    geometry_to_json,
    geometry_to_text,
    min_pairwise_distance,
)


def test_sample_respects_exclusion_and_disk():
    geom = sample_geometry(50, 50.0, 5.0, rng=123)
    assert geom.K == 50
    assert min_pairwise_distance(geom.sensors) >= 5.0
    assert np.all(np.sum(geom.sensors**2, axis=1) <= 50.0**2)


def test_hard_core_property_over_many_geometries():
    # exact: no tolerance on the separation constraint
    for seed in range(1000):
        geom = sample_geometry(20, 20.0, 3.0, rng=seed)
        assert min_pairwise_distance(geom.sensors) >= 3.0


def test_containment_over_many_geometries():
    for seed in range(200):
        geom = sample_geometry(30, 15.0, 0.0, rng=seed)
        assert np.all(np.sum(geom.sensors**2, axis=1) <= 15.0**2)


def test_single_sensor_disk_area_fraction():
    # fraction of uniform draws landing inside half the radius ~ area ratio
    geom = sample_geometry(100_000, 10.0, 0.0, rng=42)
    frac = np.mean(np.sum(geom.sensors**2, axis=1) <= 25.0)
    assert abs(frac - 0.25) < 0.01


def test_radial_distribution_uniform_on_disk():
    # with no exclusion, radial density grows like r: equal-probability
    # annuli (edges at R*sqrt(j/nbins)) should hold equal counts
    geom = sample_geometry(100_000, 10.0, 0.0, rng=7)
    r = np.hypot(geom.sensors[:, 0], geom.sensors[:, 1])
    nbins = 20
    edges = 10.0 * np.sqrt(np.arange(nbins + 1) / nbins)
    counts, _ = np.histogram(r, bins=edges)
    result = chisquare(counts)
    assert result.pvalue >= 0.01


def test_determinism_same_seed_same_geometry():
    a = sample_geometry(40, 30.0, 2.0, rng=np.random.SeedSequence(99))
    b = sample_geometry(40, 30.0, 2.0, rng=np.random.SeedSequence(99))
    np.testing.assert_array_equal(a.sensors, b.sensors)


def test_packing_failure_when_infeasible():
    # pairwise separation 5 cannot host 100 sensors in a radius-5 disk
    with pytest.raises(PackingFailure):
        sample_geometry(100, 5.0, 5.0, max_attempts=500, rng=0)


def test_source_exclusion_zone():
    for seed in range(50):
        geom = sample_geometry(
            30, 20.0, 0.0, rng=seed, source_xy=(5.0, 10.0), source_exclusion=4.0
        )
        d = np.hypot(geom.sensors[:, 0] - 5.0, geom.sensors[:, 1] - 10.0)
        assert np.all(d >= 4.0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sample_geometry(0, 10.0, 0.0, rng=1)
    with pytest.raises(ValueError):
        sample_geometry(5, -1.0, 0.0, rng=1)
    with pytest.raises(ValueError):
        sample_geometry(5, 10.0, -0.5, rng=1)
    with pytest.raises(ValueError):
        sample_geometry(5, 10.0, 0.0, max_attempts=0, rng=1)


def test_geometry_invariant_validation():
    with pytest.raises(ValueError):
        NetworkGeometry(sensors=np.array([[11.0, 0.0]]), R=10.0)
    with pytest.raises(ValueError):
        NetworkGeometry(sensors=np.array([[0.0, 0.0], [1.0, 0.0]]), R=10.0, R_ex=2.0)


def test_min_pairwise_distance_matches_brute_force():
    rng = np.random.default_rng(12)
    for n in (2, 3, 17, 60):
        pts = rng.uniform(-50.0, 50.0, size=(n, 2))
        brute = min(
            np.hypot(*(pts[i] - pts[j])) for i in range(n) for j in range(i + 1, n)
        )
        assert min_pairwise_distance(pts) == pytest.approx(brute, rel=1e-15)
    assert min_pairwise_distance(np.zeros((1, 2))) == np.inf
    assert min_pairwise_distance(np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 5.0]])) == 0.0


def test_distance_examples():
    geom = NetworkGeometry(sensors=np.array([[5.0, 10.0], [8.0, 14.0], [50.0, 0.0]]), R=50.0)
    d = distances(geom, SourceParams(1.0, 5.0, 10.0))
    assert d[0] == 0.0
    assert d[1] == 5.0
    assert distances(geom, SourceParams(1.0, 0.0, 0.0))[2] == 50.0


def test_count_within_bounds_and_extremes():
    geom = sample_geometry(50, 50.0, 0.0, rng=3)
    src = SourceParams(1.0, 5.0, 10.0)
    assert count_within(geom, src, 0.0) == 0
    assert count_within(geom, src, 2 * geom.R) == geom.K
    k14 = count_within(geom, src, 14.0)
    assert 0 <= k14 <= geom.K
    # inclusive boundary: a sensor exactly at distance R_T counts
    boundary = NetworkGeometry(sensors=np.array([[8.0, 14.0]]), R=20.0)
    assert count_within(boundary, src, 5.0) == 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_sampled_geometry_always_valid(seed):
    geom = sample_geometry(10, 12.0, 2.5, rng=seed)
    assert geom.K == 10
    assert min_pairwise_distance(geom.sensors) >= 2.5
    assert np.all(np.sum(geom.sensors**2, axis=1) <= 12.0**2)


def test_text_roundtrip_exact():
    geom = sample_geometry(25, 50.0, 5.0, rng=11)
    back = geometry_from_text(geometry_to_text(geom, seed=11))
    np.testing.assert_array_equal(back.sensors, geom.sensors)
    assert back.R == geom.R and back.R_ex == geom.R_ex


def test_json_roundtrip_exact():
    geom = sample_geometry(25, 50.0, 5.0, rng=11)
    text = geometry_to_json(geom, seed=11)
    doc = json.loads(text)
    assert doc["K"] == 25 and doc["seed"] == 11
    back = geometry_from_json(text)
    np.testing.assert_array_equal(back.sensors, geom.sensors)


def test_text_format_layout():
    geom = NetworkGeometry(sensors=np.array([[1.0, 2.0]]), R=5.0)
    lines = geometry_to_text(geom, seed=4).splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("K: 1" in ln for ln in meta)
    assert any("seed: 4" in ln for ln in meta)
    header_idx = lines.index("index x y")
    assert lines[header_idx + 1].startswith("0 ")
