"""Random network geometries: hard-core placement in a disk plus queries.

Sensors are placed sequentially, uniform on the surveillance disk, with
a rejection rule that keeps every pair of sensors at least ``R_ex``
apart (center-to-center).  This is a binomial point process with
repulsion; with ``R_ex = 0`` each sensor is exactly uniform on the disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import PackingFailure, ParseError

GEOMETRY_FORMAT = "network-geometry"
GEOMETRY_VERSION = 1


@dataclass(frozen=True)
class SourceParams:
    """Unknown source parameters: reference power and planar position."""

    P0: float
    xT: float
    yT: float


@dataclass
class NetworkGeometry:
    """One realization of the sensor network.

    sensors : (K, 2) array of sensor coordinates
    R       : surveillance-disk radius (disk centered at the origin)
    R_ex    : minimum center-to-center sensor separation enforced at sampling
    """

    sensors: np.ndarray
    R: float
    R_ex: float = 0.0

    def __post_init__(self):
        self.sensors = np.atleast_2d(np.asarray(self.sensors, dtype=float))
        if self.sensors.ndim != 2 or self.sensors.shape[1] != 2:
            raise ValueError("sensors must be a (K, 2) array")
        if self.K < 1:
            raise ValueError("geometry needs at least one sensor")
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.R_ex < 0:
            raise ValueError(f"R_ex must be nonnegative, got {self.R_ex}")
        r2 = np.einsum("ij,ij->i", self.sensors, self.sensors)
        if np.any(r2 > self.R * self.R):
            raise ValueError("sensor outside the surveillance disk")
        if self.R_ex > 0 and min_pairwise_distance(self.sensors) < self.R_ex:
            raise ValueError("sensor pair closer than R_ex")

    @property
    def K(self) -> int:
        return self.sensors.shape[0]


# Pairs that one block of min_pairwise_distance holds: 64 KiB per array,
# so its memory does not grow with K.  At K = 50 every pair fits in one.
_PAIR_BUDGET = 1 << 13


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest center-to-center distance among a set of points.

    Rows are paired with the points after them a block at a time, within
    ``_PAIR_BUDGET`` pairs, so memory stays O(K) rather than O(K^2).
    """
    points = np.asarray(points, dtype=float)
    K = points.shape[0]
    x, y = points[:, 0], points[:, 1]
    step = max(1, _PAIR_BUDGET // K)
    best = np.inf
    for a in range(0, K - 1, step):
        b = min(a + step, K - 1)
        dx = x[a:b, None] - x[a + 1 :]
        dy = y[a:b, None] - y[a + 1 :]
        d2 = dx * dx + dy * dy
        # row r is point a + r and column c point a + 1 + c: drop the pairs with c < r
        d2[np.arange(b - a)[:, None] > np.arange(K - a - 1)] = np.inf
        best = min(best, d2.min())
    return float(np.sqrt(best))


def sample_geometry(
    K: int,
    R: float,
    R_ex: float,
    max_attempts: int = 10_000,
    rng: Union[np.random.Generator, np.random.SeedSequence, int, None] = None,
    *,
    source_xy: Optional[tuple] = None,
    source_exclusion: float = 0.0,
) -> NetworkGeometry:
    """Draw one network realization from the uniform clustering process.

    Each sensor is drawn uniform on [-R, R]^2 and redrawn while it falls
    outside the disk or strictly inside any exclusion zone (a previously
    placed sensor's R_ex disk, or the optional source exclusion disk).
    Points exactly on the disk boundary or exactly at separation R_ex
    are accepted.  Redraws of every kind count against ``max_attempts``.
    The arguments are load_config's checked values: K >= 1, R > 0,
    R_ex >= 0 and max_attempts >= 1.

    Raises:
        PackingFailure: some sensor exhausted its attempt budget.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    r2_limit = R * R
    rex2 = R_ex * R_ex
    src = None if source_xy is None else np.asarray(source_xy, dtype=float)
    src_ex2 = source_exclusion * source_exclusion

    placed = np.empty((K, 2))
    for i in range(K):
        for _ in range(max_attempts):
            x, y = rng.uniform(-R, R, size=2)
            if x * x + y * y > r2_limit:
                continue
            if src is not None and src_ex2 > 0.0:
                dx, dy = x - src[0], y - src[1]
                if dx * dx + dy * dy < src_ex2:
                    continue
            if rex2 > 0.0 and i > 0:
                d2 = np.square(placed[:i, 0] - x) + np.square(placed[:i, 1] - y)
                if np.any(d2 < rex2):
                    continue
            placed[i] = (x, y)
            break
        else:
            raise PackingFailure(f"could not place sensor {i} after {max_attempts} attempts")

    return NetworkGeometry(sensors=placed, R=float(R), R_ex=float(R_ex))


def distances(geom: NetworkGeometry, source: SourceParams) -> np.ndarray:
    """Source-to-sensor distances for every sensor, shape (K,)."""
    return np.hypot(
        geom.sensors[:, 0] - source.xT, geom.sensors[:, 1] - source.yT
    )


def count_within(geom: NetworkGeometry, source: SourceParams, R_T: float) -> int:
    """Number of sensors within distance R_T of the source (inclusive)."""
    return int(np.count_nonzero(distances(geom, source) <= R_T))


def has_sub_d0_sensor(geom: NetworkGeometry, source: SourceParams, d0: float) -> bool:
    """Whether any sensor lies closer to the source than the reference distance d0."""
    return bool(np.any(distances(geom, source) < d0))


# --- serialization ----------------------------------------------------------
#
# A geometry is stored as one JSON document: format tag, version, K, R,
# R_ex, the seed it was placed from (or null) and one [x, y] pair per
# sensor.  JSON floats carry 17 significant digits, so round-trips are
# exact.


def save_geometry(path, geom: NetworkGeometry, seed: Optional[int] = None) -> None:
    doc = {
        "format": GEOMETRY_FORMAT,
        "version": GEOMETRY_VERSION,
        "K": geom.K,
        "R": geom.R,
        "R_ex": geom.R_ex,
        "seed": seed,
        "sensors": [[float(x), float(y)] for x, y in geom.sensors],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_geometry(path) -> NetworkGeometry:
    """Read a geometry document; raises ParseError, naming the file, on malformed content."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)  # bytes, so that a decoding error is a ValueError here
        if not isinstance(doc, dict) or doc.get("format") != GEOMETRY_FORMAT:
            raise ValueError("not a geometry document")
        geom = NetworkGeometry(
            sensors=np.array(doc["sensors"], dtype=float),
            R=float(doc["R"]),
            R_ex=float(doc.get("R_ex", 0.0)),
        )
        K = doc.get("K")
        if K is not None and K != geom.K:
            raise ValueError(f"the file states K = {K!r} but lists {geom.K} sensors")
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ParseError(f"{path}: malformed geometry file ({type(exc).__name__}: {exc})") from exc
    return geom
