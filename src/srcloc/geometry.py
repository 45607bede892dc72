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

    def __post_init__(self):
        if not self.P0 > 0:
            raise ValueError(f"P0 must be positive, got {self.P0}")

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.xT, self.yT])


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
        if self.R_ex > 0 and self.K > 1:
            if min_pairwise_distance(self.sensors) < self.R_ex:
                raise ValueError("sensor pair closer than R_ex")

    @property
    def K(self) -> int:
        return self.sensors.shape[0]


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest center-to-center distance among a set of points."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        return np.inf
    i, j = np.triu_indices(points.shape[0], k=1)
    diff = points[i] - points[j]
    return float(np.sqrt((diff * diff).sum(axis=1).min()))


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

    Raises:
        PackingFailure: some sensor exhausted its attempt budget.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not R > 0:
        raise ValueError("R must be positive")
    if R_ex < 0:
        raise ValueError("R_ex must be nonnegative")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
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
            raise PackingFailure(sensor_index=i, attempts=max_attempts)

    return NetworkGeometry(sensors=placed, R=float(R), R_ex=float(R_ex))


def distances(geom: NetworkGeometry, source: SourceParams) -> np.ndarray:
    """Source-to-sensor distances for every sensor, shape (K,)."""
    return np.hypot(
        geom.sensors[:, 0] - source.xT, geom.sensors[:, 1] - source.yT
    )


def count_within(geom: NetworkGeometry, source: SourceParams, R_T: float) -> int:
    """Number of sensors within distance R_T of the source (inclusive)."""
    if R_T < 0:
        raise ValueError("R_T must be nonnegative")
    return int(np.count_nonzero(distances(geom, source) <= R_T))


# --- serialization ----------------------------------------------------------
#
# Two on-disk forms carry the same record: a human-readable text table
# (metadata comments, one header line, one `index x y` row per sensor)
# and a JSON document.  Floats are written with 17 significant digits so
# round-trips are exact.


def geometry_to_text(geom: NetworkGeometry, seed: Optional[int] = None) -> str:
    lines = [
        f"# {GEOMETRY_FORMAT} v{GEOMETRY_VERSION}",
        f"# K: {geom.K}",
        f"# R: {geom.R:.17g}",
        f"# R_ex: {geom.R_ex:.17g}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.append("index x y")
    for i, (x, y) in enumerate(geom.sensors):
        lines.append(f"{i} {x:.17g} {y:.17g}")
    return "\n".join(lines) + "\n"


def geometry_from_text(text: str) -> NetworkGeometry:
    meta = {}
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = value.strip()
            continue
        if line.startswith("index"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad geometry row: {raw!r}")
        rows.append((float(parts[1]), float(parts[2])))
    if "R" not in meta:
        raise ValueError("geometry text is missing the R metadata line")
    return NetworkGeometry(
        sensors=np.array(rows),
        R=float(meta["R"]),
        R_ex=float(meta.get("R_ex", 0.0)),
    )


def geometry_to_json(geom: NetworkGeometry, seed: Optional[int] = None) -> str:
    doc = {
        "format": GEOMETRY_FORMAT,
        "version": GEOMETRY_VERSION,
        "K": geom.K,
        "R": geom.R,
        "R_ex": geom.R_ex,
        "seed": seed,
        "sensors": [[float(x), float(y)] for x, y in geom.sensors],
    }
    return json.dumps(doc, indent=2) + "\n"


def geometry_from_json(text: str) -> NetworkGeometry:
    doc = json.loads(text)
    if doc.get("format") != GEOMETRY_FORMAT:
        raise ValueError("not a geometry document")
    return NetworkGeometry(
        sensors=np.array(doc["sensors"], dtype=float),
        R=float(doc["R"]),
        R_ex=float(doc.get("R_ex", 0.0)),
    )


def save_geometry(path, geom: NetworkGeometry, seed: Optional[int] = None) -> None:
    path = str(path)
    text = geometry_to_json(geom, seed) if path.endswith(".json") else geometry_to_text(geom, seed)
    with open(path, "w") as fh:
        fh.write(text)


def load_geometry(path) -> NetworkGeometry:
    """Read either on-disk form; raises ParseError, naming the file, on malformed content."""
    with open(path) as fh:
        text = fh.read()
    try:
        if text.lstrip().startswith("{"):
            return geometry_from_json(text)
        return geometry_from_text(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed geometry file ({type(exc).__name__}: {exc})") from exc
