"""Experiment configuration: JSON loading, validation, defaults.

A single flat JSON file configures every mode; flag overrides from the
CLI take precedence over the file, which takes precedence over the
defaults on ``ExperimentConfig``'s fields.  Unknown keys are rejected so
typos fail loudly.  The validated config is the one description of an
experiment: every mode, and every ensemble worker, runs from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import SourceParams
from .signal_model import SensorEnsembleConfig

MODES = ("geometry", "estimate", "crlb", "outage")

# Modes that read a geometry (from geometry_file, else geometry 0 of the
# seed's ensemble); outage places its own, or reads a trials table.
GEOMETRY_MODES = ("geometry", "estimate", "crlb")

# (n_geom, n_mc): desk scale keeps CI fast, paper scale matches the
# reference experiment sizes.
PROFILES = {"desk": (100, 200), "paper": (500, 1000)}

# Largest value each integer count accepts.  Far above any experiment
# these models serve; a larger value would get past validation only to
# crash or stall the run, instead of exiting as a configuration error.
COUNT_CEILINGS = {
    "K": 10**5,
    "n_geom": 10**7,
    "n_mc": 10**7,
    "gamma_num": 10**6,
    "max_attempts": 10**9,
    "workers": 256,
}


@dataclass
class ExperimentConfig:
    """One experiment.  Field order is the order of the config echo."""

    mode: Optional[str] = None
    K: Optional[int] = None
    R: Optional[float] = None
    R_ex: float = 0.0
    source: tuple = (5.0, 10.0)
    P0: float = 10_000.0
    d0: float = 1.0
    alpha: float = 2.0
    obs_snr_db: float = 40.0
    channel_snr_db: float = 0.0
    tx_energy_db: float = 1.0
    beta: Optional[float] = None
    threshold_mode: str = "common"
    profile: Optional[str] = None
    n_geom: Optional[int] = None  # None: from the profile
    n_mc: Optional[int] = None  # None: from the profile
    gamma_num: int = 64
    gamma_min: float = 0.1
    gamma_max: Optional[float] = None  # None: the disk diameter
    r_t_list: tuple = (14.0,)
    conditioning_r_t: Optional[float] = None  # None: the first of r_t_list
    k_t_bins: tuple = ("1", "2", "3+")
    source_exclusion: float = 0.0
    max_attempts: int = 10_000
    seed: Optional[int] = None
    workers: Optional[int] = None
    out_dir: Optional[str] = None
    geometry_file: Optional[str] = None
    trials_file: Optional[str] = None
    dump_energies: bool = False

    @property
    def source_params(self) -> SourceParams:
        """The true source parameters (P0, xT, yT)."""
        return SourceParams(P0=self.P0, xT=self.source[0], yT=self.source[1])

    def sensor_config(self) -> SensorEnsembleConfig:
        """The sensor model; beta is 0 until thresholds are tuned."""
        return SensorEnsembleConfig.from_snr_db(
            p0=self.P0,
            obs_snr_db=self.obs_snr_db,
            channel_snr_db=self.channel_snr_db,
            tx_energy_db=self.tx_energy_db,
            d0=self.d0,
            alpha=self.alpha,
            beta=0.0 if self.beta is None else self.beta,
        )

    @property
    def threshold_policy(self) -> str:
        """A configured beta means fixed thresholds, whatever threshold_mode says."""
        return "fixed" if self.beta is not None else self.threshold_mode

    def gamma_grid(self) -> np.ndarray:
        """Log-spaced outage thresholds from gamma_min to gamma_max, else the disk diameter."""
        hi = self.gamma_max if self.gamma_max is not None else 2.0 * self.R
        return np.geomspace(self.gamma_min, hi, self.gamma_num)

    def to_dict(self) -> dict:
        """Config echo embedded in every artifact.

        Excludes out_dir and workers: they are execution details that do
        not affect results, and result files must be byte-identical
        across reruns at any worker count.
        """
        out = {}
        for f in fields(self):
            if f.name in ("out_dir", "workers"):
                continue
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = list(val)
            out[f.name] = val
        return out


def _require(raw: dict, key: str):
    if raw.get(key) is None:
        raise ValidationError(key)


def _is_finite(val) -> bool:
    """Whether val is a number (not a bool) that converts to a finite float."""
    try:
        return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        return False


def _positive(raw: dict, key: str, *, strict=True):
    val = raw.get(key)
    if val is None:
        return
    if not _is_finite(val):
        raise ValidationError(key, f"{key} must be a finite number")
    if strict and val <= 0:
        raise ValidationError(key, f"{key} must be positive")
    if not strict and val < 0:
        raise ValidationError(key, f"{key} must be nonnegative")


def _finite(raw: dict, key: str):
    val = raw.get(key)
    if val is None:
        return
    if not _is_finite(val):
        raise ValidationError(key, f"{key} must be a finite number")


def _count(raw: dict, key: str):
    val = raw.get(key)
    if val is None:
        return
    ceiling = COUNT_CEILINGS[key]
    if not isinstance(val, int) or isinstance(val, bool) or not 1 <= val <= ceiling:
        raise ValidationError(key, f"{key} must be an integer from 1 to {ceiling}")


def _path(raw: dict, key: str):
    val = raw.get(key)
    if val is not None and (not isinstance(val, str) or not val):
        raise ValidationError(key, f"{key} must be a nonempty path string")


def load_config(
    path: Optional[str] = None,
    mode: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> ExperimentConfig:
    """Read, merge, and validate a configuration.

    Precedence: overrides (CLI flags) > file contents > defaults.  The
    mode comes from the subcommand when given, else the file.

    Raises:
        ParseError: unreadable or non-object JSON, with position info.
        ValidationError: an invariant is violated; names the field.
    """
    file_raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                file_raw = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(file_raw, dict):
            raise ParseError(f"{path}: top level must be a JSON object")

    unknown = set(file_raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValidationError(sorted(unknown)[0], f"unknown config key {sorted(unknown)[0]!r}")

    raw = vars(ExperimentConfig())
    raw.update(file_raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = val
    if mode is not None:
        raw["mode"] = mode

    if raw["mode"] not in MODES:
        raise ValidationError("mode", f"mode must be one of {MODES}, got {raw['mode']!r}")

    for key in ("out_dir", "geometry_file", "trials_file"):
        _path(raw, key)
    if raw["geometry_file"] is not None and raw["mode"] not in GEOMETRY_MODES:
        raise ValidationError(
            "geometry_file",
            f"{raw['mode']} places its own geometries; geometry_file is only read by {GEOMETRY_MODES}",
        )
    if raw["trials_file"] is not None and raw["mode"] != "outage":
        raise ValidationError(
            "trials_file", f"{raw['mode']} reads no trials table; trials_file is only read by outage"
        )
    # Geometry files carry K/R/R_ex themselves.
    if raw["geometry_file"] is None:
        _require(raw, "K")
        _require(raw, "R")
    _require(raw, "seed")
    if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool) or raw["seed"] < 0:
        raise ValidationError("seed", "seed must be a nonnegative integer")

    _count(raw, "K")
    _positive(raw, "R")
    _positive(raw, "R_ex", strict=False)
    _positive(raw, "P0")
    _positive(raw, "d0")
    _positive(raw, "alpha")
    _finite(raw, "obs_snr_db")
    _finite(raw, "tx_energy_db")
    _finite(raw, "channel_snr_db")
    _positive(raw, "source_exclusion", strict=False)
    _count(raw, "max_attempts")
    _count(raw, "gamma_num")
    _positive(raw, "gamma_min")
    _positive(raw, "gamma_max")
    # the outage grid runs from gamma_min up to gamma_max, else the disk
    # diameter; with a geometry file and no gamma_max, R is not known here
    gamma_hi = raw["gamma_max"]
    if gamma_hi is None and raw["R"] is not None:
        gamma_hi = 2.0 * raw["R"]
    if gamma_hi is not None and gamma_hi <= raw["gamma_min"]:
        raise ValidationError(
            "gamma_min",
            f"gamma_min {raw['gamma_min']!r} must lie below the grid's upper end {gamma_hi!r} "
            "(gamma_max, else the disk diameter 2R)",
        )
    _count(raw, "workers")
    _finite(raw, "beta")

    src = raw["source"]
    if not isinstance(src, (list, tuple)) or len(src) != 2 or not all(map(_is_finite, src)):
        raise ValidationError("source", "source must be a pair of finite coordinates")
    raw["source"] = (float(src[0]), float(src[1]))
    if raw["R"] is not None:  # else the geometry file's disk is checked once it is read
        require_source_in_disk(raw["source"], raw["R"])

    if raw["threshold_mode"] not in ("common", "per-sensor", "fixed"):
        raise ValidationError("threshold_mode")
    if raw["beta"] is None and raw["threshold_mode"] == "fixed":
        raise ValidationError("beta", "threshold_mode 'fixed' requires a beta value")

    if raw["profile"] is not None and (
        not isinstance(raw["profile"], str) or raw["profile"] not in PROFILES
    ):
        raise ValidationError("profile", f"profile must be one of {sorted(PROFILES)}")
    prof_geom, prof_mc = PROFILES[raw["profile"] or "desk"]
    if raw["n_geom"] is None:
        raw["n_geom"] = prof_geom
    if raw["n_mc"] is None:
        raw["n_mc"] = prof_mc
    _count(raw, "n_geom")
    _count(raw, "n_mc")

    rts = raw["r_t_list"]
    if not isinstance(rts, (list, tuple)) or not all(_is_finite(v) and v >= 0 for v in rts):
        raise ValidationError("r_t_list", "r_t_list must be a list of finite nonnegative radii")
    raw["r_t_list"] = tuple(float(v) for v in rts)

    if raw["conditioning_r_t"] is None:
        raw["conditioning_r_t"] = raw["r_t_list"][0] if raw["r_t_list"] else None
    else:
        _finite(raw, "conditioning_r_t")
        raw["conditioning_r_t"] = float(raw["conditioning_r_t"])
        if raw["conditioning_r_t"] not in raw["r_t_list"]:
            raise ValidationError(
                "conditioning_r_t", "conditioning_r_t must appear in r_t_list"
            )
    if raw["mode"] == "outage" and raw["conditioning_r_t"] is None:
        raise ValidationError(
            "conditioning_r_t", "outage needs conditioning_r_t, or a nonempty r_t_list"
        )

    bins = raw["k_t_bins"]
    if not isinstance(bins, (list, tuple)) or not bins:
        raise ValidationError("k_t_bins", "k_t_bins must be a nonempty list")
    for b in bins:
        parse_k_t_bin(str(b))  # raises ValidationError on bad spec
    raw["k_t_bins"] = tuple(str(b) for b in bins)

    if not isinstance(raw["dump_energies"], bool):
        raise ValidationError("dump_energies", "dump_energies must be a boolean")

    config = ExperimentConfig(**raw)
    config.sensor_config()  # raises ValidationError on a degenerate noise level
    return config


def require_source_in_disk(source: tuple, R: float) -> None:
    """Raise a ValidationError naming ``source`` when it lies outside the disk of radius R."""
    if source[0] ** 2 + source[1] ** 2 > R**2:
        raise ValidationError("source", f"source must lie inside the surveillance disk (R = {R!r})")


def parse_k_t_bin(spec: str):
    """Predicate and label for a K_T bin spec: '2' exact, '3+' at least."""
    spec = spec.strip()
    try:
        if spec.endswith("+"):
            k = int(spec[:-1])
            return (lambda n, k=k: n >= k), f"K_T>={k}"
        k = int(spec)
        return (lambda n, k=k: n == k), f"K_T=={k}"
    except ValueError:
        raise ValidationError("k_t_bins", f"bad K_T bin spec {spec!r}") from None
