"""Experiment configuration: JSON loading, validation, defaults.

A single flat JSON file configures every mode; flag overrides from the
CLI take precedence over the file, which takes precedence over the
defaults below.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import ParseError, ValidationError

MODES = ("geometry", "estimate", "crlb", "sweep-snr", "outage", "conditioned-outage")

# (n_geom, n_mc): desk scale keeps CI fast, paper scale matches the
# reference experiment sizes.
PROFILES = {"desk": (100, 200), "paper": (500, 1000)}

_DEFAULTS = {
    "mode": None,
    "K": None,
    "R": None,
    "R_ex": 0.0,
    "source": (5.0, 10.0),
    "P0": 10_000.0,
    "d0": 1.0,
    "alpha": 2.0,
    "obs_snr_db": 40.0,
    "channel_snr_db": 0.0,
    "tx_energy_db": 1.0,
    "beta": None,
    "threshold_mode": "common",
    "profile": None,
    "n_geom": None,
    "n_mc": None,
    "gamma_num": 64,
    "gamma_min": 0.1,
    "gamma_max": None,
    "r_t_list": (14.0,),
    "conditioning_r_t": None,
    "k_t_bins": ("1", "2", "3+"),
    "source_exclusion": 0.0,
    "max_attempts": 10_000,
    "seed": None,
    "workers": None,
    "out_dir": None,
    "geometry_file": None,
    "trials_file": None,
    "dump_energies": False,
}


@dataclass
class ExperimentConfig:
    mode: str
    K: Optional[int]
    R: Optional[float]
    R_ex: float
    source: tuple
    P0: float
    d0: float
    alpha: float
    obs_snr_db: float
    channel_snr_db: Union[float, Sequence[float]]
    tx_energy_db: float
    beta: Optional[float]
    threshold_mode: str
    profile: Optional[str]
    n_geom: int
    n_mc: int
    gamma_num: int
    gamma_min: float
    gamma_max: Optional[float]
    r_t_list: tuple
    conditioning_r_t: Optional[float]
    k_t_bins: tuple
    source_exclusion: float
    max_attempts: int
    seed: int
    workers: Optional[int]
    out_dir: Optional[str]
    geometry_file: Optional[str]
    trials_file: Optional[str]
    dump_energies: bool

    def channel_snr_values(self) -> list:
        v = self.channel_snr_db
        return [float(x) for x in v] if isinstance(v, (list, tuple)) else [float(v)]

    def to_dict(self) -> dict:
        """Config echo embedded in every artifact.

        Excludes out_dir and workers: they are execution details that do
        not affect results, and result files must be byte-identical
        across reruns at any worker count.
        """
        out = {}
        for key in _DEFAULTS:
            if key in ("out_dir", "workers"):
                continue
            val = getattr(self, key)
            if isinstance(val, tuple):
                val = list(val)
            out[key] = val
        return out


def _require(raw: dict, key: str):
    if raw.get(key) is None:
        raise ValidationError(key)


def _positive(raw: dict, key: str, *, strict=True):
    val = raw.get(key)
    if val is None:
        return
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        raise ValidationError(key, f"{key} must be a finite number")
    if strict and val <= 0:
        raise ValidationError(key, f"{key} must be positive")
    if not strict and val < 0:
        raise ValidationError(key, f"{key} must be nonnegative")


def _finite(raw: dict, key: str):
    val = raw.get(key)
    if val is None:
        return
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        raise ValidationError(key, f"{key} must be a finite number")


def _count(raw: dict, key: str):
    val = raw.get(key)
    if val is None:
        return
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        raise ValidationError(key, f"{key} must be an integer >= 1")


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

    unknown = set(file_raw) - set(_DEFAULTS)
    if unknown:
        raise ValidationError(sorted(unknown)[0], f"unknown config key {sorted(unknown)[0]!r}")

    raw = dict(_DEFAULTS)
    raw.update(file_raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = val
    if mode is not None:
        raw["mode"] = mode

    if raw["mode"] not in MODES:
        raise ValidationError("mode", f"mode must be one of {MODES}, got {raw['mode']!r}")

    # Geometry files carry K/R/R_ex themselves.
    if raw["geometry_file"] is None:
        _require(raw, "K")
        _require(raw, "R")
    _require(raw, "seed")
    if not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool) or raw["seed"] < 0:
        raise ValidationError("seed", "seed must be a nonnegative integer")

    if raw["K"] is not None:
        _count(raw, "K")
    _positive(raw, "R")
    _positive(raw, "R_ex", strict=False)
    _positive(raw, "P0")
    _positive(raw, "d0")
    _positive(raw, "alpha")
    _finite(raw, "obs_snr_db")
    _finite(raw, "tx_energy_db")
    _positive(raw, "source_exclusion", strict=False)
    _count(raw, "max_attempts")
    _count(raw, "gamma_num")
    _positive(raw, "gamma_min")
    _positive(raw, "gamma_max")
    if raw["workers"] is not None:
        _count(raw, "workers")
    if raw["beta"] is not None:
        _finite(raw, "beta")

    eta = raw["channel_snr_db"]
    if isinstance(eta, (list, tuple)):
        if raw["mode"] != "sweep-snr":
            raise ValidationError(
                "channel_snr_db", "a channel-SNR list is only valid in sweep-snr mode"
            )
        if len(eta) < 1 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in eta
        ):
            raise ValidationError("channel_snr_db", "channel_snr_db list must hold finite numbers")
        raw["channel_snr_db"] = [float(v) for v in eta]
    else:
        _finite(raw, "channel_snr_db")

    src = raw["source"]
    if (
        not isinstance(src, (list, tuple))
        or len(src) != 2
        or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in src)
    ):
        raise ValidationError("source", "source must be a pair of finite coordinates")
    raw["source"] = (float(src[0]), float(src[1]))
    if raw["R"] is not None and src[0] ** 2 + src[1] ** 2 > raw["R"] ** 2:
        raise ValidationError("source", "source must lie inside the surveillance disk")

    if raw["threshold_mode"] not in ("common", "per-sensor", "fixed"):
        raise ValidationError("threshold_mode")
    if raw["beta"] is None and raw["threshold_mode"] == "fixed":
        raise ValidationError("beta", "threshold_mode 'fixed' requires a beta value")

    if raw["profile"] is not None and raw["profile"] not in PROFILES:
        raise ValidationError("profile", f"profile must be one of {sorted(PROFILES)}")
    prof_geom, prof_mc = PROFILES[raw["profile"] or "desk"]
    if raw["n_geom"] is None:
        raw["n_geom"] = prof_geom
    if raw["n_mc"] is None:
        raw["n_mc"] = prof_mc
    _count(raw, "n_geom")
    _count(raw, "n_mc")

    rts = raw["r_t_list"]
    if not isinstance(rts, (list, tuple)) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0 for v in rts
    ):
        raise ValidationError("r_t_list", "r_t_list must be a list of nonnegative radii")
    raw["r_t_list"] = tuple(float(v) for v in rts)

    if raw["conditioning_r_t"] is None:
        raw["conditioning_r_t"] = raw["r_t_list"][0] if raw["r_t_list"] else None
    elif float(raw["conditioning_r_t"]) not in raw["r_t_list"]:
        raise ValidationError(
            "conditioning_r_t", "conditioning_r_t must appear in r_t_list"
        )
    if raw["mode"] == "conditioned-outage" and raw["conditioning_r_t"] is None:
        raise ValidationError("conditioning_r_t")

    bins = raw["k_t_bins"]
    if not isinstance(bins, (list, tuple)) or not bins:
        raise ValidationError("k_t_bins", "k_t_bins must be a nonempty list")
    for b in bins:
        parse_k_t_bin(str(b))  # raises ValidationError on bad spec
    raw["k_t_bins"] = tuple(str(b) for b in bins)

    if not isinstance(raw["dump_energies"], bool):
        raise ValidationError("dump_energies", "dump_energies must be a boolean")

    return ExperimentConfig(**raw)


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
