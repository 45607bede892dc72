"""Experiment configuration: JSON loading, validation, defaults.

A single flat JSON file configures every mode; flag overrides from the
CLI take precedence over the file, which takes precedence over the
defaults on ``ExperimentConfig``'s fields.  Unknown keys are rejected so
typos fail loudly.  Each field carries, beside its default, the rule that
reads its value alone, and ``null`` is accepted only where the default is
null.  ``load_config`` runs those rules in one loop over the fields, then
the rules that read two or more keys.  The validated config is the one
description of an experiment: every mode, and every ensemble worker,
runs from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import SourceParams
from .signal_model import SensorEnsembleConfig

MODES = ("geometry", "estimate", "crlb", "outage")

# Modes that read a geometry (from geometry_file, else geometry 0 of the
# seed's ensemble); outage places its own, or reads a trials table.
GEOMETRY_MODES = ("geometry", "estimate", "crlb")


def _is_finite(val) -> bool:
    """Whether val is a number (not a bool) that converts to a finite float."""
    try:
        return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        return False


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_bin_list(val) -> bool:
    """Whether val is a nonempty list; raises ValidationError on a bad spec in it."""
    if not isinstance(val, (list, tuple)) or not val:
        return False
    for b in val:
        parse_k_t_bin(str(b))
    return True


def _floats(val) -> tuple:
    return tuple(float(v) for v in val)


def _key(default, test, must: str, convert=None, required=False):
    """A config field whose own value, when not null, must pass ``test``
    (else '<key> must be <must>'), and is stored as ``convert(value)``.
    A required key must not be null, even though its default is."""
    rule = {"test": test, "must": must, "convert": convert, "required": required}
    return field(default=default, metadata=rule)


def _count(ceiling: int, default=None):
    # The ceiling is far above any experiment these models serve; a larger
    # value would get past validation only to crash or stall the run,
    # instead of exiting as a configuration error.
    return _key(default, lambda v: _is_int(v) and 1 <= v <= ceiling, f"an integer from 1 to {ceiling}")


def _positive(default=None, ceiling=math.inf):
    must = "a positive finite number" if ceiling == math.inf else f"a positive number up to {ceiling:g}"
    return _key(default, lambda v: _is_finite(v) and 0 < v <= ceiling, must)


def _nonnegative(default):
    return _key(default, lambda v: _is_finite(v) and v >= 0, "a finite nonnegative number")


def _finite(default=None, ceiling=math.inf):
    must = "a finite number" if ceiling == math.inf else f"a finite number up to {ceiling:g}"
    return _key(default, lambda v: _is_finite(v) and v <= ceiling, must)


def _one_of(default, options: tuple, required=False):
    return _key(default, lambda v: v in options, f"one of {options}", required=required)


def _path():
    return _key(None, lambda v: isinstance(v, str) and v != "", "a nonempty path string")


@dataclass
class ExperimentConfig:
    """One experiment.  Field order is the order of the config echo."""

    mode: Optional[str] = _one_of(None, MODES, required=True)
    K: Optional[int] = _count(10**5)
    # R, d0 and P0 ceilings: far above any experiment, and low enough that
    # R**2, d0**2 and the top of the ML search's P0 range, P0 * 1e3, stay finite
    R: Optional[float] = _positive(ceiling=1e150)
    R_ex: float = _nonnegative(0.0)
    source: tuple = _key(
        (5.0, 10.0),
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_finite, v)),
        "a pair of finite coordinates",
        _floats,
    )
    P0: float = _positive(10_000.0, ceiling=1e300)
    d0: float = _positive(1.0, ceiling=1e150)
    alpha: float = _positive(2.0)
    obs_snr_db: float = _finite(40.0)
    # the information kernel is checked against quad up to 300 dB, and is NaN from about 1,550 dB
    channel_snr_db: float = _finite(0.0, ceiling=300.0)
    beta: Optional[float] = _finite()
    threshold_mode: str = _one_of("common", ("common", "per-sensor", "fixed"))
    n_geom: int = _count(10**7, 100)
    n_mc: int = _count(10**7, 200)
    gamma_num: int = _count(10**6, 64)
    gamma_min: float = _positive(0.1)
    gamma_max: Optional[float] = _positive()  # None: the disk diameter
    r_t_list: tuple = _key(
        (14.0,),
        lambda v: isinstance(v, (list, tuple)) and all(_is_finite(r) and r >= 0 for r in v) and len(set(v)) == len(v),
        "a list of distinct finite nonnegative radii",
        _floats,
    )
    k_t_bins: tuple = _key(
        ("1", "2", "3+"), _is_bin_list, "a nonempty list", lambda v: tuple(str(b) for b in v)
    )
    source_exclusion: float = _nonnegative(0.0)
    max_attempts: int = _count(10**9, 10_000)
    # the seed ceiling keeps the default output directory name
    # <mode>-seed<seed> well under the usual 255-byte file-name limit
    seed: Optional[int] = _key(
        None, lambda v: _is_int(v) and 0 <= v <= 10**200, "an integer from 0 to 10**200", required=True
    )
    workers: Optional[int] = _count(256)
    out_dir: Optional[str] = _path()
    geometry_file: Optional[str] = _path()
    trials_file: Optional[str] = _path()
    dump_energies: bool = _key(False, lambda v: isinstance(v, bool), "a boolean")

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
            d0=self.d0,
            alpha=self.alpha,
            beta=0.0 if self.beta is None else self.beta,
        )

    @property
    def threshold_policy(self) -> str:
        """A configured beta means fixed thresholds; load_config refuses one under per-sensor."""
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
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read config file {path}: {exc}") from exc
        try:
            file_raw = json.loads(data)  # bytes, so that a decoding error is raised here
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: malformed config file ({type(exc).__name__}: {exc})") from exc
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

    # each key's own rule, from its field
    for f in fields(ExperimentConfig):
        key, val, rule = f.name, raw[f.name], f.metadata
        if val is None:
            if f.default is not None:
                raise ValidationError(key, f"{key} must not be null")
            if rule["required"]:
                raise ValidationError(key)
        elif not rule["test"](val):
            raise ValidationError(key, f"{key} must be {rule['must']}")
        elif rule["convert"] is not None:
            raw[key] = rule["convert"](val)

    # the rules that read two or more keys
    if raw["geometry_file"] is not None and raw["mode"] not in GEOMETRY_MODES:
        raise ValidationError(
            "geometry_file",
            f"{raw['mode']} places its own geometries; geometry_file is only read by {GEOMETRY_MODES}",
        )
    if raw["trials_file"] is not None and raw["mode"] != "outage":
        raise ValidationError(
            "trials_file", f"{raw['mode']} reads no trials table; trials_file is only read by outage"
        )
    if raw["geometry_file"] is None:  # a geometry file carries K, R and R_ex itself
        for key in ("K", "R"):
            if raw[key] is None:
                raise ValidationError(key)

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
    if gamma_hi is not None and np.any(np.diff(np.geomspace(raw["gamma_min"], gamma_hi, raw["gamma_num"])) <= 0):
        raise ValidationError(
            "gamma_num",
            f"gamma_num {raw['gamma_num']!r} log-spaced points from {raw['gamma_min']!r} to {gamma_hi!r} "
            "are not all distinct; the grid must be strictly increasing",
        )

    if raw["R"] is not None:  # else the geometry file's disk is checked once it is read
        require_source_in_disk(raw["source"], raw["R"])

    if raw["beta"] is None and raw["threshold_mode"] == "fixed":
        raise ValidationError("beta", "threshold_mode 'fixed' requires a beta value")
    if raw["beta"] is not None and raw["threshold_mode"] == "per-sensor":
        raise ValidationError("beta", "beta fixes a common threshold; threshold_mode 'per-sensor' tunes each")

    config = ExperimentConfig(**raw)
    config.sensor_config()  # raises ValidationError on a degenerate noise level
    if config.geometry_file is None:  # else the geometry file's K is checked once it is read
        require_bound_sensors(config, config.K)
    return config


def require_source_in_disk(source: tuple, R: float) -> None:
    """Raise a ValidationError naming ``source`` when it lies outside the disk of radius R."""
    if math.hypot(*source) > R:
        raise ValidationError("source", f"source must lie inside the surveillance disk (R = {R!r})")


def require_bound_sensors(config: ExperimentConfig, K: int) -> None:
    """Raise a ValidationError naming ``K`` when the run needs the error bound and K < 3.

    The information matrix over (P0, x, y) sums one rank-one term per
    sensor, so with fewer than 3 sensors it is singular at any
    thresholds.  crlb mode reports the bound, and tuned thresholds (in
    estimate, or in an outage that runs its own ensemble) minimize it,
    so such a run could only end in SingularFim after its work.  A
    fixed-threshold estimate or outage still runs, and records the bound
    as singular.
    """
    tuned = config.mode != "geometry" and config.trials_file is None and config.threshold_policy != "fixed"
    if K < 3 and (config.mode == "crlb" or tuned):
        needs = "crlb mode" if config.mode == "crlb" else f"{config.threshold_policy} threshold tuning"
        raise ValidationError("K", f"K = {K}: {needs} needs the error bound, which takes at least 3 sensors")


def parse_k_t_bin(spec: str):
    """Predicate and label for a K_T bin spec: '2' exact, '3+' at least, counts from 0."""
    spec = spec.strip()
    at_least = spec.endswith("+")
    try:
        k = int(spec[:-1] if at_least else spec)
    except ValueError:
        k = -1
    if k < 0:
        raise ValidationError("k_t_bins", f"k_t_bins has a bad K_T bin spec {spec!r}: want n or n+, n >= 0")
    if at_least:
        return (lambda n, k=k: n >= k), f"K_T>={k}"
    return (lambda n, k=k: n == k), f"K_T=={k}"
