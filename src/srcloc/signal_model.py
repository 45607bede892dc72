"""Forward sensing chain for one round.

Per sensor: isotropic power decay from the source, a real AWGN
observation of the signal amplitude, binary quantization against a
threshold, on-off-keyed transmission over a Rayleigh-fading channel,
and an energy detector at the fusion center.

Conditioned on the transmitted bit u, the received energy is
exponential with mean ``Eb*u + tau2``: the complex channel output is
circular Gaussian with total variance ``Eb*u^2 + tau2`` (real and
imaginary parts each carry half), and the squared magnitude of a
circular Gaussian is exponential with its total variance as mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import ValidationError
from .geometry import NetworkGeometry, SourceParams, distances

ArrayLike = Union[float, np.ndarray]

# Transmit energy for bit 1, in dB, for from_snr_db.  Scaling eb and tau2
# together scales every energy alike, so in exact arithmetic results
# depend on the channel only through its SNR; this fixes the scale, and
# with it the rounding.
TX_ENERGY_DB = 1.0


@dataclass
class SensorEnsembleConfig:
    """Sensor model parameters, shared by every sensor except the threshold.

    d0     : reference distance of the power-decay model
    alpha  : power-decay exponent
    sigma2 : observation-noise variance
    beta   : binary quantization threshold: one for all sensors, or a (K,)
             array of per-sensor thresholds
    eb     : transmit energy for bit 1
    tau2   : channel-noise variance
    """

    d0: float
    alpha: float
    sigma2: float
    beta: ArrayLike
    eb: float
    tau2: float

    def __post_init__(self):
        if not self.d0 > 0:
            raise ValueError("d0 must be positive")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        for name in ("sigma2", "eb", "tau2"):
            val = getattr(self, name)
            if np.ndim(val) != 0 or not val > 0:
                raise ValueError(f"{name} must be a positive scalar")

    @classmethod
    def from_snr_db(
        cls,
        p0: float,
        obs_snr_db: float,
        channel_snr_db: float,
        d0: float = 1.0,
        alpha: float = 2.0,
        beta: ArrayLike = 0.0,
    ) -> "SensorEnsembleConfig":
        """Build a config from the dB conventions used throughout.

        sigma2 = P0 * 10^(-obs_snr_db/10), eb = 10^(TX_ENERGY_DB/10),
        tau2 = eb * 10^(-channel_snr_db/10).

        Raises ValidationError, naming the dB setting, when sigma2 or tau2
        overflows or underflows (is not positive and finite), or when the
        branch rates 1/(eb + tau2) and 1/tau2 round to one value.
        """
        eb = 10.0 ** (TX_ENERGY_DB / 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            levels = {
                "sigma2": float(p0 * 10.0 ** (-np.asarray(obs_snr_db, dtype=float) / 10.0)),
                "eb": eb,
                "tau2": float(eb * 10.0 ** (-np.asarray(channel_snr_db, dtype=float) / 10.0)),
            }
        for name, key in (("sigma2", "obs_snr_db"), ("tau2", "channel_snr_db")):
            if not 0.0 < levels[name] < np.inf:
                msg = f"{key} gives {name} = {levels[name]!r}; it must be positive and finite"
                raise ValidationError(key, msg)
        if 1.0 / (levels["eb"] + levels["tau2"]) == 1.0 / levels["tau2"]:
            msg = f"channel_snr_db gives tau2 = {levels['tau2']!r}: 1/(eb + tau2) rounds to 1/tau2"
            raise ValidationError("channel_snr_db", msg)
        return cls(d0=d0, alpha=alpha, beta=beta, **levels)

    def with_beta(self, beta: ArrayLike) -> "SensorEnsembleConfig":
        """Copy of this config with the quantization threshold(s) replaced."""
        return replace(self, beta=beta)

    def thresholds(self, K: int) -> np.ndarray:
        """The (K,) per-sensor thresholds; a scalar beta is shared by all K."""
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim == 0:
            return np.full(K, float(beta))
        if beta.shape != (K,):
            raise ValueError(f"beta has length {beta.shape[0]}, expected {K}")
        return beta

    @property
    def beta_common(self) -> Optional[float]:
        """The threshold every sensor shares, or None for per-sensor thresholds."""
        return float(self.beta) if np.ndim(self.beta) == 0 else None


def received_power(P0: float, d0: float, alpha: float, d: ArrayLike) -> ArrayLike:
    """Source power observed at distance d: P0*(d0/d)^alpha, clamped at P0.

    The decay model only holds beyond the reference distance, so inside
    d0 the power saturates at P0 (bounded, continuous in d).  A scalar d
    is evaluated as a one-element array, because numpy's scalar power
    can differ in the last bit from its array power.
    """
    scalar = np.ndim(d) == 0
    d = np.atleast_1d(np.asarray(d, dtype=float))
    power = P0 * (d0 / np.maximum(d, d0)) ** alpha
    return float(power[0]) if scalar else power


def transmit_and_detect(
    u: ArrayLike, eb: ArrayLike, tau2: ArrayLike, rng: np.random.Generator
) -> np.ndarray:
    """Received energy |h*sqrt(eb)*u + n|^2 for one OOK transmission.

    h is unit-power circular complex Gaussian (Rayleigh fading) and n is
    circular complex Gaussian with total variance tau2.
    """
    u = np.asarray(u, dtype=float)
    shape = u.shape
    h = _circular_gaussian(shape, 1.0, rng)
    n = _circular_gaussian(shape, np.asarray(tau2, dtype=float), rng)
    z = h * np.sqrt(eb) * u + n
    return np.abs(z) ** 2


def _circular_gaussian(shape, total_variance, rng):
    scale = np.sqrt(np.asarray(total_variance) / 2.0)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return scale * (re + 1j * im)


def simulate_round(
    geom: NetworkGeometry,
    source: SourceParams,
    cfg: SensorEnsembleConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One sensing round: the (K,) vector of received energies at the FC."""
    return simulate_rounds(geom, source, cfg, 1, rng)[0]


def simulate_rounds(
    geom: NetworkGeometry,
    source: SourceParams,
    cfg: SensorEnsembleConfig,
    n_rounds: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Batch of independent rounds, shape (n_rounds, K).

    Draws every round's observation noise first, then every round's
    fading and channel noise, so a batch of n rounds uses the stream in
    a different order from n single rounds; use one or the other per
    stream.  A sensor reports 1 when its observation reaches the
    threshold (r >= beta).
    """
    P = received_power(source.P0, cfg.d0, cfg.alpha, distances(geom, source))
    r = np.sqrt(P) + np.sqrt(cfg.sigma2) * rng.standard_normal((n_rounds, geom.K))
    return transmit_and_detect(np.greater_equal(r, cfg.thresholds(geom.K)), cfg.eb, cfg.tau2, rng)
