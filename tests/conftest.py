import numpy as np
import pytest
from scipy.special import ndtr

from srcloc.geometry import NetworkGeometry, SourceParams
from srcloc.signal_model import SensorEnsembleConfig

# Reference experiment parameterization used across suites: K=50 sensors
# in a radius-50 disk, source at (5, 10) with P0=1e4, unit reference
# distance, inverse-square decay, 40 dB observation SNR.
REF = dict(K=50, R=50.0, P0=10_000.0, d0=1.0, alpha=2.0,
           obs_snr_db=40.0, source=(5.0, 10.0))


@pytest.fixture
def ref_source() -> SourceParams:
    return SourceParams(P0=REF["P0"], xT=REF["source"][0], yT=REF["source"][1])


def ref_config(channel_snr_db: float, beta=3.0) -> SensorEnsembleConfig:
    return SensorEnsembleConfig.from_snr_db(
        p0=REF["P0"],
        obs_snr_db=REF["obs_snr_db"],
        channel_snr_db=channel_snr_db,
        d0=REF["d0"],
        alpha=REF["alpha"],
        beta=beta,
    )


@pytest.fixture
def toy_triangle() -> NetworkGeometry:
    return NetworkGeometry(
        sensors=np.array([[0.0, 0.0], [12.0, 4.0], [3.0, -9.0]]), R=20.0
    )


# Reference distributions of one sensor's received energy at the fusion
# center, checked against simulation and used as the likelihood's oracle.


def marginal_energy_pdf(t, P_i, beta_i, sigma_i, eb, tau2):
    """Marginal density of one sensor's received energy at the FC.

    Mixture of Exponential(mean tau2) weighted by P(u=0) and
    Exponential(mean eb + tau2) weighted by P(u=1).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("energies must be nonnegative")
    s = (np.sqrt(np.asarray(P_i, dtype=float)) - beta_i) / sigma_i
    q0 = ndtr(-s)
    q1 = ndtr(s)
    m1 = eb + tau2
    out = q0 / tau2 * np.exp(-t / tau2) + q1 / m1 * np.exp(-t / m1)
    return float(out) if out.ndim == 0 else out


def marginal_energy_cdf(t, P_i, beta_i, sigma_i, eb, tau2):
    """CDF matching marginal_energy_pdf (exponential-mixture CDF)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("energies must be nonnegative")
    s = (np.sqrt(np.asarray(P_i, dtype=float)) - beta_i) / sigma_i
    q0 = ndtr(-s)
    q1 = ndtr(s)
    out = q0 * (1.0 - np.exp(-t / tau2)) + q1 * (1.0 - np.exp(-t / (eb + tau2)))
    return float(out) if out.ndim == 0 else out
