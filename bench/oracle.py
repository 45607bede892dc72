"""Reference computations the benchmark checks srcloc's outputs against.

Everything here is derived from the model as README documents it, not
from srcloc's code: the information integral uses scipy's adaptive
`quad` on panels split at the integrand's features, the likelihood is
written out from the exponential-mixture density, and geometries are
regenerated from the documented placement stream.  The module imports
nothing from srcloc.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import log_ndtr

# Model defaults from README ("Defaults fill in the reference
# parameterization") and srcloc's documented search settings.
SOURCE = (5.0, 10.0)
P0 = 10_000.0
D0 = 1.0
ALPHA = 2.0
OBS_SNR_DB = 40.0
TX_ENERGY_DB = 1.0
P0_SPAN = 1e3
GRID_RADIAL = 7
GRID_ANGULAR = 7
P0_SEED_FACTORS = (0.1, 1.0, 10.0)


def channel(channel_snr_db: float) -> tuple[float, float, float]:
    """(sigma2, eb, tau2) from the dB conventions README gives."""
    eb = 10.0 ** (TX_ENERGY_DB / 10.0)
    sigma2 = P0 * 10.0 ** (-OBS_SNR_DB / 10.0)
    tau2 = eb * 10.0 ** (-channel_snr_db / 10.0)
    return sigma2, eb, tau2


# --- geometry ---------------------------------------------------------------


def placement(master_seed: int, gi: int, K: int, R: float, R_ex: float) -> np.ndarray:
    """Sensors of geometry ``gi`` replayed from its stream (gi, 0).

    Sequential uniform placement in the disk: each draw is uniform on
    [-R, R]^2 and is redrawn while outside the disk or closer than R_ex
    to an already placed sensor.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(gi, 0))
    rng = np.random.default_rng(seq)
    placed: list[tuple[float, float]] = []
    while len(placed) < K:
        x, y = rng.uniform(-R, R, size=2)
        if x * x + y * y > R * R:
            continue
        if any((x - px) ** 2 + (y - py) ** 2 < R_ex * R_ex for px, py in placed):
            continue
        placed.append((float(x), float(y)))
    return np.array(placed)


def geometry_problems(sensors: np.ndarray, R: float, R_ex: float) -> list[str]:
    """Violations of the disk and hard-core constraints, if any."""
    out = []
    if np.any(np.hypot(sensors[:, 0], sensors[:, 1]) > R):
        out.append("sensor outside the disk")
    diff = sensors[:, None, :] - sensors[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(d, np.inf)
    if d.min() < R_ex:
        out.append(f"sensor pair {d.min():.6g} apart, below R_ex={R_ex}")
    return out


def k_t(sensors: np.ndarray, r_t: float) -> int:
    return int(np.count_nonzero(np.hypot(sensors[:, 0] - SOURCE[0], sensors[:, 1] - SOURCE[1]) <= r_t))


# --- information integral and bound -----------------------------------------


def _logaddexp(x: float, y: float) -> float:
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    m = max(x, y)
    return m + math.log1p(math.exp(-abs(x - y)))


def info_integral(log_q1: float, log_q0: float, eb: float, tau2: float) -> float:
    """Integral over t >= 0 of (f1 - f0)^2 / (q1 f1 + q0 f0).

    f0 and f1 are the exponential energy densities with means tau2 and
    eb + tau2.  The integrand is evaluated in log form, and the range is
    split at 2 tau2, 10 tau2, the branch crossing t*, the mixture
    crossover t_cross, geometric steps between them and a few
    slow-branch lengths past the last of them, with the rest integrated
    to infinity.
    """
    a = 1.0 / (eb + tau2)
    b = 1.0 / tau2
    t_star = math.log(b / a) / (b - a)
    log_qa = log_q1 + math.log(a)
    log_qb = log_q0 + math.log(b)

    def f(t: float) -> float:
        # a - b e^{-(b-a)t} = -a expm1((b-a)(t* - t)), exact near t*
        diff = -a * math.expm1((b - a) * (t_star - t))
        if diff == 0.0:
            return 0.0
        log_den = _logaddexp(log_qa, log_qb - (b - a) * t)
        return math.exp(-a * t + 2.0 * math.log(abs(diff)) - log_den)

    points = {2.0 * tau2, 10.0 * tau2, t_star}
    if log_q1 > -math.inf and log_q0 > -math.inf:
        t_cross = (log_qb - log_qa) / (b - a)
        if t_cross > 0.0:
            points.add(t_cross)
    last = max(points)
    points.update(last + k / a for k in (1.0, 5.0, 20.0))
    # Geometric panels bridge the fast scale tau2 and the slow scale
    # 1/a: one panel spanning both fools the local error estimate.
    t = 2.0 * tau2
    while t < last + 20.0 / a:
        points.add(t)
        t *= 4.0
    edges = [0.0] + sorted(points) + [math.inf]
    total = err = 0.0
    with warnings.catch_warnings():
        # the far tail is ~1e-13 of the total; its roundoff warning is
        # harmless and the summed error estimate is checked below
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            value, e = quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
            total += value
            err += e
    if not err <= 1e-11 * total:
        raise ArithmeticError(f"reference integral error estimate {err:.3g} on {total:.17g}")
    return total


def self_test() -> list[str]:
    """Check info_integral against its closed forms at q1 = 1 and q0 = 1."""
    problems = []
    for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0, -2.0):
        _, eb, tau2 = channel(snr_db)
        a = 1.0 / (eb + tau2)
        b = 1.0 / tau2
        cases = [("q1=1", 0.0, -math.inf, b * b / (a * (2.0 * b - a)) - 1.0)]
        if 2.0 * a > b:
            cases.append(("q0=1", -math.inf, 0.0, a * a / (b * (2.0 * a - b)) - 1.0))
        for label, lq1, lq0, exact in cases:
            got = info_integral(lq1, lq0, eb, tau2)
            if abs(got - exact) > 1e-11 * abs(exact):
                problems.append(f"oracle self-test {label} eb={eb} tau2={tau2}: {got!r} != {exact!r}")
    return problems


def fim(sensors: np.ndarray, beta, channel_snr_db: float) -> np.ndarray:
    """3x3 information matrix for (P0, xT, yT) at the true source.

    Per sensor: the bit probability q1 = Phi(s), s = (sqrt(P) - beta) /
    sigma, moves with theta, so the sensor contributes
    phi(s)^2 (ds/dtheta)(ds/dtheta)^T times the information integral.
    Received power clamps at P0 inside d0 while the gradient keeps the
    unclamped distance, as README states.
    """
    sigma2, eb, tau2 = channel(channel_snr_db)
    sigma = math.sqrt(sigma2)
    betas = np.broadcast_to(np.asarray(beta, dtype=float), (len(sensors),))
    out = np.zeros((3, 3))
    for (sx, sy), b_i in zip(sensors, betas):
        dx, dy = SOURCE[0] - sx, SOURCE[1] - sy
        d2 = dx * dx + dy * dy
        P = P0 * (D0 * D0 / max(d2, D0 * D0)) ** (ALPHA / 2.0)
        s = (math.sqrt(P) - b_i) / sigma
        weight = math.exp(-s * s) / (2.0 * math.pi) * P / (4.0 * sigma2 * P0)
        if weight == 0.0:
            continue
        integral = info_integral(float(log_ndtr(s)), float(log_ndtr(-s)), eb, tau2)
        v = np.array([1.0 / math.sqrt(P0), -math.sqrt(P0) * ALPHA * dx / d2, -math.sqrt(P0) * ALPHA * dy / d2])
        out += weight * integral * np.outer(v, v)
    return out


def bound_from_fim(m: np.ndarray) -> float:
    inv = np.linalg.inv(np.asarray(m, dtype=float))
    return float(inv[1, 1] + inv[2, 2])


def bound(sensors: np.ndarray, beta, channel_snr_db: float) -> float:
    """Location-error bound: trace of the position block of the inverse FIM."""
    return bound_from_fim(fim(sensors, beta, channel_snr_db))


# --- likelihood -------------------------------------------------------------


def loglik(t: np.ndarray, sensors: np.ndarray, beta: float, channel_snr_db: float,
           p0: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mixture log-likelihood of energy rows ``t`` (n, K) at points (n,).

    Each energy is exponential with mean tau2 given bit 0 and eb + tau2
    given bit 1; bit 1 has probability Phi((sqrt(P) - beta) / sigma).
    """
    sigma2, eb, tau2 = channel(channel_snr_db)
    dx = x[:, None] - sensors[None, :, 0]
    dy = y[:, None] - sensors[None, :, 1]
    P = p0[:, None] * (D0 * D0 / np.maximum(dx * dx + dy * dy, D0 * D0)) ** (ALPHA / 2.0)
    s = (np.sqrt(P) - beta) / math.sqrt(sigma2)
    m1 = eb + tau2
    log0 = log_ndtr(-s) - t / tau2 - math.log(tau2)
    log1 = log_ndtr(s) - t / m1 - math.log(m1)
    return np.logaddexp(log0, log1).sum(axis=1)


def polar_seeds(R: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The documented 7 x 7 polar grid crossed with the three P0 factors."""
    pts = [
        ((i + 0.5) / GRID_RADIAL * R, 2.0 * math.pi * j / GRID_ANGULAR, f)
        for i in range(GRID_RADIAL)
        for j in range(GRID_ANGULAR)
        for f in P0_SEED_FACTORS
    ]
    r, ang, f = (np.array(c) for c in zip(*pts))
    return P0 * f, r * np.cos(ang), r * np.sin(ang)


# --- outage curves ----------------------------------------------------------


def ccdf(values: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Share of geometries whose mean squared error exceeds gamma^2."""
    return np.array([np.count_nonzero(values > g * g) / values.size for g in gamma])
