"""Fisher information and the location-error lower bound.

The information each sensor contributes factorizes into a rank-one
geometry matrix (outer product of the power-gradient direction), a
Gaussian weight from the quantizer operating point, and a scalar
integral over the energy mixture that captures how distinguishable the
two transmit symbols are at the fusion center.  The bound on mean
squared location error is the trace of the inverse information matrix
over the two position coordinates, and quantization thresholds are
chosen to minimize exactly that bound.

Per-sensor thresholds have a closed form.  beta_i enters only the scalar
factor g(s_i) = exp(-s_i^2) * mixture_integral(s_i, eb, tau2) of sensor
i's rank-one term, with s_i = (sqrt(P_i) - beta_i) / sigma, and
a larger factor raises the information matrix in the Loewner order and
so cannot raise the bound: each sensor sits at s* = argmax g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateGeometry, QuadratureFailure, SingularFim
from .geometry import NetworkGeometry, SourceParams, distances
from .signal_model import SensorEnsembleConfig, received_power

CONDITION_LIMIT = 1e12

# Fixed rule of mixture_integral: 20-point Gauss-Legendre on every panel,
# 24 geometric panels from 0.01*tau2 to the end of the window, and 8
# breakpoints on each side of the mixture crossover, half a fast-branch
# length apart at first and doubling outward.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GEOMETRIC_POWERS = np.linspace(0.0, 1.0, 25)
_CLUSTER_STEPS = 0.5 * 2.0 ** np.arange(8)
_TAIL_ABS_TOL = 1e-10
_TAIL_REL_TOL = 1e-8

# Threshold rules: _N_COARSE scan points for the common threshold, and an
# s grid refined to _S_TOL for the per-sensor operating point.
_N_COARSE = 64
_S_GRID = np.linspace(-3.0, 3.0, 61)
_S_TOL = 1e-8


def mixture_integral(s, eb, tau2):
    """Information integral of the energy mixture, elementwise.

    Integrates (f1 - f0)^2 / (q1 f1 + q0 f0) over t in [0, inf), where
    f0 and f1 are the exponential energy densities with means tau2 and
    eb + tau2, q1 = Phi(s) and q0 = 1 - q1.  A sensor with received
    power P_i, threshold beta_i and noise deviation sigma operates at
    s = (sqrt(P_i) - beta_i) / sigma.  The arguments broadcast; scalar
    arguments give a float.  eb == 0 gives 0.

    The rule is fixed: 20-point Gauss-Legendre on panels broken at
    geometric steps from 0.01*tau2 to the window end, at 2*tau2, 10*tau2
    and the branch crossing t*, and at a two-sided geometric cluster
    around the mixture crossover t_cross, where the integrand peaks
    sharply when q1 is small.  The window extends 60 slow-branch lengths
    past a late crossover, and the tail beyond it is bounded
    analytically.  Against scipy ``quad`` on feature-split panels it is
    within rel 1e-8 (observed: at most 6e-14) at channel SNR eb/tau2
    from -10 to 40 dB for |s| <= 27, the range where a sensor's weight
    in the information matrix is nonzero.

    Raises QuadratureFailure where the integral diverges (q1 underflowed
    to zero while eb >= tau2) or the tail bound exceeds
    max(1e-10, 1e-8 * value).
    """
    s, eb, tau2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (s, eb, tau2)))
    out = np.zeros(eb.shape)
    live = eb != 0.0
    s, eb, tau2 = s[live], eb[live], tau2[live]
    a = 1.0 / (eb + tau2)
    b = 1.0 / tau2
    q0 = ndtr(-s)
    q1 = ndtr(s)

    if np.any((q1 == 0.0) & (2.0 * a <= b)):
        raise QuadratureFailure(
            "mixture integral diverges: the one-branch weight underflowed "
            "and the squared fast branch decays slower than the density"
        )
    log_ratio = np.log(b / a)
    t_star = log_ratio / (b - a)  # where the two branch densities cross
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # where the mixture switches from the fast to the slow branch
        t_cross = (np.log(q0) - np.log(q1) + log_ratio) / (b - a)
        t_end = 50.0 / a
        late = (q1 > 0.0) & (q1 < q0)
        t_end = np.maximum(np.where(late, np.maximum(t_end, t_cross + 60.0 / a), t_end), t_star)
        tail_bound = np.where(
            q1 > 0.0,
            np.exp(-a * t_end) / q1,
            a * a * np.exp(-(2.0 * a - b) * t_end) / (q0 * b * (2.0 * a - b)),
        )

    t0 = 0.01 * tau2
    center = np.where(np.isfinite(t_cross), t_cross, t_star)[:, None]
    steps = (1.0 / (b - a))[:, None] * _CLUSTER_STEPS
    edges = np.concatenate(
        [
            np.zeros((s.size, 1)),
            t0[:, None] * (t_end / t0)[:, None] ** _GEOMETRIC_POWERS,
            np.stack([2.0 * tau2, 10.0 * tau2, t_star], axis=1),
            center,
            center - steps,
            center + steps,
        ],
        axis=1,
    )
    edges = np.sort(np.clip(edges, 0.0, t_end[:, None]), axis=1)
    half = 0.5 * np.diff(edges, axis=1)[..., None]
    t = 0.5 * (edges[:, 1:] + edges[:, :-1])[..., None] + half * _GL_NODES

    a, b, q0, q1 = (x[:, None, None] for x in (a, b, q0, q1))
    u = np.exp(-(b - a) * t)  # ratio of fast to slow branch
    den = q1 * a + q0 * b * u
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.exp(-a * t) * (a - b * u) ** 2 / den
        underflow = den == 0.0
        if underflow.any():
            # q1 and u both underflowed: take the analytic limit form
            f = np.where(underflow, a * a * np.exp((b - 2.0 * a) * t) / (q0 * b), f)
    value = (half[..., 0] * (f @ _GL_WEIGHTS)).sum(axis=1)

    over = tail_bound > np.maximum(_TAIL_ABS_TOL, _TAIL_REL_TOL * np.abs(value))
    if over.any():
        i = int(np.argmax(over))
        raise QuadratureFailure(
            f"tail bound {tail_bound[i]:.3e} above tolerance at t={t_end[i]:.3e}"
        )
    out[live] = value
    return float(out) if out.ndim == 0 else out


def _gradients(theta: SourceParams, sensors: np.ndarray, alpha: float) -> np.ndarray:
    """Rows v_i = [-1/sqrt(P0), sqrt(P0)*alpha*(xT-x_i)/d^2, sqrt(P0)*alpha*(yT-y_i)/d^2]."""
    dx = theta.xT - sensors[:, 0]
    dy = theta.yT - sensors[:, 1]
    d2 = dx * dx + dy * dy
    if np.any(d2 == 0.0):
        raise DegenerateGeometry("sensor coincides with the source")
    sqrt_p0 = math.sqrt(theta.P0)
    return np.stack(
        [np.full(d2.shape, -1.0 / sqrt_p0), sqrt_p0 * alpha * dx / d2, sqrt_p0 * alpha * dy / d2],
        axis=1,
    )


def _information_terms(theta, geom, cfg):
    """Weight times mixture integral c and gradient vectors v of every sensor.

    Sensor i adds c[i] * outer(v[i], v[i]) to the information matrix.
    c is zero where the Gaussian quantizer weight underflows: such a
    sensor's bit is deterministic and carries no information.
    """
    v = _gradients(theta, geom.sensors, cfg.alpha)
    P = received_power(theta.P0, cfg.d0, cfg.alpha, distances(geom, theta))
    x = (np.sqrt(P) - cfg.thresholds(geom.K)) / np.sqrt(cfg.sigma2)
    weight = P * np.exp(-x * x) / (8.0 * np.pi * cfg.sigma2 * theta.P0)
    c = np.zeros(weight.shape)
    live = weight != 0.0
    c[live] = weight[live] * mixture_integral(x[live], cfg.eb, cfg.tau2)
    return c, v


def _outer_terms(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(n, 3, 3) stack of c[i] * outer(v[i], v[i])."""
    return c[:, None, None] * (v[:, :, None] * v[:, None, :])  # exactly symmetric


def fisher_information(
    theta: SourceParams,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
) -> np.ndarray:
    """3x3 information matrix for (P0, xT, yT), summed over sensors.

    Terms whose Gaussian quantizer weight underflows to zero add
    nothing.  Summation is in sensor-index order for bitwise
    reproducibility.
    """
    return _outer_terms(*_information_terms(theta, geom, cfg)).sum(axis=0)


@dataclass
class CrlbResult:
    """Location-error bound: sgle_bound = [I^-1]_xx + [I^-1]_yy."""

    sgle_bound: float
    fim: np.ndarray
    condition_indicator: float


def condition_indicator(fim: np.ndarray) -> float:
    """Ratio of extreme absolute eigenvalues (inf when rank-deficient)."""
    w = np.abs(np.linalg.eigvalsh(fim))
    if w.max() == 0.0 or w.min() == 0.0:
        return np.inf
    return float(w.max() / w.min())


def per_sensor_term_norms(
    theta: SourceParams,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
) -> np.ndarray:
    """Frobenius norm of each sensor's information contribution."""
    c, v = _information_terms(theta, geom, cfg)
    return c * np.sum(v * v, axis=1)


def crlb_sgle(
    theta: SourceParams,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    fim: "np.ndarray | None" = None,
) -> CrlbResult:
    """Lower bound on mean squared location error for this geometry.

    Raises SingularFim when the information matrix's condition indicator
    exceeds CONDITION_LIMIT (e.g. a single sensor or collinear layout).
    """
    if fim is None:
        fim = fisher_information(theta, geom, cfg)
    cond = condition_indicator(fim)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularFim(cond)
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.linalg.inv(fim)
        bound = float(inv[1, 1] + inv[2, 2])
    # an all-subnormal FIM can sneak past the eigenvalue ratio and then
    # overflow the inverse; a bound that is not a positive finite number
    # means the matrix was numerically singular after all
    if not np.isfinite(bound) or bound <= 0.0:
        raise SingularFim(cond, "information matrix inverse is not usable")
    return CrlbResult(sgle_bound=bound, fim=fim, condition_indicator=cond)


def crlb_result_to_dict(result: CrlbResult) -> dict:
    """JSON-ready view of a CrlbResult."""
    eigvals = np.linalg.eigvalsh(result.fim)
    return {
        "sgle_bound": result.sgle_bound,
        "condition_indicator": result.condition_indicator,
        "fim": [[float(v) for v in row] for row in result.fim],
        "fim_eigenvalues": [float(v) for v in eigvals],
    }


# --- threshold optimization -------------------------------------------------


@dataclass
class ThresholdResult:
    """Optimized quantization threshold(s) and the bound they achieve."""

    beta: Union[float, np.ndarray]
    sgle_bound: float


def _bound_or_inf(theta, geom, cfg) -> float:
    try:
        return crlb_sgle(theta, geom, cfg).sgle_bound
    except SingularFim:
        return np.inf


def _golden_section(f, lo: float, hi: float, tol: float, evaluated: list):
    """Golden-section refinement; appends every probe to ``evaluated``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    evaluated.extend([(fc, c), (fd, d)])
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
            evaluated.append((fc, c))
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
            evaluated.append((fd, d))


def _best_operating_point(eb: float, tau2: float) -> float:
    """s* = argmax over s of g(s) = exp(-s^2) * mixture_integral(s, eb, tau2).

    Scans _S_GRID in one kernel call and golden-section refines the
    bracket around the best grid point.  g depends on (eb, tau2) only
    through eb/tau2, and is unimodal with its maximum between s = -0.23
    and 0 at channel SNR -20 to 60 dB, well inside the grid.
    """

    def neg_g(s):
        return -math.exp(-s * s) * mixture_integral(s, eb, tau2)

    objs = -np.exp(-_S_GRID * _S_GRID) * mixture_integral(_S_GRID, eb, tau2)
    evaluated = list(zip(objs.tolist(), _S_GRID.tolist()))
    k = int(np.argmin(objs))
    lo, hi = _S_GRID[max(0, k - 1)], _S_GRID[min(len(_S_GRID) - 1, k + 1)]
    _golden_section(neg_g, lo, hi, _S_TOL, evaluated)
    return min(evaluated)[1]


def optimize_thresholds(
    theta: SourceParams,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    mode: str = "common",
) -> ThresholdResult:
    """Pick quantization threshold(s) minimizing the location-error bound.

    Common mode scans _N_COARSE points over
    [-3*sigma, sqrt(P0) + 3*sigma], golden-section refines the best local
    basins, and returns the best point actually evaluated.

    Per-sensor mode is the exact optimum, beta_i = sqrt(P_i) - sigma*s*,
    with s* = argmax g found once for the network's (eb, tau2).  Sensor i
    adds c_i * outer(v_i, v_i) with v_i free of beta and c_i proportional
    to g(s_i), and a larger c_i raises the information matrix in the
    Loewner order, so no c_i below its maximum can lower the bound.

    The bound is evaluated at the true source parameters, so this is a
    benchmarking (genie-aided) policy, not a deployable protocol.
    """
    if mode not in ("common", "per-sensor"):
        raise ValueError(f"unknown threshold mode {mode!r}")
    if mode == "per-sensor":
        s_star = _best_operating_point(cfg.eb, cfg.tau2)
        # No clip to the common bracket is needed: s* lies in [-3, 3], and
        # since P_i <= P0, beta_i stays inside [-3*sigma, sqrt(P0) + 3*sigma].
        P = received_power(theta.P0, cfg.d0, cfg.alpha, distances(geom, theta))
        beta = np.sqrt(P) - np.sqrt(cfg.sigma2) * s_star
        bound = crlb_sgle(theta, geom, cfg.with_beta(beta)).sgle_bound
        return ThresholdResult(beta=beta, sgle_bound=bound)

    sigma = math.sqrt(cfg.sigma2)
    lo = -3.0 * sigma
    hi = math.sqrt(theta.P0) + 3.0 * sigma
    tol = 1e-4 * math.sqrt(theta.P0)

    def common_objective(beta):
        return _bound_or_inf(theta, geom, cfg.with_beta(float(beta)))

    grid = np.linspace(lo, hi, _N_COARSE)
    objs = np.array([common_objective(b) for b in grid])
    if not np.any(np.isfinite(objs)):
        raise SingularFim(np.inf, "no threshold in the bracket yields an invertible FIM")

    evaluated = list(zip(objs.tolist(), grid.tolist()))
    # Refine the three best local basins: a coarse grid this wide can
    # straddle more than one minimum of the aggregated bound.
    basin_order = np.argsort(objs, kind="stable")
    refined = set()
    for k in basin_order[: min(3, len(basin_order))]:
        if not np.isfinite(objs[k]):
            break
        span = (max(0, k - 1), min(len(grid) - 1, k + 1))
        if span in refined:
            continue
        refined.add(span)
        _golden_section(common_objective, grid[span[0]], grid[span[1]], tol, evaluated)

    best_obj, best_beta = min(evaluated, key=lambda p: (p[0], p[1]))
    return ThresholdResult(beta=float(best_beta), sgle_bound=float(best_obj))
