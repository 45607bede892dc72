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

The common threshold is searched on an information curve: a
piecewise-Chebyshev interpolant of log mixture_integral over the s
range where a sensor's weight is nonzero, built once per (eb, tau2)
from one call of the exact kernel and memoized, so every geometry of a
command shares it; the per-sensor operating point s* is memoized per
(eb, tau2) the same way.  Both refine their brackets in one lockstep
golden section.  The kernel takes only what these callers pass, and
evaluates its integrand a block of points at a time in work arrays made
once per call, so a call of any size, the curve's 1,155 points
included, stays within a few megabytes, and a value does not depend on
the call it is in.  The curve only ranks candidate thresholds, and
tuning returns only the thresholds it picks.
Every bound that is reported comes from one exact pass at the chosen
thresholds: crlb_sgle evaluates each sensor's term on the exact kernel
once, and keeps the terms, the information matrix and its eigenvalues
with the bound, so nothing downstream evaluates them again.

The normal CDF Phi that weights the two energy branches comes from the
standard library (``math.erfc``), applied elementwise: the bound needs it
on at most a few dozen points at a time, so this module does not import
scipy, and a process that only computes bounds never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, SingularFim
from .geometry import NetworkGeometry, SourceParams, distances
from .signal_model import SensorEnsembleConfig, received_power

CONDITION_LIMIT = 1e12
_TINY = np.finfo(float).tiny  # smallest normal double

# Fixed rule of mixture_integral: 20-point Gauss-Legendre on every panel,
# 24 geometric panels from 0.01*tau2 to the end of the window, and 8
# breakpoints on each side of the mixture crossover, half a fast-branch
# length apart at first and doubling outward.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GEOMETRIC_POWERS = np.linspace(0.0, 1.0, 25)
_CLUSTER_STEPS = 0.5 * 2.0 ** np.arange(8)
# The integrand is evaluated _BLOCK s-points at a time, in work arrays of
# _BLOCK * 45 * 20 elements (225 KiB each) made once per call.
_BLOCK = 32

# Threshold rules: _N_COARSE scan points for the common threshold, and an
# s grid refined to _S_TOL for the per-sensor operating point.
_N_COARSE = 64
_S_GRID = np.linspace(-3.0, 3.0, 61)
_S_TOL = 1e-8
_SQRT_HALF = math.sqrt(0.5)

# Information curve: degree-_CURVE_DEGREE Chebyshev interpolants of
# log mixture_integral on _CURVE_PIECES equal pieces of |s| <= 27.3,
# beyond which exp(-s^2) underflows to zero, from the kernel's values at
# each piece's Chebyshev points, all taken in one call.
_CURVE_HALF_WIDTH = 27.3
_CURVE_PIECES = 55
_CURVE_DEGREE = 20
_CHEB_POINTS = np.cos(np.pi * (np.arange(_CURVE_DEGREE + 1) + 0.5) / (_CURVE_DEGREE + 1))
# values at _CHEB_POINTS -> Chebyshev coefficients (discrete orthogonality)
_CHEB_TRANSFORM = np.polynomial.chebyshev.chebvander(_CHEB_POINTS, _CURVE_DEGREE) * (
    np.where(np.arange(_CURVE_DEGREE + 1) == 0, 1.0, 2.0) / (_CURVE_DEGREE + 1)
)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF Phi of a 1-D array, elementwise, as 0.5 * erfc(-x / sqrt(2)).

    The argument is scaled by the double nearest 1/sqrt(2), as scipy's
    ``ndtr`` scales it: in the far tail an argument rounding error of
    one ulp moves Phi by about x^2 ulps.  Within rel 3e-14 of ``ndtr``
    for |x| <= 27.  A Python loop, cheap on the few dozen points a bound
    needs at a time.
    """
    return np.array([0.5 * math.erfc(-v * _SQRT_HALF) for v in x.tolist()])


def _integrand(half, mid, q0, q1, low, a, b, rate, work):
    """mixture_integral's integrand at the Gauss-Legendre nodes of a block of s-points.

    ``half`` and ``mid`` are the (m, panels) half-widths and midpoints of
    the block's panels, ``q0`` and ``q1`` its (m,) branch weights, and
    ``low``, ``a``, ``b`` and ``rate`` the channel's scalars.  The
    (m, panels, 20) result is a view of ``work``, four float arrays of at
    least that many elements; every intermediate is written into them by
    in-place ufuncs, so a block allocates no array of its size.
    """
    shape = (*half.shape, _GL_NODES.size)
    n = math.prod(shape)
    t, u, den, gap = (w[:n].reshape(shape) for w in work)
    q0, q1 = q0[:, None, None], q1[:, None, None]
    np.multiply(half[..., None], _GL_NODES, out=t)
    t += mid[..., None]
    np.exp(np.multiply(t, -rate, out=u), out=u)  # ratio of fast to slow branch
    np.multiply(u, q0 * b, out=den)
    den += q1 * a
    if low:
        np.expm1(np.multiply(t, -rate, out=gap), out=gap)
        np.negative(gap, out=gap)
        gap *= b
        gap -= rate
    else:
        np.subtract(a, np.multiply(u, b, out=gap), out=gap)
    f = np.exp(np.multiply(t, -a, out=u), out=u)
    f *= np.square(gap, out=gap)
    f /= den
    return f


def mixture_integral(s, eb, tau2):
    """Information integral of the energy mixture at operating points s.

    Integrates (f1 - f0)^2 / (q1 f1 + q0 f0) over t in [0, inf), where
    f0 and f1 are the exponential energy densities with means tau2 and
    eb + tau2, q1 = Phi(s) and q0 = 1 - q1.  A sensor with received
    power P_i, threshold beta_i and noise deviation sigma operates at
    s = (sqrt(P_i) - beta_i) / sigma.  A scalar s gives a float.

    The domain is what the callers pass, and anything else raises
    ValueError: scalar eb > 0 and tau2 > 0, as SensorEnsembleConfig
    guarantees, and |s| <= _CURVE_HALF_WIDTH, where a sensor's weight
    exp(-s^2) is nonzero.  There q0 and q1 are at least 1e-164, so the
    integrand's denominator is positive and the mixture crossover
    t_cross is finite.

    The rule is fixed: 20-point Gauss-Legendre on panels broken at
    geometric steps from 0.01*tau2 to the window end t_end, at 2*tau2,
    10*tau2 and the branch crossing t*, and at a two-sided geometric
    cluster around t_cross, where the integrand peaks sharply when q1 is
    small.  Against scipy ``quad`` it is within rel 1e-8 at channel SNR
    eb/tau2 from -10 to 300 dB, the top of the range load_config accepts
    (observed: at most 6e-14 to 40 dB and 7.8e-12 at 300 dB); from about
    1,550 dB the squared gap (a - b*u)^2 overflows.

    The tail needs no check.  t_end is past t*, where the integrand is
    at most a*exp(-a*t)/q1, so the tail is at most exp(-a*t_end)/q1.
    t_end >= 50/a, so that is below 8e-22 for q1 >= 1/4.  For q1 < 1/4,
    t_end >= t_cross + 60/a, and past t_cross the integrand is at least
    (2/9)*a*exp(-a*t)/q1, so the tail is below 4e-26 of the value.

    Below -20 dB (100 eb < tau2) the branch-rate difference
    b - a, log(b/a) and the integrand's a - b*u are formed without
    cancellation, from eb/tau2 directly, so the value follows its
    (eb/tau2)^2 limit: the ratio is within 1e-8 of 1 from -100 dB down
    to the lowest channel SNR the sensor model accepts (about -161 dB at
    1 dB transmit energy).  Above -20 dB the plain forms are kept, bit
    for bit.

    The integrand is evaluated _BLOCK points at a time, in work arrays
    made once per call (see _integrand), so a call's memory grows with
    its panel edges, 46 per point, and not with its 900 nodes per point.
    Every element goes through the same operations in the same order
    whatever the call holds, so a value is the same, bit for bit, alone
    or in a call of any size.
    """
    s = np.asarray(s, dtype=float)
    if not (np.ndim(eb) == np.ndim(tau2) == 0 and eb > 0.0 and tau2 > 0.0):
        raise ValueError(f"mixture_integral needs scalar eb > 0 and tau2 > 0, got {eb!r} and {tau2!r}")
    if not np.all(np.abs(s) <= _CURVE_HALF_WIDTH):
        raise ValueError(f"mixture_integral needs |s| <= {_CURVE_HALF_WIDTH}")
    points = s.ravel()
    a = 1.0 / (eb + tau2)
    b = 1.0 / tau2
    q0 = _normal_cdf(-points)
    q1 = _normal_cdf(points)

    # Below -20 dB, b - a, log(b/a) and a - b*u cancel: take them from
    # eb/tau2 directly there, and keep the plain forms above.
    low = 100.0 * eb < tau2
    rate = eb / (tau2 * (eb + tau2)) if low else b - a  # b - a
    log_ratio = np.log1p(eb / tau2) if low else np.log(b / a)
    t_star = log_ratio / rate  # where the two branch densities cross
    # where the mixture switches from the fast to the slow branch
    t_cross = (np.log(q0) - np.log(q1) + log_ratio) / rate
    t_end = 50.0 / a
    t_end = np.maximum(np.where(q1 < q0, np.maximum(t_end, t_cross + 60.0 / a), t_end), t_star)

    t0 = 0.01 * tau2
    center = t_cross[:, None]
    steps = (1.0 / rate) * _CLUSTER_STEPS
    edges = np.concatenate(
        [
            np.zeros((points.size, 1)),
            t0 * (t_end / t0)[:, None] ** _GEOMETRIC_POWERS,
            np.broadcast_to([2.0 * tau2, 10.0 * tau2, t_star], (points.size, 3)),
            center,
            center - steps,
            center + steps,
        ],
        axis=1,
    )
    edges = np.sort(np.clip(edges, 0.0, t_end[:, None]), axis=1)
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])

    value = np.empty(points.size)
    work = np.empty((4, min(points.size, _BLOCK) * half.shape[1] * _GL_NODES.size))
    for lo in range(0, points.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        f = _integrand(half[blk], mid[blk], q0[blk], q1[blk], low, a, b, rate, work)
        value[blk] = (half[blk] * (f @ _GL_WEIGHTS)).sum(axis=1)
    return float(value[0]) if s.ndim == 0 else value.reshape(s.shape)


@functools.lru_cache(maxsize=8)
def _information_curve(eb: float, tau2: float):
    """mixture_integral(s, eb, tau2) as a function of s, interpolated.

    log mixture_integral is interpolated by a degree-20 Chebyshev
    polynomial on each of 55 equal pieces of |s| <= 27.3, the range
    where a sensor's weight exp(-s^2) is nonzero, from the kernel's
    values at the pieces' Chebyshev points (1,155 points, in one call).
    At channel SNR -10 to 40 dB it is within rel 1e-12 of
    mixture_integral for |s| <= 10 (observed: at most 3.6e-13, the
    kernel's own panel-rule noise) and within rel 3e-12 on the whole
    range; at 60 and 80 dB the observed maxima are 1.5e-11 and 4.1e-11.
    Finite and positive wherever the kernel is, as the exponential of a
    polynomial.  Depends on (eb, tau2) only, so one process builds it
    once per channel, in about 15 to 25 ms on a 2-vCPU x86 VM.
    """
    width = 2.0 * _CURVE_HALF_WIDTH / _CURVE_PIECES
    nodes = (
        -_CURVE_HALF_WIDTH + width * (np.arange(_CURVE_PIECES)[:, None] + 0.5 * (_CHEB_POINTS + 1.0))
    ).ravel()
    logs = np.log(mixture_integral(nodes, eb, tau2)).reshape(_CURVE_PIECES, _CURVE_DEGREE + 1)
    coef = (logs[:, :, None] * _CHEB_TRANSFORM).sum(axis=1)

    def curve(s: np.ndarray) -> np.ndarray:
        u = (s + _CURVE_HALF_WIDTH) / width
        piece = np.clip(np.floor(u), 0, _CURVE_PIECES - 1)
        t = 2.0 * (u - piece) - 1.0
        c = coef[piece.astype(int)]
        b1 = b2 = 0.0
        for k in range(_CURVE_DEGREE, 0, -1):  # Clenshaw recurrence
            b1, b2 = c[..., k] + 2.0 * t * b1 - b2, b1
        return np.exp(c[..., 0] + t * b1 - b2)

    return curve


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


def _information_terms(theta, geom, cfg, thresholds, integral):
    """Weight times mixture integral c and gradient vectors v of every sensor.

    ``thresholds`` broadcasts against the (K,) sensors: (K,) gives c of
    shape (K,), and (m, 1) a row of c per candidate common threshold.
    ``integral`` maps operating points s to the mixture integral at the
    config's (eb, tau2).  Sensor i adds c[..., i] * outer(v[i], v[i]) to
    the information matrix.  c is zero where the Gaussian quantizer
    weight underflows: such a sensor's bit is deterministic and carries
    no information.
    """
    v = _gradients(theta, geom.sensors, cfg.alpha)
    P = received_power(theta.P0, cfg.d0, cfg.alpha, distances(geom, theta))
    x = (np.sqrt(P) - thresholds) / np.sqrt(cfg.sigma2)
    weight = P * np.exp(-x * x) / (8.0 * np.pi * cfg.sigma2 * theta.P0)
    c = np.zeros(weight.shape)
    live = weight != 0.0
    c[live] = weight[live] * integral(x[live])
    return c, v


def _exact_terms(theta, geom, cfg):
    """_information_terms at the config's thresholds on the exact kernel."""
    exact = functools.partial(mixture_integral, eb=cfg.eb, tau2=cfg.tau2)
    return _information_terms(theta, geom, cfg, cfg.thresholds(geom.K), exact)


def _assemble(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Information matrices sum_i c[..., i] * outer(v[i], v[i]), shape (..., 3, 3).

    Summation is in sensor-index order for bitwise reproducibility, and
    every term is exactly symmetric.  An overflow leaves a non-finite
    matrix, which _bounds reads as singular.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (c[..., None, None] * (v[:, :, None] * v[:, None, :])).sum(axis=-3)


@dataclass
class CrlbResult:
    """Location-error bound sgle_bound = [I^-1]_xx + [I^-1]_yy, and what it comes from.

    ``fim`` is sum_i terms[i] * outer(gradients[i], gradients[i]) over
    the sensors, and ``eigenvalues`` are its eigenvalues, ascending.
    """

    sgle_bound: float
    fim: np.ndarray
    condition_indicator: float
    eigenvalues: np.ndarray
    terms: np.ndarray
    gradients: np.ndarray


def _bounds(fim: np.ndarray) -> tuple:
    """Eigenvalues, condition indicators and bounds [I^-1]_xx + [I^-1]_yy of a (..., 3, 3) stack.

    The condition indicator is the ratio of extreme absolute eigenvalues,
    inf when the smallest is below the normal float range: the inverse
    of such a matrix is not representable, and LU factorization can meet
    an exactly zero pivot in it.

    The bound is inf where the matrix is singular: its condition
    indicator exceeds CONDITION_LIMIT, or its inverse gives no positive
    finite bound.  The second test catches a matrix so small that its
    inverse overflows although its eigenvalue ratio passes.  A matrix
    with a non-finite entry reads as all zeros, so as singular.
    """
    finite = np.isfinite(fim).all(axis=(-2, -1))
    eigenvalues = np.linalg.eigvalsh(np.where(finite[..., None, None], fim, 0.0))
    w = np.abs(eigenvalues)
    w_max, w_min = w.max(axis=-1), w.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(w_min < _TINY, np.inf, w_max / w_min)
    bound = np.full(cond.shape, np.inf)
    ok = cond <= CONDITION_LIMIT  # false for inf and nan
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.linalg.inv(fim[ok])
        b = inv[:, 1, 1] + inv[:, 2, 2]
    bound[ok] = np.where(np.isfinite(b) & (b > 0.0), b, np.inf)
    return eigenvalues, cond, bound


def _checked_bound(fim: np.ndarray) -> tuple:
    """Eigenvalues, condition indicator and bound of one information matrix.

    Raises SingularFim when the condition indicator exceeds
    CONDITION_LIMIT (e.g. a single sensor or collinear layout), or the
    inverse is not usable.
    """
    eigenvalues, cond, bound = _bounds(fim)
    cond, bound = float(cond), float(bound)
    if not cond <= CONDITION_LIMIT:
        raise SingularFim(cond)
    if bound == np.inf:
        raise SingularFim(cond, "information matrix inverse is not usable")
    return eigenvalues, cond, bound


def crlb_sgle(
    theta: SourceParams,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
) -> CrlbResult:
    """Lower bound on mean squared location error for this geometry.

    One exact pass: every sensor's term on the exact kernel, the
    information matrix they sum to, and its eigenvalues, all kept in
    the result.  Raises SingularFim as _checked_bound does.
    """
    c, v = _exact_terms(theta, geom, cfg)
    fim = _assemble(c, v)
    eigenvalues, cond, bound = _checked_bound(fim)
    return CrlbResult(
        sgle_bound=bound, fim=fim, condition_indicator=cond, eigenvalues=eigenvalues, terms=c, gradients=v
    )


def per_sensor_term_norms(result: CrlbResult) -> np.ndarray:
    """Frobenius norm of each sensor's information contribution to a bound."""
    return result.terms * np.sum(result.gradients * result.gradients, axis=1)


# --- threshold optimization -------------------------------------------------


def _golden_sections(f, brackets, tol: float) -> list:
    """Golden-section refinement of every bracket (lo, hi) in lockstep.

    ``f`` maps an array of points to their values.  Each bracket probes
    its two interior golden points, then shrinks toward the lower value
    (ties keep the lower side), one new probe per step, until it is no
    wider than ``tol``.  One call of ``f`` scores the pending probes of
    every bracket still live, so each bracket gets the probes and values
    it would get alone.  Returns every (value, point) probed.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    # [lo, hi, c, f(c), d, f(d)] of each live bracket; None marks a probe to score
    live = [[lo, hi, hi - invphi * (hi - lo), None, lo + invphi * (hi - lo), None] for lo, hi in brackets]
    evaluated = []
    while live:
        pending = [(br, i) for br in live for i in (2, 4) if br[i + 1] is None]
        probes = [br[i] for br, i in pending]
        values = f(np.array(probes)).tolist()
        evaluated.extend(zip(values, probes))
        for (br, i), value in zip(pending, values):
            br[i + 1] = value
        live = [br for br in live if br[1] - br[0] > tol]
        for br in live:
            lo, hi, c, fc, d, fd = br
            if fc <= fd:
                br[:] = lo, d, d - invphi * (d - lo), None, c, fc
            else:
                br[:] = c, hi, d, fd, c + invphi * (hi - c), None
    return evaluated


def _minimize(f, grid: np.ndarray, tol: float, basins: int):
    """Least (value, point) of ``f`` on ``grid`` and around its best points.

    Scores the grid in one call of ``f``, golden-section refines the
    bracket of grid neighbours around each of the ``basins`` best finite
    grid points in lockstep, and returns the least (value, point)
    evaluated, ties to the lower point.  None when no grid value is
    finite.
    """
    objs = f(grid)
    if not np.any(np.isfinite(objs)):
        return None
    brackets = []
    for k in np.argsort(objs, kind="stable")[:basins]:
        if not np.isfinite(objs[k]):
            break
        bracket = (grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)])
        if bracket not in brackets:
            brackets.append(bracket)
    return min(list(zip(objs.tolist(), grid.tolist())) + _golden_sections(f, brackets, tol))


@functools.lru_cache(maxsize=8)
def _best_operating_point(eb: float, tau2: float) -> float:
    """s* = argmax over s of g(s) = exp(-s^2) * mixture_integral(s, eb, tau2).

    Scans _S_GRID in one kernel call and refines around the best grid
    point (_minimize).  g depends on (eb, tau2) only through eb/tau2, and
    is unimodal with its maximum between s = -0.23 and 0 at channel SNR
    -20 to 60 dB, well inside the grid.  Memoized
    per (eb, tau2) like the information curve, so every geometry of a
    command shares it.
    """

    def neg_g(s: np.ndarray) -> np.ndarray:
        return -np.array([math.exp(-v * v) for v in s.tolist()]) * mixture_integral(s, eb, tau2)

    return _minimize(neg_g, _S_GRID, _S_TOL, 1)[1]


def prepare_tuning(cfg: SensorEnsembleConfig, mode: str) -> None:
    """Build and memoize what optimize_thresholds needs of cfg's channel in
    ``mode``: the information curve in common mode, s* in per-sensor mode.

    A caller about to fork workers that tune on one channel calls this
    first, so the workers inherit the result instead of each building it.
    """
    if mode == "common":
        _information_curve(cfg.eb, cfg.tau2)
    else:
        _best_operating_point(cfg.eb, cfg.tau2)


def optimize_thresholds(
    theta: SourceParams,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    mode: str = "common",
) -> float | np.ndarray:
    """Quantization threshold(s) minimizing the location-error bound.

    Returns only the thresholds: a float in common mode, a (K,) array
    in per-sensor mode.  No exact bound is evaluated here; the bound the
    thresholds achieve is crlb_sgle's, which the caller computes once.

    Common mode scans _N_COARSE points over
    [-3*sigma, sqrt(P0) + 3*sigma] in one stacked pass, golden-section
    refines the three best local basins in lockstep, one stacked pass per
    step, and returns the best point evaluated, ties to the lower
    threshold (_minimize): a coarse grid this wide can straddle more than
    one minimum of the aggregated bound.  Every candidate is scored on
    the channel's memoized information curve (_information_curve), whose
    bounds sit within about 1e-12 relative of the exact ones: on 1,040
    random tunings at -30 to 60 dB it picked the threshold the exact
    scores pick in every case.

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
        return np.sqrt(P) - np.sqrt(cfg.sigma2) * s_star

    sigma = math.sqrt(cfg.sigma2)
    lo = -3.0 * sigma
    hi = math.sqrt(theta.P0) + 3.0 * sigma
    tol = 1e-4 * math.sqrt(theta.P0)
    curve = _information_curve(cfg.eb, cfg.tau2)

    def curve_bounds(betas: np.ndarray) -> np.ndarray:
        """The bound at each common threshold, inf where singular, on the curve."""
        return _bounds(_assemble(*_information_terms(theta, geom, cfg, betas[:, None], curve)))[2]

    best = _minimize(curve_bounds, np.linspace(lo, hi, _N_COARSE), tol, 3)
    if best is None:
        raise SingularFim(np.inf, "no threshold in the bracket yields an invertible FIM")
    return float(best[1])
