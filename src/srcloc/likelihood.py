"""Energy likelihood at the fusion center and the ML source estimator.

Given the bit sent by sensor i, its received energy is exponential with
mean ``eb*u + tau2``, so marginally each energy follows a two-component
exponential mixture whose weights are the bit probabilities.  The joint
likelihood over sensors factorizes, and the source parameters
(P0, xT, yT) are recovered by maximizing the log-likelihood with a
multi-start Nelder-Mead search seeded from a coarse polar grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import log_ndtr, ndtr

from .geometry import NetworkGeometry, SourceParams
from .signal_model import SensorEnsembleConfig

ArrayLike = Union[float, np.ndarray]


def p_one(P_i: ArrayLike, beta_i: ArrayLike, sigma_i: ArrayLike) -> ArrayLike:
    """Probability that a sensor with received power P_i reports a 1.

    Equals the Gaussian tail Q((beta - sqrt(P)) / sigma).
    """
    s = (np.sqrt(np.asarray(P_i, dtype=float)) - beta_i) / sigma_i
    out = ndtr(s)
    return float(out) if np.ndim(out) == 0 else out


def marginal_energy_pdf(
    t: ArrayLike,
    P_i: ArrayLike,
    beta_i: ArrayLike,
    sigma_i: ArrayLike,
    eb: ArrayLike,
    tau2: ArrayLike,
) -> ArrayLike:
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


def marginal_energy_cdf(
    t: ArrayLike,
    P_i: ArrayLike,
    beta_i: ArrayLike,
    sigma_i: ArrayLike,
    eb: ArrayLike,
    tau2: ArrayLike,
) -> ArrayLike:
    """CDF matching marginal_energy_pdf (exponential-mixture CDF)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("energies must be nonnegative")
    s = (np.sqrt(np.asarray(P_i, dtype=float)) - beta_i) / sigma_i
    q0 = ndtr(-s)
    q1 = ndtr(s)
    out = q0 * (1.0 - np.exp(-t / tau2)) + q1 * (1.0 - np.exp(-t / (eb + tau2)))
    return float(out) if out.ndim == 0 else out


def log_likelihood(
    t: np.ndarray,
    theta: SourceParams,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
) -> float:
    """Joint log-likelihood of the received energies at theta."""
    el = _EnsembleLikelihood(np.reshape(t, (1, -1)), geom, cfg)
    row = np.zeros(1, dtype=int)
    return float(el.loglik(row, np.array([theta.P0]), np.array([theta.xT]), np.array([theta.yT]))[0])


# --- ML estimation ----------------------------------------------------------


@dataclass
class SearchOptions:
    """Knobs for the multi-start ML search.

    The location estimate is constrained to a disk of the given radius
    (quadratic penalty outside) and P0 is optimized on a log scale
    within ``p0_nominal / p0_span .. p0_nominal * p0_span``.  Seeds come
    from an ``n_grid_radial x n_grid_angular`` polar grid crossed with
    ``p0_seed_factors``; the ``n_starts`` best-scoring, spatially
    distinct seeds (plus ``n_random_starts`` uniform draws) each get a
    local Nelder-Mead refinement.
    """

    radius: float
    p0_nominal: float
    p0_span: float = 1e3
    n_grid_radial: int = 7
    n_grid_angular: int = 7
    p0_seed_factors: Sequence[float] = (0.1, 1.0, 10.0)
    n_starts: int = 4
    n_random_starts: int = 1
    max_iter: int = 2000
    diameter_tol_frac: float = 1e-6
    f_spread_rel_tol: float = 1e-9
    estimate_p0: bool = True


@dataclass
class EstimateResult:
    """Outcome of one ML estimation: best theta found and diagnostics."""

    theta_hat: SourceParams
    log_likelihood: float
    converged: bool
    starts_used: int


def _nelder_mead_batch(f, x0s, steps, scale, max_iter, diam_tol, f_rel_tol):
    """Run independent Nelder-Mead searches in lockstep.

    ``f(points, ids)`` maps an (m, n) block of probe points, with their
    owning simplex indices, to (m,) values; x0s is (S, n).  Each simplex
    follows the standard reflect/expand/contract/shrink rules on its own
    comparisons; batching only vectorizes the function evaluations
    across simplices.  A simplex converges when its scaled diameter
    drops below diam_tol and its relative value spread below f_rel_tol;
    converged simplices freeze and leave the batch.

    Returns (best points (S, n), best values (S,), converged flags (S,)).
    """
    x0s = np.asarray(x0s, dtype=float)
    S, n = x0s.shape
    verts = np.repeat(x0s[:, None, :], n + 1, axis=1)
    for j in range(n):
        verts[:, j + 1, j] += steps[j]
    all_ids = np.arange(S)
    fv = f(verts.reshape(-1, n), np.repeat(all_ids, n + 1)).reshape(S, n + 1)
    converged = np.zeros(S, dtype=bool)
    active = np.ones(S, dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        v = verts[idx]
        fvals = fv[idx]
        order = np.argsort(fvals, axis=1, kind="stable")
        ar = np.arange(idx.size)
        ib, isw, iw = order[:, 0], order[:, -2], order[:, -1]
        fb, fsw, fw = fvals[ar, ib], fvals[ar, isw], fvals[ar, iw]
        vb = v[ar, ib]
        diam = np.max(np.abs(v - vb[:, None, :]) * scale, axis=(1, 2))
        done = (diam < diam_tol) & ((fw - fb) <= f_rel_tol * np.maximum(1.0, np.abs(fb)))
        if done.any():
            converged[idx[done]] = True
            active[idx[done]] = False
            keep = ~done
            idx = idx[keep]
            if idx.size == 0:
                continue
            v, fvals = v[keep], fvals[keep]
            ib, isw, iw = ib[keep], isw[keep], iw[keep]
            fb, fsw, fw = fb[keep], fsw[keep], fw[keep]
            vb = vb[keep]
            ar = np.arange(idx.size)
        vw = v[ar, iw]
        centroid = (v.sum(axis=1) - vw) / n
        xr = 2.0 * centroid - vw
        fr = f(xr, idx)

        expand = fr < fb
        reflect = ~expand & (fr < fsw)
        contract_out = ~expand & ~reflect & (fr < fw)
        contract_in = ~expand & ~reflect & ~contract_out
        second = np.empty_like(xr)
        second[expand] = 3.0 * centroid[expand] - 2.0 * vw[expand]
        second[contract_out] = 0.5 * (centroid[contract_out] + xr[contract_out])
        second[contract_in] = 0.5 * (centroid[contract_in] + vw[contract_in])
        fs = np.full(idx.size, np.inf)
        need = ~reflect
        if need.any():
            fs[need] = f(second[need], idx[need])

        new_vert = xr.copy()
        new_f = fr.copy()
        better_second = (expand & (fs < fr)) | (contract_out & (fs <= fr)) | (
            contract_in & (fs < fw)
        )
        new_vert[better_second] = second[better_second]
        new_f[better_second] = fs[better_second]
        shrink = (contract_out & (fs > fr)) | (contract_in & (fs >= fw))

        accept = ~shrink
        if accept.any():
            gidx = idx[accept]
            verts[gidx, iw[accept]] = new_vert[accept]
            fv[gidx, iw[accept]] = new_f[accept]
        if shrink.any():
            gidx = idx[shrink]
            anchors = vb[shrink][:, None, :]
            verts[gidx] = anchors + 0.5 * (verts[gidx] - anchors)
            fv[gidx] = f(
                verts[gidx].reshape(-1, n), np.repeat(gidx, n + 1)
            ).reshape(gidx.size, n + 1)
    order = np.argmin(fv, axis=1)
    sel = np.arange(S)
    return verts[sel, order], fv[sel, order], converged


def _polar_grid_seeds(search: SearchOptions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    radii = (np.arange(search.n_grid_radial) + 0.5) / search.n_grid_radial * search.radius
    angles = 2.0 * np.pi * np.arange(search.n_grid_angular) / search.n_grid_angular
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    gx = (rr * np.cos(aa)).ravel()
    gy = (rr * np.sin(aa)).ravel()
    if search.estimate_p0:
        factors = np.asarray(search.p0_seed_factors, dtype=float)
        gx = np.repeat(gx, factors.size)
        gy = np.repeat(gy, factors.size)
        gp = np.tile(search.p0_nominal * factors, rr.size)
    else:
        gp = np.full(gx.size, search.p0_nominal)
    return gp, gx, gy


class _EnsembleLikelihood:
    """Likelihood terms for a batch of rounds sharing one geometry.

    Theta-dependent pieces (powers, mixture weights) depend only on the
    probe point; the energy-dependent pieces are per round.  ``rows``
    maps each probe to its round so many rounds optimize in one batch.
    """

    def __init__(self, ts: np.ndarray, geom: NetworkGeometry, cfg: SensorEnsembleConfig):
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        if ts.shape[1] != geom.K:
            raise ValueError(f"energy block has shape {ts.shape}, expected (*, {geom.K})")
        if np.any(ts < 0):
            raise ValueError("energies must be nonnegative")
        sigma2, beta, eb, tau2 = cfg.resolved(geom.K)
        self.n_rounds = ts.shape[0]
        self.K = geom.K
        self.xs = geom.sensors[:, 0].copy()
        self.ys = geom.sensors[:, 1].copy()
        self.beta = beta
        self.inv_sigma = 1.0 / np.sqrt(sigma2)
        self.d0_sq = cfg.d0 * cfg.d0
        self.half_alpha = cfg.alpha / 2.0
        self.log_f0 = -ts / tau2 - np.log(tau2)  # (n_rounds, K)
        self.log_f1 = -ts / (eb + tau2) - np.log(eb + tau2)

    def _tails(self, p0, x, y):
        dx = x[:, None] - self.xs[None, :]
        dy = y[:, None] - self.ys[None, :]
        d2 = dx * dx + dy * dy
        ratio = self.d0_sq / np.maximum(d2, self.d0_sq)
        if self.half_alpha != 1.0:
            ratio = ratio**self.half_alpha
        P = np.asarray(p0)[:, None] * ratio
        s = (np.sqrt(P) - self.beta) * self.inv_sigma
        return log_ndtr(np.concatenate((-s, s), axis=1))

    def loglik(self, rows: np.ndarray, p0: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-probe log-likelihood; probe i scores round rows[i]."""
        tails = self._tails(p0, x, y)
        K = self.K
        terms = np.logaddexp(
            self.log_f0[rows] + tails[:, :K], self.log_f1[rows] + tails[:, K:]
        )
        return terms.sum(axis=1)

    def grid_loglik(self, p0, x, y, chunk: int = 32) -> np.ndarray:
        """(n_rounds, n_seeds) log-likelihoods for theta-only seed points."""
        out = np.empty((self.n_rounds, len(x)))
        K = self.K
        for lo in range(0, len(x), chunk):
            hi = min(lo + chunk, len(x))
            tails = self._tails(p0[lo:hi], x[lo:hi], y[lo:hi])  # (g, 2K)
            terms = np.logaddexp(
                self.log_f0[:, None, :] + tails[None, :, :K],
                self.log_f1[:, None, :] + tails[None, :, K:],
            )
            out[:, lo:hi] = terms.sum(axis=2)
        return out


def ml_estimate_batch(
    ts: np.ndarray,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    search: SearchOptions,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> list:
    """ML source estimates for a block of rounds on one geometry.

    Scores the full seed grid for every round in one pass, then refines
    each round's best spatially distinct seeds (plus its own random
    starts) with lockstep Nelder-Mead across all rounds at once.  Per
    round, ties on log-likelihood break toward the lexicographically
    smallest (x, y), and the returned log-likelihood is never below the
    round's best grid seed.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    M = ts.shape[0]
    if rngs is not None and len(rngs) != M:
        raise ValueError("need one random stream per round")
    el = _EnsembleLikelihood(ts, geom, cfg)
    R = search.radius
    ln_lo = np.log(search.p0_nominal / search.p0_span)
    ln_hi = np.log(search.p0_nominal * search.p0_span)
    estimate_p0 = search.estimate_p0

    gp, gx, gy = _polar_grid_seeds(search)
    grid_ll = el.grid_loglik(gp, gx, gy)  # (M, n_seeds)
    seed_order = np.argsort(-grid_ll, axis=1, kind="stable")

    # Per round: high-scoring seeds kept at least one grid cell apart so
    # the local searches explore separate modes, then random extras.
    min_sep_sq = (R / search.n_grid_radial) ** 2
    n_random = search.n_random_starts if rngs is not None else 0
    n_starts = search.n_starts + n_random
    x0s = np.empty((M * n_starts, 3 if estimate_p0 else 2))
    rows = np.repeat(np.arange(M), n_starts)
    for m in range(M):
        picked = []
        for idx in seed_order[m]:
            if len(picked) >= search.n_starts:
                break
            if any((gx[idx] - px) ** 2 + (gy[idx] - py) ** 2 < min_sep_sq for px, py in picked):
                continue
            picked.append((gx[idx], gy[idx]))
            j = m * n_starts + len(picked) - 1
            x0s[j, 0], x0s[j, 1] = gx[idx], gy[idx]
            if estimate_p0:
                x0s[j, 2] = np.log(gp[idx])
        # duplicate the best seed if the greedy filter ran out of grid
        while len(picked) < search.n_starts:
            x0s[m * n_starts + len(picked)] = x0s[m * n_starts]
            picked.append(None)
        for r in range(n_random):
            ang = rngs[m].uniform(0.0, 2.0 * np.pi)
            rad = R * np.sqrt(rngs[m].uniform())
            j = m * n_starts + search.n_starts + r
            x0s[j, 0], x0s[j, 1] = rad * np.cos(ang), rad * np.sin(ang)
            if estimate_p0:
                x0s[j, 2] = np.log(search.p0_nominal)

    def objective(V, sidx):
        x, y = V[:, 0], V[:, 1]
        if estimate_p0:
            lnp0 = V[:, 2]
            p0 = np.exp(np.clip(lnp0, ln_lo - 30.0, ln_hi + 30.0))
        else:
            p0 = np.full(V.shape[0], search.p0_nominal)
        val = -el.loglik(rows[sidx], p0, x, y)
        rad = np.hypot(x, y)
        over = rad > R
        if over.any():
            val = val + np.where(over, 1e6 * (rad / R - 1.0) ** 2, 0.0)
        if estimate_p0:
            val = val + np.where(lnp0 < ln_lo, 1e6 * (ln_lo - lnp0) ** 2, 0.0)
            val = val + np.where(lnp0 > ln_hi, 1e6 * (lnp0 - ln_hi) ** 2, 0.0)
        return val

    if estimate_p0:
        steps = np.array([R / 20.0, R / 20.0, 0.25])
        scale = np.array([1.0, 1.0, R])
    else:
        steps = np.array([R / 20.0, R / 20.0])
        scale = np.array([1.0, 1.0])

    results_x, _, results_conv = _nelder_mead_batch(
        objective, x0s, steps, scale, search.max_iter,
        search.diameter_tol_frac * R, search.f_spread_rel_tol,
    )

    # Project every refined point into the search domain and rescore the
    # raw likelihood there.
    x = results_x[:, 0].copy()
    y = results_x[:, 1].copy()
    rad = np.hypot(x, y)
    over = rad > R
    x[over] *= R / rad[over]
    y[over] *= R / rad[over]
    if estimate_p0:
        p0 = np.exp(np.clip(results_x[:, 2], ln_lo, ln_hi))
    else:
        p0 = np.full(x.size, search.p0_nominal)
    cand_ll = el.loglik(rows, p0, x, y)

    out = []
    for m in range(M):
        sl = slice(m * n_starts, (m + 1) * n_starts)
        best_seed = seed_order[m, 0]
        # candidates: refined starts plus the raw best grid seed, which
        # guarantees the grid-dominance contract
        cand = list(zip(cand_ll[sl], x[sl], y[sl], p0[sl]))
        cand.append(
            (grid_ll[m, best_seed], gx[best_seed], gy[best_seed], gp[best_seed])
        )
        best = cand[0]
        for c in cand[1:]:
            if c[0] > best[0] or (c[0] == best[0] and (c[1], c[2]) < (best[1], best[2])):
                best = c
        out.append(
            EstimateResult(
                theta_hat=SourceParams(P0=float(best[3]), xT=float(best[1]), yT=float(best[2])),
                log_likelihood=float(best[0]),
                converged=bool(results_conv[sl].any()),
                starts_used=n_starts,
            )
        )
    return out


def ml_estimate(
    t: np.ndarray,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    search: SearchOptions,
    rng: Optional[np.random.Generator] = None,
) -> EstimateResult:
    """Maximum-likelihood source estimate from one round's energies."""
    rngs = None if rng is None else [rng]
    return ml_estimate_batch(np.asarray(t)[None, :], geom, cfg, search, rngs)[0]
