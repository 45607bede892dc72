"""Energy likelihood at the fusion center and the ML source estimator.

Given the bit sent by sensor i, its received energy is exponential with
mean ``eb*u + tau2``, so marginally each energy follows a two-component
exponential mixture whose weights are the bit probabilities.  The joint
likelihood over sensors factorizes, and the source parameters
(P0, xT, yT) are recovered by maximizing the log-likelihood with a
multi-start Nelder-Mead search seeded from a coarse polar grid.

The search's settings are fixed: a 7 x 7 polar grid over the disk crossed
with P0 factors 0.1, 1 and 10 of nominal seeds it, each round refines its
4 best spatially distinct grid seeds plus 1 random start, and P0 stays
within a factor 1e3 of nominal.

One kernel, ``_EnsembleLikelihood._log_terms``, evaluates every
per-sensor term.  It works in the linear domain, ``log(q0*f0 + q1*f1)``
with one ``ndtr`` and one ``log`` per term, and recomputes the rare
terms near or below the float underflow threshold in the log domain
(``log_ndtr`` weights combined with ``logaddexp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from .geometry import NetworkGeometry, SourceParams
from .signal_model import SensorEnsembleConfig


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
#
# Fixed search settings (see the module docstring).  A simplex stops when
# its scaled diameter is below _DIAMETER_TOL_FRAC * R and its relative
# value spread below _F_SPREAD_REL_TOL, or after _MAX_ITER steps.

_P0_SPAN = 1e3
_N_GRID_RADIAL = 7
_N_GRID_ANGULAR = 7
_P0_SEED_FACTORS = np.array([0.1, 1.0, 10.0])
_N_STARTS = 4
_N_RANDOM_STARTS = 1
_MAX_ITER = 2000
_DIAMETER_TOL_FRAC = 1e-6
_F_SPREAD_REL_TOL = 1e-9


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


def _polar_grid_seeds(R: float, p0_nominal: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed points (P0, x, y): the polar grid crossed with the P0 factors."""
    radii = (np.arange(_N_GRID_RADIAL) + 0.5) / _N_GRID_RADIAL * R
    angles = 2.0 * np.pi * np.arange(_N_GRID_ANGULAR) / _N_GRID_ANGULAR
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    gx = np.repeat((rr * np.cos(aa)).ravel(), _P0_SEED_FACTORS.size)
    gy = np.repeat((rr * np.sin(aa)).ravel(), _P0_SEED_FACTORS.size)
    gp = np.tile(p0_nominal * _P0_SEED_FACTORS, rr.size)
    return gp, gx, gy


class _EnsembleLikelihood:
    """Likelihood terms for a batch of rounds sharing one geometry.

    Theta-dependent pieces (powers, mixture weights) depend only on the
    probe point; the energy-dependent pieces (the two component
    densities f0 and f1 of each energy) are per round and computed once.
    ``rows`` maps each probe to its round so many rounds optimize in one
    batch.

    Each sensor term is evaluated in the linear domain as
    ``log(q0*f0 + q1*f1)`` with one ``ndtr`` per element: the smaller
    weight ``ndtr(-|s|)`` is computed directly and the larger one as its
    complement, so both are accurate to rounding and the sum, in which
    one weight is at least 1/2, has no cancellation.  Where a weight or
    density underflows (f0 of a bit-1 energy at high channel SNR, q1 of a
    far probe seen by a sharp sensor), a term near the underflow
    threshold loses digits or becomes 0.  So terms below ``floor`` (about
    1e-290, see ``__init__``) are recomputed in the log domain with
    ``log_ndtr`` and ``logaddexp``: every term is finite and matches the
    log-domain form to rounding.
    """

    def __init__(self, ts: np.ndarray, geom: NetworkGeometry, cfg: SensorEnsembleConfig):
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        if ts.shape[1] != geom.K:
            raise ValueError(f"energy block has shape {ts.shape}, expected (*, {geom.K})")
        if np.any(ts < 0):
            raise ValueError("energies must be nonnegative")
        eb, tau2 = cfg.eb, cfg.tau2
        self.n_rounds = ts.shape[0]
        self.xs = geom.sensors[:, 0].copy()
        self.ys = geom.sensors[:, 1].copy()
        self.beta = cfg.thresholds(geom.K)
        self.inv_sigma = 1.0 / np.sqrt(cfg.sigma2)
        self.d0_sq = cfg.d0 * cfg.d0
        self.half_alpha = cfg.alpha / 2.0
        self.log_f0 = -ts / tau2 - np.log(tau2)  # (n_rounds, K)
        self.log_f1 = -ts / (eb + tau2) - np.log(eb + tau2)
        self.f0 = np.exp(self.log_f0)
        self.f1 = np.exp(self.log_f1)
        # A weight or density that underflows is off by at most tiny, so
        # it moves a linear term by at most tiny * (2 + max density);
        # terms above this floor are therefore exact to rounding.
        fl = np.finfo(float)
        self.floor = fl.tiny / fl.eps * (2.0 + 1.0 / tau2)

    def _log_terms(self, p0, x, y, rows=None):
        """Per-sensor log mixture densities at the probes (p0, x, y).

        Probe i scores round rows[i], giving (m, K); with rows None every
        round scores every probe, giving (n_rounds, m, K).
        """
        dx = x[:, None] - self.xs[None, :]
        dy = y[:, None] - self.ys[None, :]
        d2 = dx * dx + dy * dy
        ratio = self.d0_sq / np.maximum(d2, self.d0_sq)
        if self.half_alpha != 1.0:
            ratio = ratio**self.half_alpha
        P = np.asarray(p0)[:, None] * ratio
        s = (np.sqrt(P) - self.beta) * self.inv_sigma
        sel = (slice(None), None) if rows is None else rows
        small = ndtr(-np.abs(s))
        big = 1.0 - small
        pos = s > 0
        terms = np.where(pos, small, big) * self.f0[sel]
        terms += np.where(pos, big, small) * self.f1[sel]
        low = terms < self.floor
        with np.errstate(divide="ignore"):
            np.log(terms, out=terms)
        if low.any():
            s = np.broadcast_to(s, terms.shape)[low]
            terms[low] = np.logaddexp(
                np.broadcast_to(self.log_f0[sel], terms.shape)[low] + log_ndtr(-s),
                np.broadcast_to(self.log_f1[sel], terms.shape)[low] + log_ndtr(s),
            )
        return terms

    def loglik(self, rows: np.ndarray, p0: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-probe log-likelihood; probe i scores round rows[i]."""
        return self._log_terms(p0, x, y, rows).sum(axis=1)

    def grid_loglik(self, p0, x, y, chunk: int = 32) -> np.ndarray:
        """(n_rounds, n_seeds) log-likelihoods for theta-only seed points."""
        out = np.empty((self.n_rounds, len(x)))
        for lo in range(0, len(x), chunk):
            hi = min(lo + chunk, len(x))
            out[:, lo:hi] = self._log_terms(p0[lo:hi], x[lo:hi], y[lo:hi]).sum(axis=2)
        return out


def ml_estimate_batch(
    ts: np.ndarray,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    p0_nominal: float,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> list:
    """ML source estimates for a block of rounds on one geometry.

    The location is searched on the geometry's disk (quadratic penalty
    outside) and P0 on a log scale within a factor 1e3 of p0_nominal.
    Scores the full seed grid for every round in one pass, then refines
    each round's best spatially distinct seeds (plus one random start
    from its own stream when ``rngs`` is given) with lockstep Nelder-Mead
    across all rounds at once.  Per round, ties on log-likelihood break
    toward the lexicographically smallest (x, y), and the returned
    log-likelihood is never below the round's best grid seed.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    M = ts.shape[0]
    if rngs is not None and len(rngs) != M:
        raise ValueError("need one random stream per round")
    el = _EnsembleLikelihood(ts, geom, cfg)
    R = geom.R
    ln_lo = np.log(p0_nominal / _P0_SPAN)
    ln_hi = np.log(p0_nominal * _P0_SPAN)

    gp, gx, gy = _polar_grid_seeds(R, p0_nominal)
    grid_ll = el.grid_loglik(gp, gx, gy)  # (M, n_seeds)
    seed_order = np.argsort(-grid_ll, axis=1, kind="stable")

    # Per round: high-scoring seeds kept at least one grid cell apart so
    # the local searches explore separate modes, then random extras.
    min_sep_sq = (R / _N_GRID_RADIAL) ** 2
    n_random = _N_RANDOM_STARTS if rngs is not None else 0
    n_starts = _N_STARTS + n_random
    x0s = np.empty((M * n_starts, 3))
    rows = np.repeat(np.arange(M), n_starts)
    for m in range(M):
        picked = []
        for idx in seed_order[m]:
            if len(picked) >= _N_STARTS:
                break
            if any((gx[idx] - px) ** 2 + (gy[idx] - py) ** 2 < min_sep_sq for px, py in picked):
                continue
            picked.append((gx[idx], gy[idx]))
            x0s[m * n_starts + len(picked) - 1] = gx[idx], gy[idx], np.log(gp[idx])
        # duplicate the best seed if the greedy filter ran out of grid
        while len(picked) < _N_STARTS:
            x0s[m * n_starts + len(picked)] = x0s[m * n_starts]
            picked.append(None)
        for r in range(n_random):
            ang = rngs[m].uniform(0.0, 2.0 * np.pi)
            rad = R * np.sqrt(rngs[m].uniform())
            j = m * n_starts + _N_STARTS + r
            x0s[j] = rad * np.cos(ang), rad * np.sin(ang), np.log(p0_nominal)

    def objective(V, sidx):
        x, y, lnp0 = V[:, 0], V[:, 1], V[:, 2]
        p0 = np.exp(np.clip(lnp0, ln_lo - 30.0, ln_hi + 30.0))
        val = -el.loglik(rows[sidx], p0, x, y)
        rad = np.hypot(x, y)
        over = rad > R
        if over.any():
            val = val + np.where(over, 1e6 * (rad / R - 1.0) ** 2, 0.0)
        val = val + np.where(lnp0 < ln_lo, 1e6 * (ln_lo - lnp0) ** 2, 0.0)
        val = val + np.where(lnp0 > ln_hi, 1e6 * (lnp0 - ln_hi) ** 2, 0.0)
        return val

    results_x, _, results_conv = _nelder_mead_batch(
        objective, x0s, np.array([R / 20.0, R / 20.0, 0.25]), np.array([1.0, 1.0, R]),
        _MAX_ITER, _DIAMETER_TOL_FRAC * R, _F_SPREAD_REL_TOL,
    )

    # Project every refined point into the search domain and rescore the
    # raw likelihood there.
    x = results_x[:, 0].copy()
    y = results_x[:, 1].copy()
    rad = np.hypot(x, y)
    over = rad > R
    x[over] *= R / rad[over]
    y[over] *= R / rad[over]
    p0 = np.exp(np.clip(results_x[:, 2], ln_lo, ln_hi))
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
