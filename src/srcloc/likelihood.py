"""Energy likelihood at the fusion center and the ML source estimator.

Given the bit sent by sensor i, its received energy is exponential with
mean ``eb*u + tau2``, so marginally each energy follows a two-component
exponential mixture whose weights are the bit probabilities.  The joint
likelihood over sensors factorizes, and the source parameters
(P0, xT, yT) are recovered by maximizing the log-likelihood with a
two-stage multi-start search seeded from a coarse polar grid: lockstep
Nelder-Mead to a coarse tolerance chooses each start's basin, and a
lockstep Levenberg-Marquardt-damped Newton iteration on the exact
gradient and Hessian converges inside it.  Nelder-Mead's final
contraction converges only linearly (Lagarias et al., SIAM J. Optim.
1998), Newton's quadratically (More, "The Levenberg-Marquardt algorithm:
implementation and theory", 1978), so the second stage replaces the long
tail of simplex steps.  Each stage stops when its own job is done: a
simplex at basin scale whose best vertex has a positive-definite Hessian
and a short Newton step hands that vertex to the polish; one on a flat
slope or a saddle carries on to a finer scale; one still moving after a
step cap is handed over as it stands.  The polish stops a start once
its steps no longer gain anything.

The search's settings are fixed: a 7 x 7 polar grid over the disk crossed
with P0 factors 0.1, 1 and 10 of nominal seeds it, each round refines its
4 best spatially distinct grid seeds plus 1 random start, and P0 stays
within a factor 1e3 of nominal.

One kernel, ``_EnsembleLikelihood._log_terms``, evaluates every
per-sensor term T.  It works in the linear domain, ``log(q0*f0 + q1*f1)``
with one ``ndtr`` and one ``log`` per term, and recomputes the rare
terms near or below the float underflow threshold in the log domain
(``log_ndtr`` weights combined with ``logaddexp``).  On request it also
returns dT/ds and d2T/ds2 in the weight argument s, from which
``_EnsembleLikelihood.score`` chains the search's derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from .geometry import NetworkGeometry, SourceParams
from .signal_model import SensorEnsembleConfig


# --- ML estimation ----------------------------------------------------------
#
# Fixed search settings (see the module docstring).  Nelder-Mead only
# picks the basin: a simplex stops when its scaled diameter is below
# _DIAMETER_TOL_FRAC * R and its relative value spread below
# _F_SPREAD_REL_TOL, provided its best vertex has a positive-definite
# Hessian and an undamped Newton step no longer than _HANDOVER_FRAC * R
# (scaled).  The check runs on every _CHECK_EVERY-th step, since each
# call costs about as much for one simplex as for fifty.  A simplex that
# fails it carries on, on the path it would have taken anyway, down to
# _RESUME_DIAMETER_FRAC * R.  Any simplex still moving after
# _MAX_ITER steps is handed over as it stands.  The Newton polish starts
# at the best vertex with damping _DAMPING_INIT, never lets the damping
# fall below that, and stops when the damped Newton decrement is below
# _DECREMENT_REL_TOL * max(1, |f|), after _STALL_STEPS consecutive
# accepted steps that each gained at most _STALL_REL_GAIN * max(1, |f|),
# when the damping exceeds _DAMPING_MAX, or after _POLISH_MAX_ITER steps.
# A coarse simplex can stop partway along a flat curved valley, where the
# polish has needed up to about 140 damped steps to reach the floor,
# hence the budget.  The derivative pass scores _SCORE_BLOCK probes at a
# time, which keeps its temporaries below those of the simplices' first
# evaluation; the seed grid is scored _GRID_CHUNK seeds at a time against
# every round.
#
# Why these values, measured on the outage-desk configuration (K = 50,
# 0 dB, 16,000 rounds) against a search that ran every simplex to
# 1e-3 R and 2000 steps with no stall stop: without the basin check, a
# basin diameter of 3e-3 R left 2 rounds more than 1e-3 nats lower
# (0.06 and 0.52 nats), and even 1.25e-3 R left one.  In both the simplex
# had stopped by a saddle near the P0 floor or on a flat slope, which
# the check catches.  With the check, 3e-3, 5e-3 and 1e-2 R all left
# none; the looser two measured no faster, as more simplices fail the
# check and carry on, so 3e-3 R is kept.  Checking on every 8th step
# instead of every step also left none, with about a fifth of the check
# calls and 4% more simplex probes.  A 200-step cap lost a round by
# 0.03 nats.  A 5-step stall stop lost at most 3e-5 nats.

_P0_SPAN = 1e3
_N_GRID_RADIAL = 7
_N_GRID_ANGULAR = 7
_P0_SEED_FACTORS = np.array([0.1, 1.0, 10.0])
_N_STARTS = 4
_MAX_ITER = 300
_DIAMETER_TOL_FRAC = 3e-3
_HANDOVER_FRAC = 1e-2
_RESUME_DIAMETER_FRAC = 1e-3
_CHECK_EVERY = 8
_F_SPREAD_REL_TOL = 1e-6
_POLISH_MAX_ITER = 200
_STALL_STEPS = 10
_STALL_REL_GAIN = 1e-10
_DAMPING_INIT = 1e-6
_DAMPING_MAX = 1e6
_DECREMENT_REL_TOL = 1e-13
_SCORE_BLOCK = 1024
_GRID_CHUNK = 32
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class EstimateResult:
    """Outcome of one ML estimation: best theta found and diagnostics."""

    theta_hat: SourceParams
    log_likelihood: float
    converged: bool


def _nelder_mead_batch(f, x0s, R, in_basin):
    """Run independent Nelder-Mead searches in lockstep over (x, y, ln P0).

    ``f(points, ids)`` maps an (m, 3) block of probe points, with their
    owning simplex indices, to (m,) values; x0s is (S, 3).  Each simplex
    steps R/20, R/20 and 0.25 from its start, then follows the standard
    reflect/expand/contract/shrink rules on its own comparisons;
    batching only vectorizes the function evaluations across simplices.
    A simplex converges when its scaled diameter is below
    _DIAMETER_TOL_FRAC * R, its relative value spread below
    _F_SPREAD_REL_TOL, and ``in_basin(points, ids)`` flags its best
    vertex as inside a basin; the check runs every _CHECK_EVERY steps,
    and a simplex that meets the first two conditions in between keeps
    stepping until then.  An unflagged simplex carries on, on the path a
    search to that diameter alone would take, and converges at
    _RESUME_DIAMETER_FRAC * R without another check.  Converged
    simplices freeze and leave the batch; a simplex still moving after
    _MAX_ITER steps is returned as it stands, unconverged.

    Returns (best points (S, 3), best values (S,), converged flags (S,)).
    """
    x0s = np.asarray(x0s, dtype=float)
    S, n = x0s.shape
    steps = np.array([R / 20.0, R / 20.0, 0.25])
    scale = np.array([1.0, 1.0, R])
    diam_tol = np.full(S, _DIAMETER_TOL_FRAC * R)
    floor = _RESUME_DIAMETER_FRAC * R
    verts = np.repeat(x0s[:, None, :], n + 1, axis=1)
    for j in range(n):
        verts[:, j + 1, j] += steps[j]
    all_ids = np.arange(S)
    fv = f(verts.reshape(-1, n), np.repeat(all_ids, n + 1)).reshape(S, n + 1)
    converged = np.zeros(S, dtype=bool)
    active = np.ones(S, dtype=bool)
    for step in range(_MAX_ITER):
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
        done = (diam < diam_tol[idx]) & ((fw - fb) <= _F_SPREAD_REL_TOL * np.maximum(1.0, np.abs(fb)))
        check = np.flatnonzero(done & (diam_tol[idx] > floor))
        if check.size:
            if step % _CHECK_EVERY:
                out = check
            else:
                out = check[~in_basin(vb[check], idx[check])]
                diam_tol[idx[out]] = floor
            done[out] = diam[out] < floor
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


def _cholesky_solve3(A, b):
    """Solve A p = b for a stack of symmetric 3 x 3 matrices by Cholesky.

    Works element by element across the stack, so each system's
    arithmetic does not depend on the others.  Returns (p, pd) where pd
    flags the positive-definite systems; p is 0 elsewhere.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        l11 = np.sqrt(A[:, 0, 0])
        l21 = A[:, 1, 0] / l11
        l31 = A[:, 2, 0] / l11
        t22 = A[:, 1, 1] - l21 * l21
        l22 = np.sqrt(t22)
        l32 = (A[:, 2, 1] - l31 * l21) / l22
        t33 = A[:, 2, 2] - l31 * l31 - l32 * l32
        l33 = np.sqrt(t33)
        z1 = b[:, 0] / l11
        z2 = (b[:, 1] - l21 * z1) / l22
        z3 = (b[:, 2] - l31 * z1 - l32 * z2) / l33
        p3 = z3 / l33
        p2 = (z2 - l32 * p3) / l22
        p1 = (z1 - l21 * p2 - l31 * p3) / l11
    pd = (A[:, 0, 0] > 0) & (t22 > 0) & (t33 > 0)
    return np.where(pd[:, None], np.column_stack([p1, p2, p3]), 0.0), pd


def _newton_polish(score, x0s):
    """Refine independent starts in lockstep with damped Newton steps.

    ``score(points, ids)`` maps an (m, 3) block of points, with their
    owning start indices, to their values (m,), gradients (m, 3) and
    Hessians (m, 3, 3).  Each start solves (H + mu*D) p = -g, with D the
    largest |diag H| seen along its path (More's scaling), and moves to
    x + p only if that lowers its value.  The damping follows Nielsen's
    rule: an accepted step scales mu by max(1/3, 1 - (2 rho - 1)^3),
    where rho is the achieved over the predicted decrease, and a
    rejected step or an indefinite system multiplies it by a factor
    that doubles with each consecutive rejection.  A start stops when
    its damped Newton decrement g'(H + mu*D)^-1 g is negligible, when
    its last _STALL_STEPS accepted steps each gained a negligible amount,
    or when its damping saturates (see the search constants).  Every
    operation is per start, so a start's path does not depend on the
    others in the batch.

    Returns the refined points (S, 3).
    """
    x = np.array(x0s, dtype=float)
    S = x.shape[0]
    f, g, H = score(x, np.arange(S))
    scale = np.abs(np.diagonal(H, axis1=1, axis2=2)).copy()
    mu = np.full(S, _DAMPING_INIT)
    nu = np.full(S, 2.0)
    stalled = np.zeros(S, dtype=int)
    active = np.ones(S, dtype=bool)
    for _ in range(_POLISH_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        gi, Hi = g[idx], H[idx]
        damping = (mu[idx, None] * scale[idx])[:, :, None] * np.eye(3)
        step, pd = _cholesky_solve3(Hi + damping, -gi)
        decrement = -(gi * step).sum(axis=1)
        done = pd & (decrement <= _DECREMENT_REL_TOL * np.maximum(1.0, np.abs(f[idx])))
        trial = pd & ~done
        accepted = np.zeros(idx.size, dtype=bool)
        if trial.any():
            tidx, p = idx[trial], step[trial]
            ft, gt, Ht = score(x[tidx] + p, tidx)
            better = ft < f[tidx]
            accepted[trial] = better
            curvature = (p[:, :, None] * Hi[trial] * p[:, None, :]).sum(axis=(1, 2))
            predicted = -(gi[trial] * p).sum(axis=1) - 0.5 * curvature
            gain = (f[tidx] - ft)[better]
            rho = gain / predicted[better]
            a = tidx[better]
            tiny = gain <= _STALL_REL_GAIN * np.maximum(1.0, np.abs(f[a]))
            stalled[a] = np.where(tiny, stalled[a] + 1, 0)
            x[a] += p[better]
            f[a], g[a], H[a] = ft[better], gt[better], Ht[better]
            scale[a] = np.maximum(scale[a], np.abs(np.diagonal(H[a], axis1=1, axis2=2)))
            shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            mu[a] = np.maximum(mu[a] * shrink, _DAMPING_INIT)
            nu[a] = 2.0
        rejected = idx[~done & ~accepted]
        mu[rejected] *= nu[rejected]
        nu[rejected] *= 2.0
        active[idx[done | (stalled[idx] >= _STALL_STEPS)]] = False
        active[rejected[mu[rejected] > _DAMPING_MAX]] = False
    return x


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
        # log|f1 - f0| and its sign, for the slopes
        top = np.maximum(self.log_f0, self.log_f1)
        with np.errstate(divide="ignore"):
            self.log_df = top + np.log1p(-np.exp(np.minimum(self.log_f0, self.log_f1) - top))
        self.sign_df = np.sign(self.log_f1 - self.log_f0)
        # A weight or density that underflows is off by at most tiny, so
        # it moves a linear term by at most tiny * (2 + max density);
        # terms above this floor are therefore exact to rounding.
        fl = np.finfo(float)
        self.floor = fl.tiny / fl.eps * (2.0 + 1.0 / tau2)

    def _offsets(self, p0, x, y):
        """Probe-to-sensor offsets dx, dy, squared distances d2 and received
        amplitudes sqrt(P), each (m, K), at the probes (p0, x, y)."""
        dx = np.subtract.outer(x, self.xs)
        dy = np.subtract.outer(y, self.ys)
        d2 = dx * dx
        d2 += dy * dy
        # in place from here on: sqrt(p0 * (d0^2 / max(d2, d0^2))^(alpha/2))
        amp = np.maximum(d2, self.d0_sq)
        np.divide(self.d0_sq, amp, out=amp)
        if self.half_alpha != 1.0:
            amp **= self.half_alpha
        amp *= np.asarray(p0)[:, None]
        return dx, dy, d2, np.sqrt(amp, out=amp)

    def _log_terms(self, sqrt_p, rows=None, slopes=False):
        """Per-sensor log mixture densities T at the probe amplitudes sqrt_p.

        Probe i scores round rows[i], giving (m, K); with rows None every
        round scores every probe, giving (n_rounds, m, K).  With slopes,
        also returns dT/ds and d2T/ds2 in the weight argument s.
        """
        s = sqrt_p - self.beta
        s *= self.inv_sigma
        sel = (slice(None), None) if rows is None else rows
        pos = s > 0
        small = np.abs(s)
        np.negative(small, out=small)
        ndtr(small, out=small)
        big = 1.0 - small
        # the weights q0 of f0 and q1 of f1, then the products, in place
        q0 = np.where(pos, small, big)
        q1 = small
        np.copyto(q1, big, where=pos)
        if rows is None:
            terms = q0 * self.f0[sel]
            terms += q1 * self.f1[sel]
        else:
            terms = np.multiply(q0, self.f0[rows], out=q0)
            terms += np.multiply(q1, self.f1[rows], out=q1)
        low = terms < self.floor
        with np.errstate(divide="ignore"):
            np.log(terms, out=terms)
        if low.any():
            s_low = np.broadcast_to(s, terms.shape)[low]
            terms[low] = np.logaddexp(
                np.broadcast_to(self.log_f0[sel], terms.shape)[low] + log_ndtr(-s_low),
                np.broadcast_to(self.log_f1[sel], terms.shape)[low] + log_ndtr(s_low),
            )
        if not slopes:
            return terms
        # dT/ds = phi(s) (f1 - f0) / e^T, formed in logs so that it stays
        # finite where e^T is below the floor; d2T/ds2 follows from
        # phi' = -s phi.
        dT = self.sign_df[sel] * np.exp(-0.5 * s * s - _LOG_SQRT_2PI + self.log_df[sel] - terms)
        return terms, dT, -s * dT - dT * dT

    def loglik(self, rows: np.ndarray, p0: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-probe log-likelihood; probe i scores round rows[i]."""
        return self._log_terms(self._offsets(p0, x, y)[3], rows).sum(axis=1)

    def score(self, rows, p0, x, y):
        """Per-probe log-likelihood with its gradient (m, 3) and Hessian
        (m, 3, 3) in (x, y, ln P0); probe i scores round rows[i].

        The per-term slopes of ``_log_terms`` are chained through
        s = (sqrt(P) - beta)/sigma with sqrt(P) = sqrt(P0) (d0/d)^(alpha/2),
        whose location derivatives vanish inside the d0 clamp.  Probes
        are scored _SCORE_BLOCK at a time.
        """
        m = len(x)
        ll = np.empty(m)
        grad = np.empty((m, 3))
        hess = np.empty((m, 3, 3))
        c = self.half_alpha
        for lo in range(0, m, _SCORE_BLOCK):
            sl = slice(lo, min(lo + _SCORE_BLOCK, m))
            dx, dy, d2, sqrt_p = self._offsets(p0[sl], x[sl], y[sl])
            terms, dT, d2T = self._log_terms(sqrt_p, rows[sl], slopes=True)
            a = sqrt_p * self.inv_sigma
            d2c = np.maximum(d2, self.d0_sq)
            w = np.where(d2 > self.d0_sq, c * a / d2c, 0.0)
            w2 = (c + 2.0) * w / d2c
            sx, sy = -w * dx, -w * dy
            first = (sx, sy, 0.5 * a)
            second = (
                (w2 * dx * dx - w, w2 * dx * dy, 0.5 * sx),
                (None, w2 * dy * dy - w, 0.5 * sy),
                (None, None, 0.25 * a),
            )
            ll[sl] = terms.sum(axis=1)
            for i in range(3):
                grad[sl, i] = (dT * first[i]).sum(axis=1)
                for j in range(i, 3):
                    hij = (d2T * first[i] * first[j] + dT * second[i][j]).sum(axis=1)
                    hess[sl, i, j] = hess[sl, j, i] = hij
        return ll, grad, hess

    def grid_loglik(self, p0, x, y) -> np.ndarray:
        """(n_rounds, n_seeds) log-likelihoods for theta-only seed points."""
        out = np.empty((self.n_rounds, len(x)))
        for lo in range(0, len(x), _GRID_CHUNK):
            hi = min(lo + _GRID_CHUNK, len(x))
            sqrt_p = self._offsets(p0[lo:hi], x[lo:hi], y[lo:hi])[3]
            out[:, lo:hi] = self._log_terms(sqrt_p).sum(axis=2)
        return out


class _SearchObjective:
    """The ML search's penalized objective at points (x, y, ln P0).

    Negative log-likelihood of start sidx's round, rows[sidx], plus
    1e6 (r/R - 1)^2 outside the disk and 1e6 times the squared excess of
    ln P0 outside [ln_lo, ln_hi]; P0 itself is clipped 30 e-folds beyond
    that range.  Calling it gives values; ``score`` adds the exact
    gradient and Hessian.
    """

    def __init__(self, el: _EnsembleLikelihood, rows, R, ln_lo, ln_hi):
        self.el, self.rows, self.R = el, rows, R
        self.ln_lo, self.ln_hi = ln_lo, ln_hi

    def _p0(self, lnp0):
        return np.exp(np.minimum(np.maximum(lnp0, self.ln_lo - 30.0), self.ln_hi + 30.0))

    def _penalty(self, V, val):
        R, ln_lo, ln_hi = self.R, self.ln_lo, self.ln_hi
        x, y, lnp0 = V[:, 0], V[:, 1], V[:, 2]
        rad = np.hypot(x, y)
        over = rad > R
        if over.any():
            val = val + np.where(over, 1e6 * (rad / R - 1.0) ** 2, 0.0)
        for side, excess in ((lnp0 < ln_lo, ln_lo - lnp0), (lnp0 > ln_hi, lnp0 - ln_hi)):
            if side.any():
                val = val + np.where(side, 1e6 * excess**2, 0.0)
        return val, rad, over

    def __call__(self, V, sidx):
        ll = self.el.loglik(self.rows[sidx], self._p0(V[:, 2]), V[:, 0], V[:, 1])
        return self._penalty(V, -ll)[0]

    def score(self, V, sidx):
        """Values (m,), gradients (m, 3) and Hessians (m, 3, 3)."""
        x, y, lnp0 = V[:, 0], V[:, 1], V[:, 2]
        ll, grad, hess = self.el.score(self.rows[sidx], self._p0(lnp0), x, y)
        val, rad, over = self._penalty(V, -ll)
        grad, hess = -grad, -hess
        clipped = (lnp0 < self.ln_lo - 30.0) | (lnp0 > self.ln_hi + 30.0)
        grad[clipped, 2] = 0.0
        hess[clipped, 2, :] = hess[clipped, :, 2] = 0.0
        if over.any():
            # 1e6 (r/R - 1)^2: gradient k u, Hessian k/r (I - u u') + 2e6/R^2 u u'
            R, o = self.R, over
            u = np.column_stack([x[o], y[o]]) / rad[o, None]
            k = 2e6 * (rad[o] / R - 1.0) / R
            uu = u[:, :, None] * u[:, None, :]
            grad[o, :2] += k[:, None] * u
            hess[o, :2, :2] += (k / rad[o])[:, None, None] * (np.eye(2) - uu) + 2e6 / R**2 * uu
        for side, excess in (
            (lnp0 < self.ln_lo, lnp0 - self.ln_lo),
            (lnp0 > self.ln_hi, lnp0 - self.ln_hi),
        ):
            grad[side, 2] += 2e6 * excess[side]
            hess[side, 2, 2] += 2e6
        return val, grad, hess


def ml_estimate_batch(
    ts: np.ndarray,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    p0_nominal: float,
    rngs: Sequence[np.random.Generator],
) -> list:
    """ML source estimates for a block of rounds on one geometry.

    The location is searched on the geometry's disk (quadratic penalty
    outside) and P0 on a log scale within a factor 1e3 of p0_nominal.
    Scores the full seed grid for every round in one pass, then refines
    each round's best spatially distinct seeds, plus one random start
    from the round's own generator in ``rngs``, with the two-stage search
    (lockstep Nelder-Mead, then the Newton polish) across all rounds at
    once.  Per round, ties on log-likelihood break toward the
    lexicographically smallest (x, y), and the returned log-likelihood
    is never below the round's best grid seed.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    M = ts.shape[0]
    if len(rngs) != M:
        raise ValueError("need one random stream per round")
    el = _EnsembleLikelihood(ts, geom, cfg)
    R = geom.R
    ln_lo = np.log(p0_nominal / _P0_SPAN)
    ln_hi = np.log(p0_nominal * _P0_SPAN)

    gp, gx, gy = _polar_grid_seeds(R, p0_nominal)
    grid_ll = el.grid_loglik(gp, gx, gy)  # (M, n_seeds)
    seed_order = np.argsort(-grid_ll, axis=1, kind="stable")

    # Per round: high-scoring seeds kept at least one grid cell apart so
    # the local searches explore separate modes, then one random start.  The
    # 7 outer-ring seeds are about 0.81 R apart and a pick blocks only
    # points within R/7, so 3 picks leave a 4th distinct seed.
    min_sep_sq = (R / _N_GRID_RADIAL) ** 2
    n_starts = _N_STARTS + 1
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
        ang = rngs[m].uniform(0.0, 2.0 * np.pi)
        rad = R * np.sqrt(rngs[m].uniform())
        x0s[m * n_starts + _N_STARTS] = rad * np.cos(ang), rad * np.sin(ang), np.log(p0_nominal)

    objective = _SearchObjective(el, rows, R, ln_lo, ln_hi)
    scale = np.array([1.0, 1.0, R])

    def in_basin(V, sidx):
        # positive-definite Hessian and a Newton step within the handover radius
        _, g, H = objective.score(V, sidx)
        step, pd = _cholesky_solve3(H, -g)
        return pd & (np.max(np.abs(step) * scale, axis=1) <= _HANDOVER_FRAC * R)

    coarse, _, results_conv = _nelder_mead_batch(objective, x0s, R, in_basin)
    results_x = _newton_polish(objective.score, coarse)

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
            )
        )
    return out
