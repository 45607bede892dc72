"""Energy likelihood at the fusion center and the ML source estimator.

Given the bit sent by sensor i, its received energy is exponential with
mean ``eb*u + tau2``, so marginally each energy follows a two-component
exponential mixture whose weights are the bit probabilities.  The joint
likelihood over sensors factorizes, and the source parameters
(P0, xT, yT) are recovered by maximizing the log-likelihood with a
multi-start search (Sheng & Hu, IEEE TSP 2005).  One pass scores a fixed
seed set, a 7 x 7 polar grid and a square lattice inside the disk, each
crossed with P0 factors, against every round of a batch; the normal CDF
runs once per seed and sensor, not once per round.  Each round then runs
a lockstep Levenberg-Marquardt-damped Newton iteration on the exact
gradient and Hessian (More, "The Levenberg-Marquardt algorithm:
implementation and theory", 1978) from its best spatially distinct
seeds and the centroid of the sensors whose energy favours bit 1
(Bulusu, Heidemann & Estrin, IEEE Pers. Commun. 2000).  The polish is
the only local stage.  P0 stays within a factor 1e3 of nominal.  No
start is random, so a round's estimate depends only on its energies
(given the geometry, the sensor model and the nominal P0) and can be
replayed from them alone.

A round's estimate is ``converged`` when the polish of the start that
gave it met its decrement or stall test; a start that ran out of steps
or whose damping saturated, and the raw best seed, are not.

One kernel, ``_EnsembleLikelihood._log_terms``, evaluates every
per-sensor term T.  It works in the linear domain, ``log(q0*f0 + q1*f1)``
with one ``ndtr`` and one ``log`` per term, and recomputes the rare
terms near or below the float underflow threshold in the log domain
(``log_ndtr`` weights combined with ``logaddexp``).  On request it also
returns dT/ds and d2T/ds2 in the weight argument s, from which
``_EnsembleLikelihood.score`` chains the search's derivatives.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtr

from .geometry import NetworkGeometry
from .signal_model import SensorEnsembleConfig


# --- ML estimation ----------------------------------------------------------
#
# Fixed search settings (see the module docstring).  The seeds are the
# polar grid crossed with _P0_SEED_FACTORS and a square lattice of
# spacing _LATTICE_FRAC * R crossed with _LATTICE_P0_FACTORS, 832 in all;
# grid_loglik scores them _GRID_CHUNK at a time against blocks of rounds.  A
# round polishes its _N_STARTS best seeds at least _MIN_SEP_FRAC * R
# apart and the centroid start at the best of _N_CENTROID_P0 log-spaced
# P0 values across the range.  The polish starts with damping
# _DAMPING_INIT, never lets it fall below that, and scales it by the
# largest |diag H| seen, floored at 1/R^2 in x and y and 1 in ln P0:
# where the location is flat (|H_xx| about 1e-12 with P0 near its floor)
# the damping could otherwise not shorten the location step, and
# saturated before P0 moved.  A start stops when its damped Newton
# decrement is below _DECREMENT_REL_TOL * max(1, |f|), after
# _STALL_STEPS consecutive accepted steps that each gained at most
# _STALL_REL_GAIN * max(1, |f|), when the damping exceeds _DAMPING_MAX,
# or after _POLISH_MAX_ITER steps.  Candidates within rel _TIE_REL_TOL of
# a round's best log-likelihood tie, so that the answer on a flat
# likelihood does not turn on the last bits of the energies.
#
# Every (probes x sensors) intermediate of the kernel lives in work arrays
# of _ELEMENT_BUDGET elements (256 KiB each), allocated once per batch:
# the polish's probes, the centroid scan, the rescoring and the seed
# pass's blocks of rounds are all cut to that size.  Fresh temporaries of
# 0.4-2 MB per block sat above glibc's mmap threshold or were trimmed off
# the heap top, so every block faulted in new zeroed pages: about 240k
# minor faults and 0.45 s of system time per outage-desk command.
# Blocks of 8k elements cost more in per-call overhead than they saved;
# 64k did no better than 32k.
#
# Why these values, measured on outage-desk rounds (K = 50, 0 dB,
# ensembles 502000-503000, 3,200 rounds) as rounds more than 1e-3 nats
# above / below a Nelder-Mead reference search: the chosen set gave
# 596 / 60 at 99.6 score probes per round, 14.2 per start.  A random
# start at nominal P0 in place of the sixth lattice start gave 585 / 66
# at 110.5 probes per round, taking 27.1 probes against 16.2.  Beside
# such a random start: lattice spacing 0.1 R gave 574 / 95 from 1,692
# seeds, twice the seed pass; 0.2 R gave 576 / 75 from 512.  4 lattice
# starts gave 571 / 101, and 6 gave 597 / 53.  Without the centroid
# start (4 lattice starts) 561 / 127 against 571 / 101, and the two-ring
# test instance lands in 0 of 40 runs against 40 of 40.  P0 factors
# 0.2-5 gave 585 / 44 but lost round 1 of ensemble 508000, geometry 7,
# whose maximum sits at 1.5% of nominal P0.  Stricter stops (decrement
# 1e-13, 10 stall steps of 1e-10, 200 steps) cost 24.5 probes per start
# and gained 12 rounds by more than 1e-3 nats on creeping walks; a
# 200-step cap changed no round against 100, and 60 lost one by 0.13
# nats.  Without the floor on the scaling, 9 of 22,400 starts ended by
# saturation, against 1 with it.

_P0_SPAN = 1e3
_N_GRID_RADIAL = 7
_N_GRID_ANGULAR = 7
_P0_SEED_FACTORS = np.array([0.1, 1.0, 10.0])
_LATTICE_FRAC = 0.15
_LATTICE_P0_FACTORS = np.array([0.1, 0.3, 1.0, 3.0, 10.0])
_N_STARTS = 6
_MIN_SEP_FRAC = 0.15
_N_CENTROID_P0 = 25
_POLISH_MAX_ITER = 100
_STALL_STEPS = 3
_STALL_REL_GAIN = 1e-8
_DAMPING_INIT = 1e-6
_DAMPING_MAX = 1e6
_DECREMENT_REL_TOL = 1e-10
_TIE_REL_TOL = 1e-12
_ELEMENT_BUDGET = 32_768
_GRID_CHUNK = 8
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


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


def _newton_polish(score, x0s, floor):
    """Refine independent starts in lockstep with damped Newton steps.

    ``score(points, ids)`` maps an (m, 3) block of points, with their
    owning start indices, to their values (m,), gradients (m, 3) and
    Hessians (m, 3, 3).  Each start solves (H + mu*D) p = -g, with D the
    largest |diag H| seen along its path (More's scaling), but at least
    ``floor`` (3,), and moves to x + p only if that lowers its value.
    The damping follows Nielsen's rule: an accepted step scales mu by
    max(1/3, 1 - (2 rho - 1)^3), where rho is the achieved over the
    predicted decrease, and a rejected step or an indefinite system
    multiplies it by a factor that doubles with each consecutive
    rejection.  A start converges when its damped Newton decrement
    g'(H + mu*D)^-1 g is negligible or its last _STALL_STEPS accepted
    steps each gained a negligible amount; it gives up when its damping
    saturates or its step budget runs out (see the search constants).
    Every operation is per start, so a start's path does not depend on
    the others in the batch.

    Returns the refined points (S, 3), their values (S,) and the
    converged flags (S,).
    """
    x = np.array(x0s, dtype=float)
    S = x.shape[0]
    f, g, H = score(x, np.arange(S))
    scale = np.maximum(np.abs(np.diagonal(H, axis1=1, axis2=2)), floor)
    mu = np.full(S, _DAMPING_INIT)
    nu = np.full(S, 2.0)
    stalled = np.zeros(S, dtype=int)
    active = np.ones(S, dtype=bool)
    converged = np.zeros(S, dtype=bool)
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
        stop = idx[done | (stalled[idx] >= _STALL_STEPS)]
        converged[stop], active[stop] = True, False
        active[rejected[mu[rejected] > _DAMPING_MAX]] = False
    return x, f, converged


def _seed_points(R: float, p0_nominal: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed points (P0, x, y): the polar grid crossed with _P0_SEED_FACTORS,
    then the square lattice inside the disk crossed with _LATTICE_P0_FACTORS."""
    radii = (np.arange(_N_GRID_RADIAL) + 0.5) / _N_GRID_RADIAL * R
    angles = 2.0 * np.pi * np.arange(_N_GRID_ANGULAR) / _N_GRID_ANGULAR
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    n = int(1.0 / _LATTICE_FRAC)
    ticks = np.arange(-n, n + 1) * (_LATTICE_FRAC * R)
    lx, ly = np.meshgrid(ticks, ticks, indexing="ij")
    inside = lx * lx + ly * ly <= R * R
    parts = [
        ((rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel(), _P0_SEED_FACTORS),
        (lx[inside], ly[inside], _LATTICE_P0_FACTORS),
    ]
    gx = np.concatenate([np.repeat(px, f.size) for px, _, f in parts])
    gy = np.concatenate([np.repeat(py, f.size) for _, py, f in parts])
    gp = np.concatenate([np.tile(p0_nominal * f, px.size) for px, _, f in parts])
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
    log-domain form to rounding.  A term is at least half the smaller of
    its densities, so a batch whose densities all exceed four floors
    skips that check.

    The kernel writes every (probes x sensors) intermediate into nine
    work arrays of _ELEMENT_BUDGET elements made once per batch (see the
    search constants), and scores probes in blocks that fit them.  The
    arrays that ``_offsets``, ``_weights`` and ``_log_terms`` return are
    views of them, valid until the next call.
    """

    def __init__(self, ts: np.ndarray, geom: NetworkGeometry, cfg: SensorEnsembleConfig):
        ts = np.atleast_2d(np.asarray(ts, dtype=float))
        if ts.shape[1] != geom.K:
            raise ValueError(f"energy block has shape {ts.shape}, expected (*, {geom.K})")
        if np.any(ts < 0):
            raise ValueError("energies must be nonnegative")
        eb, tau2 = cfg.eb, cfg.tau2
        self.n_rounds, self.K = ts.shape
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
        # log|f1 - f0| and its sign, for the slopes.  Below -20 dB
        # (100 eb < tau2, crlb's switch) log_f1 - log_f0 cancels, so it is
        # formed from eb/tau2 directly there, as d = log(f1/f0); above,
        # the plain forms are kept, bit for bit.
        with np.errstate(divide="ignore"):
            if 100.0 * eb < tau2:
                d = ts * eb / (tau2 * (eb + tau2)) - np.log1p(eb / tau2)
                self.log_df = self.log_f0 + np.log(np.abs(np.expm1(d)))
            else:
                top = np.maximum(self.log_f0, self.log_f1)
                d = self.log_f1 - self.log_f0
                self.log_df = top + np.log1p(-np.exp(np.minimum(self.log_f0, self.log_f1) - top))
        self.sign_df = np.sign(d)
        # A weight or density that underflows is off by at most tiny, so
        # it moves a linear term by at most tiny * (2 + max density);
        # terms above this floor are therefore exact to rounding.
        fl = np.finfo(float)
        self.floor = fl.tiny / fl.eps * (2.0 + 1.0 / tau2)
        low_density = min(np.min(self.f0, initial=np.inf), np.min(self.f1, initial=np.inf))
        self.check_floor = not low_density > 4.0 * self.floor
        self.probe_block = max(1, _ELEMENT_BUDGET // self.K)
        size = max(_ELEMENT_BUDGET, _GRID_CHUNK * self.K)
        self._work = np.empty((9, size))
        self._mask = np.empty(size, dtype=bool)

    def _views(self, shape, first, count):
        """Work arrays first .. first+count-1 viewed as C-contiguous shape."""
        n = math.prod(shape)
        return [w[:n].reshape(shape) for w in self._work[first : first + count]]

    def _probe_blocks(self, m):
        """Slices of at most probe_block probes that cover m probes."""
        for lo in range(0, m, self.probe_block):
            yield slice(lo, min(lo + self.probe_block, m))

    def _offsets(self, p0, x, y):
        """Probe-to-sensor offsets dx, dy, squared distances d2 and received
        amplitudes sqrt(P), each (m, K), at the probes (p0, x, y); work
        arrays 0-3."""
        dx, dy, d2, amp = self._views((len(x), self.K), 0, 4)
        np.subtract.outer(x, self.xs, out=dx)
        np.subtract.outer(y, self.ys, out=dy)
        np.multiply(dx, dx, out=d2)
        d2 += np.multiply(dy, dy, out=amp)
        # in place from here on: sqrt(p0 * (d0^2 / max(d2, d0^2))^(alpha/2))
        np.maximum(d2, self.d0_sq, out=amp)
        np.divide(self.d0_sq, amp, out=amp)
        if self.half_alpha != 1.0:
            amp **= self.half_alpha
        amp *= np.asarray(p0)[:, None]
        return dx, dy, d2, np.sqrt(amp, out=amp)

    def _weights(self, sqrt_p):
        """The weight argument s = (sqrt(P) - beta)/sigma and the mixture
        weights q0 of f0 and q1 of f1, each shaped like sqrt_p; work
        arrays 4-6."""
        s, q0, q1 = self._views(sqrt_p.shape, 4, 3)
        np.subtract(sqrt_p, self.beta, out=s)
        s *= self.inv_sigma
        pos = self._mask[: s.size].reshape(s.shape)
        np.greater(s, 0, out=pos)
        # the smaller weight ndtr(-|s|) into q1, its complement into q0,
        # then swapped where s > 0
        np.abs(s, out=q1)
        np.negative(q1, out=q1)
        ndtr(q1, out=q1)
        np.subtract(1.0, q1, out=q0)
        np.copyto(q0, q1, where=pos)
        np.subtract(1.0, q1, out=q1, where=pos)
        return s, q0, q1

    def _log_terms(self, weights, rows, slopes=False):
        """Per-sensor log mixture densities T from the ``_weights`` of m probes.

        With rows an index array, probe i scores round rows[i], giving
        (m, K); with rows a slice of rounds, every round in it scores every
        probe, giving (rounds, m, K).  With slopes (index rows only), also
        returns dT/ds and d2T/ds2 in the weight argument s.  T is work
        array 7 and the slopes are 5 and 6, over the weights.
        """
        s, q0, q1 = weights
        if isinstance(rows, slice):
            sel = (rows, None)
            shape = (len(range(*rows.indices(self.n_rounds))),) + s.shape
            terms, tmp = self._views(shape, 7, 2)
            np.multiply(q0, self.f0[sel], out=terms)
            terms += np.multiply(q1, self.f1[sel], out=tmp)
        else:
            # take's mode "clip" writes straight into out ("raise" buffers
            # a copy); rows are always in range
            sel = rows
            terms, tmp = self._views(s.shape, 7, 2)
            np.multiply(q0, self.f0.take(rows, axis=0, out=tmp, mode="clip"), out=terms)
            terms += np.multiply(q1, self.f1.take(rows, axis=0, out=tmp, mode="clip"), out=tmp)
        if self.check_floor:
            low = np.less(terms, self.floor, out=self._mask[: terms.size].reshape(terms.shape))
        with np.errstate(divide="ignore"):
            np.log(terms, out=terms)
        if self.check_floor and low.any():
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
        dT, d2T = q0, q1
        np.multiply(-0.5, s, out=dT)
        dT *= s
        dT -= _LOG_SQRT_2PI
        dT += self.log_df.take(rows, axis=0, out=tmp, mode="clip")
        dT -= terms
        np.exp(dT, out=dT)
        dT *= self.sign_df.take(rows, axis=0, out=tmp, mode="clip")
        np.negative(s, out=d2T)
        d2T *= dT
        d2T -= np.multiply(dT, dT, out=tmp)
        return terms, dT, d2T

    def loglik(self, rows: np.ndarray, p0: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-probe log-likelihood; probe i scores round rows[i]."""
        out = np.empty(len(x))
        for sl in self._probe_blocks(len(x)):
            sqrt_p = self._offsets(p0[sl], x[sl], y[sl])[3]
            out[sl] = self._log_terms(self._weights(sqrt_p), rows[sl]).sum(axis=1)
        return out

    def score(self, rows, p0, x, y):
        """Per-probe log-likelihood with its gradient (m, 3) and Hessian
        (m, 3, 3) in (x, y, ln P0); probe i scores round rows[i].

        The per-term slopes of ``_log_terms`` are chained through
        s = (sqrt(P) - beta)/sigma with sqrt(P) = sqrt(P0) (d0/d)^(alpha/2),
        whose location derivatives vanish inside the d0 clamp.  With
        a = sqrt(P)/sigma and w = (alpha/2) a / d^2, the slopes of s are
        -w dx, -w dy and a/2, and its curvatures w2 dx dx - w, w2 dx dy,
        w2 dy dy - w, -w dx/2, -w dy/2 and a/4, where w2 = (alpha/2 + 2)
        w / d^2; the sums below group the products by those factors.
        Each block's products reuse the work arrays as they fall free.
        """
        m = len(x)
        ll = np.empty(m)
        grad = np.empty((m, 3))
        hess = np.empty((m, 3, 3))
        c = self.half_alpha
        for sl in self._probe_blocks(m):
            dx, dy, d2, a = self._offsets(p0[sl], x[sl], y[sl])
            terms, dT, d2T = self._log_terms(self._weights(a), rows[sl], slopes=True)
            (prod,) = self._views(dx.shape, 4, 1)
            w, v = self._views(dx.shape, 7, 2)
            ll[sl] = terms.sum(axis=1)
            a *= self.inv_sigma
            grad[sl, 2] = 0.5 * np.multiply(dT, a, out=prod).sum(axis=1)
            clamped = np.greater(d2, self.d0_sq, out=self._mask[: d2.size].reshape(d2.shape))
            np.logical_not(clamped, out=clamped)
            d2c = np.maximum(d2, self.d0_sq, out=d2)
            np.multiply(c, a, out=w)
            w /= d2c
            np.copyto(w, 0.0, where=clamped)
            np.multiply(c + 2.0, w, out=v)
            v /= d2c
            v *= dT
            u = np.multiply(d2T, w, out=d2)  # location curvature terms
            u *= w
            u += v
            t = np.multiply(d2T, a, out=v)
            t += dT
            hess[sl, 2, 2] = 0.25 * np.multiply(t, a, out=prod).sum(axis=1)
            q = t
            q *= w  # location-P0 curvature terms
            hess[sl, 0, 2] = hess[sl, 2, 0] = -0.5 * np.multiply(q, dx, out=prod).sum(axis=1)
            hess[sl, 1, 2] = hess[sl, 2, 1] = -0.5 * np.multiply(q, dy, out=prod).sum(axis=1)
            e = np.multiply(dT, w, out=v)  # location slope terms
            e_sum = e.sum(axis=1)
            grad[sl, 0] = -np.multiply(e, dx, out=prod).sum(axis=1)
            grad[sl, 1] = -np.multiply(e, dy, out=prod).sum(axis=1)
            ux = np.multiply(u, dx, out=v)
            hess[sl, 0, 0] = np.multiply(ux, dx, out=prod).sum(axis=1) - e_sum
            hess[sl, 0, 1] = hess[sl, 1, 0] = np.multiply(ux, dy, out=prod).sum(axis=1)
            uy = np.multiply(u, dy, out=v)
            hess[sl, 1, 1] = np.multiply(uy, dy, out=prod).sum(axis=1) - e_sum
        return ll, grad, hess

    def grid_loglik(self, p0, x, y) -> np.ndarray:
        """(n_rounds, n_seeds) log-likelihoods for theta-only seed points.

        Each chunk of _GRID_CHUNK seeds computes its weights once and
        scores them against blocks of rounds that fill the work arrays.
        """
        out = np.empty((self.n_rounds, len(x)))
        for lo in range(0, len(x), _GRID_CHUNK):
            hi = min(lo + _GRID_CHUNK, len(x))
            weights = self._weights(self._offsets(p0[lo:hi], x[lo:hi], y[lo:hi])[3])
            step = max(1, _ELEMENT_BUDGET // weights[0].size)
            for r in range(0, self.n_rounds, step):
                rounds = slice(r, min(r + step, self.n_rounds))
                out[rounds, lo:hi] = self._log_terms(weights, rounds).sum(axis=2)
        return out


class _SearchObjective:
    """The ML search's penalized objective at points (x, y, ln P0).

    Negative log-likelihood of start sidx's round, rows[sidx], plus
    1e6 (r/R - 1)^2 outside the disk and 1e6 times the squared excess of
    ln P0 outside [ln_lo, ln_hi]; P0 itself is clipped 30 e-folds beyond
    that range.  ``score`` gives its values with their exact gradients
    and Hessians.
    """

    def __init__(self, el: _EnsembleLikelihood, rows, R, ln_lo, ln_hi):
        self.el, self.rows, self.R = el, rows, R
        self.ln_lo, self.ln_hi = ln_lo, ln_hi

    def _p0(self, lnp0):
        return np.exp(np.minimum(np.maximum(lnp0, self.ln_lo - 30.0), self.ln_hi + 30.0))

    def score(self, V, sidx):
        """Values (m,), gradients (m, 3) and Hessians (m, 3, 3)."""
        x, y, lnp0 = V[:, 0], V[:, 1], V[:, 2]
        ll, grad, hess = self.el.score(self.rows[sidx], self._p0(lnp0), x, y)
        val, grad, hess = -ll, -grad, -hess
        clipped = (lnp0 < self.ln_lo - 30.0) | (lnp0 > self.ln_hi + 30.0)
        grad[clipped, 2] = 0.0
        hess[clipped, 2, :] = hess[clipped, :, 2] = 0.0
        rad = np.hypot(x, y)
        o = rad > self.R
        if o.any():
            # 1e6 (r/R - 1)^2: gradient k u, Hessian k/r (I - u u') + 2e6/R^2 u u'
            R = self.R
            u = np.column_stack([x[o], y[o]]) / rad[o, None]
            k = 2e6 * (rad[o] / R - 1.0) / R
            uu = u[:, :, None] * u[:, None, :]
            val[o] += 1e6 * (rad[o] / R - 1.0) ** 2
            grad[o, :2] += k[:, None] * u
            hess[o, :2, :2] += (k / rad[o])[:, None, None] * (np.eye(2) - uu) + 2e6 / R**2 * uu
        for side, excess in (
            (lnp0 < self.ln_lo, lnp0 - self.ln_lo),
            (lnp0 > self.ln_hi, lnp0 - self.ln_hi),
        ):
            val[side] += 1e6 * excess[side] ** 2
            grad[side, 2] += 2e6 * excess[side]
            hess[side, 2, 2] += 2e6
        return val, grad, hess


def ml_estimate_batch(
    ts: np.ndarray,
    geom: NetworkGeometry,
    cfg: SensorEnsembleConfig,
    p0_nominal: float,
) -> np.recarray:
    """ML source estimates for a block of rounds on one geometry.

    Returns one record per round, in round order, with the columns of
    estimates.csv: x_hat, y_hat, p0_hat, log_likelihood and converged.

    The location is searched on the geometry's disk (quadratic penalty
    outside) and P0 on a log scale within a factor 1e3 of p0_nominal.
    Scores the whole seed set for every round in one pass, then polishes
    each round's best spatially distinct seeds and its centroid start,
    across all rounds at once; no start depends on the other rounds of
    the batch, so each estimate is a function of its round's energies
    alone.  Per round, candidates within rel _TIE_REL_TOL of the best
    log-likelihood tie and the lexicographically smallest (x, y) among
    them wins, so the returned log-likelihood is never below the round's
    best seed by more than that.
    """
    ts = np.atleast_2d(np.asarray(ts, dtype=float))
    M = ts.shape[0]
    el = _EnsembleLikelihood(ts, geom, cfg)
    R = geom.R
    ln_lo = np.log(p0_nominal / _P0_SPAN)
    ln_hi = np.log(p0_nominal * _P0_SPAN)

    gp, gx, gy = _seed_points(R, p0_nominal)
    seed_ll = el.grid_loglik(gp, gx, gy)  # (M, n_seeds)

    # Starts per round: the best seeds at least _MIN_SEP_FRAC * R apart,
    # so that they explore separate modes, and the centroid of the
    # sensors whose energy favours bit 1, at the best of _N_CENTROID_P0
    # values of ln P0 across the range.
    open_ll = seed_ll.copy()
    picks = np.empty((M, _N_STARTS), dtype=int)
    for k in range(_N_STARTS):
        pick = picks[:, k] = np.argmax(open_ll, axis=1)
        near = (gx - gx[pick, None]) ** 2 + (gy - gy[pick, None]) ** 2 < (_MIN_SEP_FRAC * R) ** 2
        open_ll[near] = -np.inf
    n_starts = _N_STARTS + 1
    x0s = np.empty((M, n_starts, 3))
    x0s[:, :_N_STARTS] = np.stack([gx[picks], gy[picks], np.log(gp[picks])], axis=-1)
    ones = el.sign_df > 0
    n_ones = np.maximum(ones.sum(axis=1), 1)
    cx, cy = (ones * el.xs).sum(axis=1) / n_ones, (ones * el.ys).sum(axis=1) / n_ones
    ln_p0s = np.linspace(ln_lo, ln_hi, _N_CENTROID_P0)
    scan = el.loglik(
        np.repeat(np.arange(M), ln_p0s.size),
        np.tile(np.exp(ln_p0s), M),
        np.repeat(cx, ln_p0s.size),
        np.repeat(cy, ln_p0s.size),
    ).reshape(M, ln_p0s.size)
    x0s[:, -1] = np.column_stack([cx, cy, ln_p0s[np.argmax(scan, axis=1)]])

    rows = np.repeat(np.arange(M), n_starts)
    objective = _SearchObjective(el, rows, R, ln_lo, ln_hi)
    polished, values, converged = _newton_polish(
        objective.score, x0s.reshape(-1, 3), np.array([1.0 / R**2, 1.0 / R**2, 1.0])
    )

    # Candidates: every polished start, projected into the search domain
    # and rescored on the raw likelihood there, plus the best seed, which
    # guarantees the seed-dominance contract.  A start that ended inside
    # the domain carries no penalty, so its final value is minus its raw
    # log-likelihood bit for bit and needs no rescoring.
    x, y = polished[:, 0].copy(), polished[:, 1].copy()
    rad = np.hypot(x, y)
    over = rad > R
    x[over] *= R / rad[over]
    y[over] *= R / rad[over]
    ln_p0 = polished[:, 2]
    p0 = np.exp(np.clip(ln_p0, ln_lo, ln_hi))
    start_ll = -values
    outside = over | (ln_p0 < ln_lo) | (ln_p0 > ln_hi)
    start_ll[outside] = el.loglik(rows[outside], p0[outside], x[outside], y[outside])
    best = picks[:, 0]

    def per_round(starts, seed):
        return np.column_stack([starts.reshape(M, n_starts), seed])

    cand_ll = per_round(start_ll, seed_ll[np.arange(M), best])
    cand_x, cand_y = per_round(x, gx[best]), per_round(y, gy[best])
    cand_p0 = per_round(p0, gp[best])
    cand_conv = per_round(converged, np.zeros(M, dtype=bool))
    top = cand_ll.max(axis=1, keepdims=True)
    tied = cand_ll >= top - _TIE_REL_TOL * np.abs(top)
    tied &= cand_x == np.where(tied, cand_x, np.inf).min(axis=1, keepdims=True)
    win = np.arange(M), np.argmin(np.where(tied, cand_y, np.inf), axis=1)
    columns = cand_x[win], cand_y[win], cand_p0[win], cand_ll[win], cand_conv[win]
    return np.rec.fromarrays(columns, names="x_hat,y_hat,p0_hat,log_likelihood,converged")
