"""Hessian spectra, the spectral error proxy, solver-cost estimates and
trajectory-error series.

The step map of gradient descent has multipliers mu_i = 1 - eta * lambda_i
over the Hessian eigenvalues lambda_i. Writing a = -eta * lambda, the error
proxy tracks the spectrum-weighted growth

    E(t) = (1/N_c) * sum_{|a_i| >= threshold} |(1 + a_i)^t|,

normalized so E(0) = 1; small-magnitude eigenvalues are discarded because
they are abundant and leave the proxy stationary. With eta = 1 the a-values
reduce to the plain negated eigenvalues (`scale='raw'` keeps that variant).
"""

from dataclasses import dataclass

import numpy as np

from . import models, util
from .errors import EmptySupportError, InputError
from .util import block_items, count_text, norm2, rng_for


@dataclass
class Spectrum:
    """Eigenvalue multiset (exact mode) or weighted Ritz-value estimate
    (lanczos mode) of a Hessian."""

    n: int
    method: str  # 'direct' | 'lanczos'
    eigenvalues: np.ndarray = None
    ritz_values: np.ndarray = None
    ritz_weights: np.ndarray = None

    def is_exact(self):
        return self.eigenvalues is not None

    def points_weights(self):
        if self.is_exact():
            lam = np.asarray(self.eigenvalues, dtype=float)
            return lam, np.full(lam.size, 1.0 / lam.size)
        return np.asarray(self.ritz_values), np.asarray(self.ritz_weights)

    def histogram(self, edges):
        """Probability mass per bin on the given edges (sums to ~1)."""
        pts, w = self.points_weights()
        mass, _ = np.histogram(pts, bins=edges, weights=w)
        return mass

    def density(self, edges):
        mass = self.histogram(edges)
        widths = np.diff(edges)
        return mass / widths


def bin_edges(points, bins):
    """`bins` + 1 equal-width edges over the range of `points`, padded on
    each side by 1e-9, or by 4 * bins ulps of max|points| where 1e-9 would
    vanish next to it, so that every bin is at least 8 ulps wide."""
    pad = max(1e-9, 4 * bins * float(np.spacing(np.max(np.abs(points)))))
    return np.linspace(points.min() - pad, points.max() + pad, bins + 1)


def histogram_l1(a, b, nbins=20):
    """l1 distance between two spectra binned on a common grid."""
    pa, _ = a.points_weights()
    pb, _ = b.points_weights()
    edges = bin_edges(np.concatenate([pa, pb]), nbins)
    return float(np.abs(a.histogram(edges) - b.histogram(edges)).sum())


def _lanczos(spec, theta, data, idx, m, seed, probes):
    """Up to `m` Lanczos steps from the seeded Rademacher start of each of
    `probes` on the free coordinates `idx`, all in lockstep: one checked
    HVP call per step on the stack of the probes still running, and one
    product that reorthogonalises each new vector against its own basis.
    A probe stops where its beta, or its reorthogonalised norm, falls below
    1e-12. Returns each probe's tridiagonal matrix as (alpha, beta)."""
    n = idx.size
    v = np.array([rng_for(seed, f"lanczos:{p}").choice([-1.0, 1.0], size=n)
                  for p in probes]) / np.sqrt(n)
    V = np.zeros((len(probes), m, n))
    alpha, beta = np.zeros((len(probes), m)), np.zeros((len(probes), m))
    live = np.arange(len(probes))
    for j in range(m):
        if j:
            b = np.linalg.norm(W, axis=1)  # beta, before reorthogonalisation
            keep = b >= 1e-12
            live, b, v = live[keep], b[keep], W[keep] / b[keep, None]
            basis = V[live, :j]
            v -= np.einsum("pjn,pj->pn", basis, np.einsum("pjn,pn->pj", basis, v))
            nrm = np.linalg.norm(v, axis=1)
            keep = nrm >= 1e-12
            live, b, v = live[keep], b[keep], v[keep] / nrm[keep, None]
            if not live.size:
                break
            beta[live, j - 1] = b
        full = np.zeros((live.size, spec.n))
        full[:, idx] = v
        W = models.hvp(spec, theta, data, full)[:, idx]
        alpha[live, j] = np.einsum("pn,pn->p", v, W)
        W -= alpha[live, j, None] * v
        if j:
            W -= b[:, None] * V[live, j - 1]
        V[live, j] = v
    steps = 1 + np.count_nonzero(beta, axis=1)  # every recorded beta is > 0
    return [(a[:s], b[:s - 1]) for a, b, s in zip(alpha, beta, steps)]


def spectrum(spec, params, data=None, method="direct", k=80, probes=16, seed=0):
    """Hessian spectrum of a model at a point.

    'direct' does an exact symmetric eigendecomposition of
    `models.hessian` (n <= util.MAX_DENSE_ORDER); 'lanczos' runs
    stochastic Lanczos quadrature (SLQ: Ubaru, Chen & Saad, SIAM J. Matrix
    Anal. Appl. 2017) using Hessian-vector products only: each probe
    starts from its own seeded Rademacher vector, and the probes run in
    lockstep, in groups of MAX_STATES // (min(k, n) * n) probes, whose
    bases hold at most util.MAX_STATES floats (or one probe's basis).
    Masked parameters restrict the Hessian to the surviving coordinates.
    """
    pv = params if isinstance(params, models.ParamVector) \
        else models.ParamVector(np.asarray(params, float))
    idx = pv.free_indices()
    n = idx.size
    if method == "direct":
        H = models.hessian(spec, pv.values, data)
        H = H[np.ix_(idx, idx)]
        lam = np.linalg.eigvalsh(H)
        return Spectrum(n=n, method="direct", eigenvalues=lam)
    if method != "lanczos":
        raise InputError(f"unknown spectrum method {method!r}")
    if k < 1 or probes < 1 or n < 1:
        raise InputError(f"Lanczos needs k >= 1, probes >= 1 and a free "
                         f"parameter, got {count_text(k)}, "
                         f"{count_text(probes)} and {n}")
    from scipy.linalg import eigh_tridiagonal

    m = min(k, n)
    util.check_floats(probes * m, "{} Lanczos probes of {} steps", probes, m)
    group = max(1, util.MAX_STATES // (m * n))
    ritz = [eigh_tridiagonal(a, b) for first in range(0, probes, group)
            for a, b in _lanczos(spec, pv.values, data, idx, m, seed,
                                 range(probes)[first:first + group])]
    return Spectrum(n=n, method="lanczos",
                    ritz_values=np.concatenate([theta for theta, _ in ritz]),
                    ritz_weights=np.concatenate([U[0] ** 2 for _, U in ritz]) / probes)


def error_proxy(spectrum_, eta, t_range, threshold=0.4, scale="eta"):
    """Spectral error proxy E(t) over the requested step range.

    a_i = -eta * lambda_i (scale='eta', the default) or -lambda_i
    (scale='raw'). Only modes with |a_i| >= threshold contribute; raises
    EmptySupportError when none do. E(0) = 1 exactly. A mode that one step
    zeroes exactly (|1 + a_i| = 0) adds 0 at t > 0 and +inf at t < 0, with
    no warning. The t values run in blocks of at most util.BLOCK_VALUES
    powers (or one t), each row of powers summed as a one-t sum is.
    """
    if scale not in ("eta", "raw"):
        raise InputError(f"unknown scale {scale!r}")
    t_range = np.asarray(list(t_range))
    if t_range.size == 0:
        raise InputError("t_range must be nonempty")
    lam, w = spectrum_.points_weights()
    a = -eta * lam if scale == "eta" else -lam
    support = np.abs(a) >= threshold
    if not np.any(support):
        raise EmptySupportError(
            f"no eigenvalue with |a| >= {threshold}; proxy support is empty")
    a = a[support]
    w = w[support]
    nc = w.sum()
    growth = np.abs(1.0 + a)
    E = np.empty(t_range.size)
    step = block_items(a.size)
    # a power past the float range, or 0 to a negative power, is inf; a point
    # of zero weight adds 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for b in range(0, t_range.size, step):
            t = t_range[b:b + step]
            power = growth ** t[:, None]
            if t.dtype.kind in "iu":
                # numpy takes growth ** t for one integer t of 2 or -1 as a
                # square or a reciprocal, whose last bit a vectorised pow
                # over a block can miss
                power[t == 2] = np.square(growth)
                power[t == -1] = np.reciprocal(growth)
            E[b:b + step] = np.where(w > 0, w * power, 0.0).sum(axis=1) / nc
    return E


def cost_estimate(n, T, s, kappa, eps, regime):
    """Indicative quantum-solver query count: C * T^p * s * kappa *
    log2(n)^a / eps with C=1, a=3, and p = 1 (fully dissipative) or
    2 (almost dissipative). Constants are indicative only; the point is
    the exact T / T^2 scaling."""
    if regime not in ("fully", "almost"):
        raise InputError(f"unknown regime {regime!r}")
    if min(n, T, s, kappa, eps) <= 0:
        raise InputError("all cost inputs must be positive")
    p = 1 if regime == "fully" else 2
    return float(T) ** p * s * kappa * np.log2(n) ** 3 / eps


def trajectory_error(approx, exact, mode="l2", param_index=None):
    """Per-step error series between two trajectories of equal length; the
    'l2' and 'linf' series are trajectory.csv's err_l2 and err_linf.

    mode: 'l2' (`util.norm2` of each row, finite while representable),
    'linf', or 'single_param' (needs param_index).
    """
    approx = np.atleast_2d(np.asarray(approx, dtype=float))
    exact = np.atleast_2d(np.asarray(exact, dtype=float))
    if approx.shape != exact.shape:
        raise InputError(f"length mismatch: {approx.shape} vs {exact.shape}")
    sizes = {"l2": norm2,
             "linf": lambda rows: np.max(np.abs(rows), axis=1),
             "single_param": lambda rows: np.abs(rows[:, param_index])}
    if mode not in sizes:
        raise InputError(f"unknown mode {mode!r}")
    if mode == "single_param" and param_index is None:
        raise InputError("single_param mode needs param_index")
    return sizes[mode](approx - exact)


def loglog_slope(series, t=None):
    """Least-squares slope of log(err) vs log(t), skipping t=0 and zero or
    non-finite entries. Returns nan with fewer than two usable points."""
    series = np.asarray(series, dtype=float)
    if t is None:
        t = np.arange(series.size)
    t = np.asarray(t, dtype=float)
    good = (t > 0) & (series > 0) & np.isfinite(series)
    if good.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(t[good]), np.log(series[good]), 1)[0]
    return float(slope)
