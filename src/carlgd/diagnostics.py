"""Hessian spectra, dissipativity classification, the spectral error proxy,
and solver-cost estimates.

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
from scipy.linalg import eigh_tridiagonal

from . import models
from .errors import EmptySupportError, InputError
from .util import rng_for


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


def histogram_l1(a, b, nbins=20, pad=1e-9):
    """l1 distance between two spectra binned on a common grid."""
    pa, _ = a.points_weights()
    pb, _ = b.points_weights()
    lo = min(pa.min(), pb.min()) - pad
    hi = max(pa.max(), pb.max()) + pad
    edges = np.linspace(lo, hi, nbins + 1)
    return float(np.abs(a.histogram(edges) - b.histogram(edges)).sum())


def _lanczos_probe(matvec, n, k, rng):
    """One stochastic Lanczos quadrature probe: Ritz values and weights."""
    v = rng.choice([-1.0, 1.0], size=n)
    v /= np.linalg.norm(v)
    V = [v]
    alphas, betas = [], []
    w = matvec(v)
    a = float(v @ w)
    w = w - a * v
    alphas.append(a)
    for _ in range(min(k, n) - 1):
        b = float(np.linalg.norm(w))
        if b < 1e-12:
            break
        v_next = w / b
        # full reorthogonalization; n is small enough here that it is cheap
        for u in V:
            v_next = v_next - (u @ v_next) * u
        nrm = np.linalg.norm(v_next)
        if nrm < 1e-12:
            break
        v_next /= nrm
        w = matvec(v_next)
        a = float(v_next @ w)
        w = w - a * v_next - b * V[-1]
        V.append(v_next)
        alphas.append(a)
        betas.append(b)
    theta, U = eigh_tridiagonal(np.array(alphas), np.array(betas))
    weights = U[0, :] ** 2
    return theta, weights


def spectrum(spec, params, data=None, method="direct", k=80, probes=16,
             seed=0, dense_limit=4096):
    """Hessian spectrum of a model at a point.

    'direct' does an exact symmetric eigendecomposition (n <= dense_limit);
    'lanczos' runs stochastic Lanczos quadrature using Hessian-vector
    products only. Masked parameters restrict the Hessian to the surviving
    coordinates.
    """
    pv = params if isinstance(params, models.ParamVector) \
        else models.ParamVector(np.asarray(params, float))
    idx = pv.free_indices()
    n = idx.size
    if method == "direct":
        H = models.hessian(spec, pv.values, data, dense_limit=dense_limit)
        H = H[np.ix_(idx, idx)]
        lam = np.linalg.eigvalsh(H)
        return Spectrum(n=n, method="direct", eigenvalues=lam)
    if method != "lanczos":
        raise InputError(f"unknown spectrum method {method!r}")
    if k < 1 or probes < 1:
        raise InputError(f"Lanczos needs k >= 1 and probes >= 1, got {k}, {probes}")

    full = np.zeros(spec.n)

    def matvec(v):
        full[idx] = v
        out = models.hvp(spec, pv.values, data, full)
        full[idx] = 0.0
        return out[idx]

    vals, weights = [], []
    for p in range(probes):
        rng = rng_for(seed, f"lanczos:{p}")
        th, w = _lanczos_probe(matvec, n, k, rng)
        vals.append(th)
        weights.append(w / probes)
    return Spectrum(n=n, method="lanczos",
                    ritz_values=np.concatenate(vals),
                    ritz_weights=np.concatenate(weights))


def error_proxy(spectrum_, eta, t_range, threshold=0.4, scale="eta"):
    """Spectral error proxy E(t) over the requested step range.

    a_i = -eta * lambda_i (scale='eta', the default) or -lambda_i
    (scale='raw'). Only modes with |a_i| >= threshold contribute; raises
    EmptySupportError when none do. E(0) = 1 exactly.
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
    E = np.array([(w * growth ** t).sum() / nc for t in t_range])
    return E


@dataclass
class DissipationReport:
    """Operational dissipativity classification of a step map.

    `fully` when every multiplier satisfies |mu| <= 1 - delta; `almost`
    when at most a fraction zeta violates it; `non` otherwise. These
    tolerance-based definitions are stand-ins for the formal ones, and the
    note says so.
    """

    multipliers: np.ndarray
    fraction_convergent: float
    fraction_offending: float
    classification: str
    eta: float
    delta: float
    zeta: float
    note: str = "operational definition: |mu| <= 1 - delta with tolerances (delta, zeta)"


def classify(spectrum_, eta, delta=1e-3, zeta=0.05):
    """Classify dissipativity from an exact-mode spectrum."""
    if not spectrum_.is_exact():
        raise InputError("classification needs an exact-mode spectrum")
    lam = np.asarray(spectrum_.eigenvalues, dtype=float)
    mu = 1.0 - eta * lam
    offending = np.abs(mu) > 1.0 - delta
    frac_off = float(np.mean(offending))
    if frac_off == 0.0:
        cls = "fully"
    elif frac_off <= zeta:
        cls = "almost"
    else:
        cls = "non"
    return DissipationReport(multipliers=mu,
                             fraction_convergent=1.0 - frac_off,
                             fraction_offending=frac_off,
                             classification=cls, eta=eta, delta=delta, zeta=zeta)


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


def trajectory_error(approx, exact, mode="l2", param_index=None,
                     relative=False):
    """Per-step error series between two trajectories of equal length.

    mode: 'l2', 'linf', or 'single_param' (needs param_index). `relative`
    divides by the corresponding magnitude of the exact trajectory.
    """
    approx = np.atleast_2d(np.asarray(approx, dtype=float))
    exact = np.atleast_2d(np.asarray(exact, dtype=float))
    if approx.shape != exact.shape:
        raise InputError(f"length mismatch: {approx.shape} vs {exact.shape}")
    diff = approx - exact
    if mode == "l2":
        err = np.linalg.norm(diff, axis=1)
        ref = np.linalg.norm(exact, axis=1)
    elif mode == "linf":
        err = np.max(np.abs(diff), axis=1)
        ref = np.max(np.abs(exact), axis=1)
    elif mode == "single_param":
        if param_index is None:
            raise InputError("single_param mode needs param_index")
        err = np.abs(diff[:, param_index])
        ref = np.abs(exact[:, param_index])
    else:
        raise InputError(f"unknown mode {mode!r}")
    if relative:
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(ref > 0, err / ref, np.inf)
    return err


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
