"""Polynomial representation of the gradient-descent update field.

The per-step update theta -> theta - eta * grad L(theta) is written, in
shifted coordinates delta = theta - theta_star, as a finite sum

    f(delta) = sum_k F_k @ delta^{(x) k},    k = 0..degree,

with the learning rate folded into every term: F_0 = -eta grad L(theta_star),
F_1 = -eta H(theta_star), F_2 = -(eta/2) grad^3 L, F_3 = -(eta/6) grad^4 L.
Terms are stored as sparse n x n^k maps (`carleman.CSR`), symmetrized over
their Kronecker input slots. grad^3 L and grad^4 L come from exact
polynomial stencils over Hessian columns, so every term is exact up to
rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .carleman import CSR
from .errors import InputError

_STENCIL_STEP = 0.5  # any step is exact; this one keeps rounding low


def symmetrize_slots(mat, k, n):
    """Average an n x n^k map over permutations of its k input slots."""
    if k < 2:
        return np.asarray(mat, dtype=float)
    import itertools

    T = np.asarray(mat, dtype=float).reshape((n,) + (n,) * k)
    acc = np.zeros_like(T)
    perms = list(itertools.permutations(range(1, k + 1)))
    for p in perms:
        acc += T.transpose((0,) + p)
    return (acc / len(perms)).reshape(n, n ** k)


@dataclass
class PolyField:
    """Update field in shifted coordinates; immutable after construction."""

    n: int
    degree: int
    eta: float
    theta_star: np.ndarray
    terms: list  # terms[k]: CSR of shape (n, n**k); given dense or with toarray()
    exact: bool = True  # False when the model's gradient degree exceeds `degree`

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float).ravel()
        if len(self.terms) != self.degree + 1:
            raise InputError("need one term per order 0..degree")
        fixed = []
        for k, t in enumerate(self.terms):
            t = np.asarray(t.toarray() if hasattr(t, "toarray") else t, dtype=float)
            if t.shape != (self.n, self.n ** k):
                raise InputError(
                    f"term {k} has shape {t.shape}, expected {(self.n, self.n ** k)}"
                )
            fixed.append(CSR.from_dense(t))
        self.terms = fixed

    def nnz(self):
        return int(sum(t.nnz for t in self.terms))


def _stencil_weights(m):
    """Central-difference weights (Fornberg 1988) on the nodes -m..m, exact
    for polynomials of degree <= 2m: f'(0) = sum_k w1[k-1] (f(k) - f(-k))
    and f''(0) = sum_k w2[k-1] (f(k) - f(0) + f(-k) - f(0)), k = 1..m."""
    f = math.factorial
    terms = [(k, (-1) ** (k + 1) * f(m) ** 2, f(m - k) * f(m + k))
             for k in range(1, m + 1)]
    return ([c / (k * d) for k, c, d in terms],
            [2 * c / (k * k * d) for k, c, d in terms])


def _derivative_tensors(spec, data, theta_star, idx, degree, H):
    """grad^3 L and grad^4 L on the free coordinates `idx`.

    H(theta_star + s u) is a polynomial in s of degree grad_degree() - 1
    <= 2m, so central stencils on -m..m are exact for any step: the first
    derivative along e_j gives grad^3 L[:, :, j], second derivatives along
    e_a, e_b and e_a + e_b give grad^4 L[:, :, a, b]. Offsets +-k are
    batched per k and enter only through differences, so an entry of H
    that does not move along a line gives an exact zero.
    """
    n = idx.size
    h = _STENCIL_STEP
    m = max(1, spec.grad_degree() // 2)
    w1, w2 = _stencil_weights(m)
    E = np.eye(spec.n)[idx]
    lines = E
    if degree >= 3:
        a, b = np.triu_indices(n, 1)
        lines = np.concatenate([E, E[a] + E[b]])
    L = lines.shape[0]
    d1 = np.zeros((n, n, n))
    d2 = np.zeros((L, n, n))
    for k in range(1, m + 1):
        points = theta_star + (k * h) * np.concatenate([lines, -lines])
        Hk = models.hvp_batch(spec, points, data, E)[:, :, idx]
        Hp, Hm = Hk[:L], Hk[L:]  # Hp[l, j, i] = H(theta_star + k h line_l)[i, j]
        d1 += (w1[k - 1] / h) * (Hp[:n] - Hm[:n])
        if degree >= 3:
            d2 += (w2[k - 1] / (h * h)) * ((Hp - H) + (Hm - H))
    T3 = d1.transpose(2, 1, 0)
    if degree < 3:
        return T3, None
    T4 = np.empty((n, n, n, n))
    T4[:, :, np.arange(n), np.arange(n)] = d2[:n].transpose(2, 1, 0)
    mixed = 0.5 * (d2[n:] - d2[a] - d2[b]).transpose(2, 1, 0)
    T4[:, :, a, b] = mixed
    T4[:, :, b, a] = mixed
    return T3, T4


def from_model(spec, data, theta_star, degree, eta, mask=None):
    """Extract the update field of a model around theta_star.

    The terms are the Taylor terms of order 0..`degree`. When the model's
    gradient is a polynomial of degree <= `degree` they are the whole
    field (`exact` is True); otherwise the field is truncated and `exact`
    is False. With a mask, the field lives on the reduced coordinate
    space of unmasked entries (masked coordinates pinned at zero). Only
    the free Hessian columns are evaluated, and grad^3 L / grad^4 L come
    from an exact stencil over them, with no step-size error.
    """
    if degree not in (1, 2, 3):
        raise InputError(f"degree must be 1, 2 or 3, got {degree}")
    if eta <= 0:
        raise InputError("eta must be positive")
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    if theta_star.size != spec.n:
        raise InputError(f"anchor length {theta_star.size} != model n={spec.n}")
    idx = np.arange(spec.n) if mask is None \
        else np.flatnonzero(np.asarray(mask, dtype=bool))
    n = idx.size

    g = models.grad(spec, theta_star, data)[idx]
    E = np.eye(spec.n)[idx]
    H = models.hvp_batch(spec, theta_star, data, E)[0][:, idx]  # H[j, i] = H_ij
    terms = [(-eta * g).reshape(n, 1), -eta * H.T]
    if degree >= 2:
        T3, T4 = _derivative_tensors(spec, data, theta_star, idx, degree, H)
        terms.append(symmetrize_slots((-0.5 * eta) * T3.reshape(n, n * n), 2, n))
    if degree >= 3:
        terms.append(symmetrize_slots((-eta / 6.0) * T4.reshape(n, n ** 3), 3, n))
    return PolyField(n=n, degree=degree, eta=eta, theta_star=theta_star[idx],
                     terms=terms, exact=spec.grad_degree() <= degree)
