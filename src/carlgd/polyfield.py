"""Polynomial representation of the gradient-descent update field.

The per-step update theta -> theta - eta * grad L(theta) is written, in
shifted coordinates delta = theta - theta_star, as a finite sum

    f(delta) = sum_k F_k @ delta^{(x) k},    k = 0..degree,

with the learning rate folded into every term: F_0 = -eta grad L(theta_star),
F_1 = -eta H(theta_star), F_2 = -(eta/2) grad^3 L, F_3 = -(eta/6) grad^4 L.
Terms are stored as dense n x n^k float arrays. grad^3 L and grad^4 L come
from exact polynomial stencils over Hessian columns: along any line the
Hessian is a polynomial of known degree, so a stencil has no step-size error
and its result does not depend on the step; every term is exact up to
rounding. The tensors are symmetric in all their indices (Griewank, Utke &
Walther, Math. Comp. 69, 2000, use the same symmetry), so each distinct
entry is evaluated on one stencil line, or copied from an evaluated entry
with the same indices, and written to every permutation of its input
slots; the terms are slot-symmetric by construction:

- the axis line e_l gives grad^3 L[:, j, l] (first derivative of H e_j)
  and grad^4 L[:, j, l, l] (second derivative). At degree 3 it evaluates
  every j, as grad^4 L needs, and keeps grad^3 L for j >= l. At degree 2
  it evaluates only the j >= l in l's half of the coordinates (the first
  ceil(n/2), or the rest). grad^3 L is symmetric in all three indices, and
  two of any three share a half, so a slot pair (j, l) across the halves
  copies an entry with the same three indices whose slot pair lies in one
  half;
- the pair line e_a + e_b, a < b, gives the all-distinct grad^4 L[:, j, a, b]
  for j < a, from the mixed second derivative of H e_j.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import models, util
from .errors import InputError
from .util import check_eta, count_text

_STENCIL_STEP = 0.5  # any step is exact; this one keeps rounding low
# The highest degree `from_model` extracts: its stencils stop at grad^4 L,
# which gives F_3.
MAX_DEGREE = 3


@dataclass
class PolyField:
    """Update field in shifted coordinates; immutable after construction:
    it holds its own copy of each term."""

    n: int
    theta_star: np.ndarray
    terms: list  # terms[k], k = 0..degree: float array (n, n**k); given dense or with toarray()

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float).ravel()
        if not self.terms:
            raise InputError("need at least the order-0 term")
        self.terms = [np.array(t.toarray() if hasattr(t, "toarray") else t, dtype=float)
                      for t in self.terms]
        for k, t in enumerate(self.terms):
            if t.shape != (self.n, self.n ** k):
                raise InputError(
                    f"term {k} has shape {t.shape}, expected {(self.n, self.n ** k)}"
                )

    def nnz(self):
        return int(sum(np.count_nonzero(t) for t in self.terms))


def _stencil_weights(m):
    """Central-difference weights (Fornberg 1988) on the nodes -m..m, exact
    for polynomials of degree <= 2m: f'(0) = sum_k w1[k-1] (f(k) - f(-k))
    and f''(0) = sum_k w2[k-1] (f(k) - f(0) + f(-k) - f(0)), k = 1..m."""
    f = math.factorial
    terms = [(k, (-1) ** (k + 1) * f(m) ** 2, f(m - k) * f(m + k))
             for k in range(1, m + 1)]
    return ([c / (k * d) for k, c, d in terms],
            [2 * c / (k * k * d) for k, c, d in terms])


def _derivative_tensors(spec, data, theta_star, idx, E, degree, H):
    """grad^3 L and grad^4 L on the free coordinates `idx`, whose unit
    vectors are the rows of `E`, each entry evaluated on one line or
    copied from one with the same indices, and written to all its slot
    permutations.

    H(theta_star + s u) is a polynomial in s of degree grad_degree() - 1
    <= 2m, so central stencils on -m..m are exact for any step. On the
    axis line e_l, the first derivative of H e_j gives grad^3 L[:, j, l]
    and its second derivative gives grad^4 L[:, j, l, l]. At degree 3 the
    line evaluates every j, for grad^4 L, and keeps grad^3 L for j >= l.
    At degree 2 it evaluates only the j >= l in l's half, A = [0, ceil(n/2))
    or B = [ceil(n/2), n): about n^2/4 + n/2 columns per stencil point in
    place of n(n+1)/2. A cross-half slot pair (j, l) then copies the entry
    of the same index triple whose slots share a half, T3[l, i, j] when i
    shares j's half and T3[j, i, l] otherwise, as four block copies.
    On the pair line e_a + e_b (a < b), the mixed term
    (D^2_{a+b} - D^2_a - D^2_b) / 2 of H e_j gives the all-distinct entry
    grad^4 L[:, j, a, b] (j < a). One hvp_batch call covers an axis line,
    or the pair lines that share a. Offsets +-k enter only through
    differences, so an entry of H that does not move along a line gives
    an exact zero.
    """
    n = idx.size
    h = _STENCIL_STEP
    m = max(1, spec.grad_degree() // 2)
    w1, w2 = _stencil_weights(m)
    offsets = h * np.arange(1, m + 1)
    offsets = np.concatenate([offsets, -offsets])

    # derivatives along a line from Hk[0..m-1] at +k h and Hk[m..2m-1] at -k h
    def first(Hk):
        out = np.zeros(Hk.shape[1:])
        for k in range(m):
            out += (w1[k] / h) * (Hk[k] - Hk[m + k])
        return out

    def second(Hk, H0):
        out = np.zeros(Hk.shape[1:])
        for k in range(m):
            out += (w2[k] / (h * h)) * ((Hk[k] - H0) + (Hk[m + k] - H0))
        return out

    half = (n + 1) // 2
    T3 = np.empty((n, n, n))
    T4 = None
    if degree >= 3:
        T4 = np.empty((n, n, n, n))
        D2 = np.empty((n, n, n))  # D2[l, j, i] = grad^4 L[i, j, l, l]
    for l in range(n):
        j0, j1 = (0, n) if degree >= 3 else (l, half if l < half else n)
        points = theta_star + offsets[:, None] * E[l]
        Hk = models.hvp_batch(spec, points, data, E[j0:j1])[:, :, idx]
        T3[:, l:j1, l] = T3[:, l, l:j1] = first(Hk[:, l - j0:]).T
        if degree >= 3:
            D2[l] = second(Hk, H)
            T4[:, :, l, l] = T4[:, l, :, l] = T4[:, l, l, :] = D2[l].T
    if degree < 3:
        # T3[i, j, l] = T3[l, i, j] where i shares j's half, else T3[j, i, l]
        A, B = slice(0, half), slice(half, n)
        T3[A, A, B] = T3[B, A, A].transpose(1, 2, 0)
        T3[A, B, A] = T3[B, A, A].transpose(1, 0, 2)
        T3[B, B, A] = T3[A, B, B].transpose(1, 2, 0)
        T3[B, A, B] = T3[A, B, B].transpose(1, 0, 2)
    for a in range(1, n if degree >= 3 else 0):
        b = np.arange(a + 1, n)
        points = theta_star + (offsets[:, None, None] * (E[a] + E[b])).reshape(-1, spec.n)
        Hk = models.hvp_batch(spec, points, data, E[:a])[:, :, idx]
        Dab = second(Hk.reshape(2 * m, b.size, a, n), H[:a])
        mixed = (0.5 * (Dab - D2[a, :a] - D2[b, :a])).transpose(2, 0, 1)  # [i, b, j]
        for p in itertools.permutations((np.arange(a), a, b[:, None])):
            T4[(slice(None),) + p] = mixed
    return T3, T4


def from_model(spec, data, theta_star, degree, eta, mask=None):
    """Extract the update field of a model around theta_star.

    The terms are the Taylor terms of order 0..`degree`. With a mask, the
    field lives on the reduced coordinate space of unmasked entries
    (masked coordinates pinned at zero). Only the free Hessian columns are
    evaluated, and grad^3 L / grad^4 L come from an exact stencil over
    them, with no step-size error. The dense
    derivative tensors, up to n^(degree + 1) floats over the n free
    coordinates, are held to util.MAX_STATES before any is evaluated.
    """
    if degree not in range(1, MAX_DEGREE + 1):
        raise InputError(f"degree must be 1, 2 or 3, got {count_text(degree)}")
    check_eta(eta)
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    if theta_star.size != spec.n:
        raise InputError(f"anchor length {theta_star.size} != model n={spec.n}")
    idx = np.arange(spec.n) if mask is None \
        else np.flatnonzero(np.asarray(mask, dtype=bool))
    n = idx.size
    util.check_floats(n ** (degree + 1), "the derivatives of {} coordinates "
                      "up to order {}", n, degree + 1)

    g = models.grad(spec, theta_star, data)[idx]
    E = np.zeros((n, spec.n))  # row i is the unit vector of coordinate idx[i]
    E[np.arange(n), idx] = 1.0
    H = models.hvp_batch(spec, theta_star, data, E)[0][:, idx]  # H[j, i] = H_ij
    terms = [(-eta * g).reshape(n, 1), -eta * H.T]
    if degree >= 2:
        T3, T4 = _derivative_tensors(spec, data, theta_star, idx, E, degree, H)
        terms.append((-0.5 * eta) * T3.reshape(n, n * n))
    if degree >= 3:
        terms.append((-eta / 6.0) * T4.reshape(n, n ** 3))
    return PolyField(n=n, theta_star=theta_star[idx], terms=terms)
