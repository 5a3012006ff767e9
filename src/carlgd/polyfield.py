"""Polynomial representation of the gradient-descent update field.

The per-step update theta -> theta - eta * grad L(theta) is written, in
shifted coordinates delta = theta - theta_star, as a finite sum

    f(delta) = sum_k F_k @ delta^{(x) k},    k = 0..degree,

with the learning rate folded into every term: F_0 = -eta grad L(theta_star),
F_1 = -eta H(theta_star), F_2 = -(eta/2) grad^3 L, F_3 = -(eta/6) grad^4 L.
Terms are stored as sparse n x n^k maps, symmetrized over their Kronecker
input slots. grad^3 L and grad^4 L come from exact polynomial stencils
over Hessian columns, so every term is exact up to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import models
from .errors import DegreeMismatchError, InputError

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


def max_row_col_nnz(mat):
    m = mat.tocsr()
    rows = np.diff(m.indptr).max() if m.shape[0] else 0
    cols = np.diff(m.tocsc().indptr).max() if m.shape[1] else 0
    return int(max(rows, cols))


@dataclass
class PolyField:
    """Update field in shifted coordinates; immutable after construction."""

    n: int
    degree: int
    eta: float
    theta_star: np.ndarray
    terms: list  # terms[k]: csr matrix of shape (n, n**k)
    exact: bool = True  # False when the model's gradient degree exceeds `degree`

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float).ravel()
        if len(self.terms) != self.degree + 1:
            raise InputError("need one term per order 0..degree")
        fixed = []
        for k, t in enumerate(self.terms):
            t = sp.csr_matrix(t)
            if t.shape != (self.n, self.n ** k):
                raise InputError(
                    f"term {k} has shape {t.shape}, expected {(self.n, self.n ** k)}"
                )
            t.sum_duplicates()
            t.eliminate_zeros()
            fixed.append(t)
        self.terms = fixed

    def f0(self):
        return np.asarray(self.terms[0].todense()).ravel()

    def eval(self, theta):
        """Field value at an absolute point theta."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n:
            raise InputError(f"point length {theta.size}, field dimension {self.n}")
        return self.eval_delta(theta - self.theta_star)

    def eval_delta(self, delta):
        delta = np.asarray(delta, dtype=float).ravel()
        out = np.zeros(self.n)
        v = np.ones(1)
        for k, term in enumerate(self.terms):
            if k > 0:
                v = np.kron(v, delta)
            out += term @ v
        return out

    def sparsity(self):
        """Max stored-nonzero count over any row or column of any term."""
        return max(max_row_col_nnz(t) for t in self.terms)

    def nnz(self):
        return int(sum(t.nnz for t in self.terms))

    def save_coo(self, path):
        """Write a text coordinate list: `k i j_1 .. j_k value` per line."""
        with open(path, "w") as f:
            f.write(f"# polyfield n={self.n} degree={self.degree} "
                    f"eta={self.eta!r} exact={int(self.exact)}\n")
            f.write("# theta_star "
                    + " ".join(repr(float(v)) for v in self.theta_star) + "\n")
            for k, term in enumerate(self.terms):
                coo = term.tocoo()
                for r, c, val in zip(coo.row, coo.col, coo.data):
                    multi = []
                    cc = int(c)
                    for _ in range(k):
                        multi.append(cc % self.n)
                        cc //= self.n
                    multi.reverse()
                    idx = " ".join(str(m) for m in multi)
                    f.write(f"{k} {r}{' ' + idx if idx else ''} "
                            f"{float(val)!r}\n")

    @classmethod
    def load_coo(cls, path):
        n = degree = None
        eta = 1.0
        exact = True
        theta_star = None
        entries = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line[1:].split()
                    if parts and parts[0] == "polyfield":
                        kv = dict(p.split("=") for p in parts[1:])
                        n, degree = int(kv["n"]), int(kv["degree"])
                        eta = float(kv["eta"])
                        exact = bool(int(kv["exact"]))
                    elif parts and parts[0] == "theta_star":
                        theta_star = np.array([float(v) for v in parts[1:]])
                    continue
                parts = line.split()
                k = int(parts[0])
                r = int(parts[1])
                multi = [int(m) for m in parts[2:2 + k]]
                val = float(parts[2 + k])
                col = 0
                for m in multi:
                    col = col * n + m
                entries.append((k, r, col, val))
        if n is None or theta_star is None:
            raise InputError("missing polyfield header")
        terms = []
        for k in range(degree + 1):
            rows = [(r, c, v) for (kk, r, c, v) in entries if kk == k]
            if rows:
                r, c, v = zip(*rows)
            else:
                r, c, v = [], [], []
            terms.append(sp.csr_matrix((v, (r, c)), shape=(n, n ** k)))
        return cls(n=n, degree=degree, eta=eta, theta_star=theta_star,
                   terms=terms, exact=exact)


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


def from_model(spec, data, theta_star, degree, eta, mode="exact", mask=None):
    """Extract the update field of a model around theta_star.

    mode='exact' requires the model's gradient to be polynomial of degree
    <= `degree`; mode='taylor' accepts any model and flags the result as
    truncated when it is. mode='auto' picks exact when possible. With a
    mask, the field lives on the reduced coordinate space of unmasked
    entries (masked coordinates pinned at zero). Only the free Hessian
    columns are evaluated, and grad^3 L / grad^4 L come from an exact
    stencil over them, with no step-size error.
    """
    if degree not in (1, 2, 3):
        raise InputError(f"degree must be 1, 2 or 3, got {degree}")
    if eta <= 0:
        raise InputError("eta must be positive")
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    if theta_star.size != spec.n:
        raise InputError(f"anchor length {theta_star.size} != model n={spec.n}")
    gd = spec.grad_degree()
    if mode == "auto":
        mode = "exact" if gd <= degree else "taylor"
    if mode not in ("exact", "taylor"):
        raise InputError(f"unknown extraction mode {mode!r}")
    if mode == "exact" and gd > degree:
        raise DegreeMismatchError(
            f"model gradient has degree {gd} > requested degree {degree}; "
            "request taylor mode explicitly"
        )
    idx = np.arange(spec.n) if mask is None \
        else np.flatnonzero(np.asarray(mask, dtype=bool))
    n = idx.size

    g = models.grad(spec, theta_star, data)[idx]
    E = np.eye(spec.n)[idx]
    H = models.hvp_batch(spec, theta_star, data, E)[0][:, idx]  # H[j, i] = H_ij
    terms = [sp.csr_matrix((-eta * g).reshape(n, 1)), sp.csr_matrix(-eta * H.T)]
    if degree >= 2:
        T3, T4 = _derivative_tensors(spec, data, theta_star, idx, degree, H)
        F2 = symmetrize_slots((-0.5 * eta) * T3.reshape(n, n * n), 2, n)
        terms.append(sp.csr_matrix(F2))
    if degree >= 3:
        F3 = symmetrize_slots((-eta / 6.0) * T4.reshape(n, n ** 3), 3, n)
        terms.append(sp.csr_matrix(F3))
    return PolyField(n=n, degree=degree, eta=eta, theta_star=theta_star[idx],
                     terms=terms, exact=(gd <= degree))


@dataclass
class SparsifyResult:
    field: PolyField
    s: int  # max row/column nonzero count after thresholding
    dropped_mass: float  # l1 mass of dropped entries / total l1 mass


def sparsify(field, threshold):
    """Drop entries with |value| < threshold from every term."""
    if threshold < 0:
        raise InputError("threshold must be >= 0")
    total = kept = 0.0
    new_terms = []
    for term in field.terms:
        t = term.copy().tocsr()
        total += np.abs(t.data).sum()
        t.data[np.abs(t.data) < threshold] = 0.0
        t.eliminate_zeros()
        kept += np.abs(t.data).sum()
        new_terms.append(t)
    new_field = PolyField(n=field.n, degree=field.degree, eta=field.eta,
                          theta_star=field.theta_star.copy(), terms=new_terms,
                          exact=field.exact)
    dropped = 0.0 if total == 0 else (total - kept) / total
    return SparsifyResult(field=new_field, s=new_field.sparsity(), dropped_mass=dropped)
