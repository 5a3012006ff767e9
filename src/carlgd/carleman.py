"""Truncated Carleman embedding and the time-stepped global linear system.

A polynomial field on R^n is lifted to a linear operator on the stacked
Kronecker powers y_j ~ delta^{(x) j}, j <= N. Blocks follow the product
rule: the block mapping order j = i+k-1 into order i is

    A[i][j] = sum_{p=1..i}  I^{(x)(p-1)} (x) F_k (x) I^{(x)(i-p)} .

`embed` writes every block's entries from the triplets of F_k by index
arithmetic into one canonical CSR matrix, adding the p-terms in order. No
block is stored on its own: slice `CarlemanMatrix.matrix` at `offsets`.

An order-0 block (a single stationary coordinate held at 1) carries the
affine drift F_0; it is included only when the field actually has drift,
so drift-free systems contribute no artificial marginal mode.

One training step is forward Euler, S = I + A. T steps assemble into the
block-bidiagonal system L z = b with I on the diagonal, -S on the
subdiagonal and b = (y(0), 0, ..., 0); forward substitution on L is
exactly the iteration y <- S y.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, svdvals

from .errors import (CapacityError, ConvergenceError, DegenerateStateError,
                     InputError, SingularSystemError)
from .util import kron_power, norm2


def _kron_sum_entries(Fk, i, row0, col0, width):
    """Row-major nonzeros (row, col, value) of sum_{p=1..i} I_{n^(p-1)} (x) F_k
    (x) I_{n^(i-p)} at (row0, col0) of a `width`-column matrix, p-terms added in order."""
    n, m = Fk.shape  # m = n^k
    base = row0 * width + col0
    entry = np.repeat(np.arange(n, dtype=np.int64) * width, np.diff(Fk.indptr)) + Fk.indices
    key = np.empty((i, n ** (i - 1) * Fk.nnz), dtype=np.int64)  # row * width + col
    val = np.empty(key.shape)
    for p in range(1, i + 1):  # term p, laid out over (alpha, F entry, beta)
        # F_k[r, c] goes to row (alpha*n + r)*b + beta, column (alpha*m + c)*b + beta
        a, b = n ** (p - 1), n ** (i - p)
        term = key[p - 1].reshape(a, Fk.nnz, b)
        np.add(np.arange(a, dtype=np.int64)[:, None, None] * ((n * width + m) * b) + base,
               entry[:, None] * b, out=term)
        term += np.arange(b, dtype=np.int64) * (width + 1)
        val[p - 1].reshape(term.shape)[...] = Fk.data[:, None]
    order = np.argsort(key.ravel(), kind="stable")  # shared keys stay in p order
    key, val = key.ravel()[order], val.ravel()[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    total, dup = val[first], np.flatnonzero(~first)
    # add.at runs in array order, so each sum is (t_1 + t_2) + t_3 + ...
    np.add.at(total, np.searchsorted(np.flatnonzero(first), dup) - 1, val[dup])
    keep = total != 0
    return np.divmod(key[first][keep], width) + (total[keep],)


@dataclass
class CarlemanMatrix:
    """Assembled truncated embedding of a PolyField."""

    n: int
    order: int
    include_constant: bool
    block_orders: list  # orders of the stored blocks, e.g. [0, 1, 2]
    offsets: np.ndarray  # start offset of each block within the state vector
    D: int
    matrix: sp.csr_matrix
    field: object = field(repr=False)

    def order_one_slice(self):
        pos = self.block_orders.index(1)
        return slice(int(self.offsets[pos]), int(self.offsets[pos]) + self.n)

    def initial_state(self, theta0):
        """Upload state for a start point theta0 in the field's coordinates."""
        theta0 = np.asarray(theta0, dtype=float).ravel()
        if theta0.size != self.n:
            raise InputError(f"theta0 length {theta0.size} != dimension {self.n}")
        delta = theta0 - self.field.theta_star
        parts = [kron_power(delta, j) for j in self.block_orders]
        return np.concatenate(parts)

    def step_operator(self):
        """S = I + A in canonical CSR, built once per matrix and shared by
        every global system made from it."""
        return self._step

    @cached_property
    def _step(self):
        S = (sp.identity(self.D, format="csr") + self.matrix).tocsr()
        S.sum_duplicates()
        S.eliminate_zeros()
        return S


# Budget on the embedding dimension D, shared by `embed` and the capacity
# check that runs before a field is extracted.
MAX_DIM = 2_000_000


def check_capacity(n, order, include_constant, max_dim):
    """Dimensions of the blocks kept in an order-`order` embedding of an
    n-dimensional field; raises CapacityError when their total D exceeds
    `max_dim`. Needs no field, so callers can check before extracting one."""
    if order < 1:
        raise InputError("truncation order must be >= 1")
    block_orders = ([0] if include_constant else []) + list(range(1, order + 1))
    dims = [n ** j for j in block_orders]
    D = int(sum(dims))
    if D > max_dim:
        raise CapacityError(
            f"embedding needs dimension D={D}, over the budget {max_dim}",
            required=D, budget=max_dim,
        )
    return block_orders, dims


def embed(field_, order, max_dim=MAX_DIM, include_constant=None):
    """Build the truncated Carleman matrix of a PolyField.

    A is one canonical CSR matrix, with each block's p-terms summed in order.
    Each block's entries are checked to lie inside the block as they are
    written (InputError otherwise), so A never needs a structure scan.
    `include_constant` defaults to auto: the order-0 block is kept exactly
    when the field has a nonzero constant term. Raises CapacityError when
    the total dimension would exceed `max_dim`.
    """
    n, d = field_.n, field_.degree
    if include_constant is None:
        include_constant = field_.terms[0].nnz > 0
    block_orders, dims = check_capacity(n, order, include_constant, max_dim)
    D = int(sum(dims))
    offsets = np.concatenate([[0], np.cumsum(dims)[:-1]]).astype(np.int64)
    start = dict(zip(block_orders, offsets))
    blocks = []
    for i in range(1, order + 1):
        for k in range(d + 1):
            j = i + k - 1
            if j not in start:  # target order truncated away
                continue
            rows, cols, vals = _kron_sum_entries(field_.terms[k], i, start[i], start[j], D)
            if rows.size and not (start[i] <= rows.min() and rows.max() < start[i] + n ** i
                                  and start[j] <= cols.min() and cols.max() < start[j] + n ** j):
                raise InputError(f"block-structure check failed: an entry of block ({i},{j}) "
                                 "lies outside it")
            blocks.append((rows, cols, vals))
    if blocks:
        rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
        del blocks  # free the per-block triplets before the CSR conversion
        A = sp.coo_matrix((vals, (rows, cols)), shape=(D, D)).tocsr()
    else:  # a degree-0 field without the constant block
        A = sp.csr_matrix((D, D))
    return CarlemanMatrix(n=n, order=order, include_constant=include_constant,
                          block_orders=block_orders, offsets=offsets, D=D,
                          matrix=A, field=field_)


# kappa multiplies by a dense copy of S while that copy takes at most this
# many bytes (512 KiB, so D <= 256). Most of a sparse product on a small S
# is scipy's per-call dispatch: at D = 111, S @ z takes 9.0 us sparse and
# 4.6 us dense. On pruned Iris systems at T = 20, a whole kappa is faster
# dense at D = 273 (59 against 65 ms) and slower at D = 343 (84 against
# 59 ms); at D = 1 111 one dense S @ z takes 260 us against 37.5 us.
_DENSE_BYTES = 1 << 19


@dataclass
class GlobalSystem:
    """All T Euler steps stacked into one block-bidiagonal linear system.

    `S` is the canonical CSR step operator, which `solve` iterates. The
    substitutions and the gram of `condition_number` multiply by S and S^T
    as C-contiguous dense arrays instead while D * D * 8 bytes is at most
    `_DENSE_BYTES` (512 KiB, so D <= 256), and as CSR above that. L itself
    is assembled only by `matrix()`, for the dense-SVD kappa.
    """

    T: int
    D: int
    S: sp.csr_matrix
    y0: np.ndarray

    @cached_property
    def _products(self):
        """(S, S^T) for kappa's products: dense when small, else CSR."""
        if self.D * self.D * 8 <= _DENSE_BYTES:
            S = self.S.toarray()
            return S, np.ascontiguousarray(S.T)
        return self.S, self.S.T.tocsr()

    def matrix(self):
        shift = sp.csr_matrix(
            (np.ones(self.T), (np.arange(1, self.T + 1), np.arange(self.T))),
            shape=(self.T + 1, self.T + 1),
        )
        L = (sp.identity((self.T + 1) * self.D, format="csr")
             - sp.kron(shift, self.S, format="csr")).tocsr()
        L.sum_duplicates()
        L.eliminate_zeros()
        return L

    def solve_lower(self, w):
        """Forward substitution L z = w for an arbitrary right-hand side."""
        S = self._products[0]
        W = w.reshape(self.T + 1, self.D)
        Z = np.empty_like(W)
        Z[0] = W[0]
        for t in range(1, self.T + 1):
            Z[t] = W[t] + S @ Z[t - 1]
        return Z.reshape(-1)

    def solve_lower_t(self, w):
        """Back substitution L^T u = w."""
        St = self._products[1]
        W = w.reshape(self.T + 1, self.D)
        U = np.empty_like(W)
        U[self.T] = W[self.T]
        for t in range(self.T - 1, -1, -1):
            U[t] = W[t] + St @ U[t + 1]
        return U.reshape(-1)


def build_global(M, y0, T):
    """Assemble the T-step system for a CarlemanMatrix and upload state."""
    if T < 0:
        raise InputError("step count must be >= 0")
    y0 = np.asarray(y0, dtype=float).ravel()
    if y0.size != M.D:
        raise InputError(f"state length {y0.size} != system dimension {M.D}")
    return GlobalSystem(T=T, D=M.D, S=M.step_operator(), y0=y0.copy())


def solve(G):
    """Solve L z = b by forward substitution on the CSR S; returns the
    trajectory (T+1, D) with y_t = S^t y(0), cut before the first step
    with a non-finite entry. Fewer than T+1 rows therefore mean the lifted
    run left the floating-point range at step `len(Y)`."""
    Y = np.empty((G.T + 1, G.D))
    Y[0] = G.y0
    y = G.y0
    for t in range(1, G.T + 1):
        y = G.S @ y
        if not np.all(np.isfinite(y)):
            return Y[:t]
        Y[t] = y
    return Y


@dataclass
class ReadoutResult:
    params: np.ndarray
    l2_error: float
    linf_error: float
    shots: int


def readout(y, theta_star, shots, seed=None, has_constant=True):
    """Sampled (tomographic) readout of parameters from a solution state.

    Draws `shots` samples from the normalized amplitude distribution of
    the full state, estimates order-1 magnitudes from counts, takes signs
    from the exact state, and reports the l2/linf estimation error against
    the exact readout theta_star + order-1 block.
    """
    y = np.asarray(y, dtype=float).ravel()
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    n = theta_star.size
    off = 1 if has_constant else 0
    if y.size < off + n:
        raise InputError("state too short for the requested readout")
    block = y[off:off + n]
    if shots <= 0:
        raise InputError("shots must be a positive integer")
    if not np.all(np.isfinite(y)):
        raise DegenerateStateError("cannot sample from a non-finite state")
    scale = np.max(np.abs(y))
    if scale == 0:
        raise DegenerateStateError("cannot sample from a zero-norm state")
    z = y / scale  # entries in [-1, 1], so the squares cannot overflow
    with np.errstate(over="ignore"):
        nrm = scale * np.linalg.norm(z)
    if not np.isfinite(nrm):
        raise DegenerateStateError("cannot sample: the state norm overflows")
    p = z ** 2
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    amp = nrm * np.sqrt(counts[off:off + n] / shots)
    est_block = np.sign(block) * amp
    err = est_block - block
    return ReadoutResult(params=theta_star + est_block,
                         l2_error=math.hypot(*err),  # scaled: no overflow
                         linf_error=float(np.max(np.abs(err))) if n else 0.0,
                         shots=shots)


# Lanczos steps between convergence tests. A test costs about one gram
# apply, and the recurrence runs up to this many steps past convergence.
_CHECK_EVERY = 8


def _lanczos_top(apply, dim, seed, tol, max_iter):
    """Largest eigenvalue of a symmetric positive semidefinite operator.

    A plain three-term Lanczos recurrence from the start vector drawn with
    `default_rng(seed)`, with no reorthogonalisation and no restart: the
    extreme Ritz value still converges in floating point (Paige 1980).
    With theta the top eigenvalue of the k-step tridiagonal matrix and s_k
    the last entry of its unit eigenvector, it stops once the Ritz residual
    beta_k |s_k| <= tol * theta. The test runs every `_CHECK_EVERY` steps,
    at step `max_iter`, and whenever beta collapses to tol * |alpha_k| or
    less, which passes it. theta is then off by about (beta_k s_k)^2 / gap
    (Parlett). `max_iter` counts steps; hitting it raises ConvergenceError.
    Returns inf when `apply` or the recurrence overflows.
    """
    q = np.random.default_rng(seed).standard_normal(dim)
    q /= np.linalg.norm(q)
    q_prev = np.zeros(dim)
    alpha, beta = [], []
    b = 0.0
    # an overflow in `apply` or the recurrence is checked and returned as inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            w = apply(q)
            if not np.all(np.isfinite(w)):
                return np.inf
            a = float(q @ w)
            w -= a * q
            w -= b * q_prev
            b = math.sqrt(w @ w)  # the bits of np.linalg.norm on 1-D input
            if not math.isfinite(b):
                b = norm2(w)
                if not math.isfinite(b):
                    return np.inf
            alpha.append(a)
            beta.append(b)
            collapsed = b <= tol * abs(a)  # as alpha_k <= theta and |s_k| <= 1
            if collapsed or k % _CHECK_EVERY == 0 or k == max_iter:
                # scaled by a power of two, exactly, so that stebz's squares
                # of the entries neither overflow nor underflow
                scale = math.ldexp(1.0, math.frexp(max(map(abs, alpha)))[1] - 1)
                theta, s = eigh_tridiagonal(np.divide(alpha, scale),
                                            np.divide(beta[:-1], scale),
                                            select="i", select_range=(k - 1, k - 1))
                theta = scale * float(theta[0])
                if collapsed or b * abs(s[-1, 0]) <= tol * theta:
                    return theta
            q_prev, q = q, w / b
    raise ConvergenceError(
        f"Lanczos did not converge in {max_iter} steps "
        f"(dimension {dim}, tol {tol:g})")


def condition_number(G, method="dense_svd", seed=0, dense_limit=4096,
                     tol=1e-8, max_iter=20000):
    """kappa = sigma_max / sigma_min of the global matrix L.

    `dense_svd` is allowed up to (T+1)*D <= dense_limit. `power_iteration`
    works at any size without assembling L: a numpy Lanczos recurrence
    (`_lanczos_top`) finds sigma_max^2 = lambda_max(L^T L),
    applied blockwise from S, and 1/sigma_min^2 = lambda_max((L L^T)^-1),
    applied by forward and back substitution, from start vectors seeded by
    `seed` and `seed + 1`. Both operators multiply by a dense copy of S
    while it takes at most `_DENSE_BYTES` = 512 KiB (D <= 256), and by the
    CSR S above that. Each stops once its Ritz residual is at most
    `tol` times its Ritz value theta, so theta is off by about
    tol^2 * theta^2 / gap: at the default 1e-8, under 1e-14 relative when
    the top eigenvalue is separated by more than 1% of theta. `max_iter`
    counts Lanczos steps. T = 0 gives exactly 1.

    Raises SingularSystemError when sigma_min < 1e-14 * sigma_max (or the
    inverse overflows), ConvergenceError when either recurrence has not
    converged after `max_iter` Lanczos steps, and InputError for an
    unknown method or a dense SVD over `dense_limit`.
    """
    dim = (G.T + 1) * G.D
    if method == "dense_svd":
        if dim > dense_limit:
            raise InputError(
                f"dense SVD rejected for dimension {dim} > {dense_limit}; "
                "use power_iteration"
            )
        sig = svdvals(G.matrix().toarray())
        smax, smin = float(sig[0]), float(sig[-1])
    elif method == "power_iteration":
        if G.T == 0:
            return 1.0  # L is the identity
        shape = (G.T + 1, G.D)
        S, St = G._products
        dense = isinstance(S, np.ndarray)

        def gram(v):  # L^T L v, with L = I - (shift (x) S)
            Z = v.reshape(shape)
            W = Z.copy()
            if dense:  # row-major products: (S @ Z.T).T is slower in BLAS
                W[1:] -= Z[:-1] @ St  # W = L z
                W[:-1] -= W[1:] @ S  # W = L^T W (rhs is a new array)
            else:  # column products, which scipy runs in its CSR kernel
                W[1:] -= (S @ Z[:-1].T).T
                W[:-1] -= (St @ W[1:].T).T
            return W.reshape(-1)

        def inverse_gram(v):  # (L L^T)^-1 v
            return G.solve_lower_t(G.solve_lower(v))

        smax = np.sqrt(_lanczos_top(gram, dim, seed, tol, max_iter))
        smin = 1.0 / np.sqrt(_lanczos_top(inverse_gram, dim, seed + 1, tol,
                                          max_iter))
    else:
        raise InputError(f"unknown method {method!r}")
    if smin < 1e-14 * smax:
        raise SingularSystemError(
            f"numerically singular system: sigma_max={smax:.3e}, "
            f"sigma_min={smin:.3e}", sigma_max=smax, sigma_min=smin)
    return smax / smin
