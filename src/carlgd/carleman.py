"""Truncated Carleman embedding and the time-stepped global linear system.

A polynomial field on R^n is lifted to a linear operator on the stacked
Kronecker powers y_j ~ delta^{(x) j}, j <= N. Blocks follow the product
rule: the block mapping order j = i+k-1 into order i is

    A[i][j] = sum_{p=1..i}  I^{(x)(p-1)} (x) F_k (x) I^{(x)(i-p)} .

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
from scipy.linalg import svdvals

from .errors import (CapacityError, ConvergenceError, DegenerateStateError,
                     DivergenceError, InputError, SingularSystemError)
from .util import kron_power


def _transfer_block(Fk, i, k, n):
    """sum_{p=1..i} I^{(p-1)} (x) F_k (x) I^{(i-p)} as a sparse matrix."""
    total = None
    for p in range(1, i + 1):
        left = sp.identity(n ** (p - 1), format="csr")
        right = sp.identity(n ** (i - p), format="csr")
        term = sp.kron(sp.kron(left, Fk, format="csr"), right, format="csr")
        total = term if total is None else total + term
    return total.tocsr()


@dataclass
class CarlemanMatrix:
    """Assembled truncated embedding of a PolyField."""

    n: int
    order: int
    degree: int
    include_constant: bool
    block_orders: list  # orders of the stored blocks, e.g. [0, 1, 2]
    offsets: np.ndarray  # start offset of each block within the state vector
    D: int
    blocks: dict  # (i_order, j_order) -> csr block
    matrix: sp.csr_matrix
    field: object = field(repr=False, default=None)

    def block_dim(self, order):
        return self.n ** order

    def order_one_slice(self):
        pos = self.block_orders.index(1)
        return slice(int(self.offsets[pos]), int(self.offsets[pos]) + self.n)

    def initial_state(self, theta0):
        """Upload state for a start point theta0 in the field's coordinates."""
        theta0 = np.asarray(theta0, dtype=float).ravel()
        if theta0.size != self.n:
            raise InputError(f"theta0 length {theta0.size} != dimension {self.n}")
        delta = theta0 - self.field.theta_star if self.field is not None else theta0
        parts = [kron_power(delta, j) for j in self.block_orders]
        return np.concatenate(parts)

    def step_operator(self):
        S = (sp.identity(self.D, format="csr") + self.matrix).tocsr()
        S.sum_duplicates()
        S.eliminate_zeros()
        return S

    def audit(self):
        """Scan every stored nonzero of A and check it sits in an allowed
        block (i, i+k-1), 0 <= k <= degree. Raises on violation."""
        coo = self.matrix.tocoo()
        edges = np.asarray(self.offsets, dtype=np.int64)
        orders = np.asarray(self.block_orders)
        i_ord = orders[np.searchsorted(edges, coo.row, side="right") - 1]
        j_ord = orders[np.searchsorted(edges, coo.col, side="right") - 1]
        k = j_ord - i_ord + 1
        bad = (i_ord == 0) | (k < 0) | (k > self.degree)
        if np.any(bad):
            at = int(np.flatnonzero(bad)[0])
            raise InputError(
                "block-structure audit failed: nonzero in block "
                f"({i_ord[at]},{j_ord[at]})"
            )


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


def embed(field_, order, max_dim=2_000_000, include_constant=None):
    """Build the truncated Carleman matrix of a PolyField.

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
    pos = {j: p for p, j in enumerate(block_orders)}

    blocks = {}
    rows, cols, vals = [], [], []
    for i in range(1, order + 1):
        for k in range(0, d + 1):
            j = i + k - 1
            if j > order or (j == 0 and not include_constant):
                continue
            Fk = field_.terms[k]
            if Fk.nnz == 0:
                continue
            blk = _transfer_block(Fk, i, k, n)
            blk.sum_duplicates()
            blk.eliminate_zeros()
            if blk.nnz == 0:
                continue
            blocks[(i, j)] = blk
            coo = blk.tocoo()
            rows.append(coo.row + offsets[pos[i]])
            cols.append(coo.col + offsets[pos[j]])
            vals.append(coo.data)
    if rows:
        A = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(D, D),
        ).tocsr()
    else:
        A = sp.csr_matrix((D, D))
    M = CarlemanMatrix(n=n, order=order, degree=d, include_constant=include_constant,
                       block_orders=block_orders, offsets=offsets, D=D,
                       blocks=blocks, matrix=A, field=field_)
    M.audit()
    return M


def initial_state(theta0, theta_star, order, include_constant=True):
    """y(0) = (1, delta, delta^{(x)2}, ..., delta^{(x)N}), delta = theta0 - theta_star."""
    theta0 = np.asarray(theta0, dtype=float).ravel()
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    if theta0.shape != theta_star.shape:
        raise InputError("theta0 and theta_star lengths differ")
    delta = theta0 - theta_star
    orders = ([0] if include_constant else []) + list(range(1, order + 1))
    return np.concatenate([kron_power(delta, j) for j in orders])


def upload_stats(y0):
    """Upload-cost proxies: (l2 norm, nonzero count)."""
    y0 = np.asarray(y0)
    return float(np.linalg.norm(y0)), int(np.count_nonzero(y0))


@dataclass
class GlobalSystem:
    """All T Euler steps stacked into one block-bidiagonal linear system."""

    T: int
    D: int
    S: sp.csr_matrix
    y0: np.ndarray
    _L: sp.csr_matrix = field(default=None, repr=False)

    @cached_property
    def St(self):
        """S^T in CSR form, for back substitution and L^T products."""
        return self.S.T.tocsr()

    def matrix(self):
        if self._L is None:
            shift = sp.csr_matrix(
                (np.ones(self.T), (np.arange(1, self.T + 1), np.arange(self.T))),
                shape=(self.T + 1, self.T + 1),
            )
            L = (sp.identity((self.T + 1) * self.D, format="csr")
                 - sp.kron(shift, self.S, format="csr")).tocsr()
            L.sum_duplicates()
            L.eliminate_zeros()
            self._L = L
        return self._L

    def rhs(self):
        b = np.zeros((self.T + 1) * self.D)
        b[: self.D] = self.y0
        return b

    def solve_lower(self, w):
        """Forward substitution L z = w for an arbitrary right-hand side."""
        W = w.reshape(self.T + 1, self.D)
        Z = np.empty_like(W)
        Z[0] = W[0]
        for t in range(1, self.T + 1):
            Z[t] = W[t] + self.S @ Z[t - 1]
        return Z.reshape(-1)

    def solve_lower_t(self, w):
        """Back substitution L^T u = w."""
        W = w.reshape(self.T + 1, self.D)
        U = np.empty_like(W)
        U[self.T] = W[self.T]
        for t in range(self.T - 1, -1, -1):
            U[t] = W[t] + self.St @ U[t + 1]
        return U.reshape(-1)

    def export_coo(self, path):
        """Plain-text sparse export: header `rows cols nnz`, then
        `row col value` per line (0-based indices)."""
        L = self.matrix().tocoo()
        with open(path, "w") as f:
            f.write(f"{L.shape[0]} {L.shape[1]} {L.nnz}\n")
            for r, c, v in zip(L.row, L.col, L.data):
                f.write(f"{r} {c} {float(v)!r}\n")


def build_global(M, y0, T):
    """Assemble the T-step system for a CarlemanMatrix and upload state."""
    if T < 0:
        raise InputError("step count must be >= 0")
    y0 = np.asarray(y0, dtype=float).ravel()
    if y0.size != M.D:
        raise InputError(f"state length {y0.size} != system dimension {M.D}")
    return GlobalSystem(T=T, D=M.D, S=M.step_operator(), y0=y0.copy())


def solve(G, raise_on_divergence=True):
    """Solve L z = b by forward substitution; returns the trajectory
    (T+1, D) with y_t = S^t y(0). Non-finite entries raise DivergenceError
    with the offending step (or truncate the result when asked not to)."""
    Y = np.empty((G.T + 1, G.D))
    Y[0] = G.y0
    y = G.y0
    for t in range(1, G.T + 1):
        y = G.S @ y
        if not np.all(np.isfinite(y)):
            if raise_on_divergence:
                raise DivergenceError(f"Carleman trajectory non-finite at step {t}",
                                      step=t)
            return Y[:t]
        Y[t] = y
    return Y


@dataclass
class ReadoutResult:
    params: np.ndarray
    l2_error: float
    linf_error: float
    shots: int = None


def readout(y, theta_star, shots=None, seed=None, has_constant=True):
    """Recover parameters from a solution state.

    Exact mode (shots=None) returns theta_star + order-1 block. Tomography
    mode draws `shots` samples from the normalized amplitude distribution
    of the full state, estimates order-1 magnitudes from counts, takes
    signs from the exact state, and reports the l2/linf estimation error
    against the exact readout.
    """
    y = np.asarray(y, dtype=float).ravel()
    theta_star = np.asarray(theta_star, dtype=float).ravel()
    n = theta_star.size
    off = 1 if has_constant else 0
    if y.size < off + n:
        raise InputError("state too short for the requested readout")
    block = y[off:off + n]
    exact = theta_star + block
    if shots is None:
        return ReadoutResult(params=exact, l2_error=0.0, linf_error=0.0)
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


class _NonFinite(Exception):
    """An operator application produced a non-finite vector."""


def _lanczos_top(apply, dim, seed, tol, max_iter):
    """Largest eigenvalue of a symmetric positive definite operator by
    ARPACK Lanczos from a seeded start vector; inf when `apply` overflows."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    def matvec(v):
        u = apply(v.ravel())
        if not np.all(np.isfinite(u)):
            raise _NonFinite
        return u

    v0 = np.random.default_rng(seed).standard_normal(dim)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    try:
        lam = eigsh(op, k=1, which="LA", v0=v0, tol=tol, maxiter=max_iter,
                    return_eigenvectors=False)
    except _NonFinite:
        return np.inf
    except ArpackNoConvergence:
        raise ConvergenceError(
            f"Lanczos did not converge in {max_iter} restarts "
            f"(dimension {dim}, tol {tol:g})") from None
    return float(lam[0])


def condition_number(G, method="dense_svd", seed=0, dense_limit=4096,
                     tol=1e-12, max_iter=20000):
    """kappa = sigma_max / sigma_min of the global matrix L.

    `dense_svd` is allowed up to (T+1)*D <= dense_limit. `power_iteration`
    works at any size without assembling L: it runs Lanczos (ARPACK) for
    sigma_max^2 = lambda_max(L^T L), applied blockwise from S, and for
    1/sigma_min^2 = lambda_max((L L^T)^-1), applied by forward and back
    substitution, from start vectors seeded by `seed` and `seed + 1`.

    Raises SingularSystemError when sigma_min < 1e-14 * sigma_max (or the
    inverse overflows), ConvergenceError when Lanczos does not converge to
    `tol` within `max_iter` restarts, and InputError for an unknown method
    or a dense SVD over `dense_limit`.
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

        def gram(v):  # L^T L v, with L = I - (shift (x) S)
            Z = v.reshape(shape)
            W = Z.copy()
            W[1:] -= (G.S @ Z[:-1].T).T  # W = L z
            W[:-1] -= (G.St @ W[1:].T).T  # W = L^T W (rhs is a new array)
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
