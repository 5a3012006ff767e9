"""Truncated Carleman embedding and the time-stepped global linear system.

A polynomial field on R^n is lifted to a linear step operator S on the
stacked Kronecker powers y_j ~ delta^{(x) j}, j <= N. One training step is
forward Euler on the lifted dynamics, S = I + A, whose blocks follow the
product rule: the block mapping order j = i+k-1 into order i is

    A[i][j] = sum_{p=1..i}  I^{(x)(p-1)} (x) F_k (x) I^{(x)(i-p)} .

`embed` builds the Kronecker sums of each dense term F_k order by order,
K_i from K_{i-1} (K_i = K_{i-1} (x) I_n + I_{n^(i-1)} (x) F_k), as
unsummed entries in p order, placed by the block sizes `check_capacity`
returns. It checks each block's keys against that block's own bounds as
they are yielded, adds the identity's diagonal after them, and sums the
entries of each key in that order, by one sort, into one canonical `CSR`
matrix, S. The count of those keys follows from the nonzeros of each
term, so `check_keys` holds it to a budget, as `check_capacity` does D,
before any key is written; `pipeline.lift` runs it on dense terms before
the field is extracted.
No block is stored on its own: S and the state hold them in order of j.
`CSR` is this package's own sparse storage, so the lift runs on numpy
alone; products with S go through `GlobalSystem`, which picks a dense or
a scipy operator by size.

An order-0 block (a single stationary coordinate held at 1) carries the
affine drift F_0; its size is 1 when the field has drift and 0 otherwise,
so drift-free systems contribute no artificial marginal mode.

T steps assemble into the block-bidiagonal system L z = b with I on the
diagonal, -S on the subdiagonal and b = (y(0), 0, ..., 0); `solve` is
forward substitution on L, the iteration y <- S y.

At order 2, S commutes with the swap P of the two slots of its order-2
block: Kronecker sums, a slot-symmetric F_2 and F_0's blocks all do
(Forets & Pouly, arXiv:1711.02552, use the same symmetry). In the
orthogonal basis that is the identity on orders 0 and 1 and, on order 2,
e_aa and (e_ab + e_ba)/sqrt2, then (e_ab - e_ba)/sqrt2 for a < b, S is
block diagonal: a symmetric block S_s of size c + n + n(n+1)/2 and an
antisymmetric block S_a of size n(n-1)/2, which is a symmetric matrix when
F_1 is. L splits the same way, and `condition_number` takes kappa from the
two parts when PSP = S and S_a = S_a^T hold in every bit (see there).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import util
from .errors import (CapacityError, ConvergenceError, DegenerateStateError,
                     InputError, SingularSystemError)
from .util import count_text, norm2

class CSR:
    """A canonical CSR matrix: in each row the column indices are sorted and
    unique, and no stored value is zero. `indptr` and `indices` are int32
    while the shape and nnz fit in it, as in scipy. It is storage only:
    products run on `toarray()` or `to_scipy()`.
    """

    def __init__(self, indptr, indices, data, shape):
        index = np.int32 if max(*shape, len(data)) < 2 ** 31 else np.int64
        self.indptr = np.asarray(indptr, dtype=index)
        self.indices = np.asarray(indices, dtype=index)
        self.data = np.asarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def from_keys(cls, key, data, shape):
        """From ascending, unique keys row * shape[1] + col and their values."""
        rows, cols = shape
        indptr = np.searchsorted(key, np.arange(rows + 1, dtype=np.int64) * cols)
        return cls(indptr, key - key // max(cols, 1) * cols, data, shape)

    @property
    def nnz(self):
        return self.data.size

    def toarray(self):
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)),
            self.indices] = self.data
        return out

    def to_scipy(self):
        """The same matrix as a scipy.sparse csr_matrix."""
        import scipy.sparse as sp
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def _kron_sums(Fk, top, width):
    """Entries of K_i = sum_{p=1..i} I_{n^(p-1)} (x) F_k (x) I_{n^(i-p)}, i = 1..top,
    unsummed, as keys row * width + col and values. K_1 = F_k, and K_i is
    K_{i-1} (x) I_n (terms p < i, in p order), then I_{n^(i-1)} (x) F_k
    (term p = i): a key occurs once in each term that writes it, in p order.
    The nonzeros of the dense `Fk` are taken in row-major order."""
    n, m = Fk.shape  # m = n^k
    rows, cols = np.nonzero(Fk)
    key = entry = rows * width + cols
    val = data = Fk[rows, cols]
    for i in range(1, top + 1):
        if i > 1:  # K[r, c] to (n*r + beta, n*c + beta), F_k[r, c] to (alpha*n + r, alpha*m + c)
            alpha = np.arange(n ** (i - 1), dtype=np.int64)
            key = np.concatenate([
                np.add.outer(n * key, np.arange(n, dtype=np.int64) * (width + 1)).ravel(),
                np.add.outer(alpha * (n * width + m), entry).ravel()])
            val = np.concatenate([np.repeat(val, n), np.tile(data, alpha.size)])
        yield key, val


def _sorted_sums(key, val):
    """Ascending unique keys and the sum of each key's values, added in
    array order, with zero sums dropped. An overflowing sum is kept as a
    non-finite value, for the checks on the system to report."""
    order = np.argsort(key, kind="stable")  # equal keys keep their order
    key, val = key[order], val[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    total, dup = val[first], np.flatnonzero(~first)
    # add.at runs in array order, so each sum is (t_1 + t_2) + t_3 + ...
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(total, np.searchsorted(np.flatnonzero(first), dup) - 1, val[dup])
    keep = total != 0
    return key[first][keep], total[keep]


@dataclass
class CarlemanMatrix:
    """Assembled truncated embedding of a PolyField: the one record of
    where each block, and so theta, sits in the lifted state."""

    n: int
    order: int
    D: int
    sizes: tuple  # block sizes of orders 0..order, from `check_capacity`
    S: CSR
    field: object = field(repr=False)

    @property
    def include_constant(self):
        """Whether the state starts with the order-0 block."""
        return self.sizes[0] == 1

    def order_one_slice(self):
        """The order-1 block delta of a state: theta is theta_star plus it."""
        return slice(self.sizes[0], self.sizes[0] + self.n)

    def initial_state(self, theta0):
        """Upload state for a start point theta0 in the field's coordinates."""
        theta0 = np.asarray(theta0, dtype=float).ravel()
        if theta0.size != self.n:
            raise InputError(f"theta0 length {theta0.size} != dimension {self.n}")
        delta = theta0 - self.field.theta_star
        parts = [np.ones(1)]  # delta^(x)j, each from the one before
        for _ in range(self.order):
            parts.append(np.multiply.outer(parts[-1], delta).ravel())
        return np.concatenate(parts[0 if self.include_constant else 1:])


def check_capacity(n, order, include_constant, steps=0):
    """The block sizes of orders 0..`order` in the lifted state of an
    n-dimensional field: n^j for order j >= 1, and for order 0 1 with
    `include_constant` (the field has drift) and 0 without. Raises
    CapacityError when their total D exceeds util.MAX_DIM, or a trajectory
    of `steps` steps, (steps + 1) * D floats, exceeds util.MAX_STATES.
    Needs no field, so callers can check before extracting one."""
    max_dim = util.MAX_DIM
    if order < 1:
        raise InputError("truncation order must be >= 1")
    # D >= order, and D >= 2^order when n >= 2: a larger order is over the
    # budget, and is rejected before its blocks are listed
    if order > (max_dim if n < 2 else max_dim.bit_length()):
        raise CapacityError(
            f"truncation order {count_text(order)} needs a dimension D over "
            f"the budget {max_dim}",
            required=max_dim + 1, budget=max_dim)
    sizes = (int(include_constant),) + tuple(n ** j for j in range(1, order + 1))
    D = sum(sizes)
    if D > max_dim:
        raise CapacityError(
            f"embedding needs dimension D={count_text(D)}, over the budget "
            f"{max_dim}",
            required=D, budget=max_dim,
        )
    util.check_floats((steps + 1) * D, "{} steps of dimension D={}", steps, D)
    return sizes


def check_keys(n, order, nnz):
    """Raises CapacityError when the order-`order` lift of an n-dimensional
    field whose term k has nnz[k] nonzeros writes more raw keys than
    util.MAX_KEYS: `_kron_sums` writes i * nnz[k] * n^(i-1) for block
    (i, i + k - 1). With nnz[k] = n^(k+1), the count of a dense term, it
    bounds the keys of any field with those terms."""
    raw = sum(i * int(c) * n ** (i - 1) for k, c in enumerate(nnz)
              for i in range(1, order + 2 - max(k, 1)))
    if raw > util.MAX_KEYS:
        raise CapacityError(f"embedding writes up to {raw} raw keys, over the budget "
                            f"{util.MAX_KEYS}", required=raw,
                            budget=util.MAX_KEYS)


def embed(field_, order):
    """Build the truncated Carleman step operator of a PolyField.

    S is one canonical `CSR` matrix, built by one sort from every block's
    unsummed p-term keys, in p order, and then the identity's diagonal
    keys. Block (i, i + k - 1) is the Kronecker sum K_i of F_k, built from
    K_{i-1} by `_kron_sums`. Keys of different blocks never collide, so
    each entry is summed in that order, ((t_1 + t_2) + ...) + 1 on the
    diagonal; an entry that sums to 0 is dropped. Each block's local keys
    are checked as `_kron_sums` yields them to lie inside that block, row
    < n^i and column < n^j (InputError naming the block), so S never needs
    a structure scan. The order-0 block has size 1 exactly when F_0 != 0;
    a drift-free F_0 has no nonzeros, so its blocks write no key.
    Raises CapacityError when the total dimension would exceed util.MAX_DIM
    (`check_capacity`), or the raw keys, counted by `check_keys` from the
    terms' nonzeros, would exceed util.MAX_KEYS; both are checked before
    any key is written. `pipeline.lift` has checked both already, the keys
    on dense terms, before extracting the field.
    """
    n = field_.n
    sizes = check_capacity(n, order, bool(field_.terms[0].any()))
    D = sum(sizes)
    start = np.cumsum((0,) + sizes, dtype=np.int64)  # start[j]: offset of order j
    check_keys(n, order, [np.count_nonzero(Fk) for Fk in field_.terms])
    keys, vals = [], []
    for k, Fk in enumerate(field_.terms[:order + 1]):  # blocks (i, i + k - 1), j <= order
        for i, (key, val) in enumerate(_kron_sums(Fk, order + 1 - max(k, 1), D), 1):
            j = i + k - 1
            try:  # unravel_index rejects a negative key or a row past n^i
                if np.unravel_index(key, (n ** i, D))[1].max(initial=0) >= n ** j:
                    raise ValueError
            except ValueError:
                raise InputError(f"block-structure check failed: an entry of block "
                                 f"({i},{j}) lies outside it") from None
            keys.append(key + (start[i] * D + start[j]))
            vals.append(val)
    keys.append(np.arange(D, dtype=np.int64) * (D + 1))  # I, after the blocks
    vals.append(np.ones(D))
    key, val = np.concatenate(keys), np.concatenate(vals)
    del keys, vals  # free the per-block arrays before the sort
    S = CSR.from_keys(*_sorted_sums(key, val), (D, D))
    return CarlemanMatrix(n=n, order=order, D=D, sizes=sizes, S=S, field=field_)


# Products with S and S^T use dense copies while one takes at most this
# many bytes (512 KiB, so D <= 256). Most of a sparse product on a small S
# is scipy's per-call dispatch: at D = 111, S @ z takes 9.0 us sparse and
# 4.6 us dense. On pruned Iris systems at T = 20, a whole kappa is faster
# dense at D = 273 (59 against 65 ms) and slower at D = 343 (84 against
# 59 ms); at D = 1 111 one dense S @ z takes 260 us against 37.5 us.
_DENSE_BYTES = 1 << 19


@dataclass
class GlobalSystem:
    """All T Euler steps stacked into one block-bidiagonal linear system.

    `S` is the canonical `CSR` step operator. Both substitutions run one
    loop, `_substitute`: with S for L, and with S^T over the steps in
    reverse for L^T. Every product with S, there and in the gram of
    `condition_number`, runs on one operator: a C-contiguous dense array
    while D * D * 8 bytes is at most `_DENSE_BYTES` (512 KiB, so D <= 256),
    and a scipy CSR matrix above that. S^T is built the same way, and only
    when a product with it is asked for. L itself is built only by the
    dense-SVD kappa, as a dense array. `sizes` is the lift's block layout,
    as `CarlemanMatrix.sizes`; kappa reads it to split S, and a system
    built without it, () by default, is never split.
    """

    T: int
    D: int
    S: CSR
    y0: np.ndarray
    sizes: tuple = ()

    @cached_property
    def _S_op(self):
        """S for products: dense when small, else scipy CSR."""
        if self.D * self.D * 8 <= _DENSE_BYTES:
            return self.S.toarray()
        return self.S.to_scipy()

    @cached_property
    def _St_op(self):
        """S^T for products, in the representation of `_S_op`."""
        S = self._S_op
        return np.ascontiguousarray(S.T) if isinstance(S, np.ndarray) else S.T.tocsr()

    def solve_lower(self, w):
        """Forward substitution L z = w for an arbitrary right-hand side."""
        W = w.reshape(self.T + 1, self.D)
        return _substitute(self._S_op, W, np.empty_like(W)).reshape(-1)

    def solve_lower_t(self, w):
        """Back substitution L^T u = w: the same loop on S^T, steps reversed."""
        W = w.reshape(self.T + 1, self.D)
        U = np.empty_like(W)
        _substitute(self._St_op, W[::-1], U[::-1])  # fills U in place, no copy
        return U.reshape(-1)


def _substitute(op, W, Z):
    """Z[0] = W[0], then Z[t] = W[t] + op @ Z[t - 1]; returns Z."""
    Z[0] = W[0]
    for t in range(1, len(W)):
        Z[t] = W[t] + op @ Z[t - 1]
    return Z


def build_global(M, y0, T):
    """Assemble the T-step system for a CarlemanMatrix and upload state."""
    if T < 0:
        raise InputError("step count must be >= 0")
    y0 = np.asarray(y0, dtype=float).ravel()
    if y0.size != M.D:
        raise InputError(f"state length {y0.size} != system dimension {M.D}")
    return GlobalSystem(T=T, D=M.D, S=M.S, y0=y0.copy(), sizes=M.sizes)


def solve(G):
    """Solve L z = b, b = (y(0), 0, ..., 0), by `G.solve_lower`; returns
    the trajectory (T+1, D) with y_t = S^t y(0), cut before the first step
    with a non-finite entry. Fewer than T+1 rows therefore mean the lifted
    run left the floating-point range at step `len(Y)`."""
    b = np.zeros((G.T + 1) * G.D)
    b[:G.D] = G.y0
    with np.errstate(over="ignore", invalid="ignore"):
        Y = G.solve_lower(b).reshape(G.T + 1, G.D)
    finite = np.isfinite(Y[1:]).all(axis=1)  # y(0) is returned as given
    return Y if finite.all() else Y[:1 + np.argmin(finite)]


@dataclass
class ReadoutResult:
    params: np.ndarray
    l2_error: float
    linf_error: float


def check_shots(shots, name):
    """InputError unless `shots`, the value of `name`, is a count that the
    multinomial draw takes: an integer in 1 ... 2**63 - 1."""
    if not 0 < shots < 2 ** 63:
        raise InputError(f"{name} must be an integer in 1 ... 2**63 - 1, "
                         f"got {count_text(shots)}")


def readout(M, y, shots, seed=None):
    """Sampled (tomographic) readout of parameters from a state `y` of the
    lift `M`; InputError unless `y` has length `M.D`.

    Draws `shots` samples from the normalized amplitude distribution of
    the full state, estimates the magnitudes of the order-1 block
    (`M.order_one_slice()`) from counts, takes signs from the exact state,
    and reports the l2/linf estimation error against the exact readout
    M.field.theta_star + order-1 block.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != M.D:
        raise InputError(f"state length {y.size} != system dimension {M.D}")
    one = M.order_one_slice()
    block = y[one]
    check_shots(shots, "shots")
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
    amp = nrm * np.sqrt(counts[one] / shots)
    est_block = np.sign(block) * amp
    err = est_block - block
    return ReadoutResult(params=M.field.theta_star + est_block,
                         l2_error=math.hypot(*err),  # scaled: no overflow
                         linf_error=float(np.max(np.abs(err))) if M.n else 0.0)


def _top_ritz(d, e):
    """Top eigenvalue of the symmetric tridiagonal matrix with diagonal d
    and off-diagonal e, and the last entry of its unit eigenvector: the
    bits of scipy's `eigh_tridiagonal(d, e, select="i", select_range=(k - 1,
    k - 1))`, from the same LAPACK calls (bisection, then inverse
    iteration) without the wrapper's argument checks."""
    from scipy.linalg.lapack import dstebz, dstein

    k = d.size
    if k == 1:
        return float(d[0]), 1.0
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        v, info = dstein(d, e, w[:m], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info {info})")
    return float(w[0]), float(v[-1, 0])


# Lanczos steps between convergence tests. A test costs about one gram
# apply, and the recurrence runs up to this many steps past convergence.
_CHECK_EVERY = 8
# kappa's Lanczos tolerance on the Ritz residual, relative to the Ritz
# value, and its step cap, past which it raises ConvergenceError.
_LANCZOS_TOL, _LANCZOS_STEPS = 1e-8, 20000


def _lanczos_top(apply, dim, seed):
    """Largest eigenvalue of a symmetric positive semidefinite operator.

    A plain three-term Lanczos recurrence from the start vector drawn with
    `default_rng(seed)`, with no reorthogonalisation and no restart: the
    extreme Ritz value still converges in floating point (Paige 1980).
    With theta the top eigenvalue of the k-step tridiagonal matrix and s_k
    the last entry of its unit eigenvector, it stops once the Ritz residual
    beta_k |s_k| <= tol * theta, tol = `_LANCZOS_TOL`. The test runs every
    `_CHECK_EVERY` steps, at the step cap `_LANCZOS_STEPS` (ConvergenceError
    when it fails there), and whenever beta collapses to tol * |alpha_k| or
    less, which passes it. theta is then off by about (beta_k s_k)^2 / gap
    (Parlett). Returns inf when `apply` or the recurrence overflows.
    """
    tol, max_iter = _LANCZOS_TOL, _LANCZOS_STEPS
    q = np.random.default_rng(seed).standard_normal(dim)
    q /= np.linalg.norm(q)
    q_prev = np.zeros(dim)
    alpha, beta = [], []
    b = 0.0
    # an overflow in `apply` or the recurrence is checked and returned as inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            w = apply(q)  # a non-finite w makes b non-finite below
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
                theta, s = _top_ritz(np.divide(alpha, scale),
                                     np.divide(beta[:-1], scale))
                theta *= scale
                if collapsed or b * abs(s) <= tol * theta:
                    return theta
            q_prev, q = q, w / b
    raise ConvergenceError(
        f"Lanczos did not converge in {max_iter} steps "
        f"(dimension {dim}, tol {tol:g})")


def _swap_split(G):
    """(G_s, a_max, a_min) of an order-2 system split by the swap P of its
    order-2 slots, or None unless its layout is orders 0..2 with n >= 2,
    its S is the dense operator and finite, PSP = S in every bit, and the
    antisymmetric block S_a is finite and equals S_a^T in every bit.

    G_s is the T-step system of the symmetric block S_s = Q_s^T S Q_s,
    Q_s the columns e_k (orders 0 and 1), e_aa and (e_ab + e_ba)/sqrt2,
    a < b; y0 is projected on them too. On the columns (e_ab - e_ba)/sqrt2,
    a < b, S_a = S[ab, ab] - S[ab, ba] exactly when PSP = S, and Q^T S Q
    has nothing outside the two blocks. a_max and a_min are the extremes
    of L_a, `_shift_extremes` at the spectral norm mu* of the symmetric S_a.
    """
    if len(G.sizes) != 3 or G.sizes[1] < 2:
        return None
    S = G._S_op
    if not isinstance(S, np.ndarray) or not np.isfinite(S).all():
        return None
    c, n, _ = G.sizes
    lo = c + n
    a, b = np.triu_indices(n)  # the pairs a <= b, row by row
    one, two = lo + a * n + b, lo + b * n + a  # slots (a, b) and (b, a)
    swap = np.arange(G.D)
    swap[one], swap[two] = two, one
    if not np.array_equal(S, S[swap][:, swap]):
        return None
    pair = a < b
    R = S[one[pair]]  # the rows of the slots (a, b), a < b
    with np.errstate(over="ignore", invalid="ignore"):
        S_a = R[:, one[pair]] - R[:, two[pair]]  # an overflow refuses the split
        if not (np.isfinite(S_a).all() and np.array_equal(S_a, S_a.T)):
            return None
        mu = np.abs(np.linalg.eigvalsh(S_a)[[0, -1]]).max()  # mu* = max |mu|
        a_max, a_min = _shift_extremes(mu, G.T)
        Q = np.zeros((G.D, lo + a.size))
        Q[np.arange(lo), np.arange(lo)] = 1.0
        col, w = lo + np.arange(a.size), np.where(pair, math.sqrt(0.5), 1.0)
        Q[one, col] = Q[two, col] = w
        S_s = Q.T @ S @ Q  # an overflow here makes kappa's recurrences inf
    rows, cols = np.nonzero(S_s)
    G_s = GlobalSystem(T=G.T, D=S_s.shape[0], y0=Q.T @ G.y0,
                       S=CSR.from_keys(rows * S_s.shape[1] + cols,
                                       S_s[rows, cols], S_s.shape))
    return G_s, a_max, a_min


def _shift_extremes(mu, T):
    """(sigma_max, sigma_min) of the (T+1)-point bidiagonal I - mu Z, Z the
    down-shift. They are the largest and the (T+2)-th smallest eigenvalue
    of its Golub-Kahan form, the zero-diagonal tridiagonal with off-diagonal
    1, |mu|, 1, ..., 1 and eigenvalues +-sigma, found by LAPACK's bisection
    (stebz) with the smallest absolute tolerance, which on a zero diagonal
    gives each sigma to high relative accuracy (Demmel & Kahan, SIAM J.
    Sci. Stat. Comput. 11, 1990): O(T) work for each Sturm count."""
    from scipy.linalg.lapack import dstebz

    N = T + 1
    e = np.ones(2 * N - 1)
    e[1::2] = abs(mu)
    out = []
    for k in (2 * N, N + 1):
        _, w, _, _, info = dstebz(np.zeros(2 * N), e, 2, 0.0, 1.0, k, k,
                                  2 * np.finfo(float).tiny, "E")
        if info:
            raise np.linalg.LinAlgError(f"bidiagonal bisection failed (info {info})")
        out.append(float(w[0]))
    return tuple(out)


def _sigma_max(G, seed):
    """sigma_max of L: the root of lambda_max(L^T L) by `_lanczos_top`
    from a start vector seeded by `seed`, applied blockwise from S."""
    shape = (G.T + 1, G.D)
    S, St = G._S_op, G._St_op

    def gram(v):  # L^T L v, with L = I - (shift (x) S), in row-major products
        Z = v.reshape(shape)
        W = Z.copy()
        W[1:] -= Z[:-1] @ St  # W = L z
        W[:-1] -= W[1:] @ S  # W = L^T W (rhs is a new array)
        return W.reshape(-1)

    return np.sqrt(_lanczos_top(gram, shape[0] * shape[1], seed))


def _sigma_min(G, seed):
    """sigma_min of L: 1/sigma_min^2 = lambda_max((L L^T)^-1) by
    `_lanczos_top` from a start vector seeded by `seed`, applied by
    `solve_lower` then `solve_lower_t`."""
    def inverse_gram(v):
        return G.solve_lower_t(G.solve_lower(v))

    return 1.0 / np.sqrt(_lanczos_top(inverse_gram, (G.T + 1) * G.D, seed))


def condition_number(G, method="dense_svd", seed=0):
    """kappa = sigma_max / sigma_min of the global matrix L.

    `dense_svd` is allowed up to (T+1)*D <= util.MAX_DENSE_ORDER; it
    assembles L from S as one dense Fortran-order array, which LAPACK
    overwrites in place, and takes all its singular values.
    `power_iteration` works at any size without assembling L: a numpy
    Lanczos recurrence (`_lanczos_top`) finds sigma_max^2 = lambda_max(L^T
    L), applied blockwise from S, and 1/sigma_min^2 = lambda_max((L L^T)^-1),
    applied by `solve_lower` then `solve_lower_t`, one substitution loop
    run forwards on S and backwards on S^T, from start vectors seeded by
    `seed` and `seed + 1`, with no reorthogonalisation, restart or ARPACK.
    The gram takes the row-major products Z @ S^T and W @ S. Both
    operators multiply by a dense copy of S while it takes at most
    `_DENSE_BYTES` = 512 KiB (D <= 256), and by a scipy CSR S above that.
    Each stops once its Ritz residual is at most tol = `_LANCZOS_TOL` =
    1e-8 times its Ritz value theta, so theta is off by about
    tol^2 * theta^2 / gap: under 1e-14 relative when the top eigenvalue is
    separated by more than 1% of theta. T = 0 gives exactly 1.

    On an order-2 system with n >= 2 and a dense, finite S, the power
    iteration splits L by the swap of the order-2 slots (`_swap_split`):
    kappa = max sigma_max / min sigma_min over L_s and L_a. Both
    recurrences run, with the same seeds, on L_s, the T-step system of the
    symmetric block S_s (D_s = 66 against D = 111 on a pruned n = 10
    field). S_a is symmetric when F_1 is, as `polyfield.from_model` makes
    it in every bit, so L_a is a direct sum of the (T+1)-point bidiagonals
    I - mu Z over the eigenvalues mu of S_a. Their sigma_max does not fall
    and their sigma_min does not rise as |mu| grows, so L_a's extremes are
    those at mu* = max |mu|, found by bisection in O(T) (`_shift_extremes`).
    The split is exact: it is taken only when PSP = S and S_a = S_a^T hold
    in every bit, so the orthogonal change of basis takes L to the direct
    sum of L_s and L_a, with nothing dropped. Any other system, an F_1 off
    symmetry by one bit among them, runs both recurrences on L itself.

    Raises SingularSystemError when sigma_min < 1e-14 * sigma_max, when
    the inverse overflows or when L has a non-finite entry;
    ConvergenceError when either recurrence has not converged after
    `_LANCZOS_STEPS` = 20 000 Lanczos steps; and InputError for an unknown
    method or a dense SVD over util.MAX_DENSE_ORDER.
    """
    dim = (G.T + 1) * G.D
    if method == "dense_svd":
        if dim > util.MAX_DENSE_ORDER:
            raise InputError(f"dense SVD rejected for dimension {dim} > "
                             f"{util.MAX_DENSE_ORDER}; use power_iteration")
        if G.T and not np.all(np.isfinite(G.S.data)):  # L = I at T = 0
            raise SingularSystemError(
                "numerically singular system: L has a non-finite entry",
                sigma_max=np.inf, sigma_min=np.nan)
        S, D = G.S.toarray(), G.D
        L = np.eye(dim, order="F")  # LAPACK's layout, so svdvals need not copy L
        for t in range(1, G.T + 1):  # 0.0 - s: L keeps +0.0 where S does
            L[t * D:(t + 1) * D, (t - 1) * D:t * D] -= S
        from scipy.linalg import svdvals
        sig = svdvals(L, overwrite_a=True)
        smax, smin = float(sig[0]), float(sig[-1])
    elif method == "power_iteration":
        if G.T == 0:
            return 1.0  # L is the identity
        split = _swap_split(G)
        if split is None:
            smax, smin = _sigma_max(G, seed), _sigma_min(G, seed + 1)
        else:
            G_s, amax, amin = split
            smax = max(_sigma_max(G_s, seed), amax)
            smin = min(_sigma_min(G_s, seed + 1), amin)
    else:
        raise InputError(f"unknown method {method!r}")
    if smin < 1e-14 * smax:
        raise SingularSystemError(
            f"numerically singular system: sigma_max={smax:.3e}, "
            f"sigma_min={smin:.3e}", sigma_max=smax, sigma_min=smin)
    return smax / smin
