"""Small shared helpers: seed derivation, the Euclidean norm of a vector
or of each row of a stack, finite numbers, the step size rule, input and
output files, the short text of a count, and every limit of a run, which
callers read as `util.MAX_STATES` when they run. The CSV writer formats
its own cells (`cli.write_csv`)."""

import contextlib
import hashlib
import math

import numpy as np

from .errors import CapacityError, InputError


def sub_seed(seed, name):
    """Derive a stable named sub-seed from the global seed.

    Uses SHA-256 so the mapping is identical across platforms and runs;
    every random component (init, minibatch, lanczos, tomography, ...)
    draws from its own named stream.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(seed, name):
    return np.random.default_rng(sub_seed(seed, name))


def _row_norms(rows):
    """sqrt of each row's dot product with itself: a stacked (1, n) @ (n, 1)
    product, which numpy runs as one BLAS ddot per row, the dot of
    np.linalg.norm on a vector."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())


def norm2(x):
    """Euclidean norm of a vector, or array of the norms of the rows of a
    (rows, n) stack, that stays finite while it is representable.

    Each norm has the bits of np.linalg.norm on its row. That overflows
    once max|x| passes about 1e154; only then is the row's norm recomputed
    on row / max|row|, so finite results keep their bits. A row holding
    inf or NaN keeps its inf or NaN.
    """
    x = np.asarray(x, dtype=float)
    # contiguous rows, as np.linalg.norm ravels its input: ddot's strided
    # kernel can round differently
    rows = np.ascontiguousarray(x.reshape(1, -1) if x.ndim < 2 else x)
    with np.errstate(over="ignore"):  # the overflow is handled below
        value = _row_norms(rows)
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        scale = np.max(np.abs(rows[bad]), axis=1)
        fix = np.isfinite(scale)
        bad, scale = bad[fix], scale[fix]
        value[bad] = scale * _row_norms(rows[bad] / scale[:, None])
    return value if x.ndim > 1 else float(value[0])


def check_eta(eta):
    """InputError unless the step size eta is positive and finite."""
    if not 0 < eta < math.inf:  # false for NaN too
        raise InputError(f"eta must be positive and finite, got {eta}")


def finite_float(value):
    """float(value), with a ValueError for a value that is not finite, as
    for one that is not a number at all."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


def open_input(path, **kwargs):
    """open(path) for reading; an OSError becomes an InputError naming the
    path."""
    try:
        return open(path, **kwargs)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None


@contextlib.contextmanager
def writing(path):
    """Run the block that makes or writes `path`; an OSError in it becomes
    an InputError naming the path, as open_input does for reads."""
    try:
        yield
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from None


# Budget on the embedding dimension D (`carleman.check_capacity`).
MAX_DIM = 2_000_000
# Budget on (T + 1) * D, the floats of one T-step trajectory. The
# power-iteration kappa holds about six vectors of that size (the solve
# about three), so this keeps its working set near 1 GiB: 6 * 8 B * 2e7 =
# 0.96 GB. `check_floats` holds every other array whose size a count
# sets (a reference trajectory, Lanczos probes, bin edges, proxy values)
# to the same budget.
MAX_STATES = 20_000_000
# Budget on the raw keys `embed` writes before summing them. Its peak, in
# the sort, is about 65 B a key, so this keeps `embed` near 1 GiB.
MAX_KEYS = 16_000_000
# Order of the largest matrix a dense SVD or eigendecomposition runs on:
# the dense-SVD kappa's L or a dense Hessian (128 MiB of floats).
MAX_DENSE_ORDER = 4096
DIVERGENCE_BOUND = 1e8  # the norm past which a GD run has diverged
# Values one block of a batched loop may hold in its widest array: 8 MiB
# of floats. Blocking never changes an item's arithmetic, only how many
# items share one pass.
BLOCK_VALUES = 1 << 20


def check_floats(required, what, *counts):
    """Raise CapacityError when `what` needs more than MAX_STATES floats.
    `what` is a message template whose {} fields take `counts`; these
    counts and `required` print by count_text, so 1e200 reads 1e+200."""
    if required > MAX_STATES:
        what = what.format(*map(count_text, counts))
        raise CapacityError(f"{what} need {count_text(required)} floats, over "
                            f"the budget {MAX_STATES}", required=required,
                            budget=MAX_STATES)


def block_items(item_values):
    """Items per block when each item holds `item_values` values: as many
    as BLOCK_VALUES allows, and at least one."""
    return max(1, BLOCK_VALUES // max(1, item_values))


def count_text(n):
    """An integer count as text: in full up to 15 digits, else in short
    form, so that a count given as 1e200 reads 1e+200, not as 200 digits:
    '%.6g' within the float range, its first six digits (truncated) and
    power of ten past it."""
    text = str(n)
    digits = text.lstrip("-")
    if len(digits) <= 15:
        return text
    if len(digits) <= 308:
        return "%.6g" % n
    mantissa = f"{digits[0]}.{digits[1:6]}".rstrip("0").rstrip(".")
    return f"{text[:-len(digits)]}{mantissa}e+{len(digits) - 1}"
