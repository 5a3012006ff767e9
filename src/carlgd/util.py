"""Small shared helpers: seed derivation, norms, finite numbers, the step
size rule, input files, float formatting."""

import hashlib
import math

import numpy as np

from .errors import InputError


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


def norm2(x):
    """Euclidean norm that stays finite while it is representable.

    np.linalg.norm overflows once max|x| passes about 1e154; only then is
    the norm recomputed on x / max|x|, so finite results keep their bits.
    """
    with np.errstate(over="ignore"):  # the overflow is handled below
        value = float(np.linalg.norm(x))
    if math.isfinite(value):
        return value
    scale = float(np.max(np.abs(x)))
    if not math.isfinite(scale):
        return value
    return scale * float(np.linalg.norm(np.asarray(x) / scale))


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


def fmt17(x):
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")
