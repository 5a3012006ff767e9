"""Small shared helpers: seed derivation, Kronecker powers, norms, float
formatting."""

import hashlib
import math

import numpy as np


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


def kron_power(v, k):
    """k-fold Kronecker power of a vector; k=0 gives the scalar [1.0]."""
    out = np.ones(1, dtype=float)
    for _ in range(k):
        out = np.kron(out, v)
    return out


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


def fmt17(x):
    """Format a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")
