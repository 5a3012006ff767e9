import itertools
from pathlib import Path

import numpy as np
import pytest

import carlgd

DATA_DIR = Path(__file__).parent / "data"
IRIS_CSV = DATA_DIR / "iris.csv"


@pytest.fixture(scope="session")
def iris():
    return carlgd.load_iris(IRIS_CSV)


@pytest.fixture(scope="session")
def mlp_spec():
    # 4-3-3 quadratic-activation MSE network used throughout
    return carlgd.ModelSpec(kind="mlp", layer_widths=(4, 3, 3),
                            activation="quadratic_poly", alpha=0.1)


@pytest.fixture(scope="session")
def diag_spec():
    return carlgd.ModelSpec(kind="diag_quadratic", coefficients=(1.0, 4.0))


@pytest.fixture(scope="session")
def cubic_spec():
    return carlgd.ModelSpec(kind="scalar_cubic", coefficients=(1.0, 1.0))


def symmetrize_slots(mat, k, n):
    """Average an n x n^k map over permutations of its k input slots: the
    slot-symmetric form that every extracted field term has."""
    T = np.asarray(mat, dtype=float).reshape((n,) + (n,) * k)
    perms = list(itertools.permutations(range(1, k + 1)))
    acc = np.zeros_like(T)
    for p in perms:
        acc += T.transpose((0,) + p)
    return (acc / len(perms)).reshape(n, n ** k)
