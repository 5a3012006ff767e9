import itertools

import numpy as np
import pytest

import carlgd
from carlgd import models, polyfield, util
from carlgd.errors import CapacityError, InputError
from conftest import symmetrize_slots


def f0(fld):
    """The constant term F_0 as a vector."""
    return fld.terms[0].ravel()


def field_value(fld, theta):
    """sum_k F_k delta^{(x) k} at an absolute point theta, from the
    densified terms and explicit Kronecker powers of delta."""
    delta = np.asarray(theta, dtype=float) - fld.theta_star
    out, power = np.zeros(fld.n), np.ones(1)
    for k, term in enumerate(fld.terms):
        if k > 0:
            power = np.kron(power, delta)
        out += term @ power
    return out


def test_diag_quadratic_extraction(diag_spec):
    fld = carlgd.from_model(diag_spec, None, np.zeros(2), 1, 0.1)
    np.testing.assert_array_equal(f0(fld), [0.0, 0.0])
    np.testing.assert_allclose(fld.terms[1], np.diag([-0.1, -0.4]))


def test_scalar_cubic_extraction_at_origin(cubic_spec):
    fld = carlgd.from_model(cubic_spec, None, np.zeros(1), 3, 0.1)
    assert f0(fld) == 0.0
    assert fld.terms[1][0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert np.count_nonzero(fld.terms[2]) == 0
    assert fld.terms[3][0, 0] == pytest.approx(-0.1, abs=1e-15)


def test_eval_examples(diag_spec):
    fld = carlgd.from_model(diag_spec, None, np.zeros(2), 1, 0.1)
    np.testing.assert_allclose(field_value(fld, [2.0, 1.0]), [-0.2, -0.4], atol=1e-15)
    # at the anchor every positive power of delta vanishes
    anchored = carlgd.from_model(diag_spec, None, np.array([1.0, 2.0]), 1, 0.1)
    np.testing.assert_array_equal(field_value(anchored, [1.0, 2.0]), f0(anchored))


def test_linearity_of_degree_one_fields(diag_spec):
    fld = carlgd.from_model(diag_spec, None, np.array([0.5, -0.5]), 1, 0.1)
    rng = np.random.default_rng(4)
    c = f0(fld)
    for _ in range(10):
        d1 = rng.standard_normal(2)
        d2 = rng.standard_normal(2)
        lhs = field_value(fld, fld.theta_star + d1 + d2) - c
        rhs = (field_value(fld, fld.theta_star + d1) - c) \
            + (field_value(fld, fld.theta_star + d2) - c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_exact_mode_round_trip(iris):
    # field value must reproduce -eta * grad on exact-mode models
    cases = [
        (carlgd.ModelSpec(kind="diag_quadratic", coefficients=(1.0, 4.0, 0.5)),
         None, 1),
        (carlgd.ModelSpec(kind="scalar_cubic"), None, 3),
        (carlgd.ModelSpec(kind="mlp", layer_widths=(4, 3, 3),
                          activation="identity"), iris, 3),
    ]
    rng = np.random.default_rng(5)
    for spec, data, degree in cases:
        anchor = rng.standard_normal(spec.n) * 0.5
        fld = carlgd.from_model(spec, data, anchor, degree, 0.1)
        for _ in range(20):
            delta = rng.standard_normal(spec.n)
            delta /= max(1.0, np.linalg.norm(delta))
            theta = anchor + delta
            want = -0.1 * carlgd.grad(spec, theta, data)
            got = field_value(fld, theta)
            assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1e-12)


def test_mlp_taylor_terms_against_probes(mlp_spec, iris):
    anchor = carlgd.init_params(mlp_spec, 7).values
    eta = 0.05
    fld = carlgd.from_model(mlp_spec, iris, anchor, 2, eta)
    rng = np.random.default_rng(8)
    # F1 = -eta H, probed through exact Hessian-vector products
    for _ in range(5):
        v = rng.standard_normal(mlp_spec.n)
        want = -eta * carlgd.hvp(mlp_spec, anchor, iris, v)
        got = fld.terms[1] @ v
        assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want)
    # F2 contracted twice vs an independent second difference of the gradient
    h = 2e-3
    for _ in range(3):
        u = rng.standard_normal(mlp_spec.n)
        gpp = carlgd.grad(mlp_spec, anchor + h * u, iris)
        gmm = carlgd.grad(mlp_spec, anchor - h * u, iris)
        g0 = carlgd.grad(mlp_spec, anchor, iris)
        d3_uu = (gpp - 2 * g0 + gmm) / (h * h)
        want = -0.5 * eta * d3_uu
        got = fld.terms[2] @ np.kron(u, u)
        assert np.linalg.norm(got - want) < 1e-4 * max(np.linalg.norm(want), 1e-8)


@pytest.mark.parametrize("m", range(1, 7))
def test_stencil_weights_exact_on_monomials(m):
    w1, w2 = polyfield._stencil_weights(m)
    for p in range(2 * m + 1):
        d1 = sum(w * (k ** p - (-k) ** p) for k, w in enumerate(w1, 1))
        d2 = sum(w * (k ** p + (-k) ** p - 2 * 0 ** p)
                 for k, w in enumerate(w2, 1))
        scale = sum((abs(u) + abs(v)) * k ** p
                    for k, (u, v) in enumerate(zip(w1, w2), 1))
        assert abs(d1 - (p == 1)) <= 1e-14 * scale
        assert abs(d2 - 2 * (p == 2)) <= 1e-14 * scale


def _taylor_coefficients(spec, data, anchor, u):
    """Coefficients of s^0..s^6 of grad(anchor + s u), a polynomial of
    degree grad_degree() <= 6, by exact interpolation on 7 nodes."""
    s = np.linspace(-1.0, 1.0, 7)
    G = np.array([carlgd.grad(spec, anchor + si * u, data) for si in s])
    return np.linalg.solve(np.vander(s, increasing=True), G)


def test_mlp_taylor_terms_exact_against_polynomial_stencil(mlp_spec, iris):
    anchor = carlgd.init_params(mlp_spec, 7).values
    eta = 0.05
    fld = carlgd.from_model(mlp_spec, iris, anchor, 3, eta)
    rng = np.random.default_rng(9)
    for _ in range(3):
        u = rng.standard_normal(mlp_spec.n)
        c = _taylor_coefficients(mlp_spec, iris, anchor, u)
        uu = np.kron(u, u)
        for term, want in ((fld.terms[2] @ uu, -eta * c[2]),
                           (fld.terms[3] @ np.kron(uu, u), -eta * c[3])):
            assert np.linalg.norm(term - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("degree, masked", [(2, False), (3, True)])
def test_extraction_independent_of_stencil_step(mlp_spec, iris, monkeypatch,
                                                degree, masked):
    anchor = carlgd.init_params(mlp_spec, 11).values
    mask = None
    if masked:
        mask = np.zeros(mlp_spec.n, dtype=bool)
        mask[[0, 3, 7, 12, 16, 20, 25]] = True
        anchor = np.where(mask, anchor, 0.0)
    fld = carlgd.from_model(mlp_spec, iris, anchor, degree, 0.05, mask=mask)
    monkeypatch.setattr(polyfield, "_STENCIL_STEP",
                        polyfield._STENCIL_STEP / 2)
    halved = carlgd.from_model(mlp_spec, iris, anchor, degree, 0.05, mask=mask)
    for a, b in zip(fld.terms, halved.terms):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_symmetrize_idempotent(mlp_spec, iris):
    # a slot-symmetric map is a fixed point of slot averaging, up to the
    # rounding of the average: random maps once averaged, and the terms
    # that from_model extracts as they come
    rng = np.random.default_rng(6)
    maps = [(symmetrize_slots(rng.standard_normal((3, 3 ** k)), k, 3), k, 3)
            for k in (2, 3)]
    fld = carlgd.from_model(mlp_spec, iris,
                            carlgd.init_params(mlp_spec, 7).values, 3, 0.05)
    maps += [(fld.terms[k], k, fld.n) for k in (2, 3)]
    for M, k, n in maps:
        np.testing.assert_allclose(symmetrize_slots(M, k, n), M, rtol=0,
                                   atol=1e-15 * np.abs(M).max())


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_terms_slot_symmetric_by_construction(mlp_spec, iris, degree, masked):
    anchor = carlgd.init_params(mlp_spec, 7).values
    mask = None
    if masked:
        mask = np.zeros(mlp_spec.n, dtype=bool)
        mask[[0, 2, 5, 7, 9, 12, 15, 18, 21, 25]] = True
        anchor = np.where(mask, anchor, 0.0)
    fld = carlgd.from_model(mlp_spec, iris, anchor, degree, 0.05, mask=mask)
    n = fld.n
    for k in range(2, degree + 1):
        T = fld.terms[k].reshape((n,) * (k + 1))
        assert np.any(T)
        for p in itertools.permutations(range(1, k + 1)):
            np.testing.assert_array_equal(T.transpose((0,) + p), T)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_linear_term_symmetric_in_every_bit(mlp_spec, iris, degree, masked):
    """F_1 = -eta (H + H^T) / 2 equals its transpose bit for bit, on the
    dense and on a pruned Iris field, and matches -eta H^T of the dense
    Hessian to 1e-14 relative."""
    anchor = carlgd.init_params(mlp_spec, 7).values
    idx = np.arange(mlp_spec.n)
    mask = None
    if masked:
        idx = np.array([0, 2, 5, 7, 9, 12, 15, 18, 21, 25])
        mask = np.zeros(mlp_spec.n, dtype=bool)
        mask[idx] = True
        anchor = np.where(mask, anchor, 0.0)
    F1 = carlgd.from_model(mlp_spec, iris, anchor, degree, 0.05, mask=mask).terms[1]
    assert np.array_equal(F1, F1.T)
    want = -0.05 * models.hessian(mlp_spec, anchor, iris)[np.ix_(idx, idx)].T
    assert np.abs(F1 - want).max() <= 1e-14 * np.abs(want).max()


def _count_hvp_pairs(monkeypatch):
    """Count the (point, direction) pairs passed to models.hvp_batch."""
    count = [0]
    hvp_batch = models.hvp_batch

    def counting(spec, points, data, directions):
        out = hvp_batch(spec, points, data, directions)
        count[0] += out.shape[0] * out.shape[1]
        return out

    monkeypatch.setattr(models, "hvp_batch", counting)
    return count


def test_pruned_degree_two_extraction_hvp_pairs(mlp_spec, iris, monkeypatch):
    # n = 10 free weights, m = 2: n at the anchor + 2m (15 + 15) on axis
    # lines, each line asking for its own half's directions j >= l
    count = _count_hvp_pairs(monkeypatch)
    mask = np.zeros(mlp_spec.n, dtype=bool)
    mask[[0, 2, 5, 7, 9, 12, 15, 18, 21, 25]] = True
    anchor = np.where(mask, carlgd.init_params(mlp_spec, 7).values, 0.0)
    carlgd.from_model(mlp_spec, iris, anchor, 2, 0.05, mask=mask)
    assert count[0] == 10 + 4 * 30


def test_dense_degree_three_extraction_hvp_pairs_and_nnz(mlp_spec, iris,
                                                         monkeypatch):
    # n = 27, m = 2: n + 2m n^2 on axis lines + 2m C(n, 3) on pair lines;
    # F3 stores no more nonzeros than the 215 215 it stored before the
    # batched stencil, whose mixed terms left rounding residues
    count = _count_hvp_pairs(monkeypatch)
    fld = carlgd.from_model(mlp_spec, iris,
                            carlgd.init_params(mlp_spec, 7).values, 3, 0.05)
    assert count[0] == 27 + 4 * 27 ** 2 + 4 * 2925
    assert np.count_nonzero(fld.terms[3]) <= 215215


def test_derivative_tensors_checked_before_any_hvp(mlp_spec, iris,
                                                   monkeypatch):
    """The n^(degree + 1) floats of the dense derivative tensors are held
    to MAX_STATES before the first Hessian-vector product."""
    count = _count_hvp_pairs(monkeypatch)
    monkeypatch.setattr(util, "MAX_STATES", 27 ** 4 - 1)
    anchor = carlgd.init_params(mlp_spec, 7).values
    with pytest.raises(CapacityError,
                       match="derivatives of 27 coordinates up to order 4"):
        carlgd.from_model(mlp_spec, iris, anchor, 3, 0.05)
    assert count[0] == 0
    carlgd.from_model(mlp_spec, iris, anchor, 2, 0.05)  # 27^3 floats fit
    assert count[0] == 27 + 4 * (14 * 15 + 13 * 14) // 2


def _all_columns_t3(spec, data, anchor, idx):
    """grad^3 L on the free coordinates `idx` from every Hessian column
    (j >= l) of every axis line, each copied to its two input slots."""
    n, h = idx.size, polyfield._STENCIL_STEP
    m = max(1, spec.grad_degree() // 2)
    w1, _ = polyfield._stencil_weights(m)
    offsets = h * np.arange(1, m + 1)
    offsets = np.concatenate([offsets, -offsets])
    E = np.eye(spec.n)[idx]
    T3 = np.empty((n, n, n))
    for l in range(n):
        Hk = models.hvp_batch(spec, anchor + offsets[:, None] * E[l], data,
                              E[l:])[:, :, idx]
        d1 = np.zeros(Hk.shape[1:])
        for k in range(m):
            d1 += (w1[k] / h) * (Hk[k] - Hk[m + k])
        T3[:, l:, l] = T3[:, l, l:] = d1.T
    return T3


@pytest.mark.parametrize("free", [
    None, [0, 2, 5, 7, 9, 12, 15, 18, 21, 25], [4], [1, 16], [3, 14, 22],
    [0, 3, 6, 10, 13, 17, 19, 23, 26]],
    ids=["n27", "n10", "n1", "n2", "n3", "n9"])
def test_degree_two_stencil_asks_only_for_its_halfs_columns(mlp_spec, iris,
                                                             monkeypatch, free):
    """Line l asks for the directions j >= l in its own half of the free
    coordinates; the same-half slots keep the bits of the all-columns
    stencil, and the cross-half slots, copied from entries with the same
    index triple, stay within rounding of it."""
    anchor = carlgd.init_params(mlp_spec, 7).values
    mask = None
    if free is not None:
        mask = np.zeros(mlp_spec.n, dtype=bool)
        mask[free] = True
        anchor = np.where(mask, anchor, 0.0)
    idx = np.arange(mlp_spec.n) if mask is None else np.flatnonzero(mask)
    n, half = idx.size, (idx.size + 1) // 2
    eta = 0.05
    ref = (-0.5 * eta) * _all_columns_t3(mlp_spec, iris, anchor, idx)

    asked = []
    hvp_batch = models.hvp_batch

    def spy(spec, points, data, directions):
        line = np.flatnonzero(np.atleast_2d(points)[0] != anchor)
        asked.append((np.searchsorted(idx, line),
                      np.searchsorted(idx, np.nonzero(directions)[1])))
        return hvp_batch(spec, points, data, directions)

    monkeypatch.setattr(models, "hvp_batch", spy)
    fld = carlgd.from_model(mlp_spec, iris, anchor, 2, eta, mask=mask)
    assert [line.tolist() for line, _ in asked] == [[]] + [[l] for l in range(n)]
    for l, (_, dirs) in enumerate(asked[1:]):
        assert dirs.tolist() == list(range(l, half if l < half else n))

    T3 = fld.terms[2].reshape(n, n, n)
    side = np.arange(n) >= half
    same = np.broadcast_to(side[:, None] == side[None, :], T3.shape)
    np.testing.assert_array_equal(T3[same], ref[same])
    assert np.abs(T3 - ref).max() <= 1e-14 * np.abs(ref).max()


def test_masked_extraction_reduces_dimension(mlp_spec, iris):
    mask = np.zeros(mlp_spec.n, dtype=bool)
    mask[[1, 4, 16, 22]] = True
    anchor = np.zeros(mlp_spec.n)
    anchor[mask] = [0.2, -0.1, 0.3, 0.4]
    fld = carlgd.from_model(mlp_spec, iris, anchor, 2, 0.05, mask=mask)
    assert fld.n == 4
    idx = np.flatnonzero(mask)
    g = carlgd.grad(mlp_spec, anchor, iris)
    np.testing.assert_allclose(f0(fld), -0.05 * g[idx], atol=1e-15)
    H = carlgd.hessian(mlp_spec, anchor, iris)
    np.testing.assert_allclose(fld.terms[1],
                               -0.05 * H[np.ix_(idx, idx)], atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_extraction_with_no_free_coordinates(mlp_spec, iris, degree):
    fld = carlgd.from_model(mlp_spec, iris, np.zeros(mlp_spec.n), degree,
                            0.05, mask=np.zeros(mlp_spec.n, dtype=bool))
    assert fld.n == 0
    assert [t.shape for t in fld.terms] == [(0, 1)] + [(0, 0)] * degree


def test_field_holds_its_own_dense_terms():
    """Each term is a float ndarray copied from the one given (dense, or
    anything with toarray()); an empty term list or a term of the wrong
    shape is rejected."""
    import scipy.sparse as sp
    F1 = np.array([[0.5, 0.0], [0.0, -1.0]])
    fld = polyfield.PolyField(n=2, theta_star=np.zeros(2),
                              terms=[sp.csr_matrix(np.ones((2, 1))), F1])
    assert all(type(t) is np.ndarray and t.dtype == float for t in fld.terms)
    F1[0, 0] = 7.0
    assert fld.terms[1][0, 0] == 0.5 and fld.nnz() == 4
    with pytest.raises(InputError, match="order-0"):
        polyfield.PolyField(n=2, theta_star=np.zeros(2), terms=[])
    with pytest.raises(InputError, match=r"term 1 has shape \(2, 1\)"):
        polyfield.PolyField(n=2, theta_star=np.zeros(2),
                            terms=[np.zeros((2, 1)), np.zeros((2, 1))])
