import numpy as np
import pytest

import carlgd
from carlgd import polyfield
from carlgd.errors import InputError


def test_diag_quadratic_extraction(diag_spec):
    fld = carlgd.from_model(diag_spec, None, np.zeros(2), 1, 0.1)
    np.testing.assert_array_equal(fld.f0(), [0.0, 0.0])
    np.testing.assert_allclose(fld.terms[1].toarray(), np.diag([-0.1, -0.4]))
    assert fld.exact


def test_scalar_cubic_extraction_at_origin(cubic_spec):
    fld = carlgd.from_model(cubic_spec, None, np.zeros(1), 3, 0.1)
    assert fld.f0() == 0.0
    assert fld.terms[1].toarray()[0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert fld.terms[2].nnz == 0
    assert fld.terms[3].toarray()[0, 0] == pytest.approx(-0.1, abs=1e-15)


def test_exact_flag_follows_gradient_degree(cubic_spec, mlp_spec, iris):
    assert not carlgd.from_model(cubic_spec, None, np.zeros(1), 1, 0.1).exact
    assert carlgd.from_model(cubic_spec, None, np.zeros(1), 3, 0.1).exact
    assert not carlgd.from_model(mlp_spec, iris, np.zeros(mlp_spec.n), 2,
                                 0.05).exact


def test_eval_examples(diag_spec):
    fld = carlgd.from_model(diag_spec, None, np.zeros(2), 1, 0.1)
    np.testing.assert_allclose(fld.eval([2.0, 1.0]), [-0.2, -0.4], atol=1e-15)
    # at the anchor every positive power of delta vanishes
    anchored = carlgd.from_model(diag_spec, None, np.array([1.0, 2.0]), 1, 0.1)
    np.testing.assert_array_equal(anchored.eval([1.0, 2.0]), anchored.f0())


def test_eval_dimension_mismatch(diag_spec):
    fld = carlgd.from_model(diag_spec, None, np.zeros(2), 1, 0.1)
    with pytest.raises(InputError):
        fld.eval([1.0, 2.0, 3.0])


def test_linearity_of_degree_one_fields(diag_spec):
    fld = carlgd.from_model(diag_spec, None, np.array([0.5, -0.5]), 1, 0.1)
    rng = np.random.default_rng(4)
    f0 = fld.f0()
    for _ in range(10):
        d1 = rng.standard_normal(2)
        d2 = rng.standard_normal(2)
        lhs = fld.eval(fld.theta_star + d1 + d2) - f0
        rhs = (fld.eval(fld.theta_star + d1) - f0) \
            + (fld.eval(fld.theta_star + d2) - f0)
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
            got = fld.eval(theta)
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
        a, b = a.toarray(), b.toarray()
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_symmetrize_idempotent():
    rng = np.random.default_rng(6)
    n = 3
    for k in (2, 3):
        M = rng.standard_normal((n, n ** k))
        once = polyfield.symmetrize_slots(M, k, n)
        twice = polyfield.symmetrize_slots(once, k, n)
        np.testing.assert_allclose(once, twice, atol=1e-14)


def test_masked_extraction_reduces_dimension(mlp_spec, iris):
    mask = np.zeros(mlp_spec.n, dtype=bool)
    mask[[1, 4, 16, 22]] = True
    anchor = np.zeros(mlp_spec.n)
    anchor[mask] = [0.2, -0.1, 0.3, 0.4]
    fld = carlgd.from_model(mlp_spec, iris, anchor, 2, 0.05, mask=mask)
    assert fld.n == 4
    idx = np.flatnonzero(mask)
    g = carlgd.grad(mlp_spec, anchor, iris)
    np.testing.assert_allclose(fld.f0(), -0.05 * g[idx], atol=1e-15)
    H = carlgd.hessian(mlp_spec, anchor, iris)
    np.testing.assert_allclose(fld.terms[1].toarray(),
                               -0.05 * H[np.ix_(idx, idx)], atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_extraction_with_no_free_coordinates(mlp_spec, iris, degree):
    fld = carlgd.from_model(mlp_spec, iris, np.zeros(mlp_spec.n), degree,
                            0.05, mask=np.zeros(mlp_spec.n, dtype=bool))
    assert fld.n == 0
    assert [t.shape for t in fld.terms] == [(0, 1)] + [(0, 0)] * degree
