import numpy as np
import pytest
import scipy.sparse as sp

import carlgd
from carlgd import polyfield
from carlgd.errors import (CapacityError, DegenerateStateError,
                           DivergenceError, InputError, NumericError,
                           SingularSystemError)


def scalar_field(a, b, anchor=0.0):
    """f(theta) = a*theta + b*theta^3 as a degree-3 field anchored anywhere."""
    spec = carlgd.ModelSpec(kind="scalar_cubic", coefficients=(-a / 0.1, -b / 0.1))
    return carlgd.from_model(spec, None, np.array([anchor]), 3, 0.1)


def random_field(n, degree, seed, density=0.4):
    rng = np.random.default_rng(seed)
    terms = []
    for k in range(degree + 1):
        dense = rng.standard_normal((n, n ** k)) * (rng.random((n, n ** k)) < density)
        terms.append(sp.csr_matrix(polyfield.symmetrize_slots(dense, k, n)))
    return polyfield.PolyField(n=n, degree=degree, eta=0.1,
                               theta_star=np.zeros(n), terms=terms)


# ------------------------------------------------------------------ embed

def test_embed_scalar_cubic_matrix():
    fld = scalar_field(-0.1, -0.1)
    M = carlgd.embed(fld, 3)
    assert not M.include_constant  # no drift at the origin
    A = M.matrix.toarray()
    want = np.array([[-0.1, 0.0, -0.1],
                     [0.0, -0.2, 0.0],
                     [0.0, 0.0, -0.3]])
    np.testing.assert_allclose(A, want, atol=1e-15)


def test_embed_degree_two_blocks():
    fld = random_field(2, 2, seed=0)
    M = carlgd.embed(fld, 2)
    F1 = fld.terms[1].toarray()
    F2 = fld.terms[2].toarray()
    np.testing.assert_allclose(M.blocks[(1, 1)].toarray(), F1)
    np.testing.assert_allclose(M.blocks[(1, 2)].toarray(), F2)
    I = np.eye(2)
    np.testing.assert_allclose(M.blocks[(2, 2)].toarray(),
                               np.kron(F1, I) + np.kron(I, F1))
    # F2 would target order 3, which is truncated away
    assert (2, 3) not in M.blocks


def dense_embed_oracle(fld, N):
    """Brute-force dense construction of the truncated embedding."""
    n = fld.n
    F = [t.toarray() for t in fld.terms]
    dims = [1] + [n ** j for j in range(1, N + 1)]
    off = np.concatenate([[0], np.cumsum(dims)[:-1]])
    dense = np.zeros((sum(dims), sum(dims)))
    for i in range(1, N + 1):
        for k in range(fld.degree + 1):
            j = i + k - 1
            if j > N:
                continue
            blk = np.zeros((n ** i, dims[j]))
            for p in range(1, i + 1):
                left = np.eye(n ** (p - 1))
                right = np.eye(n ** (i - p))
                blk = blk + np.kron(np.kron(left, F[k]), right)
            dense[off[i]:off[i] + n ** i, off[j]:off[j] + dims[j]] = blk
    return dense


def test_embed_against_dense_kronecker_oracle(mlp_spec, iris):
    # synthetic 6-dimensional degree-2 field
    fld = random_field(6, 2, seed=1, density=0.25)
    M = carlgd.embed(fld, 2, include_constant=True)
    dense = dense_embed_oracle(fld, 2)
    np.testing.assert_allclose(M.matrix.toarray(), dense, atol=1e-14)
    assert M.matrix.nnz == np.count_nonzero(dense)
    # and the field of a real 6-parameter sub-model of the Iris network
    from carlgd import pipeline
    trained = pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=0)
    pruned = pipeline.prune_topk(trained, 0.2)
    assert pruned.mask.sum() == 6
    sub = carlgd.from_model(mlp_spec, iris, pruned.values, 2, 0.05,
                            mode="taylor", mask=pruned.mask)
    M = carlgd.embed(sub, 2)
    dense = dense_embed_oracle(sub, 2)
    if not M.include_constant:
        dense = dense[1:, 1:]
    np.testing.assert_allclose(M.matrix.toarray(), dense, atol=1e-14)
    assert M.matrix.nnz == np.count_nonzero(dense)


def test_embed_capacity_error():
    fld = random_field(4, 2, seed=2)  # has drift, so the constant block counts
    with pytest.raises(CapacityError) as err:
        carlgd.embed(fld, 3, max_dim=50)
    assert err.value.required == 1 + 4 + 16 + 64


def test_audit_catches_tampering():
    fld = random_field(2, 1, seed=3)
    M = carlgd.embed(fld, 2, include_constant=True)
    bad = M.matrix.tolil()
    bad[0, 1] = 1.0  # constant row must stay empty
    M.matrix = bad.tocsr()
    with pytest.raises(InputError):
        M.audit()


# ----------------------------------------------------------- initial state

def test_initial_state_at_anchor():
    y = carlgd.initial_state(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 3)
    want = np.zeros(1 + 2 + 4 + 8)
    want[0] = 1.0
    np.testing.assert_array_equal(y, want)


def test_initial_state_kronecker_square():
    y = carlgd.initial_state(np.array([1.0, 2.0]), np.zeros(2), 2)
    np.testing.assert_array_equal(y, [1, 1, 2, 1, 2, 2, 4])


def test_initial_state_sparse_block_counts():
    rng = np.random.default_rng(9)
    delta = np.zeros(5)
    q = 2
    delta[rng.choice(5, q, replace=False)] = rng.standard_normal(q)
    y = carlgd.initial_state(delta, np.zeros(5), 3)
    sizes = [1, 5, 25, 125]
    off = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for j in range(4):
        block = y[off[j]:off[j] + sizes[j]]
        assert np.count_nonzero(block) == q ** j


def test_upload_stats():
    norm, nnz = carlgd.upload_stats(np.array([1.0, 0.0, 3.0, 4.0]))
    assert norm == pytest.approx(np.sqrt(26.0))
    assert nnz == 3


# ------------------------------------------------------------------ solve

def test_solve_linear_scalar_power():
    fld = scalar_field(-0.1, 0.0)
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 10)
    Y = carlgd.solve(G)
    assert abs(Y[-1, 0] - 0.9 ** 10) < 1e-15


def test_solve_single_euler_step_cubic():
    # anchored at zero: y(0) = (0.5, 0.25, 0.125)
    fld = scalar_field(-0.1, -0.1)
    M = carlgd.embed(fld, 3)
    G = carlgd.build_global(M, M.initial_state(np.array([0.5])), 1)
    Y = carlgd.solve(G)
    # 0.5 + (-0.1*0.5) + (-0.1*0.125) = 0.4375, the exact Euler/GD step
    assert Y[1, 0] == pytest.approx(0.4375, abs=1e-15)


def test_solve_matches_manual_iteration_bitwise():
    fld = random_field(3, 2, seed=4)
    M = carlgd.embed(fld, 2, include_constant=True)
    y0 = M.initial_state(0.1 * np.ones(3))
    G = carlgd.build_global(M, y0, 17)
    Y = carlgd.solve(G)
    S = M.step_operator()
    y = y0.copy()
    for t in range(1, 18):
        y = S @ y
        assert np.array_equal(Y[t], y)


def test_solve_equals_global_triangular_solve():
    from scipy.sparse.linalg import spsolve_triangular
    fld = scalar_field(-0.2, -0.05, anchor=0.3)
    M = carlgd.embed(fld, 3)
    G = carlgd.build_global(M, M.initial_state(np.array([0.8])), 12)
    z = spsolve_triangular(G.matrix().tocsr(), G.rhs(), lower=True)
    np.testing.assert_allclose(z.reshape(13, -1), carlgd.solve(G),
                               rtol=1e-12, atol=1e-14)


def test_global_matrix_nnz_invariant():
    fld = random_field(3, 2, seed=5)
    M = carlgd.embed(fld, 2, include_constant=True)
    G = carlgd.build_global(M, M.initial_state(np.zeros(3)), 9)
    L = G.matrix()
    assert L.nnz == (G.T + 1) * G.D + G.T * G.S.nnz


def test_solve_divergence_reports_step():
    fld = scalar_field(2.0, 0.0)  # multiplier 3 per step
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1e300])), 500)
    with pytest.raises(DivergenceError) as err:
        carlgd.solve(G)
    assert 0 < err.value.step <= 500
    truncated = carlgd.solve(G, raise_on_divergence=False)
    assert truncated.shape[0] == err.value.step


def test_degree_one_exactness_any_order(diag_spec):
    # linear field: order-1 block equals the exact linear recursion for any N
    fld = carlgd.from_model(diag_spec, None, np.zeros(2), 1, 0.1)
    delta0 = np.array([1.0, -2.0])
    exact = [delta0]
    F1 = fld.terms[1].toarray()
    for _ in range(30):
        exact.append(exact[-1] + F1 @ exact[-1])
    exact = np.array(exact)
    for N in (1, 2, 3):
        M = carlgd.embed(fld, N)
        G = carlgd.build_global(M, M.initial_state(delta0), 30)
        Y = carlgd.solve(G)
        sl = M.order_one_slice()
        err = np.abs(Y[:, sl] - exact).max()
        assert err <= 1e-10 * np.abs(exact).max()


def test_truncation_error_improves_with_order(cubic_spec, mlp_spec, iris):
    import mpmath as mp
    from carlgd import pipeline
    mp.mp.dps = 50

    def reference(T):
        th = mp.mpf("0.5")
        out = [0.5]
        for _ in range(T):
            th = th - mp.mpf("0.1") * (th + th ** 3)
            out.append(float(th))
        return np.array(out)

    def max_errors(anchor, T):
        ref = reference(T)
        errs = []
        for N in (1, 2, 3, 4):
            res = pipeline.simulate(cubic_spec, None, carlgd.ParamVector([0.5]),
                                    eta=0.1, order=N, steps=T, anchor=anchor,
                                    degree=3)
            errs.append(np.abs(res.approx[:, 0] - ref).max())
        return errs

    # anchored at the origin the odd field leaves even orders decoupled, so
    # consecutive orders can tie; the error is still non-increasing
    errs = max_errors("zero", 50)
    assert all(errs[i + 1] <= errs[i] for i in range(3))
    # anchored at the start every order couples; over a truncation-dominated
    # window each additional order strictly helps
    errs = max_errors("start", 20)
    assert all(errs[i + 1] < errs[i] for i in range(3))
    # pruned Iris model: adding the quadratic block cuts the error hard
    dense = pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=0)
    pruned = pipeline.prune_topk(dense, 0.2)
    by_order = []
    for N in (1, 2):
        res = pipeline.simulate(mlp_spec, iris, pruned, eta=0.05, order=N,
                                steps=20, anchor="start")
        by_order.append(max(r.err_l2 for r in res.records))
    assert by_order[1] < 0.5 * by_order[0]


# ---------------------------------------------------------------- readout

def test_readout_exact():
    y = np.array([1.0, 0.3, 0.4, 0.0, 0.0, 0.0, 0.0])
    res = carlgd.readout(y, np.zeros(2), has_constant=True)
    np.testing.assert_array_equal(res.params, [0.3, 0.4])
    assert res.l2_error == 0.0


def test_readout_all_mass_on_constant():
    y = np.zeros(7)
    y[0] = 5.0
    res = carlgd.readout(y, np.array([1.5, -2.0]), shots=1000, seed=0)
    np.testing.assert_array_equal(res.params, [1.5, -2.0])


def test_readout_zero_state_rejected():
    with pytest.raises(DegenerateStateError):
        carlgd.readout(np.zeros(4), np.zeros(1), shots=100)


def test_readout_tomography_error_shrinks_with_shots():
    y = np.array([0.5, 0.3, 0.4])
    means = {}
    for shots in (10 ** 3, 10 ** 5, 10 ** 7):
        errs = [carlgd.readout(y, np.zeros(2), shots=shots, seed=s).linf_error
                for s in range(10)]
        means[shots] = np.mean(errs)
    assert means[10 ** 3] > means[10 ** 5] > means[10 ** 7]
    assert means[10 ** 7] < 1e-2


def test_readout_sign_recovery():
    y = np.array([1.0, -0.6, 0.8])
    res = carlgd.readout(y, np.zeros(2), shots=10 ** 6, seed=1)
    assert res.params[0] < 0 < res.params[1]


def test_readout_samples_state_whose_norm_overflows_unscaled():
    y = np.array([1.0, 1e200, 1e200])
    res = carlgd.readout(y, np.zeros(2), shots=10 ** 4, seed=0)
    assert np.all(np.isfinite(res.params))
    np.testing.assert_allclose(res.params, [1e200, 1e200], rtol=0.05)
    assert np.isfinite(res.l2_error) and res.l2_error < 0.05 * 1e200


@pytest.mark.parametrize("y", [[1.5e308, 1.5e308, 1.5e308],
                               [1.0, np.inf, 0.0], [1.0, np.nan, 0.0]])
def test_readout_overflowing_or_nonfinite_state_rejected(y):
    with pytest.raises(DegenerateStateError):
        carlgd.readout(np.array(y), np.zeros(2), shots=100, seed=0)


# --------------------------------------------------------- condition number

def test_condition_number_identity_at_t_zero():
    fld = scalar_field(-0.5, 0.0)
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 0)
    assert carlgd.condition_number(G, "dense_svd") == pytest.approx(1.0)
    assert carlgd.condition_number(G, "power_iteration") == 1.0


def kappa_series(a, Ts, method="dense_svd"):
    fld = scalar_field(a, 0.0)
    M = carlgd.embed(fld, 1)
    out = []
    for T in Ts:
        G = carlgd.build_global(M, M.initial_state(np.array([1.0])), T)
        out.append(carlgd.condition_number(G, method))
    return out


def test_kappa_bounded_for_dissipative_step():
    ks = kappa_series(-0.5, (5, 10, 20, 40))
    assert max(ks) < 4.0


def test_kappa_grows_linearly_for_marginal_step():
    Ts = (5, 10, 20, 40)
    ks = kappa_series(0.0, Ts)
    for (t1, k1), (t2, k2) in zip(zip(Ts, ks), zip(Ts[1:], ks[1:])):
        assert (k2 - k1) / (t2 - t1) >= 1.0


def test_power_iteration_matches_dense_svd():
    for a, T in ((-0.5, 12), (-0.2, 25), (0.0, 20)):
        fld = scalar_field(a, 0.0)
        M = carlgd.embed(fld, 1)
        G = carlgd.build_global(M, M.initial_state(np.array([1.0])), T)
        kd = carlgd.condition_number(G, "dense_svd")
        kp = carlgd.condition_number(G, "power_iteration")
        assert abs(kp - kd) <= 0.05 * kd
    # and on a coupled multivariate system
    fld = random_field(3, 2, seed=6, density=0.3)
    M = carlgd.embed(fld, 2, include_constant=True)
    G = carlgd.build_global(M, M.initial_state(np.zeros(3)), 8)
    kd = carlgd.condition_number(G, "dense_svd")
    kp = carlgd.condition_number(G, "power_iteration")
    assert abs(kp - kd) <= 0.05 * kd


def lanczos_cases():
    for a, T in ((-0.5, 12), (-0.2, 25), (0.0, 20)):
        M = carlgd.embed(scalar_field(a, 0.0), 1)
        yield carlgd.build_global(M, M.initial_state(np.array([1.0])), T)
    M = carlgd.embed(random_field(3, 2, seed=6, density=0.3), 2,
                     include_constant=True)
    yield carlgd.build_global(M, M.initial_state(np.zeros(3)), 8)


def test_lanczos_kappa_matches_dense_svd_tightly():
    for G in lanczos_cases():
        kd = carlgd.condition_number(G, "dense_svd")
        kp = carlgd.condition_number(G, "power_iteration")
        assert abs(kp - kd) <= 1e-8 * kd


def test_lanczos_kappa_bitwise_repeatable():
    for G in lanczos_cases():
        runs = {carlgd.condition_number(G, "power_iteration", seed=5)
                for _ in range(3)}
        assert len(runs) == 1


def test_lanczos_kappa_iteration_cap_raises():
    M = carlgd.embed(scalar_field(0.0, 0.0), 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 200)
    with pytest.raises(NumericError):
        carlgd.condition_number(G, "power_iteration", max_iter=1)


def test_singular_system_detected():
    fld = scalar_field(1.5, 0.0)  # multiplier 2.5: sigma_min ~ 2.5^-T
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 60)
    with pytest.raises(SingularSystemError):
        carlgd.condition_number(G, "power_iteration")


def test_dense_svd_rejected_when_too_large():
    fld = scalar_field(-0.5, 0.0)
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 10)
    with pytest.raises(InputError):
        carlgd.condition_number(G, "dense_svd", dense_limit=5)


# ------------------------------------------------------------------ export

def test_export_coo_round_trip(tmp_path):
    fld = random_field(2, 1, seed=7)
    M = carlgd.embed(fld, 2, include_constant=True)
    G = carlgd.build_global(M, M.initial_state(np.zeros(2)), 3)
    path = tmp_path / "system.txt"
    G.export_coo(path)
    lines = path.read_text().strip().splitlines()
    rows, cols, nnz = (int(v) for v in lines[0].split())
    L = G.matrix()
    assert (rows, cols, nnz) == (L.shape[0], L.shape[1], L.nnz)
    assert len(lines) == nnz + 1
    rebuilt = np.zeros((rows, cols))
    for line in lines[1:]:
        r, c, v = line.split()
        rebuilt[int(r), int(c)] = float(v)
    np.testing.assert_array_equal(rebuilt, L.toarray())
