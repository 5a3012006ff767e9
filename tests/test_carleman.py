import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import carlgd
from carlgd import carleman, pipeline, polyfield
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
    A = M.matrix.toarray()
    start = dict(zip(M.block_orders, M.offsets))

    def block(i, j):
        return A[start[i]:start[i] + 2 ** i, start[j]:start[j] + 2 ** j]

    F1 = fld.terms[1].toarray()
    F2 = fld.terms[2].toarray()
    np.testing.assert_allclose(block(1, 1), F1)
    np.testing.assert_allclose(block(1, 2), F2)
    I = np.eye(2)
    np.testing.assert_allclose(block(2, 2), np.kron(F1, I) + np.kron(I, F1))
    # F2 would target order 3, which is truncated away: the order-2 columns
    # end the matrix, and the order-2 rows hold only the (2,1) and (2,2)
    # blocks, so the (2,3) region is empty
    assert M.D == start[2] + 4
    F0 = fld.terms[0].toarray()
    np.testing.assert_allclose(A[start[2]:, :start[2]], np.hstack(
        [np.zeros((4, start[1])), np.kron(F0, I) + np.kron(I, F0)]))


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
                            mask=pruned.mask)
    M = carlgd.embed(sub, 2)
    dense = dense_embed_oracle(sub, 2)
    if not M.include_constant:
        dense = dense[1:, 1:]
    np.testing.assert_allclose(M.matrix.toarray(), dense, atol=1e-14)
    assert M.matrix.nnz == np.count_nonzero(dense)


# Values whose sums depend on the order of addition (1e16 + 1 - 1e16) or
# cancel exactly, so the property below sees both.
FIELD_VALUES = np.array([1.0, -1.0, 0.1, -0.3, 2.5e-3, 1e16, -1e16])
ORACLE_MAX_DIM = 128


@st.composite
def sparse_fields(draw):
    """A slot-symmetrized sparse field, an order whose D stays under
    ORACLE_MAX_DIM, and an explicit choice of the constant block."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    fits = [N for N in range(1, 5) if sum(n ** j for j in range(N + 1)) <= ORACLE_MAX_DIM]
    order = draw(st.sampled_from(fits))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for k in range(degree + 1):
        shape = (n, n ** k)
        dense = rng.choice(FIELD_VALUES, size=shape) * (rng.random(shape) < density)
        terms.append(sp.csr_matrix(polyfield.symmetrize_slots(dense, k, n)))
    fld = polyfield.PolyField(n=n, degree=degree, eta=0.1,
                              theta_star=np.zeros(n), terms=terms)
    return fld, order, draw(st.booleans())


def assert_canonical_csr(X):
    """Sorted, unique column indices in every row and no stored zeros."""
    assert X.format == "csr"
    for r in range(X.shape[0]):
        assert np.all(np.diff(X.indices[X.indptr[r]:X.indptr[r + 1]]) > 0)
    assert np.all(X.data != 0)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(sparse_fields())
def test_embed_step_operator_equals_dense_oracle_exactly(case):
    fld, order, include_constant = case
    M = carlgd.embed(fld, order, include_constant=include_constant)
    dense = dense_embed_oracle(fld, order)
    if not include_constant:
        dense = dense[1:, 1:]
    S = M.step_operator()
    want = np.eye(M.D) + dense  # the oracle also adds the p-terms in order
    assert np.array_equal(S.toarray(), want)
    assert M.matrix.nnz == np.count_nonzero(dense)
    assert S.nnz == np.count_nonzero(want)
    assert_canonical_csr(M.matrix)
    assert_canonical_csr(S)


def test_embed_capacity_error():
    fld = random_field(4, 2, seed=2)  # has drift, so the constant block counts
    with pytest.raises(CapacityError) as err:
        carlgd.embed(fld, 3, max_dim=50)
    assert err.value.required == 1 + 4 + 16 + 64


def test_audit_catches_tampering(monkeypatch):
    """embed checks each block's entries as they are written. One entry
    put just above block (2, 1), in an order-1 row, or just left of it, in
    the constant column, is rejected."""
    fld = random_field(2, 1, seed=3)
    original = carleman._kron_sum_entries
    for d_row, d_col in ((-1, 0), (0, -1)):
        def tampered(Fk, i, row0, col0, width, d_row=d_row, d_col=d_col):
            rows, cols, vals = original(Fk, i, row0, col0, width)
            if (i, Fk.shape[1]) == (2, 1):  # block (2, 1), written from F_0
                rows, cols, vals = (np.append(rows, row0 + d_row),
                                    np.append(cols, col0 + d_col),
                                    np.append(vals, 1.0))
            return rows, cols, vals

        with monkeypatch.context() as m:
            m.setattr(carleman, "_kron_sum_entries", tampered)
            with pytest.raises(InputError, match="block"):
                carlgd.embed(fld, 2, include_constant=True)
    carlgd.embed(fld, 2, include_constant=True)  # untampered: accepted


# ----------------------------------------------------------- initial state

def embedded(n, order, theta_star=None):
    """Order-`order` embedding, constant block kept, of a linear field on
    R^n anchored at `theta_star` (zero by default)."""
    fld = random_field(n, 1, seed=8)
    if theta_star is not None:
        fld.theta_star = np.asarray(theta_star, dtype=float)
    return carlgd.embed(fld, order, include_constant=True)


def test_initial_state_at_anchor():
    y = embedded(2, 3, theta_star=[1.0, 2.0]).initial_state(np.array([1.0, 2.0]))
    want = np.zeros(1 + 2 + 4 + 8)
    want[0] = 1.0
    np.testing.assert_array_equal(y, want)


def test_initial_state_kronecker_square():
    y = embedded(2, 2).initial_state(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(y, [1, 1, 2, 1, 2, 2, 4])


def test_initial_state_sparse_block_counts():
    rng = np.random.default_rng(9)
    delta = np.zeros(5)
    q = 2
    delta[rng.choice(5, q, replace=False)] = rng.standard_normal(q)
    y = embedded(5, 3).initial_state(delta)
    sizes = [1, 5, 25, 125]
    off = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for j in range(4):
        block = y[off[j]:off[j] + sizes[j]]
        assert np.count_nonzero(block) == q ** j


def test_upload_stats():
    """Each segment record carries the l2 norm and the nonzero count of its
    upload state. Anchored at the segment start, that state is the
    constant coordinate alone."""
    spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(1.0, 4.0))
    params = carlgd.ParamVector([1.0, 0.5], mask=[True, True])
    sched = carlgd.Schedule(total_steps=4, eta=0.1, reupload_period=2,
                            classical_refine_steps=0, carleman_order=2)
    report = pipeline.run_pipeline(spec, None, sched, params)
    _, M = pipeline.lift(spec, None, params.values, 1, 0.1, params.mask, 2)
    y0 = M.initial_state(params.values)
    assert np.count_nonzero(y0) == 1
    for rec in report.segments:
        assert rec.dim == M.D == 7
        assert rec.upload_norm == np.linalg.norm(y0) == 1.0
        assert rec.upload_nnz == 1


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
    b = np.zeros((G.T + 1) * G.D)
    b[:G.D] = G.y0
    z = spsolve_triangular(G.matrix().tocsr(), b, lower=True)
    np.testing.assert_allclose(z.reshape(13, -1), carlgd.solve(G),
                               rtol=1e-12, atol=1e-14)


def test_global_matrix_nnz_invariant():
    fld = random_field(3, 2, seed=5)
    M = carlgd.embed(fld, 2, include_constant=True)
    G = carlgd.build_global(M, M.initial_state(np.zeros(3)), 9)
    L = G.matrix()
    assert L.nnz == (G.T + 1) * G.D + G.T * G.S.nnz


def test_solve_divergence_reports_step(diag_spec):
    fld = scalar_field(2.0, 0.0)  # multiplier 3 per step
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1e300])), 500)
    Y = carlgd.solve(G)  # the finite prefix: 1e300 * 3^t overflows at t = 18
    assert Y.shape == (18, 1) and np.all(np.isfinite(Y))
    with np.errstate(over="ignore"):
        assert not np.isfinite(G.S @ Y[-1]).all()
    # exact GD on 0.5 (x^2 + 4 y^2) at eta = 5 multiplies y by -19 per step,
    # so |theta| first passes the 1e8 bound at step 7 (19^7 = 8.9e8)
    with pytest.raises(DivergenceError) as err:
        pipeline.simulate(diag_spec, None, carlgd.ParamVector([1.0, 1.0]),
                          eta=5.0, order=1, steps=50)
    assert err.value.step == 7


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


def test_lanczos_kappa_matches_dense_svd_on_pruned_iris_system(mlp_spec, iris):
    """A D = 111, T = 10 segment system of the pruned Iris pipeline. Its
    two largest squared singular values lie about 0.2% apart, so the
    recurrence, which does not reorthogonalise, must resolve a close gap."""
    pruned = pipeline.prune_topk(
        pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=0), 0.37)
    anchor = pruned.values
    _, M = pipeline.lift(mlp_spec, iris, anchor,
                         pipeline._field_degree(mlp_spec, 2), 0.05,
                         pruned.mask, 2)
    G = carlgd.build_global(M, M.initial_state(anchor[pruned.mask]), 10)
    assert (G.T + 1) * G.D == 1221
    kd = carlgd.condition_number(G, "dense_svd")
    kp = carlgd.condition_number(G, "power_iteration")
    assert abs(kp - kd) <= 1e-8 * kd


@pytest.mark.parametrize("T", [1, 5, 40])
def test_lanczos_kappa_zero_step_operator(T, monkeypatch):
    """S = 0 makes L the identity. Both recurrences meet beta = 0 (to
    rounding) at their first step and must stop there, dividing by
    nothing."""
    M = carlgd.embed(scalar_field(-1.0, 0.0), 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), T)
    assert G.S.nnz == 0
    substitutions = []
    solve_lower = carlgd.GlobalSystem.solve_lower

    def counted(self, w):
        substitutions.append(w)
        return solve_lower(self, w)

    monkeypatch.setattr(carlgd.GlobalSystem, "solve_lower", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = carlgd.condition_number(G, "power_iteration")
    assert abs(kappa - 1.0) <= 4 * np.finfo(float).eps
    assert len(substitutions) == 1


@pytest.mark.parametrize("T", [1, 5])
def test_lanczos_kappa_huge_step_operator(T):
    """With S = 1 + 1e100 the tridiagonal entries reach 1e200, whose squares
    overflow: they are scaled before the eigensolve, so sigma_max still
    comes out as 1e100 and the system is reported singular."""
    M = carlgd.embed(scalar_field(1e100, 0.0), 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), T)
    with pytest.raises(SingularSystemError) as err:
        carlgd.condition_number(G, "power_iteration")
    assert err.value.sigma_max == pytest.approx(1e100, rel=1e-8)


def test_lanczos_overflowing_recurrence_gives_inf():
    """Each apply of 1e308 * ones((2, 2)) is finite, but the top eigenvalue
    is past the float range, and so is alpha_1 from seed 8's start vector:
    the recurrence returns inf and warns about nothing."""
    def apply(v):
        return np.full(2, 1e308 * v.sum())

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert carleman._lanczos_top(apply, 2, 8, 1e-8, 10) == np.inf


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


@pytest.fixture(scope="module")
def pruned_iris(mlp_spec, iris):
    """Pretrained 4-3-3 Iris weights pruned to 10, as in the pipeline."""
    return pipeline.prune_topk(
        pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=0), 0.37)


def lift_pruned_iris(mlp_spec, iris, pruned, order):
    _, M = pipeline.lift(mlp_spec, iris, pruned.values,
                         pipeline._field_degree(mlp_spec, order), 0.05,
                         pruned.mask, order)
    return M, M.initial_state(pruned.values[pruned.mask])


@pytest.mark.parametrize("dense", [True, False])
def test_lanczos_kappa_dense_and_sparse_products(mlp_spec, iris, pruned_iris,
                                                 dense, monkeypatch):
    """The D = 111 pruned Iris system, with the dense cut just above and
    just below its S: both representations match the dense SVD."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 2)
    assert M.D == 111
    dense_bytes = M.D * M.D * 8
    monkeypatch.setattr(carleman, "_DENSE_BYTES",
                        dense_bytes if dense else dense_bytes - 1)
    G = carlgd.build_global(M, y0, 10)
    kd = carlgd.condition_number(G, "dense_svd")
    kp = carlgd.condition_number(G, "power_iteration")
    assert abs(kp - kd) <= 1e-8 * kd
    S, St = G._products
    assert isinstance(S, np.ndarray) is dense
    assert isinstance(St, np.ndarray) is dense
    if dense:
        assert S.flags.c_contiguous and St.flags.c_contiguous
        np.testing.assert_array_equal(S, G.S.toarray())
        np.testing.assert_array_equal(St, G.S.toarray().T)


def test_lanczos_kappa_keeps_large_step_operator_sparse(mlp_spec, iris,
                                                        pruned_iris, monkeypatch):
    """A D = 1 111 order-3 system is over the dense cut: kappa runs on the
    CSR S and S^T, and agrees with the dense products."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 3)
    assert M.D == 1111
    G = carlgd.build_global(M, y0, 3)
    kappa = carlgd.condition_number(G, "power_iteration")
    assert all(sp.issparse(op) for op in G._products)
    monkeypatch.setattr(carleman, "_DENSE_BYTES", M.D * M.D * 8)
    G = carlgd.build_global(M, y0, 3)
    assert abs(carlgd.condition_number(G, "power_iteration") - kappa) <= 1e-8 * kappa
    assert isinstance(G._products[0], np.ndarray)


def test_lanczos_overflow_leaves_error_state_unchanged():
    """With S = 1 + 1e100, the dense substitutions overflow at T = 5 and
    the recurrence's w @ w overflows; the floating-point error state after
    kappa is still the caller's."""
    M = carlgd.embed(scalar_field(1e100, 0.0), 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 5)
    assert isinstance(G._products[0], np.ndarray)
    before = np.geterr()
    with pytest.raises(SingularSystemError):
        carlgd.condition_number(G, "power_iteration")
    assert np.geterr() == before


def test_solve_stays_on_csr_after_kappa(mlp_spec, iris, pruned_iris):
    """kappa's dense copy of S leaves `solve` iterating the canonical CSR
    S, bit for bit."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 2)
    G = carlgd.build_global(M, y0, 10)
    carlgd.condition_number(G, "power_iteration")
    assert isinstance(G._products[0], np.ndarray)
    Y = carlgd.solve(G)
    y = y0.copy()
    for t in range(1, 11):
        y = M.step_operator() @ y
        assert np.array_equal(Y[t], y)
    assert M.step_operator() is G.S
