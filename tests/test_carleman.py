import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import carlgd
from carlgd import carleman, pipeline, polyfield, util
from carlgd.errors import (CapacityError, DegenerateStateError,
                           DivergenceError, InputError, NumericError,
                           SingularSystemError)
from conftest import symmetrize_slots


def scalar_field(a, b, anchor=0.0):
    """f(theta) = a*theta + b*theta^3 as a degree-3 field anchored anywhere."""
    spec = carlgd.ModelSpec(kind="scalar_cubic", coefficients=(-a / 0.1, -b / 0.1))
    return carlgd.from_model(spec, None, np.array([anchor]), 3, 0.1)


def random_field(n, degree, seed, density=0.4):
    rng = np.random.default_rng(seed)
    terms = []
    for k in range(degree + 1):
        dense = rng.standard_normal((n, n ** k)) * (rng.random((n, n ** k)) < density)
        terms.append(sp.csr_matrix(symmetrize_slots(dense, k, n)))
    return polyfield.PolyField(n=n, theta_star=np.zeros(n), terms=terms)


# ------------------------------------------------------------------ embed

def test_embed_scalar_cubic_matrix():
    fld = scalar_field(-0.1, -0.1)
    M = carlgd.embed(fld, 3)
    assert not M.include_constant  # no drift at the origin
    S = M.S.toarray()
    want = np.array([[0.9, 0.0, -0.1],
                     [0.0, 0.8, 0.0],
                     [0.0, 0.0, 0.7]])
    np.testing.assert_allclose(S, want, atol=1e-15)


def test_embed_degree_two_blocks():
    fld = random_field(2, 2, seed=0)
    M = carlgd.embed(fld, 2)
    S = M.S.toarray()
    assert M.include_constant
    start = {0: 0, 1: 1, 2: 3}  # the blocks of orders 0, 1, 2, in order

    def block(i, j):
        return S[start[i]:start[i] + 2 ** i, start[j]:start[j] + 2 ** j]

    F1 = fld.terms[1]
    F2 = fld.terms[2]
    I = np.eye(2)
    np.testing.assert_allclose(block(0, 0), [[1.0]])
    np.testing.assert_allclose(block(1, 1), I + F1)
    np.testing.assert_allclose(block(1, 2), F2)
    np.testing.assert_allclose(block(2, 2),
                               np.eye(4) + np.kron(F1, I) + np.kron(I, F1))
    # F2 would target order 3, which is truncated away: the order-2 columns
    # end the matrix, and the order-2 rows hold only the (2,1) and (2,2)
    # blocks, so the (2,3) region is empty
    assert M.D == start[2] + 4
    F0 = fld.terms[0]
    np.testing.assert_allclose(S[start[2]:, :start[2]], np.hstack(
        [np.zeros((4, start[1])), np.kron(F0, I) + np.kron(I, F0)]))


def dense_embed_oracle(fld, N):
    """Brute-force dense construction of the truncated embedding."""
    n = fld.n
    F = fld.terms
    dims = [1] + [n ** j for j in range(1, N + 1)]
    off = np.concatenate([[0], np.cumsum(dims)[:-1]])
    dense = np.zeros((sum(dims), sum(dims)))
    for i in range(1, N + 1):
        for k in range(len(fld.terms)):
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
    fld = random_field(6, 2, seed=1, density=0.25)  # has drift
    M = carlgd.embed(fld, 2)
    assert M.include_constant
    dense = np.eye(M.D) + dense_embed_oracle(fld, 2)
    np.testing.assert_allclose(M.S.toarray(), dense, atol=1e-14)
    assert M.S.nnz == np.count_nonzero(dense)
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
    dense = np.eye(M.D) + dense
    np.testing.assert_allclose(M.S.toarray(), dense, atol=1e-14)
    assert M.S.nnz == np.count_nonzero(dense)


# Values whose sums depend on the order of addition (1e16 + 1 - 1e16) or
# cancel exactly, so the property below sees both.
FIELD_VALUES = np.array([1.0, -1.0, 0.1, -0.3, 2.5e-3, 1e16, -1e16])
ORACLE_MAX_DIM = 128


@st.composite
def sparse_fields(draw):
    """A slot-symmetrized sparse field, with or without drift (F_0), and an
    order whose D stays under ORACLE_MAX_DIM."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    fits = [N for N in range(1, 5) if sum(n ** j for j in range(N + 1)) <= ORACLE_MAX_DIM]
    order = draw(st.sampled_from(fits))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    drift = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = []
    for k in range(degree + 1):
        shape = (n, n ** k)
        dense = rng.choice(FIELD_VALUES, size=shape) * (rng.random(shape) < density)
        if k == 0 and not drift:
            dense[:] = 0.0
        terms.append(sp.csr_matrix(symmetrize_slots(dense, k, n)))
    fld = polyfield.PolyField(n=n, theta_star=np.zeros(n), terms=terms)
    return fld, order


def assert_canonical_csr(X):
    """Row pointers from 0 to nnz, sorted unique in-range column indices in
    every row, no stored zeros, and int32 indices, as scipy keeps them."""
    assert X.indptr.dtype == X.indices.dtype == np.int32
    assert X.indptr.shape == (X.shape[0] + 1,)
    assert X.indptr[0] == 0 and X.indptr[-1] == X.nnz == X.indices.size == X.data.size
    assert np.all(np.diff(X.indptr) >= 0)
    for r in range(X.shape[0]):
        assert np.all(np.diff(X.indices[X.indptr[r]:X.indptr[r + 1]]) > 0)
    assert np.all((0 <= X.indices) & (X.indices < X.shape[1]))
    assert np.all(X.data != 0)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(sparse_fields())
def test_embed_step_operator_equals_dense_oracle_exactly(case):
    fld, order = case
    M = carlgd.embed(fld, order)
    dense = dense_embed_oracle(fld, order)
    assert M.include_constant == (np.count_nonzero(fld.terms[0]) > 0)
    if not M.include_constant:  # with no drift, nothing reaches order 0
        assert not dense[:, 0].any()
        dense = dense[1:, 1:]
    want = np.eye(M.D) + dense  # the oracle also adds the p-terms in order
    assert np.array_equal(M.S.toarray(), want)
    assert M.S.nnz == np.count_nonzero(want)
    assert_canonical_csr(M.S)


def test_embed_capacity_error(monkeypatch):
    fld = random_field(4, 2, seed=2)  # has drift, so the constant block counts
    monkeypatch.setattr(util, "MAX_DIM", 50)
    with pytest.raises(CapacityError) as err:
        carlgd.embed(fld, 3)
    assert err.value.required == 1 + 4 + 16 + 64


@pytest.mark.parametrize("seed", range(6))
def test_embed_raw_key_count_is_exact(monkeypatch, seed):
    """On a field with drift, so with the constant block kept, the raw key
    count that embed checks against MAX_KEYS is the count that
    `_kron_sums` yields: a budget of exactly that count passes, and one
    key less is rejected."""
    rng = np.random.default_rng(seed)
    n, degree = int(rng.choice([1, 2, 3])), int(rng.integers(1, 4))
    order = int(rng.integers(1, 5))
    fld = random_field(n, degree, seed=seed)
    yielded = []
    original = carleman._kron_sums

    def counted(Fk, top, width):
        for keys, vals in original(Fk, top, width):
            yielded.append(keys.size)
            yield keys, vals

    monkeypatch.setattr(carleman, "_kron_sums", counted)
    assert carlgd.embed(fld, order).include_constant
    total = sum(yielded)
    monkeypatch.setattr(util, "MAX_KEYS", total)
    carlgd.embed(fld, order)
    monkeypatch.setattr(util, "MAX_KEYS", total - 1)
    with pytest.raises(CapacityError) as err:
        carlgd.embed(fld, order)
    assert err.value.required == total


def test_embed_key_budget_checked_before_keys_are_written(monkeypatch):
    def no_keys(*args, **kwargs):
        raise AssertionError("keys written before the key budget check")

    monkeypatch.setattr(carleman, "_kron_sums", no_keys)
    monkeypatch.setattr(util, "MAX_KEYS", 10)
    with pytest.raises(CapacityError, match="raw keys"):
        carlgd.embed(random_field(3, 2, seed=1), 3)


def test_embed_keeps_overflowing_sum_as_inf():
    """The order-2 block of F_1 = [[1e308]] sums to 2e308: embed keeps it as
    inf, with no RuntimeWarning, and both κ methods reject the system."""
    fld = polyfield.PolyField(n=1, theta_star=np.zeros(1),
                              terms=[np.zeros((1, 1)), np.array([[1e308]])])
    M = carlgd.embed(fld, 2)
    assert M.S.toarray()[1, 1] == np.inf
    G = carlgd.build_global(M, M.initial_state(np.array([0.5])), 3)
    with pytest.raises(SingularSystemError, match="non-finite entry"):
        carlgd.condition_number(G, "dense_svd")
    with pytest.raises(SingularSystemError, match="sigma_max=inf"):
        carlgd.condition_number(G, "power_iteration")


@pytest.mark.parametrize("n,degree,top", [(1, 3, 6), (2, 3, 4), (3, 2, 3)])
def test_kron_sums_yield_each_term_in_p_order(n, degree, top):
    """K_i, built from K_{i-1}, is i equal chunks, one per term p = 1..i in
    p order; each chunk, sorted, is the nonzeros of I_{n^(p-1)} (x) F_k (x)
    I_{n^(i-p)}, as keys row * width + col. The sums' bits rest on this
    order."""
    fld = random_field(n, degree, seed=n + degree)
    width = n ** (top + degree) + 5  # wider than any block, as in embed
    for k, F in enumerate(fld.terms):
        sums = list(carleman._kron_sums(F, top, width))
        assert len(sums) == top
        for i, (key, val) in enumerate(sums, 1):
            assert key.dtype == np.int64
            assert key.size == val.size == i * n ** (i - 1) * np.count_nonzero(F)
            for p, (k_p, v_p) in enumerate(zip(np.split(key, i), np.split(val, i)), 1):
                term = np.kron(np.kron(np.eye(n ** (p - 1)), F), np.eye(n ** (i - p)))
                rows, cols = np.nonzero(term)
                order = np.argsort(k_p)
                np.testing.assert_array_equal(k_p[order], rows * width + cols)
                assert v_p[order].tobytes() == term[rows, cols].tobytes()


def test_audit_catches_tampering(monkeypatch):
    """embed checks every block's entries against that block's own bounds.
    One entry put just above block (2, 1), in an order-1 row and so inside
    block (1, 1)'s range, or just left of it, in the constant column, is
    rejected with an error that names block (2, 1)."""
    fld = random_field(2, 1, seed=3)
    original = carleman._kron_sums
    for d_row, d_col in ((-1, 0), (0, -1)):
        def tampered(Fk, top, width, d_row=d_row, d_col=d_col):
            for i, (keys, vals) in enumerate(original(Fk, top, width), 1):
                if (i, Fk.shape[1]) == (2, 1):  # block (2, 1), written from F_0
                    keys = np.append(keys, d_row * width + d_col)  # local key
                    vals = np.append(vals, 1.0)
                yield keys, vals

        with monkeypatch.context() as m:
            m.setattr(carleman, "_kron_sums", tampered)
            with pytest.raises(InputError, match=r"block \(2,1\)"):
                carlgd.embed(fld, 2)
    carlgd.embed(fld, 2)  # untampered: accepted


# ----------------------------------------------------------- initial state

def embedded(n, order, theta_star=None):
    """Order-`order` embedding of a linear field with drift on R^n, so with
    the constant block kept, anchored at `theta_star` (zero by default)."""
    fld = random_field(n, 1, seed=8)
    if theta_star is not None:
        fld.theta_star = np.asarray(theta_star, dtype=float)
    M = carlgd.embed(fld, order)
    assert M.include_constant
    return M


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
    kron = np.ones(1)
    for j in range(4):
        block = y[off[j]:off[j] + sizes[j]]
        assert np.count_nonzero(block) == q ** j
        assert block.tobytes() == kron.tobytes()  # bitwise np.kron powers
        kron = np.kron(kron, delta)


def test_upload_stats():
    """Each segment record carries the l2 norm and the nonzero count of its
    upload state. Anchored at the segment start, that state is the
    constant coordinate alone."""
    spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(1.0, 4.0))
    params = carlgd.ParamVector([1.0, 0.5], mask=[True, True])
    sched = carlgd.Schedule(total_steps=4, eta=0.1, reupload_period=2,
                            classical_refine_steps=0, carleman_order=2)
    report = pipeline.run_pipeline(spec, None, sched, params)
    M = pipeline.lift(spec, None, params.values, 1, 0.1, params.mask, 2, 2)
    y0 = M.initial_state(params.values)
    assert np.count_nonzero(y0) == 1
    segs = report.segments
    for dim, norm, nnz in zip(segs["D"], segs["y0_norm"], segs["upload_nnz"]):
        assert dim == M.D == 7
        assert norm == np.linalg.norm(y0) == 1.0
        assert nnz == 1


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
    M = carlgd.embed(fld, 2)
    y0 = M.initial_state(0.1 * np.ones(3))
    G = carlgd.build_global(M, y0, 17)
    Y = carlgd.solve(G)
    S = M.S.toarray()
    y = y0.copy()
    for t in range(1, 18):
        y = S @ y
        assert np.array_equal(Y[t], y)


def test_solve_equals_global_triangular_solve():
    from scipy.sparse.linalg import spsolve_triangular
    fld = scalar_field(-0.2, -0.05, anchor=0.3)
    M = carlgd.embed(fld, 3)
    G = carlgd.build_global(M, M.initial_state(np.array([0.8])), 12)
    L = (sp.identity((G.T + 1) * G.D, format="csr")
         - sp.kron(sp.eye(G.T + 1, k=-1), G.S.to_scipy(), format="csr"))
    b = np.zeros((G.T + 1) * G.D)
    b[:G.D] = G.y0
    z = spsolve_triangular(L.tocsr(), b, lower=True)
    np.testing.assert_allclose(z.reshape(13, -1), carlgd.solve(G),
                               rtol=1e-12, atol=1e-14)


def test_solve_divergence_reports_step(diag_spec):
    fld = scalar_field(2.0, 0.0)  # multiplier 3 per step
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1e300])), 500)
    Y = carlgd.solve(G)  # the finite prefix: 1e300 * 3^t overflows at t = 18
    assert Y.shape == (18, 1) and np.all(np.isfinite(Y))
    with np.errstate(over="ignore"):
        assert not np.isfinite(G.S.toarray() @ Y[-1]).all()
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
    F1 = fld.terms[1]
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
        by_order.append(max(res.records["err_l2"]))
    assert by_order[1] < 0.5 * by_order[0]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# ---------------------------------------------------------------- readout

def drift_lift(theta_star, order=1):
    """The order-`order` lift of a degree-1 field with drift around
    `theta_star`: its states start with the order-0 block, then delta."""
    n = len(theta_star)
    fld = polyfield.PolyField(n=n, theta_star=theta_star,
                              terms=[np.full((n, 1), 0.1), np.zeros((n, n))])
    M = carlgd.embed(fld, order)
    assert M.include_constant
    return M


def test_readout_all_mass_on_constant():
    M = drift_lift([1.5, -2.0], order=2)
    y = np.zeros(7)
    y[0] = 5.0
    res = carlgd.readout(M, y, shots=1000, seed=0)
    np.testing.assert_array_equal(res.params, [1.5, -2.0])


def test_readout_zero_state_rejected():
    with pytest.raises(DegenerateStateError):
        carlgd.readout(drift_lift([0.0], order=3), np.zeros(4), shots=100)


def test_readout_tomography_error_shrinks_with_shots():
    M = drift_lift([0.0, 0.0])
    y = np.array([0.5, 0.3, 0.4])
    means = {}
    for shots in (10 ** 3, 10 ** 5, 10 ** 7):
        errs = [carlgd.readout(M, y, shots=shots, seed=s).linf_error
                for s in range(10)]
        means[shots] = np.mean(errs)
    assert means[10 ** 3] > means[10 ** 5] > means[10 ** 7]
    assert means[10 ** 7] < 1e-2


def test_readout_sign_recovery():
    y = np.array([1.0, -0.6, 0.8])
    res = carlgd.readout(drift_lift([0.0, 0.0]), y, shots=10 ** 6, seed=1)
    assert res.params[0] < 0 < res.params[1]


def test_readout_samples_state_whose_norm_overflows_unscaled():
    y = np.array([1.0, 1e200, 1e200])
    res = carlgd.readout(drift_lift([0.0, 0.0]), y, shots=10 ** 4, seed=0)
    assert np.all(np.isfinite(res.params))
    np.testing.assert_allclose(res.params, [1e200, 1e200], rtol=0.05)
    assert np.isfinite(res.l2_error) and res.l2_error < 0.05 * 1e200


@pytest.mark.parametrize("y", [[1.5e308, 1.5e308, 1.5e308],
                               [1.0, np.inf, 0.0], [1.0, np.nan, 0.0]])
def test_readout_overflowing_or_nonfinite_state_rejected(y):
    with pytest.raises(DegenerateStateError):
        carlgd.readout(drift_lift([0.0, 0.0]), np.array(y), shots=100, seed=0)


def test_readout_of_a_drift_free_lift_reads_the_order_one_block():
    """With no drift the state has no order-0 block, so theta is read from
    its first n entries: the scalar cubic anchored at 0 from theta0 = 0.5
    reads back 0.5, not delta^2 = 0.25."""
    M = carlgd.embed(scalar_field(-0.1, -0.1), 3)
    assert not M.include_constant
    res = carlgd.readout(M, M.initial_state([0.5]), shots=10 ** 6, seed=0)
    assert abs(res.params[0] - 0.5) < 2e-3  # its shot noise is about 1.4e-4


@pytest.mark.parametrize("length", [3, 8])
def test_readout_rejects_a_state_of_another_length(length):
    M = drift_lift([0.0, 0.0], order=2)  # D = 7
    with pytest.raises(InputError, match="state length"):
        carlgd.readout(M, np.ones(length), shots=100, seed=0)


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
    M = carlgd.embed(fld, 2)
    G = carlgd.build_global(M, M.initial_state(np.zeros(3)), 8)
    kd = carlgd.condition_number(G, "dense_svd")
    kp = carlgd.condition_number(G, "power_iteration")
    assert abs(kp - kd) <= 0.05 * kd


def lanczos_cases():
    for a, T in ((-0.5, 12), (-0.2, 25), (0.0, 20)):
        M = carlgd.embed(scalar_field(a, 0.0), 1)
        yield carlgd.build_global(M, M.initial_state(np.array([1.0])), T)
    M = carlgd.embed(random_field(3, 2, seed=6, density=0.3), 2)
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


def test_lanczos_kappa_iteration_cap_raises(monkeypatch):
    M = carlgd.embed(scalar_field(0.0, 0.0), 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 200)
    monkeypatch.setattr(carleman, "_LANCZOS_STEPS", 1)
    with pytest.raises(NumericError):
        carlgd.condition_number(G, "power_iteration")


def test_lanczos_kappa_matches_dense_svd_on_pruned_iris_system(mlp_spec, iris):
    """A D = 111, T = 10 segment system of the pruned Iris pipeline. Its
    two largest squared singular values lie about 0.2% apart, so the
    recurrence, which does not reorthogonalise, must resolve a close gap."""
    pruned = pipeline.prune_topk(
        pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=0), 0.37)
    anchor = pruned.values
    M = pipeline.lift(mlp_spec, iris, anchor, None, 0.05, pruned.mask, 2, 10)
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


def test_lanczos_overflowing_recurrence_gives_inf(monkeypatch):
    """Each apply of 1e308 * ones((2, 2)) is finite, but the top eigenvalue
    is past the float range, and so is alpha_1 from seed 8's start vector:
    the recurrence returns inf and warns about nothing."""
    def apply(v):
        return np.full(2, 1e308 * v.sum())

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(carleman, "_LANCZOS_STEPS", 10)
        assert carleman._lanczos_top(apply, 2, 8) == np.inf


@pytest.mark.parametrize("k", [1, 2, 8, 40])
@pytest.mark.parametrize("scale", [1.0, 2.0 ** -40, 2.0 ** 40])
def test_top_ritz_bitwise_equals_eigh_tridiagonal(k, scale):
    """kappa's convergence test calls LAPACK's stebz and stein directly;
    its theta and s[-1] keep the bits of scipy's wrapper, on Lanczos-like
    tridiagonals (alpha > 0, beta > 0) and their power-of-two multiples."""
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(k)
    for _ in range(5):
        d = scale * rng.uniform(0.5, 4.0, k)
        e = scale * rng.uniform(0.01, 1.0, k - 1)
        theta, s = carleman._top_ritz(d, e)
        want, v = eigh_tridiagonal(d, e, select="i", select_range=(k - 1, k - 1))
        assert bits(theta) == bits(want[0])
        assert bits(s) == bits(v[-1, 0])


def test_singular_system_detected():
    fld = scalar_field(1.5, 0.0)  # multiplier 2.5: sigma_min ~ 2.5^-T
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 60)
    with pytest.raises(SingularSystemError):
        carlgd.condition_number(G, "power_iteration")


def test_dense_svd_rejected_when_too_large(monkeypatch):
    fld = scalar_field(-0.5, 0.0)
    M = carlgd.embed(fld, 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 10)
    monkeypatch.setattr(util, "MAX_DENSE_ORDER", 5)
    with pytest.raises(InputError):
        carlgd.condition_number(G, "dense_svd")


def test_dense_svd_holds_one_copy_of_l():
    """The dense-SVD kappa hands its L to LAPACK without a copy: at
    dim = 2 000 (L = 32 MB) its traced peak stays under 1.5 L, where a
    second copy would make it over 2 L."""
    import scipy.linalg  # noqa: F401 -- its import is not the kappa's memory
    M = carlgd.embed(scalar_field(-0.5, 0.0), 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 1999)
    dim = (G.T + 1) * G.D
    assert dim == 2000
    tracemalloc.start()
    try:
        carlgd.condition_number(G, "dense_svd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dim * dim * 8


@pytest.fixture(scope="module")
def pruned_iris(mlp_spec, iris):
    """Pretrained 4-3-3 Iris weights pruned to 10, as in the pipeline."""
    return pipeline.prune_topk(
        pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=0), 0.37)


def lift_pruned_iris(mlp_spec, iris, pruned, order):
    M = pipeline.lift(mlp_spec, iris, pruned.values, None, 0.05, pruned.mask,
                      order, 0)
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
    S, St = G._S_op, G._St_op
    assert isinstance(S, np.ndarray) is dense
    assert isinstance(St, np.ndarray) is dense
    if dense:
        assert S.flags.c_contiguous and St.flags.c_contiguous
        np.testing.assert_array_equal(S, G.S.toarray())
        np.testing.assert_array_equal(St, G.S.toarray().T)


def test_lanczos_kappa_keeps_large_step_operator_sparse(mlp_spec, iris,
                                                        pruned_iris, monkeypatch):
    """A D = 1 111 order-3 system is over the dense cut: kappa runs on the
    CSR S and S^T, and agrees with the dense products. Its gram takes the
    row-form products Z @ S^T and Z @ S, which have the bits of the
    column-form (S @ Z^T)^T and (S^T @ Z^T)^T that scipy's CSR kernel runs."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 3)
    assert M.D == 1111
    G = carlgd.build_global(M, y0, 3)
    kappa = carlgd.condition_number(G, "power_iteration")
    S, St = G._S_op, G._St_op
    assert sp.issparse(S) and sp.issparse(St)
    Z = np.random.default_rng(0).standard_normal((G.T, G.D))
    assert np.array_equal(bits(Z @ St), bits((S @ Z.T).T))
    assert np.array_equal(bits(Z @ S), bits((St @ Z.T).T))
    monkeypatch.setattr(carleman, "_DENSE_BYTES", M.D * M.D * 8)
    G = carlgd.build_global(M, y0, 3)
    assert abs(carlgd.condition_number(G, "power_iteration") - kappa) <= 1e-8 * kappa
    assert isinstance(G._S_op, np.ndarray)


def test_lanczos_overflow_leaves_error_state_unchanged():
    """With S = 1 + 1e100, the dense substitutions overflow at T = 5 and
    the recurrence's w @ w overflows; the floating-point error state after
    kappa is still the caller's."""
    M = carlgd.embed(scalar_field(1e100, 0.0), 1)
    G = carlgd.build_global(M, M.initial_state(np.array([1.0])), 5)
    assert isinstance(G._S_op, np.ndarray)
    before = np.geterr()
    with pytest.raises(SingularSystemError):
        carlgd.condition_number(G, "power_iteration")
    assert np.geterr() == before


@pytest.mark.parametrize("order, dense", [(2, True), (3, False)])
def test_solve_is_solve_lower_on_the_upload(mlp_spec, iris, pruned_iris,
                                            order, dense):
    """`solve` is one forward substitution on b = (y(0), 0, ..., 0): its
    rows are those of `solve_lower(b)`, bit for bit, on the dense S of the
    D = 111 system and on the scipy S of the D = 1 111 one."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, order)
    assert M.D == (111 if dense else 1111)
    G = carlgd.build_global(M, y0, 6)
    b = np.zeros((G.T + 1) * G.D)
    b[:G.D] = y0
    Y = carlgd.solve(G)
    assert isinstance(G._S_op, np.ndarray) is dense
    assert Y.shape == (G.T + 1, G.D)
    assert np.array_equal(bits(Y), bits(G.solve_lower(b).reshape(Y.shape)))


@pytest.mark.parametrize("order, T", [(2, 10), (3, 2)])
def test_substitutions_match_dense_triangular_solves(mlp_spec, iris, pruned_iris,
                                                     order, T):
    """`solve_lower` and `solve_lower_t`, one loop run forwards and
    backwards, solve L z = w and L^T u = w as LAPACK does on the assembled
    L, on the dense S of the D = 111 system and the scipy S of the D = 1 111
    one."""
    from scipy.linalg import solve_triangular
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, order)
    assert M.D == {2: 111, 3: 1111}[order]
    G = carlgd.build_global(M, y0, T)
    assert isinstance(G._S_op, np.ndarray) is (order == 2)
    D, S = G.D, G.S.toarray()
    L = np.eye((T + 1) * D, order="F")
    for t in range(1, T + 1):
        L[t * D:(t + 1) * D, (t - 1) * D:t * D] -= S
    w = np.random.default_rng(order).standard_normal((T + 1) * D)
    for got, trans in ((G.solve_lower(w), "N"), (G.solve_lower_t(w), "T")):
        want = solve_triangular(L, w, lower=True, trans=trans)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), trans


def test_solve_builds_no_transpose(mlp_spec, iris, pruned_iris):
    """A trajectory solve multiplies by S alone: on a D > 256 system it
    builds no S^T, which only kappa's products ask for."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 3)
    assert M.D * M.D * 8 > carleman._DENSE_BYTES
    G = carlgd.build_global(M, y0, 4)
    carlgd.solve(G)
    assert "_S_op" in vars(G) and "_St_op" not in vars(G)


# ------------------------------------------------- kappa on the swap split

def hessian_field(n, seed):
    """A random order-2 field with drift whose F_1 is symmetric, as the
    Hessian of a loss is, scaled so that kappa stays moderate at T = 8."""
    F0, F1, F2 = random_field(n, 2, seed).terms
    return polyfield.PolyField(n=n, theta_star=np.zeros(n),
                               terms=[0.1 + 0.3 * F0, 0.15 * (F1 + F1.T), 0.3 * F2])


def split_case(kind, arg, mlp_spec, iris, pruned, diag_spec):
    if kind == "iris":  # arg: T
        M, y0 = lift_pruned_iris(mlp_spec, iris, pruned, 2)
        return carlgd.build_global(M, y0, arg)
    if kind == "diag":
        M = pipeline.lift(diag_spec, None, np.array([1.0, 0.5]), None, 0.1,
                          None, 2, 6)
    else:  # arg: n
        M = carlgd.embed(hessian_field(arg, seed=7), 2)
    return carlgd.build_global(M, M.initial_state(M.field.theta_star + 0.1), 8)


@pytest.mark.parametrize("kind, arg", [("iris", 20), ("iris", 10), ("diag", None),
                                       ("random", 2), ("random", 3), ("random", 4)])
def test_split_kappa_matches_dense_svd(kind, arg, mlp_spec, iris, pruned_iris,
                                       diag_spec):
    """On order-2 systems with drift whose F_1 is symmetric, kappa takes
    the swap split and agrees with the dense SVD of the full L."""
    G = split_case(kind, arg, mlp_spec, iris, pruned_iris, diag_spec)
    assert G.sizes[0] == 1 and len(G.sizes) == 3
    assert carleman._swap_split(G) is not None
    kd = carlgd.condition_number(G, "dense_svd")
    kp = carlgd.condition_number(G, "power_iteration")
    assert abs(kp - kd) <= 1e-12 * kd


def lanczos_dims(G, monkeypatch):
    """The dimensions that kappa's two Lanczos recurrences run at."""
    dims = []
    top = carleman._lanczos_top

    def spy(apply, dim, seed):
        dims.append(dim)
        return top(apply, dim, seed)

    with monkeypatch.context() as m:
        m.setattr(carleman, "_lanczos_top", spy)
        carlgd.condition_number(G, "power_iteration")
    return dims


def test_split_recurrences_run_on_the_symmetric_block(mlp_spec, iris,
                                                      pruned_iris, monkeypatch):
    """On the pruned Iris system, n = 10 and D = 111, both recurrences run
    on the symmetric block, 1 + 10 + 55 = 66 wide, at every step."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 2)
    G = carlgd.build_global(M, y0, 20)
    assert lanczos_dims(G, monkeypatch) == [21 * 66] * 2


def test_split_not_taken_off_its_conditions(mlp_spec, iris, pruned_iris,
                                            monkeypatch):
    """The full system keeps both recurrences where the split does not
    apply: an F_1 that is not symmetric (random_field(3, 2, seed=6)), an
    order-3 lift, and the D = 111 system with its S just over the dense
    cut."""
    M = carlgd.embed(random_field(3, 2, seed=6, density=0.3), 2)
    G = carlgd.build_global(M, M.initial_state(np.zeros(3)), 8)
    assert len(G.sizes) == 3 and G.sizes[1] == 3
    assert lanczos_dims(G, monkeypatch) == [9 * G.D] * 2
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 3)
    assert M.D == 1111
    assert lanczos_dims(carlgd.build_global(M, y0, 3), monkeypatch) == [4 * 1111] * 2
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 2)
    monkeypatch.setattr(carleman, "_DENSE_BYTES", M.D * M.D * 8 - 1)
    assert lanczos_dims(carlgd.build_global(M, y0, 10), monkeypatch) == [11 * 111] * 2


def test_split_not_taken_on_a_non_finite_step_operator():
    M = carlgd.embed(hessian_field(3, seed=7), 2)
    M.S.data[0] = np.inf
    G = carlgd.build_global(M, M.initial_state(np.zeros(3)), 8)
    assert carleman._swap_split(G) is None


@pytest.mark.parametrize("T", [1, 10, 20, 200])
@pytest.mark.parametrize("mu", [0.0, 0.5, -0.5, 1.0, -1.0, 1.02])
def test_shift_extremes_match_svdvals(mu, T):
    from scipy.linalg import svdvals
    sig = svdvals(np.eye(T + 1) - mu * np.eye(T + 1, k=-1))
    smax, smin = carleman._shift_extremes(mu, T)
    assert abs(smax - sig[0]) <= 1e-12 * sig[0]
    assert abs(smin - sig[-1]) <= 1e-12 * sig[-1]


def test_shift_extremes_are_monotone_in_abs_mu():
    """The antisymmetric block's extremes are those of its largest |mu|:
    sigma_max of I - mu Z does not fall and sigma_min does not rise as
    |mu| grows, and both depend on |mu| alone."""
    from scipy.linalg import svdvals
    T = 20
    grid = np.linspace(0.0, 1.5, 31)
    sig = np.array([svdvals(np.eye(T + 1) - mu * np.eye(T + 1, k=-1))[[0, -1]]
                    for mu in grid])
    flipped = np.array([svdvals(np.eye(T + 1) + mu * np.eye(T + 1, k=-1))[[0, -1]]
                        for mu in grid])
    np.testing.assert_allclose(flipped, sig, rtol=1e-12)
    assert np.all(np.diff(sig[:, 0]) >= 0) and np.all(np.diff(sig[:, 1]) <= 0)


def system_of(S, sizes, T):
    """The T-step system of a dense S with block layout `sizes`."""
    rows, cols = np.nonzero(S)
    D = S.shape[0]
    return carleman.GlobalSystem(T=T, D=D, y0=np.ones(D), sizes=sizes,
                                 S=carleman.CSR.from_keys(rows * D + cols,
                                                          S[rows, cols], S.shape))


def test_split_kappa_when_the_antisymmetric_block_decides():
    """S = 0.7 I on order 1 and 0.5 I - 0.6 P on order 2, P the swap of
    its slots, with no order-0 block: the symmetric block has multipliers
    0.7 and -0.1, the antisymmetric block 1.1, so both of L's extremes
    come from the closed form at mu = 1.1."""
    P = np.eye(4)[[0, 2, 1, 3]]
    S = np.zeros((6, 6))
    S[:2, :2] = 0.7 * np.eye(2)
    S[2:, 2:] = 0.5 * np.eye(4) - 0.6 * P
    G = system_of(S, (0, 2, 4), 12)
    G_s, amax, amin = carleman._swap_split(G)
    assert G_s.D == 5
    smax, smin = carleman._shift_extremes(1.1, 12)
    assert abs(amax - smax) <= 1e-15 * smax and abs(amin - smin) <= 1e-14 * smin
    kp = carlgd.condition_number(G, "power_iteration")
    assert abs(kp - smax / smin) <= 1e-12 * kp
    kd = carlgd.condition_number(G, "dense_svd")
    assert abs(kp - kd) <= 1e-12 * kd


def swap_commuting_system(skew=0.0):
    """S = 0.7 I on order 1 and 0.5 I + 0.6 P + skew Q_a A Q_a^T on order 2,
    n = 3 with no order-0 block, over T = 30 steps: P is the swap of the
    order-2 slots, and Q_a A Q_a^T a skew part of the antisymmetric block,
    A antisymmetric on the columns (e_ab - e_ba)/sqrt2. Returns (G, S)."""
    n = 3
    P = np.eye(n * n)[[b * n + a for a in range(n) for b in range(n)]]
    Q_a = np.zeros((n * n, 3))  # (e_ab - e_ba)/sqrt2 for (0, 1), (0, 2), (1, 2)
    for k, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
        Q_a[a * n + b, k], Q_a[b * n + a, k] = np.sqrt(0.5), -np.sqrt(0.5)
    A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    S = np.zeros((12, 12))
    S[:3, :3] = 0.7 * np.eye(3)
    S[3:, 3:] = 0.5 * np.eye(9) + 0.6 * P + skew * (Q_a @ A @ Q_a.T)
    return system_of(S, (0, 3, 9), 30), S


@pytest.mark.parametrize("case", ["skew", "ulp"])
def test_any_nonzero_skew_part_sends_kappa_to_the_full_path(case, monkeypatch):
    """The split is exact or refused: the system splits without a skew
    part, but with one of 1e-15 on the antisymmetric block, or with one
    entry off PSP = S by one ulp, it does not, and both recurrences run on
    the 12-wide L."""
    assert carleman._swap_split(swap_commuting_system()[0])[0].D == 3 + 6
    if case == "skew":
        G, _ = swap_commuting_system(skew=1e-15)
    else:
        _, S = swap_commuting_system()
        S[4, 4] = np.nextafter(S[4, 4], 1.0)  # slot (0, 1); (1, 0) keeps 0.5
        G = system_of(S, (0, 3, 9), 30)
    assert carleman._swap_split(G) is None
    assert lanczos_dims(G, monkeypatch) == [31 * 12] * 2
    kd = carlgd.condition_number(G, "dense_svd")
    assert abs(carlgd.condition_number(G, "power_iteration") - kd) <= 1e-12 * kd


@pytest.mark.parametrize("T", [10, 20, 100, 200])
def test_split_holds_at_every_segment_length(T, mlp_spec, iris, pruned_iris,
                                            monkeypatch):
    """On the pruned Iris system both recurrences run on the 66-wide
    symmetric block however long the segment, since from_model's F_1 is
    symmetric in every bit, and kappa matches the full path's."""
    M, y0 = lift_pruned_iris(mlp_spec, iris, pruned_iris, 2)
    G = carlgd.build_global(M, y0, T)
    assert lanczos_dims(G, monkeypatch) == [(T + 1) * 66] * 2
    full = carleman._sigma_max(G, 0) / carleman._sigma_min(G, 1)
    kp = carlgd.condition_number(G, "power_iteration")
    assert abs(kp - full) <= 1e-13 * full
