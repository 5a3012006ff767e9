import numpy as np
import pytest

import carlgd
from carlgd import models, util
from carlgd.models import ACTIVATIONS
from carlgd.errors import DivergenceError, InputError, ParseError

from conftest import IRIS_CSV


# ---------------------------------------------------------------- loss/grad

def test_loss_diag_quadratic(diag_spec):
    assert carlgd.loss(diag_spec, carlgd.ParamVector([1.0, 1.0])) == 2.5


def test_loss_scalar_cubic_minimum(cubic_spec):
    assert carlgd.loss(cubic_spec, carlgd.ParamVector([0.0])) == 0.0


def test_grad_diag_quadratic(diag_spec):
    g = carlgd.grad(diag_spec, carlgd.ParamVector([2.0, 1.0]))
    np.testing.assert_array_equal(g, [2.0, 4.0])


def test_grad_zero_at_stationary_points(diag_spec, cubic_spec):
    np.testing.assert_array_equal(
        carlgd.grad(diag_spec, carlgd.ParamVector([0.0, 0.0])), [0.0, 0.0])
    np.testing.assert_array_equal(
        carlgd.grad(cubic_spec, carlgd.ParamVector([0.0])), [0.0])


def test_mlp_loss_matches_reference_forward(mlp_spec, iris):
    # independent forward pass written out longhand
    params = carlgd.init_params(mlp_spec, 42)
    theta = params.values
    W1 = theta[:12].reshape(4, 3)
    b1 = theta[12:15]
    W2 = theta[15:24].reshape(3, 3)
    b2 = theta[24:27]
    total = 0.0
    for x, y in zip(iris.features, iris.one_hot):
        a1 = x @ W1 + b1
        h1 = a1 + 0.1 * a1 ** 2
        out = h1 @ W2 + b2
        total += 0.5 * np.sum((out - y) ** 2)
    expected = total / iris.n_samples
    assert abs(carlgd.loss(mlp_spec, params, iris) - expected) < 1e-12


def test_loss_accuracy_equals_separate_calls_bitwise(mlp_spec, cubic_spec,
                                                     iris):
    for seed in range(3):
        theta = carlgd.init_params(mlp_spec, seed).values
        assert models.loss_accuracy(mlp_spec, theta, iris) == (
            carlgd.loss(mlp_spec, theta, iris),
            carlgd.accuracy(mlp_spec, carlgd.ParamVector(theta), iris))
        theta = carlgd.init_params(cubic_spec, seed).values
        lv, acc = models.loss_accuracy(cubic_spec, theta, None)
        assert lv == carlgd.loss(cubic_spec, theta) and np.isnan(acc)


def test_loss_accuracy_of_a_stack_equals_per_row_calls_bitwise(
        mlp_spec, diag_spec, cubic_spec, iris):
    # after 300 finite rows, one row overflows the forward pass (inf loss)
    # and one of mixed signs gives inf - inf (NaN loss); under the suite's
    # error::RuntimeWarning filter a leaked warning fails the call
    rng = np.random.default_rng(3)
    mixed = 1e200 * (-1.0) ** np.arange(mlp_spec.n)
    cases = [(mlp_spec, iris, np.vstack([rng.standard_normal((300, mlp_spec.n)),
                                         np.full(mlp_spec.n, 1e100), mixed])),
             (diag_spec, None, rng.standard_normal((4, 2))),
             (cubic_spec, None, np.array([[0.3], [-2.0], [1e100]]))]
    for spec, data, stack in cases:
        lv, acc = models.loss_accuracy(spec, stack, data)
        rows = [models.loss_accuracy(spec, theta, data) for theta in stack]
        assert lv.shape == acc.shape == (len(stack),)
        assert np.array_equal(lv.view(np.uint64),
                              np.array([r[0] for r in rows]).view(np.uint64))
        assert np.array_equal(acc, [r[1] for r in rows], equal_nan=True)
        assert np.isinf(lv).any() or spec is diag_spec
        assert np.isnan(lv).any() == (spec is mlp_spec)
        assert np.isnan(acc).all() == (spec is not mlp_spec)


def test_accuracy_on_overflowing_forward_pass_warns_nothing(mlp_spec, iris):
    # every weight at 1e160 overflows the forward pass; under the suite's
    # error::RuntimeWarning filter a leaked warning fails the call
    acc = carlgd.accuracy(mlp_spec, np.full(mlp_spec.n, 1e160), iris)
    assert 0.0 <= acc <= 1.0


@pytest.mark.parametrize("evaluate", [
    lambda spec, theta, data: carlgd.loss(spec, theta, data),
    lambda spec, theta, data: carlgd.grad(spec, theta, data),
    lambda spec, theta, data: carlgd.hvp(spec, theta, data, np.ones(spec.n)),
    lambda spec, theta, data: carlgd.hessian(spec, theta, data),
], ids=["loss", "grad", "hvp", "hessian"])
def test_overflow_raises_typed_error_and_warns_nothing(mlp_spec, cubic_spec,
                                                       iris, evaluate):
    # under the suite's error::RuntimeWarning filter a leaked warning fails
    # the call before the typed error is raised
    mlp_point = np.ones(mlp_spec.n)
    mlp_point[0] = 1e200
    for spec, theta, data in ((cubic_spec, np.array([1e200]), None),
                              (mlp_spec, mlp_point, iris)):
        with pytest.raises(models.NumericOverflowError, match="non-finite"):
            evaluate(spec, theta, data)


def test_mlp_grad_matches_finite_differences(mlp_spec, iris):
    rng = np.random.default_rng(0)
    h = 1e-4
    worst = 0.0
    for _ in range(20):
        theta = rng.standard_normal(mlp_spec.n) * 0.5
        g = carlgd.grad(mlp_spec, theta, iris)
        fd = np.empty_like(g)
        for j in range(theta.size):
            tp = theta.copy(); tp[j] += h
            tm = theta.copy(); tm[j] -= h
            fd[j] = (carlgd.loss(mlp_spec, tp, iris)
                     - carlgd.loss(mlp_spec, tm, iris)) / (2 * h)
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
    assert worst < 1e-5


def test_dimension_mismatch_rejected(diag_spec):
    with pytest.raises(InputError):
        carlgd.loss(diag_spec, carlgd.ParamVector([1.0, 2.0, 3.0]))


# ------------------------------------------------------------- hessian/hvp

def test_hessian_diag_quadratic_constant(diag_spec):
    for theta in ([0.0, 0.0], [3.0, -2.0]):
        H = carlgd.hessian(diag_spec, carlgd.ParamVector(theta))
        np.testing.assert_array_equal(H, np.diag([1.0, 4.0]))


def test_hessian_scalar_cubic(cubic_spec):
    H = carlgd.hessian(cubic_spec, carlgd.ParamVector([1.0]))
    assert H.shape == (1, 1) and H[0, 0] == 4.0


def test_mlp_hessian_symmetric_and_hvp_consistent(mlp_spec, iris):
    rng = np.random.default_rng(1)
    theta = rng.standard_normal(mlp_spec.n) * 0.5
    H = carlgd.hessian(mlp_spec, theta, iris)
    assert np.abs(H - H.T).max() < 1e-10
    for _ in range(5):
        v = rng.standard_normal(mlp_spec.n)
        hv = carlgd.hvp(mlp_spec, theta, iris, v)
        assert np.linalg.norm(hv - H @ v) < 1e-8 * np.linalg.norm(H @ v)


def test_hvp_linear_in_direction(mlp_spec, iris):
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(mlp_spec.n) * 0.5
    u = rng.standard_normal(mlp_spec.n)
    v = rng.standard_normal(mlp_spec.n)
    left = carlgd.hvp(mlp_spec, theta, iris, 2.0 * u + v)
    right = 2.0 * carlgd.hvp(mlp_spec, theta, iris, u) \
        + carlgd.hvp(mlp_spec, theta, iris, v)
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)


def test_mlp_hvp_vs_finite_difference_of_grad(iris):
    # includes a deeper net to exercise the layer recursion
    for widths in ((4, 3, 3), (4, 5, 4, 3)):
        spec = carlgd.ModelSpec(kind="mlp", layer_widths=widths,
                                activation="quadratic_poly", alpha=0.1)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(spec.n) * 0.4
        h = 1e-5
        for _ in range(5):
            v = rng.standard_normal(spec.n)
            fd = (carlgd.grad(spec, theta + h * v, iris)
                  - carlgd.grad(spec, theta - h * v, iris)) / (2 * h)
            hv = carlgd.hvp(spec, theta, iris, v)
            assert np.linalg.norm(hv - fd) < 1e-4 * np.linalg.norm(fd)


@pytest.mark.parametrize("widths", [(4, 3, 3), (4, 5, 4, 3), (4, 3)])
def test_hvp_batch_matches_hessian_and_single_products(iris, widths,
                                                       monkeypatch):
    spec = carlgd.ModelSpec(kind="mlp", layer_widths=widths,
                            activation="quadratic_poly", alpha=0.1)
    rng = np.random.default_rng(13)
    points = rng.standard_normal((3, spec.n)) * 0.5
    dirs = rng.standard_normal((5, spec.n))
    # blocks of 4 pairs split both the points and the directions
    monkeypatch.setattr(util, "BLOCK_VALUES",
                        4 * models._item_values(spec, iris))
    out = models.hvp_batch(spec, points, iris, dirs)
    assert out.shape == (3, 5, spec.n)
    for p, theta in enumerate(points):
        H = carlgd.hessian(spec, theta, iris)
        scale = np.abs(H).max()
        assert np.abs(H - H.T).max() <= 1e-13 * scale
        for k, v in enumerate(dirs):
            single = carlgd.hvp(spec, theta, iris, v)
            assert np.linalg.norm(out[p, k] - single) \
                <= 1e-13 * np.linalg.norm(single)
            assert np.linalg.norm(out[p, k] - H @ v) \
                <= 1e-13 * np.linalg.norm(single)


def test_blocking_keeps_every_bit(mlp_spec, diag_spec, cubic_spec, iris,
                                  monkeypatch):
    """hvp_batch and loss_accuracy give the same bits with one item a block
    as under the default budget, where each call is one block, and as with
    three, where one block of points serves several blocks of directions;
    non-finite rows included, and with no directions or no rows at all."""
    rng = np.random.default_rng(5)
    wide = carlgd.ModelSpec(kind="mlp", layer_widths=(4, 6, 3),
                            activation="identity")
    deep = carlgd.ModelSpec(kind="mlp", layer_widths=(4, 5, 4, 3),
                            activation="quadratic_poly", alpha=0.1)
    cases = [(mlp_spec, iris), (wide, iris), (deep, iris), (diag_spec, None),
             (cubic_spec, None)]
    for spec, data in cases:
        points = rng.standard_normal((3, spec.n))
        dirs = rng.standard_normal((7, spec.n))
        rows = np.vstack([rng.standard_normal((5, spec.n)),
                          np.full(spec.n, 1e100)])
        with np.errstate(over="ignore", invalid="ignore"):
            results = []
            for budget in (util.BLOCK_VALUES, 1,
                           3 * models._item_values(spec, data)):
                monkeypatch.setattr(util, "BLOCK_VALUES", budget)
                results.append([models.hvp_batch(spec, points, data, dirs),
                                *models.loss_accuracy(spec, rows, data)])
                empty = models.hvp_batch(spec, points, data,
                                         np.zeros((0, spec.n)))
                assert empty.shape == (3, 0, spec.n)
                lv, acc = models.loss_accuracy(spec, np.zeros((0, spec.n)),
                                               data)
                assert lv.shape == acc.shape == (0,)
        for one_block, *blocked in zip(*results):
            for other in blocked:
                assert one_block.tobytes() == other.tobytes()


def test_blocks_hold_at_most_the_budget(mlp_spec, diag_spec, iris,
                                        monkeypatch):
    """Every block of hvp_batch and of loss_accuracy's stacked forward pass
    holds at most util.BLOCK_VALUES values in its widest arrays, or one
    item when one item is over the budget."""
    blocks = []
    hvp_block, forward = models._hvp_block, models._mlp_forward

    def hvp_spy(spec, point, data, V, out):
        blocks.append(out.shape[0] * out.shape[1])
        hvp_block(spec, point, data, V, out)

    def forward_spy(spec, theta, X):
        blocks.append(len(theta))
        return forward(spec, theta, X)

    rng = np.random.default_rng(2)
    for spec, data in ((mlp_spec, iris), (diag_spec, None)):
        item = models._item_values(spec, data)
        assert item == (iris.n_samples * 4 if data else spec.n)
        for budget in (1, item - 1, item, 3 * item + 1, 16 * item):
            monkeypatch.setattr(util, "BLOCK_VALUES", budget)
            largest = max(1, budget // item)
            blocks.clear()
            monkeypatch.setattr(models, "_hvp_block", hvp_spy)
            models.hvp_batch(spec, rng.standard_normal((3, spec.n)), data,
                             rng.standard_normal((5, spec.n)))
            monkeypatch.setattr(models, "_hvp_block", hvp_block)
            assert sum(blocks) == 15 and max(blocks) <= largest, blocks
            if spec is mlp_spec:
                blocks.clear()
                monkeypatch.setattr(models, "_mlp_forward", forward_spy)
                models.loss_accuracy(spec, rng.standard_normal((20, spec.n)),
                                     data)
                monkeypatch.setattr(models, "_mlp_forward", forward)
                assert sum(blocks) == 20 and max(blocks) <= largest, blocks
                assert len(blocks) == -(-20 // largest)


def test_hvp_batch_runs_each_point_block_forward_once(mlp_spec, iris,
                                                     monkeypatch):
    """The forward pass and the point-only backward arrays of a block of
    points are computed once and shared by all its blocks of directions:
    at two pairs a block, 3 points x 27 directions take 3 forward passes
    for 42 blocks."""
    forward, hvp_block = models._mlp_forward, models._hvp_block
    calls = {"forward": 0, "block": 0}

    def forward_spy(spec, theta, X):
        calls["forward"] += 1
        return forward(spec, theta, X)

    def block_spy(*args):
        calls["block"] += 1
        hvp_block(*args)

    monkeypatch.setattr(models, "_mlp_forward", forward_spy)
    monkeypatch.setattr(models, "_hvp_block", block_spy)
    monkeypatch.setattr(util, "BLOCK_VALUES",
                        2 * models._item_values(mlp_spec, iris))
    points = np.random.default_rng(4).standard_normal((3, mlp_spec.n))
    models.hvp_batch(mlp_spec, points, iris, np.eye(mlp_spec.n))
    assert calls == {"forward": 3, "block": 3 * 14}


def _grad_by_layers(spec, theta, data):
    """The MLP gradient by the per-layer formula: backpropagation into a
    list of per-layer arrays, concatenated at the end."""
    layers = spec.split(theta)
    A_list, H_list = models._mlp_forward(spec, theta, data.features)
    G = (H_list[-1] - data.one_hot) / data.n_samples
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        W, _ = layers[li]
        grads[li] = (H_list[li].T @ G, G.sum(axis=0))
        if li > 0:
            G = (G @ W.T) * models._act_d1(spec, A_list[li - 1])
    return np.concatenate([np.concatenate([gW.ravel(), gb])
                           for gW, gb in grads])


def test_grad_in_place_matches_per_layer_formula_bitwise(iris):
    """2 000 random points over four MLP shapes, both activations and
    scales from 1e-3 to 30: the in-place gradient has the bits of the
    per-layer formula."""
    rng = np.random.default_rng(11)
    for widths in ((4, 3, 3), (4, 5, 4, 3), (4, 3), (4, 6, 3)):
        for activation in ACTIVATIONS:
            spec = carlgd.ModelSpec(kind="mlp", layer_widths=widths,
                                    activation=activation, alpha=0.1)
            for _ in range(250):
                scale = 10.0 ** rng.uniform(-3, np.log10(30))
                theta = rng.standard_normal(spec.n) * scale
                with np.errstate(over="ignore", invalid="ignore"):
                    got = models._grad_values(spec, theta, iris)
                    want = _grad_by_layers(spec, theta, iris)
                assert got.view(np.uint64).tobytes() \
                    == want.view(np.uint64).tobytes()


def test_hvp_batch_testbeds_closed_form(diag_spec, cubic_spec):
    out = models.hvp_batch(diag_spec, [[0.0, 0.0], [3.0, -2.0]], None,
                           np.eye(2))
    np.testing.assert_array_equal(out, [np.diag([1.0, 4.0])] * 2)
    out = models.hvp_batch(cubic_spec, [[1.0], [2.0]], None, [[1.0], [0.5]])
    np.testing.assert_array_equal(out[:, :, 0], [[4.0, 2.0], [13.0, 6.5]])


def test_hvp_batch_rejects_wrong_widths(mlp_spec, iris):
    with pytest.raises(InputError):
        models.hvp_batch(mlp_spec, np.zeros((2, mlp_spec.n)), iris,
                         np.zeros((1, mlp_spec.n - 1)))


def test_dense_hessian_rejected_above_limit(mlp_spec, iris, monkeypatch):
    monkeypatch.setattr(util, "MAX_DENSE_ORDER", 10)
    with pytest.raises(InputError):
        carlgd.hessian(mlp_spec, carlgd.init_params(mlp_spec, 0), iris)


# ------------------------------------------------------------------- sgd

def test_sgd_one_step_diag(diag_spec):
    traj = carlgd.sgd_reference(diag_spec, carlgd.ParamVector([1.0, 1.0]),
                                eta=0.1, steps=1)
    np.testing.assert_allclose(traj[1], [0.9, 0.6], rtol=0, atol=1e-15)


def test_sgd_eta_zero_is_identity(diag_spec):
    traj = carlgd.sgd_reference(diag_spec, carlgd.ParamVector([1.0, 1.0]),
                                eta=0.0, steps=7)
    assert np.array_equal(traj[-1], [1.0, 1.0])


def test_sgd_full_batch_bitwise_deterministic(mlp_spec, iris):
    p0 = carlgd.init_params(mlp_spec, 5)
    a = carlgd.sgd_reference(mlp_spec, p0, iris, eta=0.05, steps=30)
    b = carlgd.sgd_reference(mlp_spec, p0, iris, eta=0.05, steps=30)
    assert np.array_equal(a, b)


def test_sgd_minibatch_seeded(mlp_spec, iris):
    p0 = carlgd.init_params(mlp_spec, 5)
    a = carlgd.sgd_reference(mlp_spec, p0, iris, eta=0.05, steps=10,
                             batch=32, noise_seed=11)
    b = carlgd.sgd_reference(mlp_spec, p0, iris, eta=0.05, steps=10,
                             batch=32, noise_seed=11)
    c = carlgd.sgd_reference(mlp_spec, p0, iris, eta=0.05, steps=10,
                             batch=32, noise_seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sgd_masked_coordinates_stay_zero(mlp_spec, iris):
    mask = np.zeros(mlp_spec.n, dtype=bool)
    mask[[0, 5, 20, 26]] = True
    values = np.zeros(mlp_spec.n)
    values[mask] = [0.3, -0.2, 0.4, 0.1]
    traj = carlgd.sgd_reference(mlp_spec, carlgd.ParamVector(values, mask=mask),
                                iris, eta=0.05, steps=25)
    assert np.all(traj[:, ~mask] == 0.0)


def test_sgd_divergence_reports_step(diag_spec):
    with pytest.raises(DivergenceError) as err:
        carlgd.sgd_reference(diag_spec, carlgd.ParamVector([1.0, 1.0]),
                             eta=1.0, steps=100)
    assert err.value.step > 0


# theta doubles each step (eta = 1 on the loss -|theta|^2 / 2), so a start
# of bound / 8 reaches the bound 1e8 itself at step 3
DOUBLING = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(-1.0, -1.0))


@pytest.mark.parametrize("start, diverged_at", [
    ([1e8 / 8, 0.0], None),  # norm exactly 1e8 at step 3: in bounds
    ([6e7 / 8, 8e7 / 8], None),  # (6e7, 8e7): norm exactly 1e8 at step 3
    ([np.nextafter(1e8 / 8, np.inf), 0.0], 3),  # the next float up
    ([1e200, 0.0], 1),  # finite, but its dot product overflows
    ([np.inf, 0.0], 1),
    ([0.0, -np.inf], 1),
    ([np.nan, 0.0], 1),
])
def test_sgd_divergence_step_at_the_bound(start, diverged_at):
    """A run diverges at the first step whose theta has a norm over
    1e8 or an inf or NaN entry: a norm of exactly 1e8 is in bounds."""
    p0 = carlgd.ParamVector(np.array(start))
    traj = carlgd.sgd_reference(DOUBLING, p0, eta=1.0, steps=3,
                                raise_on_divergence=False)
    assert traj.shape[0] == (diverged_at or 4)
    if diverged_at is None:
        assert np.linalg.norm(traj[-1]) == 1e8
        return
    with pytest.raises(DivergenceError) as err:
        carlgd.sgd_reference(DOUBLING, p0, eta=1.0, steps=3)
    assert err.value.step == diverged_at


def test_sgd_divergence_bound_is_read_when_the_run_starts(monkeypatch):
    """The bound is util.DIVERGENCE_BOUND as the run reads it: at 1e8 / 4,
    a start of 1e8 / 8 is on the bound at step 1 and past it at step 2."""
    monkeypatch.setattr(util, "DIVERGENCE_BOUND", 1e8 / 4)
    traj = carlgd.sgd_reference(DOUBLING, carlgd.ParamVector([1e8 / 8, 0.0]),
                                eta=1.0, steps=3, raise_on_divergence=False)
    assert traj.shape[0] == 2


def test_iris_gd_loss_decreases_and_matches_independent_loop(mlp_spec, iris):
    p0 = carlgd.init_params(mlp_spec, 0)
    traj = carlgd.sgd_reference(mlp_spec, p0, iris, eta=0.05, steps=100)
    losses = [carlgd.loss(mlp_spec, traj[t], iris) for t in range(101)]
    assert all(losses[t + 1] < losses[t] for t in range(100))
    # independent update loop
    theta = p0.values.copy()
    for _ in range(100):
        theta = theta - 0.05 * carlgd.grad(mlp_spec, theta, iris)
    assert np.array_equal(theta, traj[-1])


# ------------------------------------------------------------------ data

def test_load_iris_canonical(iris):
    assert iris.features.shape == (150, 4)
    assert iris.n_classes == 3
    assert all((iris.labels == c).sum() == 50 for c in range(3))
    np.testing.assert_allclose(iris.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(iris.features.std(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(iris.one_hot.sum(axis=1), 1.0)


def test_load_iris_without_header(tmp_path):
    src = IRIS_CSV.read_text().splitlines()[1:]
    path = tmp_path / "noheader.csv"
    path.write_text("\n".join(src) + "\n")
    data = carlgd.load_iris(path)
    assert data.features.shape == (150, 4)


def test_load_iris_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("5.1,3.5,1.4,0.2,setosa\n5.0,oops,1.4,0.2,setosa\n")
    with pytest.raises(ParseError, match="line 2"):
        carlgd.load_iris(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_load_iris_non_finite_feature_reports_file_and_line(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"5.1,3.5,1.4,0.2,setosa\n5.0,{value},1.4,0.2,setosa\n")
    with pytest.raises(ParseError) as err:
        carlgd.load_iris(path)
    assert str(err.value).startswith(f"{path}, line 2: ")


def test_load_iris_column_past_the_float_range_rejected(tmp_path):
    """A 1e308 feature squares past the float range in the standard
    deviation: the column is rejected, with no overflow warning."""
    path = tmp_path / "big.csv"
    path.write_text("5.1,3.5,1.4,0.2,setosa\n5.0,1e308,1.4,0.2,setosa\n")
    with pytest.raises(ParseError) as err:
        carlgd.load_iris(path)
    assert str(err.value).startswith(f"{path}: feature column 2 ")


def test_load_iris_header_after_blank_lines(tmp_path, iris):
    """The header is the first non-blank row, wherever it sits."""
    path = tmp_path / "iris.csv"
    path.write_text("\n \n" + IRIS_CSV.read_text())
    loaded = carlgd.load_iris(path)
    assert np.array_equal(loaded.features, iris.features)
    assert np.array_equal(loaded.labels, iris.labels)


def test_load_iris_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        carlgd.load_iris(path)


def test_init_params_deterministic(mlp_spec):
    a = carlgd.init_params(mlp_spec, 9)
    b = carlgd.init_params(mlp_spec, 9)
    c = carlgd.init_params(mlp_spec, 10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_param_vector_rejects_nonzero_masked():
    with pytest.raises(InputError):
        carlgd.ParamVector([1.0, 2.0], mask=[True, False])


def test_grad_degree(mlp_spec, diag_spec, cubic_spec):
    assert diag_spec.grad_degree() == 1
    assert cubic_spec.grad_degree() == 3
    assert mlp_spec.grad_degree() == 5
    linear = carlgd.ModelSpec(kind="mlp", layer_widths=(4, 3, 3),
                              activation="identity")
    assert linear.grad_degree() == 3
