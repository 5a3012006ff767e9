"""Small differentiable models with exact loss/gradient/Hessian evaluation.

Two analytic testbeds (closed-form derivatives) and a multilayer perceptron
with polynomial activations, so the gradient field is an exact polynomial in
the parameters. Loss is mean squared error against one-hot targets:

    L(theta) = (1 / 2S) * sum_s || f(x_s; theta) - y_s ||^2

Hessian-vector products for the MLP use the exact forward-over-reverse
(Pearlmutter) recursion, not finite differences, in one batched kernel.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import util
from .errors import DivergenceError, InputError, NumericOverflowError, ParseError
from .util import block_items, count_text, finite_float, open_input

ANALYTIC_KINDS = ("diag_quadratic", "scalar_cubic")
MODEL_KINDS = ANALYTIC_KINDS + ("mlp",)
ACTIVATIONS = ("identity", "quadratic_poly")


@dataclass
class Dataset:
    """Feature matrix plus integer class labels; one-hot targets derived."""

    features: np.ndarray
    labels: np.ndarray
    one_hot: np.ndarray = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise InputError("features must be a 2-d array")
        if self.features.shape[0] != self.labels.shape[0]:
            raise InputError(
                f"row mismatch: {self.features.shape[0]} feature rows vs "
                f"{self.labels.shape[0]} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise InputError("labels must be non-negative")
        classes = int(self.labels.max()) + 1 if self.labels.size else 0
        self.one_hot = np.zeros((self.labels.shape[0], classes))
        self.one_hot[np.arange(self.labels.shape[0]), self.labels] = 1.0

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_classes(self):
        return self.one_hot.shape[1]

    def subset(self, indices):
        return Dataset(self.features[indices], self.labels[indices])


@dataclass(frozen=True)
class ModelSpec:
    """Which model to evaluate.

    kind: 'diag_quadratic' (L = 1/2 sum c_i theta_i^2),
          'scalar_cubic'   (L = c0 theta^2/2 + c1 theta^4/4),
          'mlp'            (dense layers, polynomial activation, MSE loss).
    layer_widths: input, hidden..., output widths (mlp only).
    activation: 'identity' or 'quadratic_poly' (sigma(x) = x + alpha x^2),
        applied to hidden layers; the output layer is linear.
    coefficients: analytic-testbed coefficients c.
    """

    kind: str
    layer_widths: tuple = ()
    activation: str = "identity"
    alpha: float = 0.1
    loss_kind: str = "mse"
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InputError(f"unknown model kind {self.kind!r}")
        if self.loss_kind != "mse":
            raise InputError(f"unsupported loss {self.loss_kind!r}")
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.kind == "mlp":
            if self.activation not in ACTIVATIONS:
                raise InputError(f"unknown activation {self.activation!r}")
            if len(self.layer_widths) < 2:
                raise InputError("mlp needs at least input and output widths")
            if any(w <= 0 for w in self.layer_widths):
                raise InputError("layer widths must be positive")
        elif self.kind == "diag_quadratic":
            if not self.coefficients:
                raise InputError("diag_quadratic needs coefficients")
        elif self.kind == "scalar_cubic":
            if not self.coefficients:
                object.__setattr__(self, "coefficients", (1.0, 1.0))
            if len(self.coefficients) != 2:
                raise InputError("scalar_cubic takes two coefficients (c0, c1)")

    @property
    def n(self):
        if self.kind == "diag_quadratic":
            return len(self.coefficients)
        if self.kind == "scalar_cubic":
            return 1
        w = self.layer_widths
        return sum((w[i] + 1) * w[i + 1] for i in range(len(w) - 1))

    def grad_degree(self):
        """Polynomial degree of grad L in theta."""
        if self.kind == "diag_quadratic":
            return 1
        if self.kind == "scalar_cubic":
            return 3
        p = 2 if (self.activation == "quadratic_poly" and self.alpha != 0.0) else 1
        deg = 1  # first pre-activation
        for _ in self.layer_widths[2:]:
            deg = p * deg + 1
        return 2 * deg - 1

    def split(self, theta):
        """Unpack flat parameter vectors (last axis) into [(W, b), ...] views."""
        w = self.layer_widths
        out, pos = [], 0
        for i in range(len(w) - 1):
            d_in, d_out = w[i], w[i + 1]
            W = theta[..., pos:pos + d_in * d_out].reshape(
                theta.shape[:-1] + (d_in, d_out))
            pos += d_in * d_out
            b = theta[..., pos:pos + d_out]
            pos += d_out
            out.append((W, b))
        return out


@dataclass
class ParamVector:
    """Flat trainable weights; `mask` marks coordinates kept by pruning
    (masked-out entries must be exactly zero)."""

    values: np.ndarray
    mask: np.ndarray = None

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float).ravel()
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool).ravel()
            if self.mask.shape != self.values.shape:
                raise InputError("mask length does not match values")
            if np.any(self.values[~self.mask] != 0.0):
                raise InputError("masked-out entries must be exactly zero")

    @property
    def n(self):
        return self.values.size

    def free_indices(self):
        if self.mask is None:
            return np.arange(self.n)
        return np.flatnonzero(self.mask)


def _check_inputs(spec, theta, data):
    """Check one parameter vector, or a stack of them along the last axis,
    and the dataset against the model."""
    length = theta.shape[-1] if theta.ndim else theta.size
    if length != spec.n:
        raise InputError(f"parameter length {length} does not match model n={spec.n}")
    if spec.kind == "mlp":
        if data is None or data.n_samples == 0:
            raise InputError("mlp evaluation needs a nonempty dataset")
        if data.features.shape[1] != spec.layer_widths[0]:
            raise InputError(
                f"dataset has {data.features.shape[1]} features, model expects "
                f"{spec.layer_widths[0]}"
            )
        if data.n_classes > spec.layer_widths[-1]:
            raise InputError("more classes than output units")


def _item_values(spec, data):
    """Values of the widest array that one parameter vector, or one
    (point, direction) pair, adds to a batched pass: samples x widest
    layer for an MLP, the parameter count for a testbed."""
    if spec.kind == "mlp":
        return data.n_samples * max(spec.layer_widths)
    return spec.n


def _act(spec, A):
    if spec.activation == "quadratic_poly":
        return A + spec.alpha * A * A
    return A


def _act_d1(spec, A):
    if spec.activation == "quadratic_poly":
        return 1.0 + 2.0 * spec.alpha * A
    return np.ones_like(A)


def _mlp_forward(spec, theta, X):
    """Forward pass; returns pre-activations and activations per layer."""
    layers = spec.split(theta)
    A_list, H_list = [], [X]
    H = X
    for li, (W, b) in enumerate(layers):
        A = H @ W + b[..., None, :]
        A_list.append(A)
        H = _act(spec, A) if li < len(layers) - 1 else A
        H_list.append(H)
    return A_list, H_list


def _loss_value(spec, theta):
    """Loss of an analytic testbed at one parameter vector."""
    if spec.kind == "diag_quadratic":
        c = np.asarray(spec.coefficients)
        return 0.5 * float(np.dot(c, theta * theta))
    c0, c1 = spec.coefficients
    t = theta[0]
    return 0.5 * c0 * t * t + 0.25 * c1 * t ** 4


def _mse(out, data):
    """Loss of the outputs (..., samples, classes), one per leading index."""
    R = out - data.one_hot
    R = R.reshape(R.shape[:-2] + (-1,))
    return 0.5 * np.sum(R * R, axis=-1) / data.n_samples


def _grad_values(spec, theta, data):
    if spec.kind == "diag_quadratic":
        return np.asarray(spec.coefficients) * theta
    if spec.kind == "scalar_cubic":
        c0, c1 = spec.coefficients
        t = theta[0]
        return np.array([c0 * t + c1 * t ** 3])
    _, _, H_list, backward = _reverse_sweep(spec, theta, data)
    out = np.empty(spec.n)
    for H, (G, *_), (gW, gb) in zip(H_list, backward, spec.split(out)):
        gW[...] = H.T @ G
        gb[...] = G.sum(axis=0)
    return out


def _reverse_sweep(spec, theta, data):
    """Backpropagation through the MLP at theta, with any leading axes: the
    layers, the forward pass and each layer li's residual G = dL/dA_li, with
    the contiguous W^T, sigma' of layer li - 1 and G @ W^T (None at li = 0)."""
    layers = spec.split(theta)
    A_list, H_list = _mlp_forward(spec, theta, data.features)
    G = (H_list[-1] - data.one_hot) / data.n_samples
    backward = [None] * len(layers)
    for li in range(len(layers) - 1, 0, -1):
        # contiguous transposes keep the stacked products on BLAS
        Wt = np.ascontiguousarray(np.swapaxes(layers[li][0], -1, -2))
        sprime = _act_d1(spec, A_list[li - 1])
        back = G @ Wt
        backward[li] = G, Wt, sprime, back
        G = back * sprime
    backward[0] = G, None, None, None
    return layers, A_list, H_list, backward


def _hvp_points(spec, thetas, data):
    """What H(thetas[p]) @ v needs of one block of points for any v: the
    points of a testbed; for the MLP, `_reverse_sweep` at them, every
    array with a length-1 direction axis (axis 1)."""
    if spec.kind != "mlp":
        return thetas
    return _reverse_sweep(spec, thetas[:, None], data)


def _hvp_block(spec, point, data, V, out):
    """Write H(theta_p) @ V[k] into out[p, k] for one bounded block, from
    `point`, what `_hvp_points` gave for a block of points theta_p."""
    if spec.kind == "diag_quadratic":
        out[...] = np.asarray(spec.coefficients) * V
        return
    if spec.kind == "scalar_cubic":
        c0, c1 = spec.coefficients
        t = point[:, None, :1]
        out[...] = (c0 + 3.0 * c1 * t * t) * V
        return
    # Pearlmutter forward-over-reverse, broadcast over points (axis 0) and
    # directions (axis 1); arrays that do not depend on one of them keep a
    # length-1 (or missing) axis there.
    layers, A_list, H_list, backward = point
    dirs = spec.split(V)
    n_layers = len(layers)

    RA_list, RH_list = [], [None]
    for li, ((W, _), (U, c)) in enumerate(zip(layers, dirs)):
        RA = H_list[li] @ U
        if li > 0:
            RA += RH_list[li] @ W
        RA += c[..., None, :]
        RA_list.append(RA)
        # backward[li + 1] holds sigma' of layer li
        RH = backward[li + 1][2] * RA if li < n_layers - 1 else RA
        RH_list.append(RH)

    RG = RH_list[-1] / data.n_samples
    ones = np.ones(data.n_samples)
    out_layers = spec.split(out)  # views into out
    for li in range(n_layers - 1, -1, -1):
        (U, _), (rW, rb) = dirs[li], out_layers[li]
        rW[...] = np.swapaxes(H_list[li], -1, -2) @ RG
        rb[...] = ones @ RG
        if li > 0:
            G, Wt, sprime, back = backward[li]
            rW += np.swapaxes(RH_list[li], -1, -2) @ G
            Ut = np.ascontiguousarray(np.swapaxes(U, -1, -2))
            RG = (RG @ Wt + G @ Ut) * sprime
            if spec.activation == "quadratic_poly":
                RG = RG + back * (2.0 * spec.alpha * RA_list[li - 1])


def hvp_batch(spec, points, data, directions):
    """Exact Hessian-vector products over stacks of points and directions.

    `points` is (P, n) and `directions` (K, n); returns (P, K, n) with
    out[p, k] = H(points[p]) @ directions[k]. Closed form for the
    testbeds, forward-over-reverse (Pearlmutter 1994) for the MLP. The
    (point, direction) pairs run in blocks whose widest arrays hold at
    most util.BLOCK_VALUES values (or one pair), so the working set
    follows the budget, not the sample count. A block of points runs its
    forward pass once, for all of its blocks of directions.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    n = spec.n
    if points.shape[1] != n or directions.shape[1] != n:
        raise InputError(f"points and directions need {n} columns, got "
                         f"{points.shape[1]} and {directions.shape[1]}")
    P, K = points.shape[0], directions.shape[0]
    _check_inputs(spec, points, data)
    out = np.empty((P, K, n))
    pairs = block_items(_item_values(spec, data))
    kc = max(1, min(K, pairs))  # at least 1 for K = 0, a range step
    pc = max(1, pairs // kc)
    for p in range(0, P if K else 0, pc):  # no directions, nothing to run
        point = _hvp_points(spec, points[p:p + pc], data)
        for k in range(0, K, kc):
            _hvp_block(spec, point, data, directions[k:k + kc],
                       out[p:p + pc, k:k + kc])
    return out


def _finite(value, name):
    """`value`, or NumericOverflowError when any of it is not finite."""
    if not np.all(np.isfinite(value)):
        raise NumericOverflowError(f"{name} evaluated to a non-finite value")
    return value


def loss(spec, params, data=None):
    """Evaluate L(theta) by the forward pass of `loss_accuracy`; raises
    NumericOverflowError on non-finite values."""
    return _finite(loss_accuracy(spec, params, data)[0], "loss")


def loss_accuracy(spec, params, data):
    """Loss and accuracy from one forward pass: the values of `loss` and
    `accuracy`, except that a non-finite loss is returned, not raised, and
    an analytic testbed's accuracy is NaN. A (rows, n) stack of parameter
    vectors gives two arrays of the rows' values, from one forward pass
    over the stack, in blocks whose widest arrays hold at most
    util.BLOCK_VALUES values (or one row)."""
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    _check_inputs(spec, theta, data)
    rows = np.atleast_2d(theta)
    value, acc = np.empty(len(rows)), np.full(len(rows), np.nan)
    step = block_items(_item_values(spec, data))
    with np.errstate(over="ignore", invalid="ignore"):  # left to the caller
        for r in range(0, len(rows), step):
            block = slice(r, r + step)
            if spec.kind != "mlp":
                value[block] = [_loss_value(spec, t) for t in rows[block]]
                continue
            out = _mlp_forward(spec, rows[block], data.features)[1][-1]
            value[block] = _mse(out, data)
            acc[block] = np.mean(np.argmax(out, axis=-1) == data.labels, axis=-1)
    if theta.ndim < 2:
        return float(value[0]), float(acc[0])
    return value, acc


def grad(spec, params, data=None):
    """Exact gradient of the loss (closed form or backpropagation); raises
    NumericOverflowError on non-finite values."""
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    _check_inputs(spec, theta, data)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
        return _finite(_grad_values(spec, theta, data), "gradient")


def hvp(spec, params, data, v):
    """Exact Hessian-vector product H(theta) @ v, or one per row of a (K, n)
    stack of directions; raises NumericOverflowError on non-finite values."""
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
        return _finite(hvp_batch(spec, theta, data, v)[0].reshape(np.shape(v)),
                       "Hessian-vector product")


def hessian(spec, params, data=None):
    """Dense Hessian: one batched product on the identity directions.

    Rejected above util.MAX_DENSE_ORDER parameters; use hvp / a Lanczos
    estimate at that scale. Raises NumericOverflowError on non-finite values.
    """
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    _check_inputs(spec, theta, data)
    n = theta.size
    if n > util.MAX_DENSE_ORDER:
        raise InputError(f"dense Hessian rejected for n={n} > limit "
                         f"{util.MAX_DENSE_ORDER}; use hvp")
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
        return _finite(hvp_batch(spec, theta, data, np.eye(n))[0].T, "Hessian")


def sgd_reference(spec, params0, data=None, eta=0.1, steps=1, batch=None,
                  noise_seed=None, raise_on_divergence=True):
    """Classical (stochastic) gradient-descent reference trajectory.

    theta(t+1) = theta(t) - eta * grad L(theta(t)), with the gradient taken
    over the full set or a minibatch of `batch` samples per step, drawn
    with `default_rng(noise_seed)`. Masked coordinates stay exactly zero.
    Returns an array of shape (steps+1, n). The run diverges at the first
    step whose theta has an inf or NaN entry or a norm over
    util.DIVERGENCE_BOUND; with raise_on_divergence=False a diverged run
    returns the trajectory up to the last in-bounds step instead.
    """
    if not eta >= 0:  # false for NaN too
        raise InputError(f"eta must be >= 0, got {eta}")
    if steps < 0:
        raise InputError(f"step count must be >= 0, got {count_text(steps)}")
    pv = params0 if isinstance(params0, ParamVector) else ParamVector(np.asarray(params0, float))
    theta = pv.values.copy()
    _check_inputs(spec, theta, data)
    util.check_floats((steps + 1) * theta.size, "{} steps of {} parameters",
                      steps, theta.size)
    mask = pv.mask
    stochastic = batch is not None and data is not None and batch < data.n_samples
    if batch is not None and batch < 1:
        raise InputError(f"batch must be >= 1, got {count_text(batch)}")
    if batch is not None and data is not None and batch > data.n_samples:
        raise InputError(f"batch {count_text(batch)} exceeds {data.n_samples} samples")
    rng = np.random.default_rng(noise_seed) if stochastic else None
    pruned = None if mask is None else ~mask
    traj = np.empty((steps + 1, theta.size))
    traj[0] = theta
    # an overflow in a step is caught by the bound test on theta below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            d = data
            if stochastic:
                idx = rng.choice(data.n_samples, size=batch, replace=False)
                d = data.subset(idx)
            g = _grad_values(spec, theta, d)
            theta = theta - eta * g
            if pruned is not None:
                theta[pruned] = 0.0
            # sqrt(theta . theta) is np.linalg.norm's bits; the test is false
            # for an inf or NaN entry as for a norm over the bound
            if not math.sqrt(theta @ theta) <= util.DIVERGENCE_BOUND:
                if raise_on_divergence:
                    raise DivergenceError(f"trajectory diverged at step {t}", step=t)
                return traj[:t]
            traj[t] = theta
    return traj


def accuracy(spec, params, data):
    """Fraction of samples whose argmax output matches the label."""
    if spec.kind != "mlp":
        raise InputError("accuracy is only defined for mlp models")
    return loss_accuracy(spec, params, data)[1]


def load_iris(path):
    """Load an Iris-style CSV: four float columns then a class-name string.

    A header row is auto-detected (first non-blank row non-numeric).
    Features are finite floats, standardized to zero mean / unit variance
    per column; labels are class names mapped to 0..K-1 in sorted order.
    Blank rows are skipped. A malformed row, or a column whose mean or
    standard deviation is past the float range, raises ParseError naming
    the file.
    """
    rows = []
    with open_input(path, newline="") as f:
        reader, first = csv.reader(f), True
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if first:  # the first non-blank row may be a header
                first = False
                try:
                    float(row[0])
                except ValueError:
                    continue  # header
            if len(row) != 5:
                raise ParseError(f"{path}, line {lineno}: expected 5 columns, "
                                 f"got {len(row)}")
            try:
                feats = [finite_float(c) for c in row[:4]]
            except ValueError:
                raise ParseError(f"{path}, line {lineno}: a feature value is not "
                                 f"a finite number") from None
            rows.append((feats, row[4].strip()))
    if not rows:
        raise ParseError(f"{path}: no data rows found")
    features = np.array([r[0] for r in rows])
    names = sorted({r[1] for r in rows})
    name_to_id = {name: i for i, name in enumerate(names)}
    labels = np.array([name_to_id[r[1]] for r in rows])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mu = features.mean(axis=0)
        sd = features.std(axis=0)
    bad = ~(np.isfinite(mu) & np.isfinite(sd))
    if bad.any():
        raise ParseError(f"{path}: feature column {np.argmax(bad) + 1} has a mean "
                         f"or standard deviation past the float range")
    sd[sd == 0] = 1.0
    return Dataset((features - mu) / sd, labels)


def init_params(spec, seed):
    """Seeded Gaussian initialization; MLP weights scaled by 1/sqrt(fan_in),
    biases zero. Analytic testbeds get standard normal entries."""
    rng = np.random.default_rng(seed)
    if spec.kind != "mlp":
        return ParamVector(rng.standard_normal(spec.n))
    w = spec.layer_widths
    parts = []
    for i in range(len(w) - 1):
        d_in, d_out = w[i], w[i + 1]
        parts.append(rng.standard_normal(d_in * d_out) / np.sqrt(d_in))
        parts.append(np.zeros(d_out))
    return ParamVector(np.concatenate(parts))
