"""Small differentiable models with exact loss/gradient/Hessian evaluation.

Two analytic testbeds (closed-form derivatives) and a multilayer perceptron
with polynomial activations, so the gradient field is an exact polynomial in
the parameters. Loss is mean squared error against one-hot targets:

    L(theta) = (1 / 2S) * sum_s || f(x_s; theta) - y_s ||^2

Hessian-vector products for the MLP use the exact forward-over-reverse
(Pearlmutter) recursion, not finite differences, in one batched kernel.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InputError, NumericOverflowError, ParseError

ANALYTIC_KINDS = ("diag_quadratic", "scalar_cubic")
MODEL_KINDS = ANALYTIC_KINDS + ("mlp",)
ACTIVATIONS = ("identity", "quadratic_poly")
_BATCH_PAIRS = 64  # (point, direction) pairs per forward-over-reverse block


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
    if theta.size != spec.n:
        raise InputError(f"parameter length {theta.size} does not match model n={spec.n}")
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


def _loss_value(spec, theta, data):
    if spec.kind == "diag_quadratic":
        c = np.asarray(spec.coefficients)
        return 0.5 * float(np.dot(c, theta * theta))
    if spec.kind == "scalar_cubic":
        c0, c1 = spec.coefficients
        t = theta[0]
        return 0.5 * c0 * t * t + 0.25 * c1 * t ** 4
    _, H_list = _mlp_forward(spec, theta, data.features)
    return _mse(H_list[-1], data)


def _mse(out, data):
    R = out - data.one_hot
    return 0.5 * float(np.sum(R * R)) / data.n_samples


def _grad_values(spec, theta, data):
    if spec.kind == "diag_quadratic":
        return np.asarray(spec.coefficients) * theta
    if spec.kind == "scalar_cubic":
        c0, c1 = spec.coefficients
        t = theta[0]
        return np.array([c0 * t + c1 * t ** 3])
    layers = spec.split(theta)
    A_list, H_list = _mlp_forward(spec, theta, data.features)
    S = data.n_samples
    G = (H_list[-1] - data.one_hot) / S
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        W, _ = layers[li]
        gW = H_list[li].T @ G
        gb = G.sum(axis=0)
        grads[li] = (gW, gb)
        if li > 0:
            G = (G @ W.T) * _act_d1(spec, A_list[li - 1])
    return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])


def _hvp_block(spec, thetas, data, V, out):
    """Write H(thetas[p]) @ V[k] into out[p, k] for one bounded block."""
    if spec.kind == "diag_quadratic":
        out[...] = np.asarray(spec.coefficients) * V
        return
    if spec.kind == "scalar_cubic":
        c0, c1 = spec.coefficients
        t = thetas[:, None, :1]
        out[...] = (c0 + 3.0 * c1 * t * t) * V
        return
    # Pearlmutter forward-over-reverse, broadcast over points (axis 0) and
    # directions (axis 1); arrays that do not depend on one of them keep a
    # length-1 (or missing) axis there.
    layers = spec.split(thetas[:, None])
    dirs = spec.split(V)
    A_list, H_list = _mlp_forward(spec, thetas[:, None], data.features)
    S = data.n_samples
    n_layers = len(layers)

    RA_list, RH_list = [], [None]
    for li, ((W, _), (U, c)) in enumerate(zip(layers, dirs)):
        RA = H_list[li] @ U
        if li > 0:
            RA = RH_list[li] @ W + RA
        RA = RA + c[..., None, :]
        RA_list.append(RA)
        RH = _act_d1(spec, A_list[li]) * RA if li < n_layers - 1 else RA
        RH_list.append(RH)

    G = (H_list[-1] - data.one_hot) / S
    RG = RH_list[-1] / S
    ones = np.ones(S)
    out_layers = spec.split(out)  # views into out
    for li in range(n_layers - 1, -1, -1):
        (W, _), (U, _), (rW, rb) = layers[li], dirs[li], out_layers[li]
        rW[...] = np.swapaxes(H_list[li], -1, -2) @ RG
        rb[...] = ones @ RG
        if li > 0:
            rW += np.swapaxes(RH_list[li], -1, -2) @ G
            # contiguous transposes keep the stacked products on BLAS
            Wt = np.ascontiguousarray(np.swapaxes(W, -1, -2))
            Ut = np.ascontiguousarray(np.swapaxes(U, -1, -2))
            sprime = _act_d1(spec, A_list[li - 1])
            back = G @ Wt
            RG = (RG @ Wt + G @ Ut) * sprime
            if spec.activation == "quadratic_poly":
                RG = RG + back * (2.0 * spec.alpha * RA_list[li - 1])
            G = back * sprime


def hvp_batch(spec, points, data, directions):
    """Exact Hessian-vector products over stacks of points and directions.

    `points` is (P, n) and `directions` (K, n); returns (P, K, n) with
    out[p, k] = H(points[p]) @ directions[k]. Closed form for the
    testbeds, forward-over-reverse (Pearlmutter 1994) for the MLP. The
    (point, direction) pairs are processed in blocks of at most
    _BATCH_PAIRS, so the working set stays bounded.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    n = spec.n
    if points.shape[1] != n or directions.shape[1] != n:
        raise InputError(f"points and directions need {n} columns, got "
                         f"{points.shape[1]} and {directions.shape[1]}")
    P, K = points.shape[0], directions.shape[0]
    _check_inputs(spec, points[0] if P else np.zeros(n), data)
    out = np.empty((P, K, n))
    kc = max(1, min(K, _BATCH_PAIRS))
    pc = max(1, _BATCH_PAIRS // kc)
    for p in range(0, P, pc):
        for k in range(0, K, kc):
            _hvp_block(spec, points[p:p + pc], data, directions[k:k + kc],
                       out[p:p + pc, k:k + kc])
    return out


def loss(spec, params, data=None):
    """Evaluate L(theta); raises NumericOverflowError on non-finite values."""
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    _check_inputs(spec, theta, data)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as the error below
        value = _loss_value(spec, theta, data)
    if not np.isfinite(value):
        raise NumericOverflowError("loss evaluated to a non-finite value")
    return value


def loss_accuracy(spec, params, data):
    """An MLP's loss and accuracy from one forward pass: the values of
    `loss` and `accuracy`, except that a non-finite loss is returned, not
    raised."""
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    _check_inputs(spec, theta, data)
    with np.errstate(over="ignore", invalid="ignore"):  # left to the caller
        out = _mlp_forward(spec, theta, data.features)[1][-1]
        value = _mse(out, data)
    return value, float(np.mean(np.argmax(out, axis=1) == data.labels))


def grad(spec, params, data=None):
    """Exact gradient of the loss (closed form or backpropagation)."""
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    _check_inputs(spec, theta, data)
    g = _grad_values(spec, theta, data)
    if not np.all(np.isfinite(g)):
        raise NumericOverflowError("gradient evaluated to a non-finite value")
    return g


def hvp(spec, params, data, v):
    """Exact Hessian-vector product H(theta) @ v."""
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    return hvp_batch(spec, theta, data, np.ravel(v))[0, 0]


def hessian(spec, params, data=None, dense_limit=4096):
    """Dense Hessian: one batched product on the identity directions.

    Rejected above `dense_limit` parameters; use hvp / a Lanczos estimate
    instead at that scale.
    """
    theta = params.values if isinstance(params, ParamVector) else np.asarray(params, float)
    _check_inputs(spec, theta, data)
    n = theta.size
    if n > dense_limit:
        raise InputError(
            f"dense Hessian rejected for n={n} > limit {dense_limit}; use hvp"
        )
    return hvp_batch(spec, theta, data, np.eye(n))[0].T


def sgd_reference(spec, params0, data=None, eta=0.1, steps=1, batch=None,
                  noise_seed=None, divergence_bound=1e8,
                  raise_on_divergence=True):
    """Classical (stochastic) gradient-descent reference trajectory.

    theta(t+1) = theta(t) - eta * grad L(theta(t)), with the gradient taken
    over the full set or a minibatch of `batch` samples per step, drawn
    with `default_rng(noise_seed)`. Masked coordinates stay exactly zero.
    Returns an array of shape (steps+1, n); with raise_on_divergence=False
    a diverged run returns the trajectory up to the last in-bounds step
    instead.
    """
    if eta < 0:
        raise InputError("eta must be >= 0")
    if steps < 0:
        raise InputError(f"step count must be >= 0, got {steps}")
    pv = params0 if isinstance(params0, ParamVector) else ParamVector(np.asarray(params0, float))
    theta = pv.values.copy()
    _check_inputs(spec, theta, data)
    mask = pv.mask
    stochastic = batch is not None and data is not None and batch < data.n_samples
    if batch is not None and batch < 1:
        raise InputError(f"batch must be >= 1, got {batch}")
    if batch is not None and data is not None and batch > data.n_samples:
        raise InputError(f"batch {batch} exceeds {data.n_samples} samples")
    rng = np.random.default_rng(noise_seed) if stochastic else None
    traj = np.empty((steps + 1, theta.size))
    traj[0] = theta
    for t in range(1, steps + 1):
        d = data
        if stochastic:
            idx = rng.choice(data.n_samples, size=batch, replace=False)
            d = data.subset(idx)
        g = _grad_values(spec, theta, d)
        theta = theta - eta * g
        if mask is not None:
            theta[~mask] = 0.0
        if not np.all(np.isfinite(theta)) or np.linalg.norm(theta) > divergence_bound:
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

    A header row is auto-detected (first row non-numeric). Features are
    standardized to zero mean / unit variance per column; labels are class
    names mapped to 0..K-1 in sorted order.
    """
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if lineno == 1:
                try:
                    float(row[0])
                except (ValueError, IndexError):
                    continue  # header
            if len(row) != 5:
                raise ParseError(f"line {lineno}: expected 5 columns, got {len(row)}")
            try:
                feats = [float(c) for c in row[:4]]
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric feature value")
            rows.append((feats, row[4].strip()))
    if not rows:
        raise ParseError("no data rows found")
    features = np.array([r[0] for r in rows])
    names = sorted({r[1] for r in rows})
    name_to_id = {name: i for i, name in enumerate(names)}
    labels = np.array([name_to_id[r[1]] for r in rows])
    mu = features.mean(axis=0)
    sd = features.std(axis=0)
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
