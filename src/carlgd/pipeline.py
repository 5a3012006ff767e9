"""End-to-end sparse-training pipeline: dense pre-training, magnitude
pruning, segmented Carleman training with periodic download/re-upload, and
optional classical refinement between segments.

Each segment re-anchors the polynomial field at the current parameters
(reduced to the surviving coordinates), runs R forward-Euler Carleman
steps, reads the parameters back out, then takes c exact gradient-descent
steps. Per-step trajectory error is measured against an exact sparse GD
run over the same schedule, so it restarts at zero at every re-upload.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import carleman, models, polyfield
from .errors import (InputError, NumericError, NumericOverflowError,
                     SingularSystemError)
from .util import norm2


@dataclass(frozen=True)
class Schedule:
    """Knobs of a pipeline run."""

    total_steps: int
    eta: float
    reupload_period: int = 100
    classical_refine_steps: int = 10
    carleman_order: int = 2
    prune_fraction: float = 0.10

    def __post_init__(self):
        if self.total_steps < 1:
            raise InputError("total_steps must be >= 1")
        if not (1 <= self.reupload_period <= self.total_steps):
            raise InputError("need 1 <= reupload_period <= total_steps")
        if self.classical_refine_steps < 0:
            raise InputError("classical_refine_steps must be >= 0")
        if self.carleman_order < 1:
            raise InputError("carleman_order must be >= 1")
        if not (0.0 < self.prune_fraction <= 1.0):
            raise InputError("prune_fraction must be in (0, 1]")
        if self.eta <= 0:
            raise InputError("eta must be positive")


@dataclass
class StepRecord:
    step: int
    loss: float
    accuracy: float
    err_l2: float
    err_linf: float
    segment: int
    phase: str  # 'carleman' | 'classical_refine'


@dataclass
class SegmentRecord:
    segment: int
    start_step: int
    kappa: float
    kappa_method: str
    dim: int
    upload_nnz: int
    upload_norm: float


@dataclass
class PipelineReport:
    steps: list
    segments: list
    final: models.ParamVector
    diverged_at: int = None

    def column(self, name):
        return np.array([getattr(r, name) for r in self.steps])


def pretrain(spec, data, steps, eta, batch=None, seed=0, params0=None):
    """Dense classical pre-training; starts from `params0` or a seeded
    initialization and returns the final parameters."""
    if params0 is None:
        params0 = models.init_params(spec, seed)
    if params0.mask is not None:
        raise InputError("pretrain expects dense (unmasked) parameters")
    traj = models.sgd_reference(spec, params0, data, eta=eta, steps=steps,
                                batch=batch, noise_seed=seed)
    return models.ParamVector(traj[-1])


def prune_topk(params, fraction):
    """Keep the ceil(fraction * n) largest-magnitude entries, zero and mask
    the rest. Ties break toward the lower index. Idempotent for a fixed
    fraction."""
    if not (0.0 < fraction <= 1.0):
        raise InputError("prune fraction must be in (0, 1]")
    values = params.values
    n = values.size
    k = math.ceil(fraction * n)
    order = np.argsort(-np.abs(values), kind="stable")
    keep = order[:k]
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    pruned = np.where(mask, values, 0.0)
    return models.ParamVector(pruned, mask=mask)


def _field_degree(spec, order):
    return max(1, min(spec.grad_degree(), order, 3))


def lift(spec, data, anchor, degree, eta, mask, order, max_dim=2_000_000):
    """Field around `anchor` and its order-`order` embedding. The capacity
    is checked from the free dimension and the drift before any Hessian
    is evaluated."""
    idx = np.arange(spec.n) if mask is None else np.flatnonzero(mask)
    drift = bool(np.any(eta * models.grad(spec, anchor, data)[idx]))
    carleman.check_capacity(idx.size, order, drift, max_dim)
    fld = polyfield.from_model(spec, data, anchor, degree, eta, mode="auto",
                               mask=mask)
    return fld, carleman.embed(fld, order, max_dim=max_dim)


def _loss_acc(spec, theta, data):
    """Loss and accuracy of one step; the accuracy is NaN for a model that
    does not classify. A loss that overflows reads inf, to keep reporting
    usable on runs that blow up."""
    if spec.kind == "mlp" and data is not None:
        lv, acc = models.loss_accuracy(spec, theta, data)  # one forward pass
        return (lv if math.isfinite(lv) else float("inf")), acc
    try:
        lv = models.loss(spec, theta, data)
    except NumericOverflowError:
        lv = float("inf")
    return lv, float("nan")


@dataclass
class SimulateResult:
    approx: np.ndarray  # (steps+1, n) Carleman-readout trajectory
    exact: np.ndarray  # (steps+1, n) exact GD from the same start
    records: list  # StepRecord per step
    dim: int  # Carleman dimension D
    field: polyfield.PolyField
    final_state: np.ndarray  # full Carleman state at the last computed step
    has_constant: bool
    diverged_at: int = None


def simulate(spec, data, params0, eta, order, steps, anchor="start",
             degree=None, mask=None, max_dim=2_000_000,
             raise_on_divergence=True):
    """Single-segment Carleman simulation of gradient descent.

    The field is anchored at `anchor`: 'start' (the trajectory start,
    matching the pipeline's re-anchoring), 'zero', or an explicit point.
    Returns approximate and exact trajectories plus per-step records.
    """
    pv = params0 if isinstance(params0, models.ParamVector) \
        else models.ParamVector(np.asarray(params0, float))
    if mask is None:
        mask = pv.mask
    theta0 = pv.values
    if isinstance(anchor, str):
        if anchor == "start":
            anchor_vec = theta0.copy()
        elif anchor == "zero":
            anchor_vec = np.zeros_like(theta0)
        else:
            raise InputError(f"unknown anchor {anchor!r}")
    else:
        anchor_vec = np.asarray(anchor, dtype=float).ravel()
    d = degree if degree is not None else _field_degree(spec, order)
    fld, M = lift(spec, data, anchor_vec, d, eta, mask, order, max_dim)
    idx = np.flatnonzero(mask) if mask is not None else np.arange(spec.n)
    y0 = M.initial_state(theta0[idx])
    G = carleman.build_global(M, y0, steps)
    Y = carleman.solve(G, raise_on_divergence=raise_on_divergence)
    done = Y.shape[0] - 1
    exact = models.sgd_reference(spec, pv, data, eta=eta, steps=done,
                                 raise_on_divergence=raise_on_divergence)
    if exact.shape[0] - 1 < done:  # the exact reference left bounds first
        done = exact.shape[0] - 1
        Y = Y[:done + 1]
    diverged_at = None if done == steps else done + 1
    sl = M.order_one_slice()
    approx = np.zeros((done + 1, spec.n))
    records = []
    for t in range(done + 1):
        th = np.zeros(spec.n)
        th[idx] = fld.theta_star + Y[t, sl]
        approx[t] = th
        diff = th - exact[t]
        lv, acc = _loss_acc(spec, th, data)
        records.append(StepRecord(
            step=t, loss=lv, accuracy=acc,
            err_l2=norm2(diff),
            err_linf=float(np.max(np.abs(diff))),
            segment=0, phase="carleman"))
    return SimulateResult(approx=approx, exact=exact, records=records,
                          dim=M.D, field=fld, final_state=Y[done],
                          has_constant=M.include_constant,
                          diverged_at=diverged_at)


def run_pipeline(spec, data, schedule, params0, seed=0,
                 kappa_method="power_iteration", max_dim=2_000_000):
    """Run the segmented prune/re-upload pipeline from masked parameters.

    Gradients are full batch, so the run is fully deterministic. On
    segment divergence the report is truncated at the failing step and
    `diverged_at` is set.
    """
    if params0.mask is None:
        raise InputError("run_pipeline expects pruned (masked) parameters")
    if params0.n != spec.n:
        raise InputError("parameter length does not match the model")
    mask = params0.mask.copy()
    idx = np.flatnonzero(mask)
    theta = params0.values.copy()
    N = schedule.carleman_order
    d = _field_degree(spec, N)

    lv, acc = _loss_acc(spec, theta, data)
    steps = [StepRecord(step=0, loss=lv, accuracy=acc, err_l2=0.0,
                        err_linf=0.0, segment=0, phase="carleman")]
    segments = []
    steps_done = 0
    seg = 0
    diverged_at = None

    while steps_done < schedule.total_steps and diverged_at is None:
        R = min(schedule.reupload_period, schedule.total_steps - steps_done)
        anchor = theta.copy()
        fld, M = lift(spec, data, anchor, d, schedule.eta, mask, N, max_dim)
        y0 = M.initial_state(anchor[idx])
        G = carleman.build_global(M, y0, R)
        try:
            kappa = carleman.condition_number(G, method=kappa_method, seed=seed)
        except SingularSystemError:
            kappa = float("inf")
        segments.append(SegmentRecord(
            segment=seg, start_step=steps_done, kappa=kappa,
            kappa_method=kappa_method, dim=M.D,
            upload_nnz=int(np.count_nonzero(y0)),
            upload_norm=float(np.linalg.norm(y0))))

        Y = carleman.solve(G, raise_on_divergence=False)
        done = Y.shape[0] - 1
        exact = models.sgd_reference(spec, models.ParamVector(anchor, mask=mask),
                                     data, eta=schedule.eta, steps=done,
                                     raise_on_divergence=False)
        if exact.shape[0] - 1 < done:
            done = exact.shape[0] - 1
            Y = Y[:done + 1]
        sl = M.order_one_slice()
        first_err = None
        for t in range(1, done + 1):
            th = np.zeros(spec.n)
            th[idx] = fld.theta_star + Y[t, sl]
            diff = th - exact[t]
            e2 = norm2(diff)
            if t == 1:
                first_err = e2
            lv, acc = _loss_acc(spec, th, data)
            steps.append(StepRecord(step=steps_done + t, loss=lv, accuracy=acc,
                                    err_l2=e2,
                                    err_linf=float(np.max(np.abs(diff))),
                                    segment=seg, phase="carleman"))
            theta = th
        if done > 0 and first_err != 0.0:
            raise NumericError(
                f"error did not reset at segment {seg} start: {first_err}")
        if done < R:
            diverged_at = steps_done + done + 1
            break
        steps_done += R
        # download: exact readout of the final segment state
        theta = np.zeros(spec.n)
        theta[idx] = carleman.readout(Y[done], fld.theta_star,
                                      has_constant=M.include_constant).params

        c = min(schedule.classical_refine_steps,
                schedule.total_steps - steps_done)
        if c > 0:
            refine = models.sgd_reference(spec, models.ParamVector(theta, mask=mask),
                                          data, eta=schedule.eta, steps=c,
                                          raise_on_divergence=False)
            done_c = refine.shape[0] - 1
            for t in range(1, done_c + 1):
                lv, acc = _loss_acc(spec, refine[t], data)
                steps.append(StepRecord(step=steps_done + t, loss=lv,
                                        accuracy=acc, err_l2=0.0, err_linf=0.0,
                                        segment=seg, phase="classical_refine"))
            theta = refine[-1].copy()
            steps_done += done_c
            if done_c < c:
                diverged_at = steps_done + 1
                break
        seg += 1

    final = models.ParamVector(theta, mask=mask)
    return PipelineReport(steps=steps, segments=segments, final=final,
                          diverged_at=diverged_at)
