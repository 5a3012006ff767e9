"""End-to-end sparse-training pipeline: dense pre-training, magnitude
pruning, segmented Carleman training with periodic download/re-upload, and
optional classical refinement between segments.

Each segment re-anchors the polynomial field at the current parameters
(reduced to the surviving coordinates), runs R forward-Euler Carleman
steps, reads the parameters back out, then takes c exact gradient-descent
steps. Per-step trajectory error is measured against an exact sparse GD
run over the same schedule, so it restarts at zero at every re-upload.

One kernel, `_segment`, runs a segment for both `run_pipeline` and
`simulate` (a single segment with no refinement). The download is the
last row of its readout trajectory, theta_star plus the order-1 block of
the final state. A segment whose lifted run goes non-finite, or whose
exact run leaves its bound, is cut at that step: `run_pipeline` reports
it as `diverged_at`, `simulate` raises DivergenceError.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import carleman, models, polyfield
from .errors import (DivergenceError, InputError, NumericError,
                     NumericOverflowError, SingularSystemError)
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


def lift(spec, data, anchor, degree, eta, mask, order):
    """Field around `anchor` and its order-`order` embedding. The capacity
    is checked against `carleman.MAX_DIM` from the free dimension and the
    drift before any Hessian is evaluated."""
    idx = np.arange(spec.n) if mask is None else np.flatnonzero(mask)
    drift = bool(np.any(eta * models.grad(spec, anchor, data)[idx]))
    carleman.check_capacity(idx.size, order, drift, carleman.MAX_DIM)
    fld = polyfield.from_model(spec, data, anchor, degree, eta, mask=mask)
    return fld, carleman.embed(fld, order)


def _segment(spec, data, start, anchor, degree, eta, order, steps):
    """One linearised segment from the ParamVector `start`: lift around
    `anchor`, upload start's free coordinates, run `steps` Carleman steps
    and exact GD from `start`, and cut both to the steps both completed.

    Returns (field, CarlemanMatrix, GlobalSystem, states Y, approx, exact).
    approx is the download of every state, theta_star plus its order-1
    block, in the full coordinates; fewer than `steps` + 1 rows mean that
    one of the runs left bounds at step `len(Y)`.
    """
    free = start.free_indices()
    fld, M = lift(spec, data, anchor, degree, eta, start.mask, order)
    G = carleman.build_global(M, M.initial_state(start.values[free]), steps)
    Y = carleman.solve(G)
    exact = models.sgd_reference(spec, start, data, eta=eta, steps=Y.shape[0] - 1,
                                 raise_on_divergence=False)
    Y = Y[:exact.shape[0]]
    approx = np.zeros((Y.shape[0], spec.n))
    approx[:, free] = fld.theta_star + Y[:, M.order_one_slice()]
    return fld, M, G, Y, approx, exact


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


def _records(spec, data, approx, exact, step0, seg, phase):
    """One StepRecord per row of `approx`, numbered from `step0`, with the
    error against the same row of `exact`."""
    records = []
    for t, (th, ex) in enumerate(zip(approx, exact)):
        diff = th - ex
        lv, acc = _loss_acc(spec, th, data)
        records.append(StepRecord(step=step0 + t, loss=lv, accuracy=acc,
                                  err_l2=norm2(diff),
                                  err_linf=float(np.max(np.abs(diff))),
                                  segment=seg, phase=phase))
    return records


@dataclass
class SimulateResult:
    approx: np.ndarray  # (steps+1, n) Carleman-readout trajectory
    exact: np.ndarray  # (steps+1, n) exact GD from the same start
    records: list  # StepRecord per step
    dim: int  # Carleman dimension D
    field: polyfield.PolyField
    final_state: np.ndarray  # full Carleman state at the last step
    has_constant: bool


def simulate(spec, data, params0, eta, order, steps, anchor="start",
             degree=None):
    """Single-segment Carleman simulation of gradient descent: one pipeline
    segment, with no refinement, over the free coordinates of `params0`.

    The field is anchored at `anchor`: 'start' (the trajectory start,
    matching the pipeline's re-anchoring), 'zero', or an explicit point.
    Returns approximate and exact trajectories plus per-step records; the
    approximate one is theta_star plus the order-1 block of each state.
    Raises DivergenceError, with `step` the first step at which the lifted
    run went non-finite or exact GD left its bound, when either happens
    within `steps`.
    """
    pv = params0 if isinstance(params0, models.ParamVector) \
        else models.ParamVector(np.asarray(params0, float))
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
    fld, M, _, Y, approx, exact = _segment(spec, data, pv, anchor_vec, d, eta,
                                           order, steps)
    if Y.shape[0] <= steps:
        raise DivergenceError(f"trajectory diverged at step {Y.shape[0]}",
                              step=Y.shape[0])
    return SimulateResult(approx=approx, exact=exact,
                          records=_records(spec, data, approx, exact, 0, 0,
                                           "carleman"),
                          dim=M.D, field=fld, final_state=Y[-1],
                          has_constant=M.include_constant)


def run_pipeline(spec, data, schedule, params0, seed=0,
                 kappa_method="power_iteration"):
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
    theta = params0.values.copy()
    N = schedule.carleman_order
    d = _field_degree(spec, N)

    steps = _records(spec, data, theta[None], theta[None], 0, 0, "carleman")
    segments = []
    steps_done = 0
    seg = 0
    diverged_at = None

    while steps_done < schedule.total_steps and diverged_at is None:
        R = min(schedule.reupload_period, schedule.total_steps - steps_done)
        _, M, G, _, approx, exact = _segment(
            spec, data, models.ParamVector(theta, mask=mask), theta, d,
            schedule.eta, N, R)
        try:
            kappa = carleman.condition_number(G, method=kappa_method, seed=seed)
        except SingularSystemError:
            kappa = float("inf")
        segments.append(SegmentRecord(
            segment=seg, start_step=steps_done, kappa=kappa,
            kappa_method=kappa_method, dim=M.D,
            upload_nnz=int(np.count_nonzero(G.y0)),
            upload_norm=float(np.linalg.norm(G.y0))))

        lifted = _records(spec, data, approx[1:], exact[1:], steps_done + 1,
                          seg, "carleman")
        if lifted and lifted[0].err_l2 != 0.0:
            raise NumericError(
                f"error did not reset at segment {seg} start: {lifted[0].err_l2}")
        steps += lifted
        theta = approx[-1]  # download: the readout of the last state
        if len(lifted) < R:
            diverged_at = steps_done + len(lifted) + 1
            break
        steps_done += R

        c = min(schedule.classical_refine_steps,
                schedule.total_steps - steps_done)
        if c > 0:
            refine = models.sgd_reference(spec, models.ParamVector(theta, mask=mask),
                                          data, eta=schedule.eta, steps=c,
                                          raise_on_divergence=False)
            steps += _records(spec, data, refine[1:], refine[1:],
                              steps_done + 1, seg, "classical_refine")
            theta = refine[-1]
            steps_done += refine.shape[0] - 1
            if refine.shape[0] <= c:
                diverged_at = steps_done + 1
                break
        seg += 1

    final = models.ParamVector(theta, mask=mask)
    return PipelineReport(steps=steps, segments=segments, final=final,
                          diverged_at=diverged_at)
