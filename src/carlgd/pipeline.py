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

A run's steps and its segments are each one table: a dict of equal-length
arrays keyed by the header of trajectory.csv or segments.csv.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import carleman, diagnostics, models, polyfield, util
from .errors import (DivergenceError, InputError, NumericError,
                     SingularSystemError)
from .util import check_eta

# The keys of a trajectory table and of a segment table, in CSV column
# order; `phase` is 'carleman' or 'classical_refine'.
STEP_COLUMNS = ("step", "loss", "accuracy", "err_l2", "err_linf", "segment",
                "phase")
SEGMENT_COLUMNS = ("segment", "start_step", "kappa", "kappa_method", "D",
                   "upload_nnz", "y0_norm")


@dataclass(frozen=True)
class Schedule:
    """Knobs of a pipeline run. The trajectory table of `total_steps` + 1
    rows is held to util.MAX_STATES floats here, before any work."""

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
        check_eta(self.eta)
        rows = self.total_steps + 1
        util.check_floats(rows * len(STEP_COLUMNS),
                          "{} trajectory rows of {} columns", rows,
                          len(STEP_COLUMNS))


@dataclass
class PipelineReport:
    steps: dict  # trajectory table, one row per step
    segments: dict  # segment table, one row per segment
    final: models.ParamVector
    diverged_at: int = None


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


def lift(spec, data, anchor, degree, eta, mask, order, steps):
    """The order-`order` embedding of the degree-`degree` field around
    `anchor`, a CarlemanMatrix whose `field` is that field; degree None is
    the gradient's degree, at most `order`. The capacity, D against
    util.MAX_DIM and a `steps`-step trajectory against util.MAX_STATES, is
    checked from the free dimension and the drift before any Hessian is
    evaluated, and then, for degree None, the extraction's cap: a field
    past degree `polyfield.MAX_DEGREE` raises InputError rather than
    dropping its higher terms. An explicit degree truncates the field."""
    check_eta(eta)
    idx = np.arange(spec.n) if mask is None else np.flatnonzero(mask)
    drift = bool(np.any(eta * models.grad(spec, anchor, data)[idx]))
    carleman.check_capacity(idx.size, order, drift, steps)
    if degree is None:
        degree = max(1, min(spec.grad_degree(), order))
        if degree > polyfield.MAX_DEGREE:
            raise InputError(
                f"order {order} needs the field to degree {degree}, past the "
                f"cap of degree {polyfield.MAX_DEGREE} on its extraction: "
                f"lower the order, or give the degree to truncate the field")
    fld = polyfield.from_model(spec, data, anchor, degree, eta, mask=mask)
    return carleman.embed(fld, order)


def _segment(spec, data, start, anchor, degree, eta, order, steps):
    """One linearised segment from the ParamVector `start`: lift around
    `anchor`, upload start's free coordinates, run `steps` Carleman steps
    and exact GD from `start`, and cut both to the steps both completed.

    Returns (CarlemanMatrix, GlobalSystem, states Y, approx, exact). approx
    is the download of every state, theta_star plus its order-1 block, in
    the full coordinates; fewer than `steps` + 1 rows mean that
    one of the runs left bounds at step `len(Y)`.
    """
    free = start.free_indices()
    M = lift(spec, data, anchor, degree, eta, start.mask, order, steps)
    G = carleman.build_global(M, M.initial_state(start.values[free]), steps)
    Y = carleman.solve(G)
    exact = models.sgd_reference(spec, start, data, eta=eta, steps=Y.shape[0] - 1,
                                 raise_on_divergence=False)
    Y = Y[:exact.shape[0]]
    approx = np.zeros((Y.shape[0], spec.n))
    approx[:, free] = M.field.theta_star + Y[:, M.order_one_slice()]
    return M, G, Y, approx, exact


def _loss_acc(spec, theta, data):
    """Arrays of the loss and the accuracy of each row of a stack of steps,
    from one forward pass; the accuracy is NaN for a testbed, which has no
    classes. A loss that overflows reads inf, to keep reporting usable on
    runs that blow up."""
    lv, acc = models.loss_accuracy(spec, theta, data)
    return np.where(np.isfinite(lv), lv, np.inf), acc


def _records(spec, data, approx, exact, step0, seg, phase):
    """The trajectory table of the rows of `approx`: one array per key of
    STEP_COLUMNS, steps numbered from `step0`, errors against the same rows
    of `exact` by `diagnostics.trajectory_error`."""
    losses, accs = _loss_acc(spec, approx, data)
    rows = approx.shape[0]
    return {"step": np.arange(step0, step0 + rows), "loss": losses,
            "accuracy": accs,
            "err_l2": diagnostics.trajectory_error(approx, exact, "l2"),
            "err_linf": diagnostics.trajectory_error(approx, exact, "linf"),
            "segment": np.full(rows, seg), "phase": np.full(rows, phase)}


@dataclass
class SimulateResult:
    """A `simulate` run; `readout(lift, final_state, ...)` samples its end."""

    approx: np.ndarray  # (steps+1, n) Carleman-readout trajectory
    exact: np.ndarray  # (steps+1, n) exact GD from the same start
    records: dict  # trajectory table, one row per step
    lift: carleman.CarlemanMatrix  # the lift; its field is `lift.field`
    final_state: np.ndarray  # full Carleman state at the last step


def simulate(spec, data, params0, eta, order, steps, anchor="start",
             degree=None):
    """Single-segment Carleman simulation of gradient descent: one pipeline
    segment, with no refinement, over the free coordinates of `params0`.

    The field is anchored at `anchor`: 'start' (the trajectory start,
    matching the pipeline's re-anchoring), 'zero', or an explicit point.
    Returns approximate and exact trajectories plus the trajectory table; the
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
    M, _, Y, approx, exact = _segment(spec, data, pv, anchor_vec, degree,
                                      eta, order, steps)
    if Y.shape[0] <= steps:
        raise DivergenceError(f"trajectory diverged at step {Y.shape[0]}",
                              step=Y.shape[0])
    return SimulateResult(approx=approx, exact=exact,
                          records=_records(spec, data, approx, exact, 0, 0,
                                           "carleman"),
                          lift=M, final_state=Y[-1])


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

    tables = [_records(spec, data, theta[None], theta[None], 0, 0, "carleman")]
    segments = []  # one row tuple per segment, in SEGMENT_COLUMNS order
    steps_done = 0
    seg = 0
    diverged_at = None

    while steps_done < schedule.total_steps and diverged_at is None:
        R = min(schedule.reupload_period, schedule.total_steps - steps_done)
        M, G, _, approx, exact = _segment(
            spec, data, models.ParamVector(theta, mask=mask), theta, None,
            schedule.eta, N, R)
        try:
            kappa = carleman.condition_number(G, method=kappa_method, seed=seed)
        except SingularSystemError:
            kappa = float("inf")
        segments.append((seg, steps_done, kappa, kappa_method, M.D,
                         int(np.count_nonzero(G.y0)),
                         float(np.linalg.norm(G.y0))))

        lifted = _records(spec, data, approx[1:], exact[1:], steps_done + 1,
                          seg, "carleman")
        err = lifted["err_l2"]
        if err.size and err[0] != 0.0:
            raise NumericError(
                f"error did not reset at segment {seg} start: {err[0]}")
        tables.append(lifted)
        theta = approx[-1]  # download: the readout of the last state
        if err.size < R:
            diverged_at = steps_done + err.size + 1
            break
        steps_done += R

        c = min(schedule.classical_refine_steps,
                schedule.total_steps - steps_done)
        if c > 0:
            refine = models.sgd_reference(spec, models.ParamVector(theta, mask=mask),
                                          data, eta=schedule.eta, steps=c,
                                          raise_on_divergence=False)
            tables.append(_records(spec, data, refine[1:], refine[1:],
                                   steps_done + 1, seg, "classical_refine"))
            theta = refine[-1]
            steps_done += refine.shape[0] - 1
            if refine.shape[0] <= c:
                diverged_at = steps_done + 1
                break
        seg += 1

    return PipelineReport(
        steps={k: np.concatenate([t[k] for t in tables]) for k in STEP_COLUMNS},
        segments={k: np.array(col)
                  for k, col in zip(SEGMENT_COLUMNS, zip(*segments))},
        final=models.ParamVector(theta, mask=mask), diverged_at=diverged_at)
