"""Classical simulator for Carleman-linearized gradient-descent training,
with a sparse prune/re-upload pipeline and conditioning diagnostics."""

__version__ = "0.1.0"

from .models import (Dataset, ModelSpec, ParamVector, accuracy, grad, hessian,
                     hvp, init_params, load_iris, loss, sgd_reference)
from .polyfield import PolyField, from_model
from .carleman import (CarlemanMatrix, GlobalSystem, ReadoutResult,
                       build_global, condition_number, embed, readout, solve)
from .pipeline import (PipelineReport, Schedule, SegmentRecord, SimulateResult,
                       StepRecord, pretrain, prune_topk, run_pipeline, simulate)
from .diagnostics import (DissipationReport, Spectrum, classify, cost_estimate,
                          error_proxy, histogram_l1, loglog_slope, spectrum,
                          trajectory_error)

__all__ = [
    "Dataset", "ModelSpec", "ParamVector", "accuracy", "grad", "hessian",
    "hvp", "init_params", "load_iris", "loss", "sgd_reference",
    "PolyField", "from_model",
    "CarlemanMatrix", "GlobalSystem", "ReadoutResult", "build_global",
    "condition_number", "embed", "readout", "solve",
    "PipelineReport", "Schedule", "SegmentRecord", "SimulateResult",
    "StepRecord", "pretrain", "prune_topk", "run_pipeline", "simulate",
    "DissipationReport", "Spectrum", "classify", "cost_estimate",
    "error_proxy", "histogram_l1", "loglog_slope", "spectrum",
    "trajectory_error",
]
