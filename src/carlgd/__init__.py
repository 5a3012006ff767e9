"""Classical simulator for Carleman-linearized gradient-descent training,
with a sparse prune/re-upload pipeline and conditioning diagnostics.

`import carlgd`, the lift and a solve with D <= 256 load numpy but not
scipy, and a manifest imports only the top-level `scipy` package, for its
version. `scipy.linalg` is loaded by kappa and the Lanczos spectrum, and
`scipy.sparse` only by a solve or a power-iteration kappa with D > 256."""

__version__ = "0.1.0"

from .models import (Dataset, ModelSpec, ParamVector, accuracy, grad, hessian,
                     hvp, init_params, load_iris, loss, sgd_reference)
from .polyfield import PolyField, from_model
from .carleman import (CarlemanMatrix, GlobalSystem, ReadoutResult,
                       build_global, condition_number, embed, readout, solve)
from .pipeline import (PipelineReport, Schedule, SimulateResult, pretrain,
                       prune_topk, run_pipeline, simulate)
from .diagnostics import (Spectrum, cost_estimate, error_proxy, histogram_l1,
                          loglog_slope, spectrum, trajectory_error)

__all__ = [
    "Dataset", "ModelSpec", "ParamVector", "accuracy", "grad", "hessian",
    "hvp", "init_params", "load_iris", "loss", "sgd_reference",
    "PolyField", "from_model",
    "CarlemanMatrix", "GlobalSystem", "ReadoutResult", "build_global",
    "condition_number", "embed", "readout", "solve",
    "PipelineReport", "Schedule", "SimulateResult", "pretrain", "prune_topk",
    "run_pipeline", "simulate",
    "Spectrum", "cost_estimate", "error_proxy", "histogram_l1",
    "loglog_slope", "spectrum", "trajectory_error",
]
