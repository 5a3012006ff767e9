"""Flat dotted-key run configuration.

A run is described by a JSON object with flat dotted keys; command-line
flags override individual keys, and the resolved config is echoed into the
run manifest so any run can be reproduced from its manifest alone.
"""

import json

import numpy as np

from . import models, pipeline
from .errors import InputError

DEFAULTS = {
    "seed": 0,
    "model.kind": "mlp",
    "model.layer_widths": [4, 3, 3],
    "model.activation": "quadratic_poly",
    "model.alpha": 0.1,
    "model.loss": "mse",
    "model.coefficients": None,  # per-kind default when unset
    "data.path": None,
    "init.params": None,  # explicit start point; otherwise seeded init
    "pretrain.steps": 200,
    "pretrain.eta": 0.05,
    "pretrain.batch": None,
    "schedule.steps": 100,
    "schedule.reupload_period": 100,
    "schedule.refine_steps": 10,
    "schedule.order": 2,
    "schedule.prune_fraction": 0.1,
    "schedule.eta": 0.05,
    "simulate.steps": 50,
    "simulate.order": 2,
    "simulate.eta": 0.05,
    "simulate.degree": None,
    "simulate.anchor": "start",
    "readout.shots": None,
    "hessian.method": "direct",
    "hessian.lanczos_k": 80,
    "hessian.probes": 16,
    "hessian.bins": 40,
    "proxy.eta": 1.0,
    "proxy.tmax": 100,
    "proxy.threshold": 0.4,
    "proxy.scale": "eta",
    "kappa.method": "dense_svd",
    "kappa.steps": [5, 10, 20, 40],
    "kappa.order": 1,
    "kappa.eta": 0.1,
    "pipeline.kappa_method": "power_iteration",
}


def load_config(path):
    """Read a config file; a run manifest (with a nested 'config' object)
    is unwrapped so manifests can be re-run directly."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed config {path}: {e}")
    if "config" in obj and "command" in obj:
        obj = obj["config"]
    if not isinstance(obj, dict):
        raise InputError(f"config root must be an object: {path}")
    return obj


def resolve(config_path=None, overrides=None):
    """DEFAULTS < config file < flag overrides, with unknown keys rejected."""
    cfg = dict(DEFAULTS)
    for source in (load_config(config_path) if config_path else {}, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise InputError(f"unknown config key {key!r}")
            cfg[key] = value
    return cfg


def float_array(value):
    return np.asarray(value, dtype=float)


def typed(cfg, key, convert):
    """cfg[key] passed through `convert` (int, float, float_array, ...);
    a value it rejects raises InputError naming the key."""
    try:
        return convert(cfg[key])
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"config key {key!r} has invalid value "
                         f"{cfg[key]!r}") from None


def build_model(cfg):
    kind = cfg["model.kind"]
    if kind == "mlp":
        return models.ModelSpec(kind="mlp",
                                layer_widths=tuple(cfg["model.layer_widths"]),
                                activation=cfg["model.activation"],
                                alpha=typed(cfg, "model.alpha", float),
                                loss_kind=cfg["model.loss"])
    coeffs = cfg["model.coefficients"]
    if coeffs is None:
        coeffs = (1.0, 1.0) if kind == "scalar_cubic" else (1.0, 4.0)
    return models.ModelSpec(kind=kind, loss_kind=cfg["model.loss"],
                            coefficients=tuple(coeffs))


def build_schedule(cfg):
    return pipeline.Schedule(
        total_steps=typed(cfg, "schedule.steps", int),
        eta=typed(cfg, "schedule.eta", float),
        reupload_period=typed(cfg, "schedule.reupload_period", int),
        classical_refine_steps=typed(cfg, "schedule.refine_steps", int),
        carleman_order=typed(cfg, "schedule.order", int),
        prune_fraction=typed(cfg, "schedule.prune_fraction", float))


def load_dataset(cfg):
    path = cfg["data.path"]
    if path is None:
        return None
    return models.load_iris(path)


def initial_point(cfg, spec):
    if cfg["init.params"] is not None:
        values = typed(cfg, "init.params", float_array)
        if values.size != spec.n:
            raise InputError(
                f"init.params has {values.size} entries, model needs {spec.n}")
        return models.ParamVector(values)
    from .util import sub_seed
    return models.init_params(spec, sub_seed(typed(cfg, "seed", int), "init"))
