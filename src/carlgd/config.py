"""Flat dotted-key run configuration.

A run is described by a JSON object with flat dotted keys; command-line
flags override individual keys, and the resolved config is echoed into the
run manifest so any run can be reproduced from its manifest alone.

`SCHEMA` maps each key to its default and its converter. `resolve` passes
every value through its key's converter before any work starts, so a
value of the wrong type is rejected whatever command reads it, and the
resolved config holds typed, JSON-native values.
"""

import json

import numpy as np

from . import models, pipeline
from .errors import InputError
from .util import finite_float, open_input, sub_seed


def _number(convert):
    """`convert`, rejecting a bool first: JSON's true is not the number 1."""
    def checked(value):
        if isinstance(value, bool):
            raise TypeError(value)
        return convert(value)
    return checked


def _whole(value):
    """int(value) of an int, or of a float with no fraction, so that 1e200
    still reaches its capacity check; a fractional float is rejected, not
    truncated. Text is read as an int, else as a float, so a flag and
    --set take "3.0" and "1e200" alike."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


_int, _float, _finite = _number(_whole), _number(float), _number(finite_float)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _text(value):
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _list(item):
    """Converter to a list of `item`s from a list, one value or a
    comma-separated string ("5,10")."""
    def convert(value):
        if isinstance(value, str):
            value = value.split(",")
        elif not isinstance(value, (list, tuple)):
            value = [value]
        return [item(v) for v in value]
    return convert


def _anchor(value):
    return value if isinstance(value, str) else _list(_finite)(value)


# key -> (default, converter). `resolve` passes every value through its
# key's converter, so this table is the one place that knows a key's type.
SCHEMA = {
    "seed": (0, _int),
    "model.kind": ("mlp", _text),
    "model.layer_widths": ([4, 3, 3], _list(_int)),
    "model.activation": ("quadratic_poly", _text),
    "model.alpha": (0.1, _finite),
    "model.loss": ("mse", _text),
    "model.coefficients": (None, _optional(_list(_finite))),  # None: per kind
    "data.path": (None, _optional(_text)),
    "init.params": (None, _optional(_list(_finite))),  # None: seeded init
    "pretrain.steps": (200, _int),
    "pretrain.eta": (0.05, _float),
    "pretrain.batch": (None, _optional(_int)),
    "schedule.steps": (100, _int),
    "schedule.reupload_period": (100, _int),
    "schedule.refine_steps": (10, _int),
    "schedule.order": (2, _int),
    "schedule.prune_fraction": (0.1, _float),
    "schedule.eta": (0.05, _float),
    "simulate.steps": (50, _int),
    "simulate.order": (2, _int),
    "simulate.eta": (0.05, _float),
    "simulate.degree": (None, _optional(_int)),
    "simulate.anchor": ("start", _anchor),  # 'start', 'zero' or a point
    "readout.shots": (None, _optional(_int)),
    "hessian.method": ("direct", _text),
    "hessian.lanczos_k": (80, _int),
    "hessian.probes": (16, _int),
    "hessian.bins": (40, _int),
    "proxy.eta": (1.0, _finite),
    "proxy.tmax": (100, _int),
    "proxy.threshold": (0.4, _finite),
    "proxy.scale": ("eta", _text),
    "kappa.method": ("dense_svd", _text),
    "kappa.steps": ([5, 10, 20, 40], _list(_int)),
    "kappa.order": (1, _int),
    "kappa.eta": (0.1, _float),
    "pipeline.kappa_method": ("power_iteration", _text),
}
DEFAULTS = {key: default for key, (default, _) in SCHEMA.items()}


def load_config(path):
    """Read a config file; a run manifest (with a nested 'config' object)
    is unwrapped so manifests can be re-run directly."""
    with open_input(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed config {path}: {e}")
    if isinstance(obj, dict) and "config" in obj and "command" in obj:
        obj = obj["config"]
    if not isinstance(obj, dict):
        raise InputError(f"config root must be an object: {path}")
    return obj


def resolve(config_path=None, overrides=None):
    """DEFAULTS < config file < flag overrides, each value passed through
    its key's converter. An unknown key, or a value its converter rejects,
    raises InputError naming the key."""
    cfg = dict(DEFAULTS)
    for source in (load_config(config_path) if config_path else {}, overrides or {}):
        for key, value in source.items():
            if key not in SCHEMA:
                raise InputError(f"unknown config key {key!r}")
            cfg[key] = value
    for key, value in cfg.items():
        try:
            cfg[key] = SCHEMA[key][1](value)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"config key {key!r} has invalid value "
                             f"{value!r}") from None
    return cfg


def build_model(cfg):
    kind = cfg["model.kind"]
    if kind == "mlp":
        return models.ModelSpec(kind="mlp",
                                layer_widths=tuple(cfg["model.layer_widths"]),
                                activation=cfg["model.activation"],
                                alpha=cfg["model.alpha"],
                                loss_kind=cfg["model.loss"])
    coeffs = cfg["model.coefficients"]
    if coeffs is None:
        coeffs = (1.0, 1.0) if kind == "scalar_cubic" else (1.0, 4.0)
    return models.ModelSpec(kind=kind, loss_kind=cfg["model.loss"],
                            coefficients=tuple(coeffs))


def build_schedule(cfg):
    return pipeline.Schedule(
        total_steps=cfg["schedule.steps"],
        eta=cfg["schedule.eta"],
        reupload_period=cfg["schedule.reupload_period"],
        classical_refine_steps=cfg["schedule.refine_steps"],
        carleman_order=cfg["schedule.order"],
        prune_fraction=cfg["schedule.prune_fraction"])


def load_dataset(cfg):
    path = cfg["data.path"]
    if path is None:
        return None
    return models.load_iris(path)


def initial_point(cfg, spec):
    if cfg["init.params"] is not None:
        values = np.array(cfg["init.params"])
        if values.size != spec.n:
            raise InputError(
                f"init.params has {values.size} entries, model needs {spec.n}")
        return models.ParamVector(values)
    return models.init_params(spec, sub_seed(cfg["seed"], "init"))
