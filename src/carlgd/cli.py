"""Command-line front end.

Subcommands: pretrain, prune, simulate, pipeline, hessian, proxy, kappa,
report. Every run writes its CSV artifacts plus a manifest.json echoing the
fully resolved config, the seed, versions and wall-clock time; re-running a
manifest reproduces the CSVs bitwise in deterministic (full-batch) mode.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure,
3 capacity error.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, carleman, config, diagnostics, models, pipeline
from .errors import CapacityError, InputError, NumericError, ParseError
from .util import fmt17, sub_seed


class _UsageError(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _fmt(value):
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_manifest(out, command, cfg, outputs, started):
    manifest = {
        "command": command,
        "config": cfg,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "carlgd": __version__,
        },
        "wall_clock_s": time.perf_counter() - started,
        "outputs": sorted(outputs),
    }
    with open(Path(out) / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def _outdir(args):
    if not args.out:
        raise InputError("--out directory is required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _overrides(args, mapping):
    ov = {}
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            ov[key] = value
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise InputError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        ov[key] = value
    return ov


def _params_from_csv(path):
    values, mask = [], []
    with open(path) as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty params file")
        has_mask = "mask" in header
        for row in reader:
            try:
                values.append(float(row[1]))
                if has_mask:
                    mask.append(bool(int(row[2])))
            except (ValueError, IndexError):
                raise ParseError(f"{path}, line {reader.line_num}: "
                                 f"malformed params row {row!r}") from None
    values = np.array(values)
    if has_mask:
        return models.ParamVector(values, mask=np.array(mask))
    return models.ParamVector(values)


def _write_params(path, params):
    if params.mask is None:
        write_csv(path, ["index", "value"],
                  [(i, v) for i, v in enumerate(params.values)])
    else:
        write_csv(path, ["index", "value", "mask"],
                  [(i, v, int(m)) for i, (v, m)
                   in enumerate(zip(params.values, params.mask))])


def _write_trajectory(path, records):
    write_csv(path, ["step", "loss", "accuracy", "err_l2", "err_linf",
                     "segment", "phase"],
              [(r.step, r.loss, r.accuracy, r.err_l2, r.err_linf, r.segment,
                r.phase) for r in records])


def _spectrum_from_csv(path):
    with open(path) as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty spectrum file")
        if header[:2] == ["index", "eigenvalue"]:
            cols = [1]
        elif header[:3] == ["bin_left", "bin_right", "density"]:
            cols = [0, 1, 2]
        else:
            raise ParseError(f"unrecognized spectrum CSV header in {path}")
        rows = []
        for row in reader:
            try:
                rows.append([float(row[c]) for c in cols])
            except (ValueError, IndexError):
                raise ParseError(f"{path}, line {reader.line_num}: "
                                 f"malformed spectrum row {row!r}") from None
    vals = np.array(rows).reshape(-1, len(cols)).T
    if len(cols) == 1:
        lam = vals[0]
        return diagnostics.Spectrum(n=lam.size, method="direct", eigenvalues=lam)
    lo, hi, dens = vals
    w = dens * (hi - lo)
    return diagnostics.Spectrum(n=w.size, method="lanczos",
                                ritz_values=0.5 * (lo + hi),
                                ritz_weights=w / w.sum())


def _pretrain(cfg, spec, data):
    """Dense pre-training as the config's `pretrain.*` keys and seed set it."""
    seed = config.typed(cfg, "seed", int)
    return pipeline.pretrain(spec, data,
                             steps=config.typed(cfg, "pretrain.steps", int),
                             eta=config.typed(cfg, "pretrain.eta", float),
                             batch=cfg["pretrain.batch"],
                             seed=sub_seed(seed, "minibatch"),
                             params0=config.initial_point(cfg, spec))


def cmd_pretrain(args):
    started = time.perf_counter()
    cfg = config.resolve(args.config, _overrides(args, {
        "model": "model.kind", "data": "data.path", "steps": "pretrain.steps",
        "eta": "pretrain.eta", "batch": "pretrain.batch", "seed": "seed"}))
    out = _outdir(args)
    spec = config.build_model(cfg)
    params = _pretrain(cfg, spec, config.load_dataset(cfg))
    _write_params(out / "params.csv", params)
    write_manifest(out, "pretrain", cfg, ["params.csv"], started)
    print(f"pretrained {params.n} parameters -> {out / 'params.csv'}")
    return 0


def cmd_prune(args):
    started = time.perf_counter()
    cfg = config.resolve(args.config, _overrides(args, {
        "fraction": "schedule.prune_fraction", "seed": "seed"}))
    out = _outdir(args)
    if not args.params:
        raise InputError("--params pointing at a pretrain params.csv is required")
    params = _params_from_csv(args.params)
    pruned = pipeline.prune_topk(
        params, config.typed(cfg, "schedule.prune_fraction", float))
    _write_params(out / "masked_params.csv", pruned)
    write_manifest(out, "prune", cfg, ["masked_params.csv"], started)
    kept = int(pruned.mask.sum())
    print(f"kept {kept}/{pruned.n} parameters -> {out / 'masked_params.csv'}")
    return 0


def cmd_simulate(args):
    started = time.perf_counter()
    cfg = config.resolve(args.config, _overrides(args, {
        "model": "model.kind", "data": "data.path", "order": "simulate.order",
        "steps": "simulate.steps", "eta": "simulate.eta",
        "degree": "simulate.degree", "anchor": "simulate.anchor",
        "theta0": "init.params", "shots": "readout.shots", "seed": "seed"}))
    out = _outdir(args)
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    params0 = config.initial_point(cfg, spec)
    anchor = cfg["simulate.anchor"]
    if isinstance(anchor, list):
        anchor = config.typed(cfg, "simulate.anchor", config.float_array)
    seed = config.typed(cfg, "seed", int)
    degree, shots = cfg["simulate.degree"], cfg["readout.shots"]
    if degree is not None:
        degree = config.typed(cfg, "simulate.degree", int)
    if shots is not None:
        shots = config.typed(cfg, "readout.shots", int)
    result = pipeline.simulate(spec, data, params0,
                               eta=config.typed(cfg, "simulate.eta", float),
                               order=config.typed(cfg, "simulate.order", int),
                               steps=config.typed(cfg, "simulate.steps", int),
                               anchor=anchor,
                               degree=degree)
    _write_trajectory(out / "trajectory.csv", result.records)
    n = result.approx.shape[1]
    header = (["step"] + [f"param_{i}" for i in range(n)]
              + [f"exact_{i}" for i in range(n)])
    rows = [[t] + list(result.approx[t]) + list(result.exact[t])
            for t in range(result.approx.shape[0])]
    write_csv(out / "params.csv", header, rows)
    outputs = ["trajectory.csv", "params.csv"]
    if shots is not None:
        ro = carleman.readout(result.final_state, result.field.theta_star,
                              shots=shots, seed=sub_seed(seed, "tomography"),
                              has_constant=result.has_constant)
        write_csv(out / "readout.csv", ["index", "estimate", "l2_error", "linf_error"],
                  [(i, v, ro.l2_error, ro.linf_error)
                   for i, v in enumerate(ro.params)])
        outputs.append("readout.csv")
    write_manifest(out, "simulate", cfg, outputs, started)
    print(f"simulated {cfg['simulate.steps']} steps at order "
          f"{cfg['simulate.order']} (D={result.dim}) -> {out}")
    return 0


def cmd_pipeline(args):
    started = time.perf_counter()
    cfg = config.resolve(args.config, _overrides(args, {
        "data": "data.path", "steps": "schedule.steps",
        "reupload": "schedule.reupload_period", "refine": "schedule.refine_steps",
        "order": "schedule.order", "fraction": "schedule.prune_fraction",
        "eta": "schedule.eta", "pretrain_steps": "pretrain.steps",
        "seed": "seed"}))
    out = _outdir(args)
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    sched = config.build_schedule(cfg)
    pruned = pipeline.prune_topk(_pretrain(cfg, spec, data), sched.prune_fraction)
    report = pipeline.run_pipeline(spec, data, sched, pruned,
                                   seed=config.typed(cfg, "seed", int),
                                   kappa_method=cfg["pipeline.kappa_method"])
    _write_trajectory(out / "trajectory.csv", report.steps)
    write_csv(out / "segments.csv",
              ["segment", "start_step", "kappa", "kappa_method", "D",
               "upload_nnz", "y0_norm"],
              [(s.segment, s.start_step, s.kappa, s.kappa_method, s.dim,
                s.upload_nnz, s.upload_norm) for s in report.segments])
    _write_params(out / "final_params.csv", report.final)
    write_manifest(out, "pipeline", cfg,
                   ["trajectory.csv", "segments.csv", "final_params.csv"],
                   started)
    last = report.steps[-1]
    status = ("diverged at step "
              f"{report.diverged_at}" if report.diverged_at else "completed")
    print(f"pipeline {status}: {len(report.segments)} segments, "
          f"final loss {last.loss:.6g} -> {out}")
    return 0 if report.diverged_at is None else 2


def cmd_hessian(args):
    started = time.perf_counter()
    cfg = config.resolve(args.config, _overrides(args, {
        "model": "model.kind", "data": "data.path", "method": "hessian.method",
        "lanczos_k": "hessian.lanczos_k", "probes": "hessian.probes",
        "bins": "hessian.bins", "seed": "seed"}))
    bins = config.typed(cfg, "hessian.bins", int)
    if bins < 1:
        raise InputError(f"hessian.bins must be >= 1, got {bins}")
    out = _outdir(args)
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    point = _params_from_csv(args.params) if args.params \
        else config.initial_point(cfg, spec)
    method = cfg["hessian.method"]
    spect = diagnostics.spectrum(spec, point, data, method=method,
                                 k=config.typed(cfg, "hessian.lanczos_k", int),
                                 probes=config.typed(cfg, "hessian.probes", int),
                                 seed=sub_seed(config.typed(cfg, "seed", int),
                                               "lanczos"))
    if spect.is_exact():
        write_csv(out / "spectrum.csv", ["index", "eigenvalue"],
                  list(enumerate(spect.eigenvalues)))
    else:
        pts, _ = spect.points_weights()
        edges = np.linspace(pts.min() - 1e-9, pts.max() + 1e-9, bins + 1)
        dens = spect.density(edges)
        write_csv(out / "spectrum.csv", ["bin_left", "bin_right", "density"],
                  [(edges[i], edges[i + 1], dens[i]) for i in range(dens.size)])
    write_manifest(out, "hessian", cfg, ["spectrum.csv"], started)
    print(f"spectrum ({method}, n={spect.n}) -> {out / 'spectrum.csv'}")
    return 0


def cmd_proxy(args):
    started = time.perf_counter()
    cfg = config.resolve(args.config, _overrides(args, {
        "eta": "proxy.eta", "tmax": "proxy.tmax", "threshold": "proxy.threshold",
        "scale": "proxy.scale", "seed": "seed"}))
    out = _outdir(args)
    if not args.spectrum:
        raise InputError("--spectrum CSV is required")
    spect = _spectrum_from_csv(args.spectrum)
    t_range = range(config.typed(cfg, "proxy.tmax", int) + 1)
    E = diagnostics.error_proxy(spect,
                                eta=config.typed(cfg, "proxy.eta", float),
                                t_range=t_range,
                                threshold=config.typed(cfg, "proxy.threshold",
                                                       float),
                                scale=cfg["proxy.scale"])
    write_csv(out / "proxy.csv", ["t", "E"], list(zip(t_range, E)))
    write_manifest(out, "proxy", cfg, ["proxy.csv"], started)
    print(f"proxy over t=0..{cfg['proxy.tmax']} -> {out / 'proxy.csv'}")
    return 0


def cmd_kappa(args):
    started = time.perf_counter()
    cfg = config.resolve(args.config, _overrides(args, {
        "model": "model.kind", "eta": "kappa.eta", "order": "kappa.order",
        "steps_list": "kappa.steps", "method": "kappa.method", "seed": "seed"}))
    out = _outdir(args)
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    theta0 = np.ones(spec.n) if cfg["init.params"] is None \
        else config.typed(cfg, "init.params", config.float_array)
    order = config.typed(cfg, "kappa.order", int)
    eta = config.typed(cfg, "kappa.eta", float)
    steps = config.typed(cfg, "kappa.steps", lambda v: [
        int(s) for s in (v.split(",") if isinstance(v, str) else v)])
    seed = config.typed(cfg, "seed", int)
    degree = pipeline._field_degree(spec, order)
    _, M = pipeline.lift(spec, data, np.zeros(spec.n), degree, eta, None, order)
    y0 = M.initial_state(theta0)
    rows = []
    for T in steps:  # every T shares M's step operator S
        G = carleman.build_global(M, y0, T)
        rows.append((T,
                     carleman.condition_number(G, method=cfg["kappa.method"],
                                               seed=seed),
                     cfg["kappa.method"]))
    write_csv(out / "kappa.csv", ["T", "kappa", "method"], rows)
    write_manifest(out, "kappa", cfg, ["kappa.csv"], started)
    print(f"kappa over T={steps} -> {out / 'kappa.csv'}")
    return 0


def cmd_report(args):
    run = Path(args.run or "")
    manifest_path = run / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"no manifest.json under {run}")
    with open(manifest_path) as f:
        manifest = json.load(f)
    summary = {"command": manifest["command"], "run_dir": str(run),
               "outputs": manifest.get("outputs", [])}
    traj = run / "trajectory.csv"
    if traj.exists():
        with open(traj) as f:
            rows = list(csv.DictReader(f))
        if rows:
            summary["steps"] = len(rows) - 1
            summary["final_loss"] = float(rows[-1]["loss"])
            summary["final_accuracy"] = float(rows[-1]["accuracy"])
            summary["max_err_l2"] = max(float(r["err_l2"]) for r in rows)
    segs = run / "segments.csv"
    if segs.exists():
        with open(segs) as f:
            rows = list(csv.DictReader(f))
        summary["segments"] = len(rows)
        if rows:
            summary["max_kappa"] = max(float(r["kappa"]) for r in rows)
    out = Path(args.out) if args.out else run
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = _Parser(prog="carlgd",
                     description="Carleman-linearized gradient-descent "
                                 "simulator and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config (or manifest) file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")

    p = sub.add_parser("pretrain", help="dense classical pre-training")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--steps", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--batch", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("prune", help="magnitude pruning of pretrained params")
    common(p)
    p.add_argument("--params", help="params.csv from pretrain")
    p.add_argument("--fraction", type=float)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("simulate", help="single-segment Carleman simulation")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--order", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--anchor", choices=["start", "zero"])
    p.add_argument("--theta0", type=lambda s: [float(v) for v in s.split(",")])
    p.add_argument("--shots", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="pretrain + prune + segmented run")
    common(p)
    p.add_argument("--data")
    p.add_argument("--steps", type=int)
    p.add_argument("--reupload", type=int)
    p.add_argument("--refine", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--fraction", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--pretrain-steps", dest="pretrain_steps", type=int)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("hessian", help="Hessian spectrum at a point")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--params", help="evaluate at these parameters")
    p.add_argument("--method", choices=["direct", "lanczos"])
    p.add_argument("--lanczos-k", dest="lanczos_k", type=int)
    p.add_argument("--probes", type=int)
    p.add_argument("--bins", type=int)
    p.set_defaults(func=cmd_hessian)

    p = sub.add_parser("proxy", help="spectral error proxy from a spectrum CSV")
    common(p)
    p.add_argument("--spectrum")
    p.add_argument("--eta", type=float)
    p.add_argument("--tmax", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--scale", choices=["eta", "raw"])
    p.set_defaults(func=cmd_proxy)

    p = sub.add_parser("kappa", help="condition number vs step count")
    common(p)
    p.add_argument("--model")
    p.add_argument("--eta", type=float)
    p.add_argument("--order", type=int)
    p.add_argument("--steps-list", dest="steps_list")
    p.add_argument("--method", choices=["dense_svd", "power_iteration"])
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("report", help="summarize an existing run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
