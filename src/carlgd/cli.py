"""Command-line front end.

One table, SUBCOMMANDS, declares the CLI: the handler, help line and
flags of each subcommand (pretrain, prune, simulate, pipeline, hessian,
proxy, kappa, report), in `--help` order. Each flag's dest is the config
key it sets (`--help` shows it), or a CLI_ONLY name for a flag that sets
none. `main` runs every command but report: it resolves and type-checks
the whole config, makes --out, calls the command's handler with
(args, cfg, out) and writes the one manifest.json from the outputs and
exit code that returns. Only then does it print the status line that the
handler returned (report returns its JSON), so a closed stdout loses no
file; a reader that has gone is not an error, and the exit code stays the
command's. Each command hands its tables, {header: column}, to the one
CSV writer, `write_csv`. The manifest echoes the resolved config,
versions and wall-clock time; re-running it reproduces the CSVs bitwise
in deterministic (full-batch) mode.

Exit codes: 0 success, 1 validation/usage error, 2 numeric failure,
3 capacity error.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, carleman, config, diagnostics, models, pipeline
from .errors import CapacityError, InputError, NumericError, ParseError
from .util import (block_items, check_floats, count_text, finite_float,
                   open_input, sub_seed, writing)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage()}")


def write_csv(path, columns):
    """Write a table, {header: column} with one entry per row in each
    column: the header line, then one line per row from one row template,
    "%.17g" for a float column (a lossless round trip, the text of
    format(x, ".17g")) and "%s" for any other, joined by "," and ended by
    "\r\n". Every cell the program writes is a number or one of its own
    identifiers (a phase, a kappa method name), with no comma, quote or
    line break, so csv.writer would quote none of them and write these
    same bytes. The rows are filled in blocks of at most
    util.BLOCK_VALUES / 4 cells (or one row), so the Python values of a
    large table are never all held at once. An OSError becomes an
    InputError."""
    cols = [np.asarray(col) for col in columns.values()]
    row = ",".join("%.17g" if col.dtype.kind == "f" else "%s"
                   for col in cols) + "\r\n"
    rows = min(map(len, cols), default=0)
    step = block_items(4 * len(cols))  # a cell's Python float: about 32 B
    with writing(path), open(path, "w", newline="") as f:
        f.write(",".join(columns) + "\r\n")
        for a in range(0, rows, step):
            block = (c[a:a + step].tolist() for c in cols)
            f.writelines(row % cells for cells in zip(*block))


def write_manifest(out, command, cfg, outputs, started):
    import scipy  # the package alone: its version, with no submodule
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
    path = Path(out) / "manifest.json"
    with writing(path):
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


# Parser dests that are not config keys; every other dest is the key its
# flag sets.
CLI_ONLY = {"config", "out", "set", "params", "spectrum", "run", "command",
            "func"}


def _overrides(args):
    """The given flags' values by key, then each --set key=value in turn."""
    ov = {key: value for key, value in vars(args).items()
          if value is not None and key not in CLI_ONLY}
    for item in args.set or []:
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
    """The ParamVector of a params CSV: `index,value[,mask]` rows, whose
    indices run 0, 1, 2, ... in order."""
    values, mask = [], []
    with open_input(path) as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty params file")
        has_mask = "mask" in header
        for row in reader:
            try:
                if int(row[0]) != len(values):
                    raise ValueError(f"index {row[0]} is not {len(values)}")
                values.append(finite_float(row[1]))
                if has_mask:
                    bit = int(row[2])
                    if bit not in (0, 1):
                        raise ValueError(f"mask {bit} is not 0 or 1")
                    mask.append(bit == 1)
            except (ValueError, IndexError):
                raise ParseError(f"{path}, line {reader.line_num}: "
                                 f"malformed params row {row!r}") from None
    values = np.array(values)
    if has_mask:
        return models.ParamVector(values, mask=np.array(mask))
    return models.ParamVector(values)


def _write_params(path, params):
    columns = {"index": np.arange(params.n), "value": params.values}
    if params.mask is not None:
        columns["mask"] = params.mask.astype(int)
    write_csv(path, columns)


def _spectrum_from_csv(path):
    with open_input(path) as f:
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
                values = [finite_float(row[c]) for c in cols]
                if len(values) == 3 and not (values[0] < values[1]
                                             and values[2] >= 0):
                    raise ValueError("need bin_left < bin_right, density >= 0")
                rows.append(values)
            except (ValueError, IndexError):
                raise ParseError(f"{path}, line {reader.line_num}: "
                                 f"malformed spectrum row {row!r}") from None
    if not rows:
        raise ParseError(f"{path}: no spectrum rows")
    vals = np.array(rows).T
    if len(cols) == 1:
        lam = vals[0]
        return diagnostics.Spectrum(n=lam.size, method="direct", eigenvalues=lam)
    lo, hi, dens = vals
    w = dens * (hi - lo)
    if not 0 < w.sum() < math.inf:
        raise ParseError(f"{path}: the bin weights (density x width) sum to "
                         f"{w.sum()}, not to a positive finite number")
    return diagnostics.Spectrum(n=w.size, method="lanczos",
                                ritz_values=0.5 * (lo + hi),
                                ritz_weights=w / w.sum())


def _pretrain(cfg, spec, data):
    """Dense pre-training as the config's `pretrain.*` keys and seed set it."""
    return pipeline.pretrain(spec, data,
                             steps=cfg["pretrain.steps"],
                             eta=cfg["pretrain.eta"],
                             batch=cfg["pretrain.batch"],
                             seed=sub_seed(cfg["seed"], "minibatch"),
                             params0=config.initial_point(cfg, spec))


def cmd_pretrain(args, cfg, out):
    spec = config.build_model(cfg)
    params = _pretrain(cfg, spec, config.load_dataset(cfg))
    _write_params(out / "params.csv", params)
    return (["params.csv"], 0,
            f"pretrained {params.n} parameters -> {out / 'params.csv'}")


def cmd_prune(args, cfg, out):
    if not args.params:
        raise InputError("--params pointing at a pretrain params.csv is required")
    params = _params_from_csv(args.params)
    pruned = pipeline.prune_topk(params, cfg["schedule.prune_fraction"])
    _write_params(out / "masked_params.csv", pruned)
    kept = int(pruned.mask.sum())
    return (["masked_params.csv"], 0,
            f"kept {kept}/{pruned.n} parameters -> {out / 'masked_params.csv'}")


def cmd_simulate(args, cfg, out):
    if cfg["readout.shots"] is not None:
        carleman.check_shots(cfg["readout.shots"], "readout.shots")
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    params0 = config.initial_point(cfg, spec)
    result = pipeline.simulate(spec, data, params0,
                               eta=cfg["simulate.eta"],
                               order=cfg["simulate.order"],
                               steps=cfg["simulate.steps"],
                               anchor=cfg["simulate.anchor"],
                               degree=cfg["simulate.degree"])
    write_csv(out / "trajectory.csv", result.records)
    write_csv(out / "params.csv",
              {"step": result.records["step"],
               **{f"param_{i}": col for i, col in enumerate(result.approx.T)},
               **{f"exact_{i}": col for i, col in enumerate(result.exact.T)}})
    outputs = ["trajectory.csv", "params.csv"]
    if cfg["readout.shots"] is not None:
        ro = carleman.readout(result.lift, result.final_state,
                              shots=cfg["readout.shots"],
                              seed=sub_seed(cfg["seed"], "tomography"))
        n = ro.params.size
        write_csv(out / "readout.csv",
                  {"index": np.arange(n), "estimate": ro.params,
                   "l2_error": np.full(n, ro.l2_error),
                   "linf_error": np.full(n, ro.linf_error)})
        outputs.append("readout.csv")
    return outputs, 0, (f"simulated {cfg['simulate.steps']} steps at order "
                        f"{cfg['simulate.order']} (D={result.lift.D}) -> {out}")


def cmd_pipeline(args, cfg, out):
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    sched = config.build_schedule(cfg)
    pruned = pipeline.prune_topk(_pretrain(cfg, spec, data), sched.prune_fraction)
    report = pipeline.run_pipeline(spec, data, sched, pruned,
                                   seed=cfg["seed"],
                                   kappa_method=cfg["pipeline.kappa_method"])
    write_csv(out / "trajectory.csv", report.steps)
    write_csv(out / "segments.csv", report.segments)
    _write_params(out / "final_params.csv", report.final)
    status = ("diverged at step "
              f"{report.diverged_at}" if report.diverged_at else "completed")
    return (["trajectory.csv", "segments.csv", "final_params.csv"],
            0 if report.diverged_at is None else 2,
            f"pipeline {status}: {report.segments['segment'].size} segments, "
            f"final loss {report.steps['loss'][-1]:.6g} -> {out}")


def cmd_hessian(args, cfg, out):
    bins = cfg["hessian.bins"]
    if bins < 1:
        raise InputError(f"hessian.bins must be >= 1, got {count_text(bins)}")
    check_floats(bins + 1, "{} histogram bins", bins)
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    point = _params_from_csv(args.params) if args.params \
        else config.initial_point(cfg, spec)
    method = cfg["hessian.method"]
    spect = diagnostics.spectrum(spec, point, data, method=method,
                                 k=cfg["hessian.lanczos_k"],
                                 probes=cfg["hessian.probes"],
                                 seed=sub_seed(cfg["seed"], "lanczos"))
    if spect.is_exact():
        write_csv(out / "spectrum.csv",
                  {"index": np.arange(spect.eigenvalues.size),
                   "eigenvalue": spect.eigenvalues})
    else:
        pts, _ = spect.points_weights()
        edges = diagnostics.bin_edges(pts, bins)
        dens = spect.density(edges)
        write_csv(out / "spectrum.csv", {"bin_left": edges[:-1],
                                         "bin_right": edges[1:],
                                         "density": dens})
    return (["spectrum.csv"], 0,
            f"spectrum ({method}, n={spect.n}) -> {out / 'spectrum.csv'}")


def cmd_proxy(args, cfg, out):
    if not args.spectrum:
        raise InputError("--spectrum CSV is required")
    tmax = cfg["proxy.tmax"]
    check_floats(tmax + 1, "proxy values at t = 0 ... {}", tmax)
    spect = _spectrum_from_csv(args.spectrum)
    t = np.arange(tmax + 1)
    E = diagnostics.error_proxy(spect,
                                eta=cfg["proxy.eta"],
                                t_range=t,
                                threshold=cfg["proxy.threshold"],
                                scale=cfg["proxy.scale"])
    write_csv(out / "proxy.csv", {"t": t, "E": E})
    return ["proxy.csv"], 0, f"proxy over t=0..{tmax} -> {out / 'proxy.csv'}"


def cmd_kappa(args, cfg, out):
    steps = cfg["kappa.steps"]
    if not steps:
        raise InputError("kappa.steps must list at least one step count")
    spec = config.build_model(cfg)
    data = config.load_dataset(cfg)
    theta0 = np.ones(spec.n) if cfg["init.params"] is None \
        else np.array(cfg["init.params"])
    order = cfg["kappa.order"]
    eta = cfg["kappa.eta"]
    M = pipeline.lift(spec, data, np.zeros(spec.n), None, eta, None, order,
                      max(steps))
    y0 = M.initial_state(theta0)
    method = cfg["kappa.method"]
    kappas = [carleman.condition_number(carleman.build_global(M, y0, T),
                                        method=method, seed=cfg["seed"])
              for T in steps]  # every T shares M's step operator S
    write_csv(out / "kappa.csv", {"T": steps, "kappa": kappas,
                                  "method": [method] * len(steps)})
    return ["kappa.csv"], 0, f"kappa over T={steps} -> {out / 'kappa.csv'}"


def _run_rows(path, columns):
    """The rows of a run's CSV, each as {column: float} over `columns`."""
    with open_input(path, newline="") as f:
        reader = csv.DictReader(f)
        try:
            return [{c: float(row[c]) for c in columns} for row in reader]
        except KeyError as e:
            raise ParseError(f"{path}: no {e.args[0]!r} column") from None
        except (TypeError, ValueError):
            raise ParseError(f"{path}, line {reader.line_num}: "
                             "malformed row") from None


def cmd_report(args):
    """Write report.json of the run --run into --out (default: that run)
    and return its text."""
    run = Path(args.run or "")
    manifest_path = run / "manifest.json"
    if not manifest_path.exists():
        raise InputError(f"no manifest.json under {run}")
    with open_input(manifest_path) as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed manifest {manifest_path}: {e}") from None
    if not isinstance(manifest, dict) or "command" not in manifest:
        raise ParseError(f"{manifest_path} is not a run manifest: "
                         "no \"command\" key in an object root")
    summary = {"command": manifest["command"], "run_dir": str(run),
               "outputs": manifest.get("outputs", [])}
    traj = run / "trajectory.csv"
    if traj.exists():
        rows = _run_rows(traj, ["loss", "accuracy", "err_l2"])
        if rows:
            summary["steps"] = len(rows) - 1
            summary["final_loss"] = rows[-1]["loss"]
            summary["final_accuracy"] = rows[-1]["accuracy"]
            summary["max_err_l2"] = max(r["err_l2"] for r in rows)
    segs = run / "segments.csv"
    if segs.exists():
        rows = _run_rows(segs, ["kappa"])
        summary["segments"] = len(rows)
        if rows:
            summary["max_kappa"] = max(r["kappa"] for r in rows)
    summary = {key: None if isinstance(v, float) and not math.isfinite(v) else v
               for key, v in summary.items()}  # JSON has no NaN or inf
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    out = Path(args.out) if args.out else run
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
    with writing(out / "report.json"):
        (out / "report.json").write_text(text)
    return text


# The flags of every subcommand but report.
COMMON = (("--config", {"help": "JSON config (or manifest) file"}),
          ("--out", {"help": "output directory"}),
          ("--seed", "seed"),
          ("--set", {"action": "append", "metavar": "KEY=VALUE",
                     "help": "override any config key"}))

# Each subcommand, in the order that --help lists them: its handler, its
# help line and its flags. A flag is (option, the config key it sets), or
# (option, add_argument keywords) for a flag that sets no key or has choices.
SUBCOMMANDS = {
    "pretrain": (cmd_pretrain, "dense classical pre-training", COMMON + (
        ("--model", "model.kind"),
        ("--data", "data.path"),
        ("--steps", "pretrain.steps"),
        ("--eta", "pretrain.eta"),
        ("--batch", "pretrain.batch"))),
    "prune": (cmd_prune, "magnitude pruning of pretrained params", COMMON + (
        ("--params", {"help": "params.csv from pretrain"}),
        ("--fraction", "schedule.prune_fraction"))),
    "simulate": (cmd_simulate, "single-segment Carleman simulation", COMMON + (
        ("--model", "model.kind"),
        ("--data", "data.path"),
        ("--order", "simulate.order"),
        ("--steps", "simulate.steps"),
        ("--eta", "simulate.eta"),
        ("--degree", "simulate.degree"),
        ("--anchor", {"dest": "simulate.anchor", "choices": ["start", "zero"]}),
        ("--theta0", "init.params"),
        ("--shots", "readout.shots"))),
    "pipeline": (cmd_pipeline, "pretrain + prune + segmented run", COMMON + (
        ("--data", "data.path"),
        ("--steps", "schedule.steps"),
        ("--reupload", "schedule.reupload_period"),
        ("--refine", "schedule.refine_steps"),
        ("--order", "schedule.order"),
        ("--fraction", "schedule.prune_fraction"),
        ("--eta", "schedule.eta"),
        ("--pretrain-steps", "pretrain.steps"))),
    "hessian": (cmd_hessian, "Hessian spectrum at a point", COMMON + (
        ("--model", "model.kind"),
        ("--data", "data.path"),
        ("--params", {"help": "evaluate at these parameters"}),
        ("--method", {"dest": "hessian.method", "choices": ["direct", "lanczos"]}),
        ("--lanczos-k", "hessian.lanczos_k"),
        ("--probes", "hessian.probes"),
        ("--bins", "hessian.bins"))),
    "proxy": (cmd_proxy, "spectral error proxy from a spectrum CSV", COMMON + (
        ("--spectrum", {}),
        ("--eta", "proxy.eta"),
        ("--tmax", "proxy.tmax"),
        ("--threshold", "proxy.threshold"),
        ("--scale", {"dest": "proxy.scale", "choices": ["eta", "raw"]}))),
    "kappa": (cmd_kappa, "condition number vs step count", COMMON + (
        ("--model", "model.kind"),
        ("--eta", "kappa.eta"),
        ("--order", "kappa.order"),
        ("--steps-list", "kappa.steps"),
        ("--method", {"dest": "kappa.method",
                      "choices": ["dense_svd", "power_iteration"]}))),
    "report": (cmd_report, "summarize an existing run directory", (
        ("--run", {"required": True}),
        ("--out", {}))),
}
COMMANDS = tuple(SUBCOMMANDS)


def build_parser(command=None):
    """The argument parser of `carlgd`, with the subparser of `command`
    alone, or of every subcommand when `command` is None. A subparser's
    usage, help and errors do not depend on its siblings, and the top-level
    usage names all of COMMANDS either way, so a one-command parser prints
    what the full one prints for that command's arguments."""
    parser = _Parser(prog="carlgd",
                     description="Carleman-linearized gradient-descent "
                                 "simulator and diagnostics")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name, (func, help_line, flags) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            for option, spec in flags:
                p.add_argument(option, **(spec if isinstance(spec, dict)
                                          else {"dest": spec}))
            p.set_defaults(func=func)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            rc, line = 0, cmd_report(args)
        else:
            started = time.perf_counter()
            cfg = config.resolve(args.config, _overrides(args))
            if not args.out:
                raise InputError("--out directory is required")
            out = Path(args.out)
            with writing(out):
                out.mkdir(parents=True, exist_ok=True)
            outputs, rc, line = args.func(args, cfg, out)
            write_manifest(out, args.command, cfg, outputs, started)
        try:
            print(line, flush=True)
        except BrokenPipeError:  # a reader that has gone: quiet the exit's flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return rc
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
