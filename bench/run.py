"""carlgd benchmark: seeded CLI workloads driven in-process.

Run from a checkout of the repository:

    python3 bench/run.py --workload pipeline_pruned --seed 1 --seconds 40 --trace 0

One process imports carlgd from src/, builds the workload's ops from the
seed, runs one untimed warm-up op, then repeats the pass of ops for
`--seconds` and reports:

  --trace 0  end-to-end metrics, with no wrapper installed: wall_s (each
             op's fastest run, summed over the pass), setup_s (median
             import-and-load time of fresh interpreters) and peak_rss_mb;
  --trace 1  per-layer metrics from passes run under the tracer, and
             trace_overhead_s against untraced passes run in between.

Both modes check the outputs and print a summary before the last line,
which is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Spans and a full result record go to .bench_out/. See bench/README.md.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import svdvals

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IRIS = BENCH / "data" / "iris.csv"

SETUP_REPEATS = 9
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import carlgd
carlgd.load_iris(sys.argv[1])
print(time.perf_counter() - t0)
"""
KAPPA_TOLERANCE = 1e-3  # relative; the power iteration stops at 1e-12 on sigma^2
RUNAWAY = 1.0  # an op whose max err_l2 exceeds this has left exact GD


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import carlgd from this checkout's src/ and nowhere else."""
    if not (SRC / "carlgd" / "__init__.py").is_file():
        sys.exit(f"bench: no carlgd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import carlgd
    import carlgd.cli
    if Path(carlgd.__file__).resolve().parent != SRC / "carlgd":
        sys.exit(f"bench: imported carlgd from {carlgd.__file__}, not {SRC}")
    return carlgd


def environment(carlgd):
    """Commit, versions and the thread budget of this run."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "carlgd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    import scipy
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "carlgd": getattr(carlgd, "__version__", None),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "processes": 1}


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or null if not found."""
    import ctypes
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(handle, symbol, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    return None


def measure_setup():
    """Median over fresh interpreters of `import carlgd` plus loading Iris,
    the set-up every CLI invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(IRIS)],
                               cwd=ROOT, env=env, capture_output=True,
                               text=True, timeout=120, check=True)
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class OpRun:
    rc: object  # exit code, or None when the op raised
    wall: float
    stdout: str
    stderr: str


def run_op(cli, op, outdir):
    """One CLI invocation in this process; only `cli.main` is timed."""
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.iterdir():
        stale.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main([*op.argv, "--out", str(outdir)])
        except Exception:  # an op that raises is a failed op; the pass goes on
            rc = None
            traceback.print_exc()
        wall = time.perf_counter() - start
    return OpRun(rc, wall, out.getvalue(), err.getvalue())


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def max_err_l2(outdir):
    """Max err_l2 over trajectory.csv, as `carlgd report` computes it, with
    NaN ordered above every number."""
    errs = [float(r["err_l2"]) for r in read_rows(outdir / "trajectory.csv")]
    return max(float("inf") if e != e else e for e in errs)


def reported_dim(op, outdir, stdout):
    if op.argv[0] == "pipeline":
        dims = {int(r["D"]) for r in read_rows(outdir / "segments.csv")}
        return dims.pop() if len(dims) == 1 else sorted(dims)
    found = re.search(r"\bD=(\d+)", stdout)
    return int(found.group(1)) if found else None


def csv_digest(outdir):
    digest = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@dataclass
class Ledger:
    """Outcome of every timed op execution and the checks on its outputs."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    repeats: int = 0
    max_err: dict = field(default_factory=dict)
    csv_bytes: dict = field(default_factory=dict)

    def record(self, op, run, outdir, timed=True):
        if timed:
            self.attempted += 1
        if run.rc != 0:
            self.failed += timed
            last = run.stderr.strip().splitlines()[-1:] or [""]
            self.errors.append(f"{op.name}: exit {run.rc}: {last[0]}")
            return
        try:
            digest = csv_digest(outdir)
            if op.name in self.digests:
                if digest == self.digests[op.name]:
                    self.repeats += 1
                else:
                    self.problems.append(f"{op.name}: CSVs differ between repeats")
                return
            self.digests[op.name] = digest
            dim = reported_dim(op, outdir, run.stdout)
            if dim != op.expected_dim:
                self.problems.append(f"{op.name}: D={dim}, expected {op.expected_dim}")
            self.max_err[op.name] = max_err_l2(outdir)
            self.csv_bytes[op.name] = sum(p.stat().st_size for p in outdir.glob("*.csv"))
        except (OSError, KeyError, ValueError) as e:
            self.problems.append(f"{op.name}: unreadable outputs: {e!r}")


def run_pass(cli, ops, work, ledger, walls, trace=None):
    """Run the ops in order, appending each op's wall to walls[op.name];
    returns the pass wall."""
    total = 0.0
    for op in ops:
        if trace is not None:
            trace.op = op.name
        run = run_op(cli, op, work / op.name)
        walls.setdefault(op.name, []).append(run.wall)
        total += run.wall
        ledger.record(op, run, work / op.name)
    return total


def best_pass(walls):
    """Pass wall at the best speed seen: each op's fastest run, summed."""
    return sum(min(w) for w in walls.values())


def timed_window(seconds, one_round):
    """Repeat `one_round` for as many rounds as brings the window closest
    to `seconds`, at least one; returns the number of rounds."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return rounds


def dense_kappa(G):
    """sigma_max / sigma_min of the global matrix L, by dense SVD, built
    from the step operator: I on the diagonal, -S on the subdiagonal."""
    T, D = G.T, G.D
    S = G.S.toarray()
    L = np.eye((T + 1) * D)
    for t in range(1, T + 1):
        L[t * D:(t + 1) * D, (t - 1) * D:t * D] = -S
    sigma = svdvals(L)
    return float(sigma[0] / sigma[-1])


def capture_kappa(carleman, call):
    """Run `call` and return every (system, kappa) that condition_number
    returned meanwhile; [] when the function does not exist."""
    original = getattr(carleman, "condition_number", None)
    captured = []

    def capturing(G, *args, **kwargs):
        kappa = original(G, *args, **kwargs)
        captured.append((G, kappa))
        return kappa

    if original is not None:
        carleman.condition_number = capturing
    try:
        call()
    finally:
        if original is not None:
            carleman.condition_number = original
    return captured


def quality(ops, ledger, kappa_rel_err):
    errs = [ledger.max_err[op.name] for op in ops if op.name in ledger.max_err]
    return {
        "fail_rate": (ledger.failed / ledger.attempted, "1"),
        "err_l2_p50": (statistics.median(errs) if errs else None, "1"),
        "runaway_rate": (sum(not e <= RUNAWAY for e in errs) / len(ops), "1"),
        "kappa_rel_err": (kappa_rel_err, "1"),
    }


def fmt(value):
    return "null" if value is None else f"{value:.6g}"


def main():
    args = parse_args()
    carlgd = import_program()
    cli, carleman = carlgd.cli, carlgd.carleman
    env = environment(carlgd)
    setup_s = measure_setup() if args.trace == 0 else None

    work = OUT / "work" / args.workload
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    ops = workloads.build(args.workload, args.seed, IRIS)
    ledger = Ledger()

    # Warm-up: the pass's first op, untimed, also capturing its kappa systems
    # for the dense-SVD reference computed after the timed window.
    warm = work / ops[0].name
    captured = capture_kappa(carleman, lambda: ledger.record(
        ops[0], run_op(cli, ops[0], warm), warm, timed=False))

    trace = tracer.Tracer(carlgd)
    untraced, traced = {}, {}
    traced_passes = []  # (pass wall, first span, end span)

    def one_round():
        run_pass(cli, ops, work, ledger, untraced)
        if args.trace:
            lo = len(trace.spans)
            trace.install()
            try:
                wall = run_pass(cli, ops, work, ledger, traced, trace)
            finally:
                trace.uninstall()
            traced_passes.append((wall, lo, len(trace.spans)))

    rounds = timed_window(args.seconds, one_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    kappa_rel_err = None
    if captured:
        refs = [(k, dense_kappa(G)) for G, k in captured]
        kappa_rel_err = max(abs(k - ref) / ref for k, ref in refs)
        if not kappa_rel_err <= KAPPA_TOLERANCE:
            ledger.problems.append(f"kappa off the dense-SVD reference by "
                                   f"{kappa_rel_err:.3g} > {KAPPA_TOLERANCE}")
    wall_s = best_pass(untraced)
    summary = {"median_pass_wall_s": (statistics.median(
        sum(w[i] for w in untraced.values()) for i in range(rounds)), "s")}
    if args.trace == 0:
        metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    else:
        _, lo, hi = min(traced_passes)
        layers = tracer.layer_metrics(trace.spans, lo, hi, trace.missing)
        metrics = {name: (layers[name], unit)
                   for name, (unit, _) in tracer.METRICS.items()}
        metrics["cli.bytes_written"] = (sum(ledger.csv_bytes.values()), "B")
        metrics["trace_overhead_s"] = (best_pass(traced) - wall_s, "s")
        summary.update({"wall_s": (wall_s, "s"),
                        "traced_wall_s": (best_pass(traced), "s")})
        OUT.mkdir(parents=True, exist_ok=True)
        trace.write(OUT / f"spans-{tag}.jsonl")
    summary.update(quality(ops, ledger, kappa_rel_err))
    if not ledger.digests:
        ledger.problems.append("no op succeeded")
    correct = not ledger.problems

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of "
          + ("an untraced and a traced pass" if args.trace else "one pass")
          + f" of {len(ops)} ops; {ledger.attempted} ops timed, "
          + f"{ledger.failed} failed; {ledger.repeats} repeats matched bitwise")
    for name, (value, unit) in {**metrics, **summary}.items():
        print(f"  {name:36s} {fmt(value):>14s} {unit}")
    if trace.missing:
        print(f"  not found, metrics null: {', '.join(sorted(trace.missing))}")
    for line in ledger.errors[:5] + ledger.problems:
        print(f"  ! {line}")

    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"BENCH_{tag}.json", "w") as f:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env,
                   "summary": {k: v for k, (v, _) in summary.items()},
                   "op_walls": {"untraced": untraced, "traced": traced},
                   "problems": ledger.problems,
                   "errors": ledger.errors}, f, indent=2, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
