"""Per-layer tracing from outside the program.

The tracer replaces module attributes that the program looks up at call
time (`carleman.embed`, `models.hessian`, `GlobalSystem.solve_lower`, ...)
with wrappers that record one span per call, and puts the originals back
afterwards. Nothing under src/ is edited. A name that does not exist is
skipped, and the metrics that depend only on it read null.

A span is [op, name, start, end, parent, extra]: `parent` is the index of
the enclosing span (-1 for a root) and `extra` a value read from the call's
arguments or result, such as the returned matrix's dimension. Self time is
a span's duration minus the durations of its direct children.
"""

import json
import time
from collections import defaultdict

KAPPA = "carleman.condition_number"
SOLVE = "carleman.solve"
SUBSTITUTIONS = ("carleman.GlobalSystem.solve_lower",
                 "carleman.GlobalSystem.solve_lower_t")
PIPELINE = ("pipeline.run_pipeline", "pipeline.simulate", "pipeline.pretrain")


def _solve_work(args, result):
    """(flops, bytes) of the sparse products y <- S y over T steps.

    Computed from nnz(S), D and T: per step 2 flops per stored entry; the
    entries and their column indices, the row pointers, and three length-D
    vectors (read, write, stored row). Cache misses are not counted.
    """
    G = args[0]
    S = G.S
    per_step = (S.nnz * (S.data.itemsize + S.indices.itemsize)
                + (G.D + 1) * S.indptr.itemsize + 3 * G.D * 8)
    return 2.0 * S.nnz * G.T, float(per_step * G.T)


# (owner path, attribute, extra). The owner path is resolved against the
# imported carlgd modules; the span name is "<owner path>.<attribute>".
TARGETS = (
    ("cli", "main", None),
    ("cli", "write_csv", None),
    ("pipeline", "run_pipeline", None),
    ("pipeline", "simulate", None),
    ("pipeline", "pretrain", None),
    ("polyfield", "from_model", lambda args, res: res.nnz()),
    ("models", "hessian", None),
    ("models", "grad", None),
    ("models", "sgd_reference", None),
    ("models", "loss", None),
    ("models", "accuracy", None),
    ("carleman", "embed", lambda args, res: res.D),
    ("carleman", "build_global", lambda args, res: res.S.nnz),
    ("carleman", "solve", _solve_work),
    ("carleman", "readout", None),
    ("carleman", "condition_number", None),
    ("carleman.GlobalSystem", "solve_lower", _solve_work),
    ("carleman.GlobalSystem", "solve_lower_t", _solve_work),
)

# Per-layer metric -> (unit, the span names it is read from). A metric
# whose names are all missing reads null.
METRICS = {
    "models.hessian.calls": ("count", ("models.hessian",)),
    "models.hessian.self_s": ("s", ("models.hessian",)),
    "models.sgd_reference.self_s": ("s", ("models.sgd_reference",)),
    "models.loss.self_s": ("s", ("models.loss",)),
    "models.accuracy.self_s": ("s", ("models.accuracy",)),
    "polyfield.from_model.calls": ("count", ("polyfield.from_model",)),
    "polyfield.from_model.self_s": ("s", ("polyfield.from_model",)),
    "polyfield.field_nnz": ("count", ("polyfield.from_model",)),
    "carleman.condition_number.calls": ("count", (KAPPA,)),
    "carleman.condition_number.total_s": ("s", (KAPPA,)),
    "carleman.kappa_solves": ("count", SUBSTITUTIONS),
    "carleman.embed.calls": ("count", ("carleman.embed",)),
    "carleman.embed.self_s": ("s", ("carleman.embed",)),
    "carleman.D": ("count", ("carleman.embed",)),
    "carleman.nnz_S": ("count", ("carleman.build_global",)),
    "carleman.build_global.self_s": ("s", ("carleman.build_global",)),
    "carleman.solve.self_s": ("s", (SOLVE,) + SUBSTITUTIONS),
    "carleman.solve.gflop": ("GFLOP", (SOLVE,) + SUBSTITUTIONS),
    "carleman.solve.gbytes": ("GB", (SOLVE,) + SUBSTITUTIONS),
    "carleman.readout.self_s": ("s", ("carleman.readout",)),
    "pipeline.self_s": ("s", PIPELINE),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.write_csv.self_s": ("s", ("cli.write_csv",)),
}


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until
    `write`."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.op = None  # identifier shared by the spans of one op
        self.missing = set()
        self._stack = []
        self._restore = []

    def _owner(self, path):
        owner = self.package
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        return owner

    def install(self):
        self.missing = set()
        for path, attr, extra in TARGETS:
            name = f"{path}.{attr}"
            owner = self._owner(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            setattr(owner, attr, self._wrap(name, original, extra))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, original, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [self.op, name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                try:
                    span[5] = extra(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the value moved or was renamed: its metric reads null
            return result

        return traced

    def write(self, path):
        with open(path, "w") as f:
            for op, name, start, end, parent, extra in self.spans:
                f.write(json.dumps({"op": op, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "extra": extra}) + "\n")


def _scaled(value):
    return None if value is None else value / 1e9


def layer_metrics(spans, lo, hi, missing):
    """Per-layer metrics of the spans [lo, hi), which must hold whole ops
    (every parent index of a non-root span lies in the range)."""
    n = hi - lo
    child = [0.0] * n
    in_kappa = [False] * n
    in_solve = [False] * n
    for i in range(lo, hi):
        _, _, start, end, parent, _ = spans[i]
        if parent >= 0:
            p = parent - lo
            pname = spans[parent][1]
            child[p] += end - start
            in_kappa[i - lo] = in_kappa[p] or pname == KAPPA
            in_solve[i - lo] = in_solve[p] or pname == SOLVE or pname in SUBSTITUTIONS

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    extras = defaultdict(list)
    for i in range(lo, hi):
        _, name, start, end, _, extra = spans[i]
        if name == SOLVE or name in SUBSTITUTIONS:
            # Substitutions under condition_number are kappa work; any other
            # solve-family call is the trajectory solve, whatever its name.
            key = "kappa_solve" if in_kappa[i - lo] else SOLVE
            if in_solve[i - lo]:
                extra = (0.0, 0.0)  # nested solve: work already counted
        else:
            key = name
        calls[key] += 1
        self_s[key] += end - start - child[i - lo]
        total_s[key] += end - start
        extras[key].append(extra)

    def read(key, reduce, pick=lambda e: e):
        """Reduce the extras of `key`; null when any could not be read."""
        if None in extras[key] or not extras[key] and reduce is max:
            return None
        return reduce(pick(e) for e in extras[key])

    values = {
        "models.hessian.calls": calls["models.hessian"],
        "models.hessian.self_s": self_s["models.hessian"],
        "models.sgd_reference.self_s": self_s["models.sgd_reference"],
        "models.loss.self_s": self_s["models.loss"],
        "models.accuracy.self_s": self_s["models.accuracy"],
        "polyfield.from_model.calls": calls["polyfield.from_model"],
        "polyfield.from_model.self_s": self_s["polyfield.from_model"],
        "polyfield.field_nnz": read("polyfield.from_model", sum),
        "carleman.condition_number.calls": calls[KAPPA],
        "carleman.condition_number.total_s": total_s[KAPPA],
        "carleman.kappa_solves": calls["kappa_solve"],
        "carleman.embed.calls": calls["carleman.embed"],
        "carleman.embed.self_s": self_s["carleman.embed"],
        "carleman.D": read("carleman.embed", max),
        "carleman.nnz_S": read("carleman.build_global", max),
        "carleman.build_global.self_s": self_s["carleman.build_global"],
        "carleman.solve.self_s": self_s[SOLVE],
        "carleman.solve.gflop": _scaled(read(SOLVE, sum, lambda w: w[0])),
        "carleman.solve.gbytes": _scaled(read(SOLVE, sum, lambda w: w[1])),
        "carleman.readout.self_s": self_s["carleman.readout"],
        "pipeline.self_s": sum(self_s[name] for name in PIPELINE),
        "cli.self_s": self_s["cli.main"],
        "cli.write_csv.self_s": self_s["cli.write_csv"],
    }
    for metric, (_, sources) in METRICS.items():
        if all(name in missing for name in sources):
            values[metric] = None
    if KAPPA in missing:  # substitutions cannot be told apart from the solve
        values["carleman.kappa_solves"] = None
    return values
