"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines."""

import functools
import json
import time

import mpmath as mp
import numpy as np

import carlgd
from carlgd import diagnostics, pipeline
from carlgd.cli import main as cli_main

from conftest import IRIS_CSV

MLP = carlgd.ModelSpec(kind="mlp", layer_widths=(4, 3, 3),
                       activation="quadratic_poly", alpha=0.1)
IRIS = carlgd.load_iris(IRIS_CSV)


def criterion(number, name, seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL "
                      f"[{time.perf_counter() - start:.2f}s]")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < seconds, f"runtime {elapsed:.1f}s over budget"
            print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")
        return run
    return wrap


@criterion(1, "linear exactness", seconds=1.0)
def test_acceptance_1_linear_exactness():
    spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(1.0, 4.0))
    res = pipeline.simulate(spec, None, carlgd.ParamVector([1.0, 1.0]),
                            eta=0.1, order=1, steps=100)
    assert max(res.records["err_l2"]) < 1e-10


@criterion(2, "order-N convergence", seconds=10.0)
def test_acceptance_2_order_convergence():
    # cubic testbed: update field a*theta + b*theta^3 with a = b = -0.1
    spec = carlgd.ModelSpec(kind="scalar_cubic", coefficients=(1.0, 1.0))
    T = 50
    # high-resolution oracle: the training recursion in 50-digit arithmetic
    mp.mp.dps = 50
    th = mp.mpf("0.5")
    ref = [0.5]
    for _ in range(T):
        th = th - mp.mpf("0.1") * (th + th ** 3)
        ref.append(float(th))
    ref = np.array(ref)
    errs = []
    for N in (1, 2, 3, 4):
        res = pipeline.simulate(spec, None, carlgd.ParamVector([0.5]),
                                eta=0.1, order=N, steps=T, degree=3)
        errs.append(np.abs(res.approx[:, 0] - ref).max())
    assert all(errs[i + 1] < errs[i] for i in range(3)), \
        f"max errors not strictly decreasing over N=1..4: {errs}"


@criterion(3, "Iris end-to-end tracking", seconds=300.0)
def test_acceptance_3_iris_tracking():
    params0 = carlgd.init_params(MLP, 0)
    res = pipeline.simulate(MLP, IRIS, params0, eta=0.05, order=2, steps=25)
    loss_hat = res.records["loss"]
    loss_ref = np.array([carlgd.loss(MLP, res.exact[t], IRIS)
                         for t in range(26)])
    rel = np.abs(loss_hat - loss_ref) / loss_ref
    assert rel[:21].max() < 0.05, f"loss deviates by {rel[:21].max():.3%}"
    # single-parameter error series has a finite log-log slope
    index = int(np.random.default_rng(7).integers(MLP.n))
    err = carlgd.trajectory_error(res.approx, res.exact, mode="single_param",
                                  param_index=index)
    slope = carlgd.loglog_slope(err[:21])
    assert np.isfinite(slope)


@criterion(4, "error proxy", seconds=1.0)
def test_acceptance_4_error_proxy():
    # 95% of the mass at a=-0.5, 5% at a=+0.5 (eta=1, lambda = -a)
    spect = diagnostics.Spectrum(n=20, method="direct",
                                 eigenvalues=np.array([0.5] * 19 + [-0.5]))
    E = carlgd.error_proxy(spect, eta=1.0, t_range=range(202))
    assert E[0] == 1.0
    assert E[1] < E[0] and E[3] < E[1]       # early decrease
    assert E[10] > E[3] and E[200] > E[10]   # divergent mode takes over
    ratio = E[201] / E[200]
    assert abs(ratio - 1.5) <= 0.015
    # exact value on the four-eigenvalue example
    four = diagnostics.Spectrum(n=4, method="direct",
                                eigenvalues=np.array([0.5, 0.5, 0.5, -0.5]))
    E4 = carlgd.error_proxy(four, eta=1.0, t_range=[5])
    assert E4[0] == 1.921875


@criterion(5, "re-upload error reset", seconds=600.0)
def test_acceptance_5_reupload_reset():
    dense = pipeline.pretrain(MLP, IRIS, steps=200, eta=0.05, seed=0)
    pruned = pipeline.prune_topk(dense, 0.2)
    sched = carlgd.Schedule(total_steps=100, eta=0.05, reupload_period=20,
                            classical_refine_steps=0, carleman_order=2,
                            prune_fraction=0.2)
    report = pipeline.run_pipeline(MLP, IRIS, sched, pruned, seed=0)
    assert report.diverged_at is None
    assert report.segments["segment"].size == 5
    err = report.steps["err_l2"]
    seg = report.steps["segment"]
    for s in range(5):
        rows = np.where(seg == s)[0]
        first = rows[1] if s == 0 else rows[0]  # row 0 is the initial upload
        assert err[first] == 0.0, f"segment {s} did not restart at zero"
        assert err[rows[-1]] > 0.0, f"segment {s} error never grew"


@criterion(6, "pruning contract", seconds=1.0)
def test_acceptance_6_pruning_contract():
    rng = np.random.default_rng(0)
    for n in (10, 27, 50):
        values = rng.standard_normal(n)
        pruned = pipeline.prune_topk(carlgd.ParamVector(values), 0.1)
        k = int(np.ceil(0.1 * n))
        assert pruned.mask.sum() == k
        kept = np.sort(np.abs(pruned.values[pruned.mask]))
        dropped = np.abs(values[~pruned.mask])
        assert kept[0] >= dropped.max()
        again = pipeline.prune_topk(pruned, 0.1)
        assert np.array_equal(again.values, pruned.values)
        assert np.array_equal(again.mask, pruned.mask)
    # documented tie-break: equal magnitudes keep the lower index
    tie = pipeline.prune_topk(carlgd.ParamVector([0.5, -0.5]), 0.5)
    assert tie.mask[0] and not tie.mask[1]
    # masked coordinates stay zero through a full pipeline run
    spec = carlgd.ModelSpec(kind="diag_quadratic",
                            coefficients=(1.0, 4.0, 2.0, 0.5, 3.0))
    start = pipeline.prune_topk(
        carlgd.ParamVector(rng.standard_normal(5)), 0.4)
    sched = carlgd.Schedule(total_steps=30, eta=0.1, reupload_period=10,
                            classical_refine_steps=3, carleman_order=2,
                            prune_fraction=0.4)
    report = pipeline.run_pipeline(spec, None, sched, start, seed=0)
    assert np.all(report.final.values[~start.mask] == 0.0)
    sim = pipeline.simulate(spec, None, start, eta=0.1, order=2, steps=10)
    assert np.all(sim.approx[:, ~start.mask] == 0.0)


@criterion(7, "conditioning vs dissipativity", seconds=30.0)
def test_acceptance_7_conditioning():
    from carlgd import carleman, polyfield

    def kappa_series(coeff, Ts):
        spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(coeff,))
        fld = polyfield.from_model(spec, None, np.zeros(1), 1, 0.1)
        M = carleman.embed(fld, 1)
        return [carlgd.condition_number(
            carleman.build_global(M, M.initial_state(np.ones(1)), T),
            "dense_svd") for T in Ts]

    Ts = (5, 10, 20, 40)
    dissipative = kappa_series(5.0, Ts)   # step multiplier 0.5
    assert max(dissipative) < 4.0
    marginal = kappa_series(0.0, Ts)      # step multiplier 1.0
    for (t1, k1), (t2, k2) in zip(zip(Ts, marginal), zip(Ts[1:], marginal[1:])):
        assert (k2 - k1) / (t2 - t1) >= 1.0, "kappa not growing linearly"
    base = dict(n=1024, s=8, kappa=3.0, eps=0.01)
    assert carlgd.cost_estimate(T=64, regime="fully", **base) \
        / carlgd.cost_estimate(T=32, regime="fully", **base) == 2.0
    assert carlgd.cost_estimate(T=64, regime="almost", **base) \
        / carlgd.cost_estimate(T=32, regime="almost", **base) == 4.0


@criterion(8, "gradient/Hessian oracles", seconds=120.0)
def test_acceptance_8_derivative_oracles():
    rng = np.random.default_rng(0)
    h = 1e-4
    worst = 0.0
    for _ in range(20):
        theta = rng.standard_normal(MLP.n) * 0.5
        g = carlgd.grad(MLP, theta, IRIS)
        fd = np.empty_like(g)
        for j in range(theta.size):
            tp = theta.copy(); tp[j] += h
            tm = theta.copy(); tm[j] -= h
            fd[j] = (carlgd.loss(MLP, tp, IRIS)
                     - carlgd.loss(MLP, tm, IRIS)) / (2 * h)
        worst = max(worst, np.linalg.norm(g - fd) / np.linalg.norm(fd))
    assert worst < 1e-5, f"gradient mismatch {worst:.2e}"

    theta = rng.standard_normal(MLP.n) * 0.5
    hstep = 1e-5
    for _ in range(10):
        v = rng.standard_normal(MLP.n)
        fd = (carlgd.grad(MLP, theta + hstep * v, IRIS)
              - carlgd.grad(MLP, theta - hstep * v, IRIS)) / (2 * hstep)
        hv = carlgd.hvp(MLP, theta, IRIS, v)
        assert np.linalg.norm(hv - fd) < 1e-4 * np.linalg.norm(fd)

    wide = carlgd.ModelSpec(kind="mlp", layer_widths=(4, 16, 8, 3),
                            activation="quadratic_poly", alpha=0.1)
    assert wide.n <= 512
    point = carlgd.init_params(wide, 3)
    direct = carlgd.spectrum(wide, point, IRIS, method="direct")
    lanczos = carlgd.spectrum(wide, point, IRIS, method="lanczos",
                              k=80, probes=16, seed=0)
    dist = carlgd.histogram_l1(direct, lanczos, nbins=20)
    assert dist < 0.05, f"histogram distance {dist:.3f}"


@criterion(9, "manifest determinism", seconds=120.0)
def test_acceptance_9_manifest_determinism(tmp_path):
    cfg = {
        "data.path": str(IRIS_CSV),
        "pretrain.steps": 100, "pretrain.eta": 0.05,
        "schedule.steps": 40, "schedule.reupload_period": 20,
        "schedule.refine_steps": 10, "schedule.order": 2,
        "schedule.prune_fraction": 0.2, "schedule.eta": 0.05,
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert cli_main(["pipeline", "--config", str(cfg_path),
                     "--out", str(first)]) == 0
    assert cli_main(["pipeline", "--config", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
    for name in ("trajectory.csv", "segments.csv", "final_params.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), \
            f"{name} not reproduced bitwise"
    # simulate runs reproduce the same way
    simA = tmp_path / "simA"
    simB = tmp_path / "simB"
    args = ["simulate", "--data", str(IRIS_CSV), "--order", "2",
            "--steps", "15", "--eta", "0.05", "--seed", "4"]
    assert cli_main(args + ["--out", str(simA)]) == 0
    assert cli_main(["simulate", "--config", str(simA / "manifest.json"),
                     "--out", str(simB)]) == 0
    for name in ("trajectory.csv", "params.csv"):
        assert (simA / name).read_bytes() == (simB / name).read_bytes()
