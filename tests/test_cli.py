import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import carlgd
from carlgd import carleman, cli, config, models, polyfield, util
from carlgd.cli import CLI_ONLY, COMMANDS, build_parser, main, write_csv
from carlgd.errors import ConvergenceError
from carlgd.util import count_text

from conftest import IRIS_CSV


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_simulate_matches_library_solve(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--model", "scalar_cubic", "--order", "3",
               "--steps", "50", "--eta", "0.1", "--theta0", "0.5",
               "--anchor", "zero", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "params.csv")
    got = np.array([float(r["param_0"]) for r in rows])

    spec = carlgd.ModelSpec(kind="scalar_cubic")
    fld = polyfield.from_model(spec, None, np.zeros(1), 3, 0.1)
    M = carleman.embed(fld, 3)
    G = carleman.build_global(M, M.initial_state(np.array([0.5])), 50)
    Y = carleman.solve(G)
    np.testing.assert_array_equal(got, Y[:, M.order_one_slice()].ravel())


def scipy_loaded(argv):
    """In a fresh interpreter, where no other test has imported scipy: the
    scipy.sparse and scipy.linalg modules loaded after `import carlgd`, the
    exit code of `main(argv)` and the modules loaded after it."""
    code = ("import json, sys\n"
            "parts = ('scipy.sparse', 'scipy.linalg')\n"
            "import carlgd\n"
            "after_import = [p for p in parts if p in sys.modules]\n"
            "from carlgd.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(json.dumps([after_import, rc,\n"
            "                  [p for p in parts if p in sys.modules]]))\n")
    src = str(Path(carlgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_simulate_leave_scipy_unloaded(tmp_path):
    """The lift and the solve run on numpy alone: importing carlgd and a
    simulate run load neither scipy.sparse nor scipy.linalg. The manifest
    still records the scipy version."""
    out = tmp_path / "run"
    after_import, rc, after_run = scipy_loaded(
        ["simulate", "--model", "scalar_cubic", "--order", "3", "--steps", "50",
         "--eta", "0.1", "--theta0", "0.5", "--out", str(out)])
    assert (after_import, rc, after_run) == ([], 0, [])
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    assert isinstance(versions["scipy"], str)


def test_pipeline_leaves_sparse_linalg_unloaded(tmp_path):
    """A D = 111 pipeline op, kappa included, loads scipy.linalg for the
    Ritz test of kappa's Lanczos recurrence, and never scipy.sparse: at
    this size the solve and kappa both multiply by a dense copy of S."""
    argv = ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "20",
            "--steps", "4", "--reupload", "2", "--refine", "0",
            "--order", "2", "--fraction", "0.37", "--eta", "0.05",
            "--set", "pipeline.kappa_method=power_iteration",
            "--out", str(tmp_path / "run")]
    after_import, rc, after_run = scipy_loaded(argv)
    assert (after_import, rc, after_run) == ([], 0, ["scipy.linalg"])
    segment = read_csv(tmp_path / "run" / "segments.csv")[0]
    assert segment["kappa_method"] == "power_iteration"
    assert segment["D"] == "111"


def test_dense_kappa_leaves_sparse_unloaded(tmp_path):
    """The dense-SVD kappa builds L as a dense array from S: it loads
    scipy.linalg for the SVD, and never scipy.sparse."""
    argv = ["kappa", "--model", "scalar_cubic", "--order", "3",
            "--steps-list", "5,10", "--method", "dense_svd",
            "--out", str(tmp_path / "run")]
    after_import, rc, after_run = scipy_loaded(argv)
    assert (after_import, rc, after_run) == ([], 0, ["scipy.linalg"])
    assert len(read_csv(tmp_path / "run" / "kappa.csv")) == 2


def test_pipeline_deterministic_across_runs(tmp_path):
    cfg = {
        "data.path": str(IRIS_CSV),
        "pretrain.steps": 100, "pretrain.eta": 0.05,
        "schedule.steps": 20, "schedule.reupload_period": 10,
        "schedule.refine_steps": 0, "schedule.order": 2,
        "schedule.prune_fraction": 0.2, "schedule.eta": 0.05,
        "seed": 0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(b)]) == 0
    for name in ("trajectory.csv", "segments.csv", "final_params.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_round_trip_bitwise(tmp_path):
    cfg = {
        "data.path": str(IRIS_CSV),
        "pretrain.steps": 80, "pretrain.eta": 0.05,
        "schedule.steps": 20, "schedule.reupload_period": 10,
        "schedule.refine_steps": 5, "schedule.order": 2,
        "schedule.prune_fraction": 0.2, "schedule.eta": 0.05,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(a)]) == 0
    # re-run from the emitted manifest, not the original config
    assert main(["pipeline", "--config", str(a / "manifest.json"),
                 "--out", str(b)]) == 0
    for name in ("trajectory.csv", "segments.csv", "final_params.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["command"] == "pipeline"
    assert manifest["config"]["schedule.steps"] == 20
    assert set(manifest["outputs"]) == {"trajectory.csv", "segments.csv",
                                        "final_params.csv"}


def test_trajectory_csv_schema(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--model", "diag_quadratic",
          "--set", "model.coefficients=[1,4]", "--theta0", "1,1",
          "--eta", "0.1", "--steps", "5", "--order", "1", "--out", str(out)])
    with open(out / "trajectory.csv") as f:
        header = f.readline().strip()
    assert header == "step,loss,accuracy,err_l2,err_linf,segment,phase"


def test_proxy_four_eigenvalue_example(tmp_path):
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text(
        "index,eigenvalue\n0,0.5\n1,0.5\n2,0.5\n3,-0.5\n")
    out = tmp_path / "run"
    rc = main(["proxy", "--spectrum", str(spectrum), "--eta", "1.0",
               "--tmax", "100", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "proxy.csv")
    assert rows[0]["E"] == "1"
    assert rows[5]["E"] == "1.921875"


def test_pretrain_then_prune_chain(tmp_path):
    pre = tmp_path / "pre"
    rc = main(["pretrain", "--data", str(IRIS_CSV), "--steps", "50",
               "--eta", "0.05", "--out", str(pre)])
    assert rc == 0
    rows = read_csv(pre / "params.csv")
    assert len(rows) == 27
    pr = tmp_path / "pruned"
    rc = main(["prune", "--params", str(pre / "params.csv"),
               "--fraction", "0.1", "--out", str(pr)])
    assert rc == 0
    rows = read_csv(pr / "masked_params.csv")
    kept = sum(int(r["mask"]) for r in rows)
    assert kept == 3  # ceil(0.1 * 27)
    zeroed = [float(r["value"]) for r in rows if r["mask"] == "0"]
    assert all(v == 0.0 for v in zeroed)


def test_hessian_direct_and_lanczos_schemas(tmp_path):
    d = tmp_path / "direct"
    rc = main(["hessian", "--data", str(IRIS_CSV), "--method", "direct",
               "--out", str(d)])
    assert rc == 0
    rows = read_csv(d / "spectrum.csv")
    assert len(rows) == 27 and set(rows[0]) == {"index", "eigenvalue"}

    l = tmp_path / "lanczos"
    rc = main(["hessian", "--data", str(IRIS_CSV), "--method", "lanczos",
               "--bins", "12", "--out", str(l)])
    assert rc == 0
    rows = read_csv(l / "spectrum.csv")
    assert len(rows) == 12
    assert set(rows[0]) == {"bin_left", "bin_right", "density"}
    # density integrates to one
    total = sum(float(r["density"])
                * (float(r["bin_right"]) - float(r["bin_left"])) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_proxy_accepts_histogram_spectrum(tmp_path):
    spectrum = tmp_path / "spectrum.csv"
    # two bins centered at 0.5 and -0.5 carrying 75% / 25% of the mass
    spectrum.write_text("bin_left,bin_right,density\n"
                        "0.4,0.6,3.75\n-0.6,-0.4,1.25\n")
    out = tmp_path / "run"
    assert main(["proxy", "--spectrum", str(spectrum), "--eta", "1.0",
                 "--tmax", "2", "--out", str(out)]) == 0
    rows = read_csv(out / "proxy.csv")
    assert rows[0]["E"] == "1"
    # E(1) = 0.75*|1-0.5| + 0.25*|1+0.5|
    assert float(rows[1]["E"]) == pytest.approx(0.75)


def test_hessian_at_masked_params(tmp_path):
    pre = tmp_path / "pre"
    main(["pretrain", "--data", str(IRIS_CSV), "--steps", "50",
          "--eta", "0.05", "--out", str(pre)])
    pruned = tmp_path / "pruned"
    main(["prune", "--params", str(pre / "params.csv"),
          "--fraction", "0.2", "--out", str(pruned)])
    out = tmp_path / "spec"
    rc = main(["hessian", "--data", str(IRIS_CSV),
               "--params", str(pruned / "masked_params.csv"),
               "--method", "direct", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 6  # spectrum of the reduced 6-parameter Hessian


def test_kappa_command(tmp_path):
    out = tmp_path / "run"
    rc = main(["kappa", "--model", "diag_quadratic",
               "--set", "model.coefficients=[5]", "--eta", "0.1",
               "--order", "1", "--steps-list", "5,10", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "kappa.csv")
    assert [r["T"] for r in rows] == ["5", "10"]
    assert all(r["method"] == "dense_svd" for r in rows)
    assert float(rows[0]["kappa"]) < 4.0


def test_report_summarizes_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data.path": str(IRIS_CSV), "pretrain.steps": 50,
        "schedule.steps": 10, "schedule.reupload_period": 10,
        "schedule.refine_steps": 0, "schedule.prune_fraction": 0.2,
        "schedule.eta": 0.05, "seed": 0}))
    run = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["report", "--run", str(run)]) == 0
    summary = json.loads((run / "report.json").read_text())
    assert summary["command"] == "pipeline"
    assert summary["segments"] == 1
    assert summary["steps"] == 10


GOOD_MANIFEST = json.dumps({"command": "pipeline", "outputs": []})
TRAJECTORY = "step,loss,accuracy,err_l2\n0,0.5,0.9,0.0\n"


def reject_constant(name):
    raise ValueError(f"non-finite value {name} in strict JSON")


def test_report_writes_non_finite_values_as_null(tmp_path, capsys):
    """A testbed's accuracy is NaN and a kappa may be inf: the report
    writes each as null, so report.json and stdout are strict JSON."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "scalar_cubic", "--order", "3",
                 "--steps", "5", "--eta", "0.1", "--theta0", "0.5",
                 "--out", str(sim)]) == 0
    hand = tmp_path / "hand"
    hand.mkdir()
    (hand / "manifest.json").write_text(GOOD_MANIFEST)
    (hand / "trajectory.csv").write_text(TRAJECTORY)
    (hand / "segments.csv").write_text("segment,kappa\n0,2.5\n1,inf\n")
    capsys.readouterr()
    for run, key in ((sim, "final_accuracy"), (hand, "max_kappa")):
        assert main(["report", "--run", str(run)]) == 0
        for text in ((run / "report.json").read_text(), capsys.readouterr().out):
            summary = json.loads(text, parse_constant=reject_constant)
            assert key in summary and summary[key] is None
    assert summary["final_loss"] == 0.5 and summary["segments"] == 2


@pytest.mark.parametrize("manifest, files, message", [
    ("{not json", {}, "malformed manifest"),
    ("[1, 2]", {}, "not a run manifest"),
    (json.dumps({"outputs": []}), {}, "not a run manifest"),
    (GOOD_MANIFEST, {"trajectory.csv": "step,loss,err_l2\n0,0.5,0.0\n"},
     "no 'accuracy' column"),
    (GOOD_MANIFEST, {"trajectory.csv": "step,loss,accuracy,err_l2\n0,0.5\n"},
     "line 2"),
    (GOOD_MANIFEST, {"trajectory.csv": TRAJECTORY,
                     "segments.csv": "segment,kappa\n0,abc\n"}, "line 2"),
], ids=["not-json", "array-root", "no-command", "no-accuracy",
        "short-row", "bad-kappa"])
def test_report_rejects_malformed_run(tmp_path, capsys, manifest, files,
                                      message):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(manifest)
    for name, text in files.items():
        (run / name).write_text(text)
    assert main(["report", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (run / "report.json").exists()


def test_kappa_rejects_empty_step_list(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["kappa", "--model", "scalar_cubic", "--set", "kappa.steps=[]",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: kappa.steps")
    assert list(out.iterdir()) == []


def test_exit_code_usage_errors(tmp_path, capsys):
    assert main(["simulate", "--frobnicate"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--set", "bogus.key=1"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "y")]) == 1
    capsys.readouterr()


def test_exit_code_divergence(tmp_path, capsys):
    rc = main(["simulate", "--model", "diag_quadratic",
               "--set", "model.coefficients=[1,4]", "--theta0", "1,1",
               "--eta", "5.0", "--steps", "50", "--order", "1",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runaway_run_exits_0_with_warnings_as_errors(tmp_path, capsys):
    # The lifted trajectory runs away from exact GD: the loss overflows to
    # inf and err_l2 needs its rescaled norm. Neither may leak a warning.
    out = tmp_path / "run"
    rc = main(["simulate", "--model", "scalar_cubic", "--order", "8",
               "--steps", "1000", "--eta", "0.1", "--degree", "3",
               "--theta0", "0.6", "--shots", "10000", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "trajectory.csv")
    assert any(r["loss"] == "inf" for r in rows)
    assert all(np.isfinite(float(r["err_l2"])) for r in rows)
    capsys.readouterr()


def test_exit_code_numeric_failures(tmp_path, capsys, monkeypatch):
    solve = carleman.solve

    def solve_off(G):  # error no longer resets
        return solve(G) + 1e-3

    def kappa_unconverged(*args, **kwargs):
        raise ConvergenceError("Lanczos did not converge")

    for attr, failure in (("solve", solve_off),
                          ("condition_number", kappa_unconverged)):
        with monkeypatch.context() as m:
            m.setattr(carleman, attr, failure)
            rc = main(["pipeline", "--data", str(IRIS_CSV),
                       "--pretrain-steps", "20", "--steps", "4",
                       "--reupload", "2", "--refine", "0", "--order", "1",
                       "--fraction", "0.2", "--eta", "0.05",
                       "--out", str(tmp_path / attr)])
        assert rc == 2
        assert "numeric failure" in capsys.readouterr().err



@pytest.mark.parametrize("method", ["dense_svd", "power_iteration"])
def test_kappa_of_an_overflowing_system_exits_2(tmp_path, capsys, method):
    """At eta = 1e308 the lift's sums overflow to inf: both kappa methods
    report a singular system and exit 2, and the overflow raises no
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["kappa", "--model", "scalar_cubic", "--eta", "1e308",
                   "--order", "3", "--steps-list", "2", "--method", method,
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "numeric failure: numerically singular system")


def test_simulate_of_an_overflowing_lift_exits_2(tmp_path, capsys):
    """The same overflowing lift, simulated: the trajectory diverges at its
    first step, exit 2, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--model", "scalar_cubic", "--eta", "1e308",
                   "--order", "3", "--steps", "2", "--anchor", "zero",
                   "--theta0", "0.5", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "numeric failure: trajectory diverged at step 1")


OVERFLOWING_IRIS_POINT = "init.params=" + json.dumps([1e200] + [1.0] * 26)


@pytest.mark.parametrize("argv", [
    ["--model", "scalar_cubic", "--set", "init.params=[1e200]"],
    ["--model", "scalar_cubic", "--set", "init.params=[1e200]",
     "--method", "lanczos"],
    ["--data", str(IRIS_CSV), "--set", OVERFLOWING_IRIS_POINT],
    ["--data", str(IRIS_CSV), "--set", OVERFLOWING_IRIS_POINT,
     "--method", "lanczos"],
], ids=["cubic-direct", "cubic-lanczos", "mlp-direct", "mlp-lanczos"])
def test_hessian_that_overflows_exits_2(tmp_path, capsys, argv):
    """A Hessian that overflows is a numeric failure, with either method:
    exit 2, no warning or traceback, and no spectrum written."""
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["hessian", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "Traceback" not in err
    assert not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--model", "scalar_cubic", "--set", "init.params=[1e200]"],
    ["--data", str(IRIS_CSV), "--eta", "1e200", "--steps", "3"],
], ids=["cubic", "mlp"])
def test_pretrain_that_overflows_exits_2(tmp_path, capsys, argv):
    """A pretraining step that overflows is reported as divergence: exit 2,
    with no warning and no params written."""
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pretrain", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numeric failure: ")
    assert not (out / "params.csv").exists()


def test_lanczos_spectrum_of_large_eigenvalues(tmp_path, capsys):
    """At H = 3e6 an absolute 1e-9 pad vanishes: the bin edges still grow,
    so every density is finite, they integrate to 1, and proxy reads the
    file back."""
    out = tmp_path / "spec"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["hessian", "--model", "scalar_cubic", "--set",
                     "init.params=[1e3]", "--method", "lanczos",
                     "--out", str(out)]) == 0
        assert main(["proxy", "--spectrum", str(out / "spectrum.csv"),
                     "--eta", "1e-6", "--tmax", "10",
                     "--out", str(tmp_path / "proxy")]) == 0
    rows = read_csv(out / "spectrum.csv")
    lo, hi, dens = (np.array([float(r[c]) for r in rows])
                    for c in ("bin_left", "bin_right", "density"))
    width = hi - lo
    assert np.all(np.isfinite(width)) and np.all(width > 0)
    assert np.all(np.isfinite(dens))
    assert (dens * width).sum() == pytest.approx(1.0, rel=1e-12)
    capsys.readouterr()


def test_proxy_past_overflow_writes_inf_not_nan(tmp_path, capsys):
    """The proxy of the same spectrum at eta = 1 overflows |1 - eta*lambda|^t
    within 100 steps: those rows read inf, none NaN, with no warning."""
    spec = tmp_path / "spec"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["hessian", "--model", "scalar_cubic", "--set",
                     "init.params=[1e3]", "--method", "lanczos",
                     "--out", str(spec)]) == 0
        assert main(["proxy", "--spectrum", str(spec / "spectrum.csv"),
                     "--out", str(tmp_path / "proxy")]) == 0
    E = [r["E"] for r in read_csv(tmp_path / "proxy" / "proxy.csv")]
    assert len(E) == 101 and "nan" not in E and E[-1] == "inf"
    capsys.readouterr()


@pytest.mark.parametrize("value", ["1e200", "0"])
def test_bad_readout_shots_exit_1_before_simulating(tmp_path, capsys, value):
    """readout.shots takes 1 ... 2**63 - 1, the counts the multinomial draw
    takes; any other value is rejected before the run writes a CSV."""
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--model", "scalar_cubic",
                     "--set", f"readout.shots={value}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: readout.shots must be")
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("value", ["Infinity", "NaN"])
def test_non_finite_kappa_eta_exits_1_without_warning(tmp_path, capsys, value):
    """kappa checks eta before the lift scales the gradient by it."""
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kappa", "--model", "scalar_cubic",
                     "--set", f"kappa.eta={value}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: eta must be positive and finite")
    assert not (out / "manifest.json").exists()


def test_kappa_with_explicit_start(tmp_path, capsys):
    """The upload does not enter L, so an explicit init.params gives the
    kappa.csv of the default start; a start of the wrong length exits 1."""
    base = ["kappa", "--model", "diag_quadratic",
            "--set", "model.coefficients=[5, 2]", "--steps-list", "5,10"]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--set", "init.params=[0.3, -2.0]",
                        "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "kappa.csv").read_bytes()
            == (tmp_path / "b" / "kappa.csv").read_bytes())
    capsys.readouterr()
    assert main(base + ["--set", "init.params=[0.3]",
                        "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err.startswith("error: theta0 length 1")


@pytest.mark.parametrize("argv, key", [
    (["kappa", "--model", "scalar_cubic", "--set", "init.params=[NaN]"],
     "init.params"),
    (["kappa", "--model", "scalar_cubic", "--set", "init.params=[Infinity]"],
     "init.params"),
    (["simulate", "--model", "scalar_cubic", "--set", "init.params=[NaN]"],
     "init.params"),
    (["simulate", "--model", "scalar_cubic", "--theta0", "NaN"], "init.params"),
    (["simulate", "--model", "scalar_cubic", "--theta0", "Infinity"],
     "init.params"),
    (["simulate", "--model", "scalar_cubic", "--set",
      "simulate.anchor=[-Infinity]"], "simulate.anchor"),
    (["simulate", "--model", "diag_quadratic", "--theta0", "1,1", "--set",
      "model.coefficients=[1,NaN]"], "model.coefficients"),
    (["proxy", "--spectrum", "{spectrum}", "--eta", "Infinity"], "proxy.eta"),
    (["proxy", "--spectrum", "{spectrum}", "--set", "proxy.threshold=-Infinity"],
     "proxy.threshold"),
    (["simulate", "--model", "scalar_cubic", "--steps", "3", "--set",
      "model.alpha=NaN"], "model.alpha"),
])
def test_non_finite_list_values_exit_1(tmp_path, capsys, argv, key):
    """A float key, or a list of floats, that is not read by a check of its
    own (as eta is by check_eta) takes finite values only, so that no NaN
    or infinity reaches the manifest, which is strict JSON."""
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("index,eigenvalue\n0,1.0\n1,-0.5\n")
    out = tmp_path / "run"
    assert main([a.format(spectrum=spectrum) for a in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config key {key!r} has invalid value")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "scalar_cubic", "--order", "3", "--eta", "nan"],
    ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
     "--steps", "4", "--reupload", "2", "--eta", "nan"],
    ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
     "--steps", "4", "--reupload", "2", "--set", "pretrain.eta=nan"],
    ["kappa", "--model", "scalar_cubic", "--order", "3", "--steps-list", "2",
     "--eta", "nan"],
], ids=["simulate", "pipeline", "pretrain", "kappa"])
def test_nan_eta_exits_1(tmp_path, capsys, argv):
    """A NaN step size fails every sign check unless the check is written
    to be false for it: each command rejects it as input."""
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: eta must be")

@pytest.mark.parametrize("text, where", [
    ("index,value\n0,abc\n", "line 2"),
    ("index,value\n0\n", "line 2"),
    ("", "empty"),
    ("index,value\n0,1.5\n1,nan\n", "line 3"),
    ("index,value\n0,-inf\n", "line 2"),
    ("index,value,mask\n0,1.5,1\n1,0,2\n", "line 3"),
    ("index,value\n5,1.0\n5,2.0\n", "line 2"),
    ("index,value\n1,1.0\n0,2.0\n", "line 2"),
    ("index,value\n0.5,1.0\n", "line 2"),
])
def test_prune_malformed_params_csv(tmp_path, capsys, text, where):
    params = tmp_path / "params.csv"
    params.write_text(text)
    rc = main(["prune", "--params", str(params), "--fraction", "0.5",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("method", ["direct", "lanczos"])
def test_hessian_non_finite_params_csv(tmp_path, capsys, method):
    """A NaN parameter is a malformed input row, not a failure inside the
    eigensolver."""
    params = tmp_path / "params.csv"
    params.write_text("index,value\n" + "".join(f"{i},0.1\n" for i in range(26))
                      + "26,nan\n")
    rc = main(["hessian", "--data", str(IRIS_CSV), "--params", str(params),
               "--method", method, "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "line 28" in capsys.readouterr().err


def test_exit_code_capacity(tmp_path, capsys):
    rc = main(["simulate", "--data", str(IRIS_CSV), "--order", "5",
               "--steps", "5", "--eta", "0.05",
               "--out", str(tmp_path / "run")])
    assert rc == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["simulate", "--data", str(IRIS_CSV), "--order", "5", "--steps", "5",
     "--eta", "0.05"],
    ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
     "--steps", "4", "--reupload", "4", "--order", "7", "--fraction", "0.37"],
    ["kappa", "--set", f"data.path={IRIS_CSV}", "--order", "5"],
    ["simulate", "--model", "scalar_cubic", "--set", "simulate.order=1e200",
     "--steps", "5", "--eta", "0.1", "--theta0", "0.5"],
    ["kappa", "--model", "scalar_cubic", "--set", "kappa.order=1e200"],
    ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
     "--steps", "4", "--reupload", "4", "--set", "schedule.order=1e200"],
    ["simulate", "--model", "scalar_cubic", "--order", "3",
     "--steps", "100000000", "--eta", "0.1", "--theta0", "0.5"],
    ["kappa", "--model", "scalar_cubic", "--order", "2",
     "--steps-list", "100000000", "--method", "power_iteration"],
    ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
     "--steps", "200000", "--reupload", "200000", "--order", "2",
     "--fraction", "0.37"],
    ["hessian", "--model", "scalar_cubic", "--method", "lanczos",
     "--set", "hessian.bins=1e200"],
    ["hessian", "--model", "scalar_cubic", "--method", "lanczos",
     "--set", "hessian.probes=1e200"],
    ["pretrain", "--model", "scalar_cubic", "--set", "pretrain.steps=1e200"],
    ["simulate", "--data", str(IRIS_CSV), "--set", "model.layer_widths=[4,12,3]",
     "--order", "3", "--steps", "5"],
    ["simulate", "--model", "scalar_cubic", "--steps", "1e200"],
])
def test_capacity_checked_before_extraction(tmp_path, capsys, monkeypatch,
                                            argv):
    """D, the order itself and (T + 1) * D, the size of a T-step
    trajectory, are each checked before any Hessian is evaluated; so are
    the histogram's bins + 1 edges, the probes' Ritz values and the
    (steps + 1) * n floats of a reference trajectory, and the n^4 floats
    of grad^4 L for the 99 weights of a 4-12-3 net."""
    def no_hessians(*args, **kwargs):
        raise AssertionError("Hessian evaluated before the capacity check")

    monkeypatch.setattr(models, "hvp_batch", no_hessians)
    assert main(argv + ["--out", str(tmp_path / "run")]) == 3
    assert "capacity error" in capsys.readouterr().err


def test_proxy_values_checked_before_work(tmp_path, capsys):
    """proxy.tmax + 1 proxy values over MAX_STATES floats exit 3 before
    the spectrum is read or any value is computed."""
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("index,eigenvalue\n0,1.0\n")
    out = tmp_path / "run"
    assert main(["proxy", "--spectrum", str(spectrum), "--set",
                 "proxy.tmax=1e200", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("capacity error: proxy values")
    assert list(out.glob("*")) == []


def test_pretraining_trajectory_checked_before_work(tmp_path, capsys,
                                                    monkeypatch):
    """(steps + 1) * n floats of the pretraining trajectory over the budget
    exit 3 before the first gradient; 740 739 steps fill the default
    budget on the 27-parameter Iris net."""
    def no_work(*args, **kwargs):
        raise AssertionError("gradient evaluated before the size check")

    monkeypatch.setattr(models, "_grad_values", no_work)
    monkeypatch.setattr(util, "MAX_STATES", 100 * 27)
    out = tmp_path / "run"
    assert main(["pretrain", "--data", str(IRIS_CSV), "--steps", "100",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "capacity error: 100 steps of 27 parameters need 2727 floats, "
        "over the budget 2700\n")
    assert list(out.glob("*")) == []


def test_refinement_trajectory_checked(tmp_path, capsys):
    """A refinement of 1e200 steps, cut to the 1 999 998 steps left of a
    run whose trajectory table fits the budget, exits 3 when it is
    reached, with no CSV written."""
    out = tmp_path / "run"
    assert main(["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
                 "--set", "schedule.steps=2000000", "--reupload", "2",
                 "--set", "schedule.refine_steps=1e200",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "capacity error: 1999998 steps of 27 parameters need 53999973 "
        "floats, over the budget 20000000\n")
    assert list(out.glob("*")) == []


def test_pipeline_step_table_checked_before_pretraining(tmp_path, capsys,
                                                        monkeypatch):
    """The trajectory table of schedule.steps + 1 rows is held to
    MAX_STATES floats before pretraining starts, so 1e200 steps exit 3 at
    once rather than running segment after segment."""
    def no_work(*args, **kwargs):
        raise AssertionError("gradient evaluated before the table check")

    monkeypatch.setattr(models, "_grad_values", no_work)
    out = tmp_path / "run"
    assert main(["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
                 "--set", "schedule.steps=1e200", "--reupload", "2",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "capacity error: 1e+200 trajectory rows of 7 columns need 7e+200 "
        "floats, over the budget 20000000\n")
    assert list(out.glob("*")) == []


def test_count_text():
    assert count_text(0) == "0"
    assert count_text(-12345) == "-12345"
    assert count_text(10 ** 15 - 1) == "999999999999999"  # 15 digits in full
    assert count_text(10 ** 15) == "1e+15"
    assert count_text(int(1e200)) == "1e+200"
    assert count_text(-123456789 * 10 ** 12) == "-1.23457e+20"
    assert count_text(10 ** 400) == "1e+400"  # past the float range
    assert count_text(-123456789 * 10 ** 400) == "-1.23456e+408"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "scalar_cubic", "--set", "readout.shots=1e200"],
    ["simulate", "--model", "scalar_cubic", "--set", "readout.shots=" + "9" * 400],
    ["simulate", "--model", "scalar_cubic", "--set", "simulate.order=1e200"],
    ["simulate", "--model", "scalar_cubic", "--set", "simulate.degree=1e200"],
    ["hessian", "--model", "scalar_cubic", "--method", "lanczos",
     "--set", "hessian.probes=1e200"],
    ["hessian", "--model", "scalar_cubic", "--method", "lanczos",
     "--set", "hessian.bins=-1e200"],
    ["pretrain", "--model", "scalar_cubic", "--set", "pretrain.steps=1e200"],
    ["pretrain", "--model", "scalar_cubic", "--set", "pretrain.steps=-1e200"],
    ["proxy", "--spectrum", "spectrum.csv", "--set", "proxy.tmax=1e200"],
    ["kappa", "--model", "scalar_cubic", "--set", "kappa.steps=[1e200]"],
    ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "5",
     "--set", "schedule.steps=1e200", "--reupload", "2"],
])
def test_huge_counts_print_in_short_form(tmp_path, capsys, argv):
    """A count given as 1e200 (or as 400 digits) is echoed in its error
    or capacity error line in short form, not as a 200-digit integer."""
    assert main(argv + ["--out", str(tmp_path / "run")]) in (1, 3)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 120, err
    assert "e+" in err, err


def test_write_csv_bytes_match_csv_writer(tmp_path, monkeypatch):
    """write_csv writes the bytes of csv.writer with format(x, ".17g") for
    a float column and str for any other: on awkward floats (NaN, +-inf,
    -0.0, subnormals, random bit patterns), ints, a 0/1 mask, strings, a
    range and a list, and on tables with no rows or no columns; under the
    default block budget and under budgets of one row and of 9 rows."""
    rng = np.random.default_rng(0)
    floats = np.concatenate([
        [0.1, -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, -2.5e-320,
         1e300, 123456789.0, -1.5, 2.0 ** 53, 1 / 3],
        rng.integers(0, 2 ** 64, 2000, dtype=np.uint64).view(np.float64)])
    n = floats.size
    tables = [{"x": floats, "i": np.arange(n) - 3,
               "mask": (np.arange(n) % 2).astype(int),
               "phase": np.full(n, "classical_refine"),
               "method": ["dense_svd"] * n, "t": range(n),
               "y": list(floats[::-1])},
              {"step": np.arange(0), "loss": np.zeros(0)},
              {}]
    for k, columns in enumerate(tables):
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(columns)
        writer.writerows(zip(*(
            [format(float(x), ".17g") for x in col]
            if np.asarray(col).dtype.kind == "f" else [str(x) for x in col]
            for col in columns.values())))
        for budget in (util.BLOCK_VALUES, 1, 63):
            monkeypatch.setattr(util, "BLOCK_VALUES", budget)
            path = tmp_path / f"{k}-{budget}.csv"
            write_csv(path, columns)
            assert path.read_bytes() == expected.getvalue().encode(), k


def test_write_csv_fills_rows_block_by_block(tmp_path, monkeypatch):
    """write_csv turns a block of at most util.BLOCK_VALUES / 4 cells at a
    time into Python values, four values a cell: the bytes do not depend on
    the block size, and the memory it holds at once follows the block, not
    the whole table."""
    rows = 40_000
    columns = {"t": np.arange(rows), "E": np.linspace(0.0, 1.0, rows)}
    texts, peaks = [], []
    for block in (rows, 1000):
        monkeypatch.setattr(util, "BLOCK_VALUES", 4 * 2 * block)
        path = tmp_path / f"{block}.csv"
        tracemalloc.start()
        write_csv(path, columns)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert 4 * peaks[1] < peaks[0], peaks


def test_raw_key_budget_checked_before_keys_are_written(tmp_path, capsys,
                                                        monkeypatch):
    """The order-4 Iris lift of the degree-3 field fits the D budget
    (D = 551 881), but on dense terms it would write 134 574 885 raw keys
    (83 631 890 for the extracted field): lift rejects it before any
    Hessian is evaluated, so before any key is written."""
    def no_work(*args, **kwargs):
        raise AssertionError("Hessians or keys before the key budget check")

    monkeypatch.setattr(carleman, "_kron_sums", no_work)
    monkeypatch.setattr(models, "hvp_batch", no_work)
    rc = main(["simulate", "--data", str(IRIS_CSV), "--order", "4",
               "--degree", "3", "--steps", "1", "--eta", "0.05",
               "--out", str(tmp_path / "run")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "capacity error: embedding writes up to 134574885 raw keys")


def test_raw_key_bound_checked_before_any_hessian(tmp_path, capsys,
                                                  monkeypatch):
    """The order-3 lift of a 4-6-3 Iris net (n = 51) fits the D and the
    derivative budgets, and its dense terms bound its raw keys at
    41 394 966, over the budget: the run exits 3 before the first
    Hessian."""
    def no_hessians(*args, **kwargs):
        raise AssertionError("Hessian evaluated before the key budget check")

    monkeypatch.setattr(models, "hvp_batch", no_hessians)
    rc = main(["simulate", "--data", str(IRIS_CSV), "--set",
               "model.layer_widths=[4,6,3]", "--set",
               "model.activation=quadratic_poly", "--order", "3",
               "--steps", "5", "--out", str(tmp_path / "run")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "capacity error: embedding writes up to 41394966 raw keys")


def test_degree_cap_raises_before_any_hessian(tmp_path, capsys, monkeypatch):
    """The 4-3-3 net's gradient has degree 5, so an order-4 lift needs F_4,
    past the extraction's cap of degree 3: the run exits 1 before any
    Hessian, where it used to drop F_4 and exit 0."""
    def no_hessians(*args, **kwargs):
        raise AssertionError("Hessian evaluated before the degree check")

    monkeypatch.setattr(models, "hvp_batch", no_hessians)
    out = tmp_path / "run"
    assert main(["pipeline", "--data", str(IRIS_CSV), "--set", "pretrain.steps=20",
                 "--fraction", "0.37", "--steps", "2", "--reupload", "2",
                 "--refine", "0", "--order", "4", "--eta", "0.05",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: order 4 needs the field to degree 4, past the cap of degree 3")
    assert list(out.glob("*")) == []


def test_pipeline_kappa_column_is_condition_number(tmp_path, monkeypatch):
    """The benchmark's dense-SVD check of kappa wraps
    `carleman.condition_number`: a pipeline computes every segment's kappa
    through that name, one call per segment, and writes what it returns."""
    returned = []
    condition_number = carleman.condition_number

    def counted(*args, **kwargs):
        returned.append(condition_number(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(carleman, "condition_number", counted)
    out = tmp_path / "run"
    assert main(["pipeline", "--set", "model.kind=diag_quadratic",
                 "--set", "model.coefficients=[1.0,4.0,2.0,0.5]",
                 "--set", "init.params=[1.0,-0.2,0.1,2.0]",
                 "--set", "pretrain.steps=0", "--steps", "9", "--reupload", "3",
                 "--refine", "1", "--order", "2", "--fraction", "0.5",
                 "--eta", "0.1", "--out", str(out)]) == 0
    rows = read_csv(out / "segments.csv")
    assert len(rows) == 3
    assert [float(r["kappa"]) for r in rows] == returned


@pytest.mark.parametrize("argv", [
    ["pretrain", "--data", str(IRIS_CSV), "--steps", "-1"],
    ["pretrain", "--data", str(IRIS_CSV), "--steps", "-3"],
    ["pretrain", "--data", str(IRIS_CSV), "--batch", "0"],
    ["pretrain", "--data", str(IRIS_CSV), "--batch", "-2"],
    ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "-1"],
    ["hessian", "--data", str(IRIS_CSV), "--method", "lanczos", "--probes", "0"],
    ["hessian", "--data", str(IRIS_CSV), "--method", "lanczos", "--bins", "0"],
    ["hessian", "--data", str(IRIS_CSV), "--method", "lanczos",
     "--lanczos-k", "0"],
])
def test_bad_counts_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("text, where", [
    ("index,eigenvalue\n0,1.5\n1,abc\n", "line 3"),
    ("index,eigenvalue\n0\n", "line 2"),
    ("bin_left,bin_right,density\n0,1,x\n", "line 2"),
    ("", "empty"),
    ("index,eigenvalue\n0,1.5\n1,nan\n", "line 3"),
    ("bin_left,bin_right,density\n0,1,inf\n", "line 2"),
    ("bin_left,bin_right,density\n0,1,0.5\n1,2,-0.5\n", "line 3"),
    ("bin_left,bin_right,density\n0,1,0.5\n1,1,0.5\n", "line 3"),
    ("bin_left,bin_right,density\n0,1,0\n1,2,0\n", "sum to 0"),
    ("index,eigenvalue\n", "no spectrum rows"),
])
def test_proxy_malformed_spectrum_csv(tmp_path, capsys, text, where):
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text(text)
    rc = main(["proxy", "--spectrum", str(spectrum),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--model", "scalar_cubic", "--steps", "2"], "simulate.eta"),
    (["simulate", "--model", "scalar_cubic", "--steps", "2"], "readout.shots"),
    (["pipeline", "--data", str(IRIS_CSV)], "schedule.eta"),
    (["pipeline", "--data", str(IRIS_CSV)], "pretrain.steps"),
    (["pretrain", "--data", str(IRIS_CSV)], "pretrain.eta"),
    (["pretrain", "--data", str(IRIS_CSV)], "seed"),
    (["pretrain", "--data", str(IRIS_CSV)], "init.params"),
    (["pretrain", "--data", str(IRIS_CSV)], "pretrain.batch"),
    (["pretrain", "--data", str(IRIS_CSV)], "model.layer_widths"),
    (["simulate", "--model", "diag_quadratic", "--steps", "2"],
     "model.coefficients"),
])
def test_malformed_config_values_exit_1(tmp_path, capsys, argv, key):
    rc = main(argv + ["--set", f'{key}="x"', "--out", str(tmp_path / "run")])
    assert rc == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--set", "simulate.steps=2.5"], "simulate.steps"),
    (["simulate", "--set", "seed=1.9"], "seed"),
    (["kappa", "--set", "kappa.steps=[2.7,5.2]"], "kappa.steps"),
    (["simulate", "--set", "simulate.order=true"], "simulate.order"),
    (["simulate", "--set", "simulate.eta=true"], "simulate.eta"),
    (["simulate", "--set", "model.alpha=true"], "model.alpha"),
    (["simulate", "--set", "init.params=[true]"], "init.params"),
    (["simulate", "--steps", "2.5"], "simulate.steps"),
    (["simulate", "--steps", "nan"], "simulate.steps"),
    (["simulate", "--steps", "inf"], "simulate.steps"),
    (["simulate", "--seed", "true"], "seed"),
])
def test_fractional_or_boolean_number_exits_1(tmp_path, capsys, argv, key):
    """An integer key takes no fraction, truncated or not, and no key takes
    a bool for a number, so the manifest never echoes a value that the run
    did not use."""
    out = tmp_path / "run"
    assert main(argv + ["--model", "scalar_cubic", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config key {key!r} has invalid value")
    assert not (out / "manifest.json").exists()


def test_whole_float_is_the_integer_it_equals(tmp_path):
    """So 1e200 steps reach the capacity check, and 3.0 steps run the 3 of
    --steps 3, given by --set or as the flag's text."""
    three = tmp_path / "three"
    assert main(["simulate", "--model", "scalar_cubic", "--steps", "3",
                 "--out", str(three)]) == 0
    for argv in (["--set", "simulate.steps=3.0"], ["--steps", "3.0"]):
        out = tmp_path / argv[0].lstrip("-")
        assert main(["simulate", "--model", "scalar_cubic", *argv,
                     "--out", str(out)]) == 0
        steps = json.loads((out / "manifest.json").read_text())["config"]["simulate.steps"]
        assert (steps, type(steps)) == (3, int)
        for name in ("trajectory.csv", "params.csv"):
            assert (out / name).read_bytes() == (three / name).read_bytes()


def test_every_key_checked_whatever_the_command_reads(tmp_path, capsys):
    params = tmp_path / "params.csv"
    params.write_text("index,value\n0,1.5\n1,-0.5\n")
    out = tmp_path / "run"
    rc = main(["prune", "--params", str(params), "--fraction", "0.5",
               "--set", 'simulate.steps="x"', "--out", str(out)])
    assert rc == 1
    assert "simulate.steps" in capsys.readouterr().err
    assert not (out / "masked_params.csv").exists()


def subparsers(parser):
    """The subcommand parsers of `parser`, by name."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_option_dest_is_a_config_key_or_cli_only():
    for name, sub in subparsers(build_parser()).items():
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in config.DEFAULTS or action.dest in CLI_ONLY, \
                    (name, action.dest)


ACTION_FIELDS = ("option_strings", "dest", "choices", "default", "required",
                 "nargs", "metavar", "help")


@pytest.mark.parametrize("name", COMMANDS)
def test_one_command_parser_matches_full_parser(name):
    """`main` builds only the invoked subcommand's parser. It has the same
    actions, help and top-level usage as that subcommand in the full one."""
    full, lazy = build_parser(), build_parser(name)
    want, got = subparsers(full)[name], subparsers(lazy)[name]
    assert [[getattr(a, f) for f in ACTION_FIELDS] for a in got._actions] \
        == [[getattr(a, f) for f in ACTION_FIELDS] for a in want._actions]
    assert got.get_default("func") is want.get_default("func")
    assert got.format_help() == want.format_help()
    assert lazy.format_usage() == full.format_usage()


def cli_actions(parser):
    """Each subcommand of `parser`, in order: its handler's name and the
    ACTION_FIELDS of each of its actions, as JSON data."""
    return json.loads(json.dumps({
        name: {"handler": sub.get_default("func").__name__,
               "actions": [{f: getattr(a, f) for f in ACTION_FIELDS}
                           for a in sub._actions]}
        for name, sub in subparsers(parser).items()}))


def test_cli_actions_match_the_pinned_contract():
    """Every subcommand's flags, dests, choices, defaults, help and handler
    equal those pinned in tests/data/cli_actions.json, so an edit that drops
    or renames a flag in both the full and the one-command parser fails."""
    with open(Path(__file__).parent / "data" / "cli_actions.json") as f:
        pinned = json.load(f)
    assert list(cli_actions(build_parser()).items()) == list(pinned.items())


def test_module_entry_reads_sys_argv(tmp_path):
    """`python -m carlgd.cli` runs `main()` on sys.argv: a simulate writes
    its three files, and --help lists every subcommand."""
    src = str(Path(carlgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "carlgd.cli", "simulate", "--model", "scalar_cubic",
         "--order", "3", "--steps", "50", "--eta", "0.1", "--theta0", "0.5",
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "params.csv", "trajectory.csv"]
    proc = subprocess.run([sys.executable, "-m", "carlgd.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "{" + ",".join(COMMANDS) + "}" in proc.stdout
    for name in COMMANDS:
        assert f"\n    {name} " in proc.stdout


def test_closed_stdout_is_not_an_error(tmp_path):
    """A reader that has gone before the status line, such as a `head` that
    has exited: the command still writes every file, its manifest and
    report.json included, and exits 0 with nothing on stderr."""
    src = str(Path(carlgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = tmp_path / "run"
    for argv in (["simulate", "--model", "scalar_cubic", "--steps", "3",
                  "--out", str(run)], ["report", "--run", str(run)]):
        proc = subprocess.Popen([sys.executable, "-m", "carlgd.cli", *argv],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.close()  # before the command writes to it
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (0, b"")
    assert sorted(p.name for p in run.iterdir()) == [
        "manifest.json", "params.csv", "report.json", "trajectory.csv"]


@pytest.mark.parametrize("argv", [
    ["prune", "--params", "/nonexistent.csv", "--fraction", "0.5"],
    ["hessian", "--params", "/nonexistent.csv"],
    ["pretrain", "--data", "/nonexistent.csv"],
    ["proxy", "--spectrum", "/nonexistent.csv"],
    ["simulate", "--data", str(IRIS_CSV.parent)],
])
def test_unreadable_input_file_exits_1(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read ")


def test_floats_emitted_with_17_significant_digits(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--model", "scalar_cubic", "--order", "2",
          "--steps", "3", "--eta", "0.1", "--theta0", "0.5",
          "--out", str(out)])
    rows = read_csv(out / "params.csv")
    # a third of an Euler step is not dyadic; 17 significant digits round-trip
    for r in rows:
        v = r["param_0"]
        assert float(v) == float(repr(float(v)))
    losses = [r["loss"] for r in read_csv(out / "trajectory.csv")]
    assert any(len(v.replace("-", "").replace(".", "").lstrip("0")) >= 16
               for v in losses)


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("case", ["out below a file", "out is a file",
                                  "output is a directory"])
def test_unwritable_out_exits_1(tmp_path, capsys, command, case):
    """An --out that cannot be made, or an output file that cannot be
    written, exits 1 with one line naming the path, as an unreadable input
    does; no traceback."""
    run = tmp_path / "run"
    assert main(["simulate", "--model", "scalar_cubic", "--steps", "3",
                 "--out", str(run)]) == 0
    afile = tmp_path / "afile"
    afile.write_text("")
    out = {"out below a file": afile / "x", "out is a file": afile,
           "output is a directory": tmp_path / "new"}[case]
    path = out
    if case == "output is a directory":
        path = out / ("trajectory.csv" if command == "simulate"
                      else "report.json")
        path.mkdir(parents=True)
    argv = (["simulate", "--model", "scalar_cubic", "--steps", "3"]
            if command == "simulate" else ["report", "--run", str(run)])
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1, err


def test_unwritable_manifest_exits_1(tmp_path, capsys):
    (tmp_path / "run" / "manifest.json").mkdir(parents=True)
    assert main(["simulate", "--model", "scalar_cubic", "--steps", "3",
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'run' / 'manifest.json'}: "
        "Is a directory\n")


def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A D = 111 Iris pipeline op, a size at which OpenBLAS may split
    kappa's products over threads, writes the same CSV bytes under one and
    under two OpenBLAS threads (each in its own interpreter)."""
    argv = ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "20",
            "--steps", "4", "--reupload", "2", "--refine", "2",
            "--order", "2", "--fraction", "0.37", "--eta", "0.05",
            "--set", "pipeline.kappa_method=power_iteration"]
    src = str(Path(carlgd.__file__).resolve().parents[1])
    procs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads}
        procs[threads] = subprocess.Popen(
            [sys.executable, "-m", "carlgd.cli", *argv,
             "--out", str(tmp_path / threads)], env=env)
    assert [proc.wait(timeout=120) for proc in procs.values()] == [0, 0]
    names = ("trajectory.csv", "segments.csv", "final_params.csv")
    one, two = ([(tmp_path / threads / name).read_bytes() for name in names]
                for threads in procs)
    assert one == two
    assert read_csv(tmp_path / "1" / "segments.csv")[0]["D"] == "111"
