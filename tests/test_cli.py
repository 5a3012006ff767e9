import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carlgd
from carlgd import carleman, models, polyfield
from carlgd.cli import main
from carlgd.errors import ConvergenceError

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


def test_pipeline_leaves_sparse_linalg_unloaded(tmp_path):
    """kappa runs its own Lanczos recurrence, so a pipeline op, kappa
    included, never imports scipy.sparse.linalg (ARPACK). Checked in a
    fresh interpreter, where no other test has imported it."""
    argv = ["pipeline", "--data", str(IRIS_CSV), "--pretrain-steps", "20",
            "--steps", "4", "--reupload", "2", "--refine", "0",
            "--order", "2", "--fraction", "0.2", "--eta", "0.05",
            "--set", "pipeline.kappa_method=power_iteration",
            "--out", str(tmp_path / "run")]
    code = ("import sys\n"
            "from carlgd.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, 'scipy.sparse.linalg' in sys.modules)\n")
    src = str(Path(carlgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert read_csv(tmp_path / "run" / "segments.csv")[0]["kappa_method"] \
        == "power_iteration"


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


@pytest.mark.parametrize("text, where", [("index,value\n0,abc\n", "line 2"),
                                         ("index,value\n0\n", "line 2"),
                                         ("", "empty")])
def test_prune_malformed_params_csv(tmp_path, capsys, text, where):
    params = tmp_path / "params.csv"
    params.write_text(text)
    rc = main(["prune", "--params", str(params), "--fraction", "0.5",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert where in capsys.readouterr().err


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
])
def test_capacity_checked_before_extraction(tmp_path, capsys, monkeypatch,
                                            argv):
    def no_hessians(*args, **kwargs):
        raise AssertionError("Hessian evaluated before the capacity check")

    monkeypatch.setattr(models, "hvp_batch", no_hessians)
    assert main(argv + ["--out", str(tmp_path / "run")]) == 3
    assert "capacity error" in capsys.readouterr().err


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
])
def test_malformed_config_values_exit_1(tmp_path, capsys, argv, key):
    rc = main(argv + ["--set", f'{key}="x"', "--out", str(tmp_path / "run")])
    assert rc == 1
    assert key in capsys.readouterr().err


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
