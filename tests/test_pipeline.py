import numpy as np
import pytest

import carlgd
from carlgd import pipeline, util
from carlgd.cli import main
from carlgd.errors import CapacityError, InputError
from carlgd.util import norm2


# --------------------------------------------------------------- pretrain

def test_pretrain_geometric_decay(diag_spec):
    out = pipeline.pretrain(diag_spec, None, steps=50, eta=0.1,
                            params0=carlgd.ParamVector([1.0, 1.0]))
    np.testing.assert_allclose(out.values, [0.9 ** 50, 0.6 ** 50], rtol=1e-12)


def test_pretrain_zero_steps_identity(diag_spec):
    p0 = carlgd.ParamVector([1.0, 1.0])
    out = pipeline.pretrain(diag_spec, None, steps=0, eta=0.1, params0=p0)
    assert np.array_equal(out.values, p0.values)


def test_pretrain_rejects_masked(diag_spec):
    masked = carlgd.ParamVector([1.0, 0.0], mask=[True, False])
    with pytest.raises(InputError):
        pipeline.pretrain(diag_spec, None, steps=1, eta=0.1, params0=masked)


def test_pretrain_iris_improves_loss_across_seeds(mlp_spec, iris):
    for seed in (0, 1):
        p0 = carlgd.init_params(mlp_spec, seed)
        start = carlgd.loss(mlp_spec, p0, iris)
        out = pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=seed,
                                params0=p0)
        end = carlgd.loss(mlp_spec, out, iris)
        assert end < 0.8 * start
        # independent plain GD loop reproduces the result exactly
        theta = p0.values.copy()
        for _ in range(200):
            theta = theta - 0.05 * carlgd.grad(mlp_spec, theta, iris)
        assert np.array_equal(theta, out.values)


# ------------------------------------------------------------------ prune

def test_prune_keeps_single_max():
    rng = np.random.default_rng(0)
    values = rng.uniform(-0.5, 0.5, size=10)
    values[7] = 0.9
    pruned = pipeline.prune_topk(carlgd.ParamVector(values), 0.1)
    assert pruned.mask.sum() == 1 and pruned.mask[7]
    assert pruned.values[7] == values[7]
    assert np.all(pruned.values[~pruned.mask] == 0.0)


def test_prune_full_fraction_identity():
    values = np.array([0.5, -1.0, 0.0, 2.0])
    pruned = pipeline.prune_topk(carlgd.ParamVector(values), 1.0)
    assert pruned.mask.all()
    assert np.array_equal(pruned.values, values)


def test_prune_tie_breaks_to_lower_index():
    pruned = pipeline.prune_topk(carlgd.ParamVector([0.5, -0.5]), 0.5)
    assert pruned.mask[0] and not pruned.mask[1]


def test_prune_count_and_idempotence():
    rng = np.random.default_rng(1)
    for n in (3, 10, 27, 64):
        values = rng.standard_normal(n)
        for p in (0.1, 0.37, 0.5):
            pruned = pipeline.prune_topk(carlgd.ParamVector(values), p)
            assert pruned.mask.sum() == int(np.ceil(p * n))
            again = pipeline.prune_topk(pruned, p)
            assert np.array_equal(again.values, pruned.values)
            assert np.array_equal(again.mask, pruned.mask)


def test_prune_rejects_bad_fraction():
    pv = carlgd.ParamVector([1.0, 2.0])
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(InputError):
            pipeline.prune_topk(pv, p)


# ----------------------------------------------------------------- pipeline

def masked_diag_start():
    spec = carlgd.ModelSpec(kind="diag_quadratic",
                            coefficients=(1.0, 4.0, 2.0, 0.5))
    params = pipeline.prune_topk(carlgd.ParamVector([1.0, -0.2, 0.1, 2.0]), 0.5)
    return spec, params


def test_pipeline_linear_field_is_exact():
    spec, params = masked_diag_start()
    sched = carlgd.Schedule(total_steps=12, eta=0.1, reupload_period=3,
                            classical_refine_steps=2, carleman_order=2,
                            prune_fraction=0.5)
    report = pipeline.run_pipeline(spec, None, sched, params, seed=0)
    assert report.diverged_at is None
    assert report.steps["err_l2"].max() <= 1e-12
    assert report.steps["step"][-1] == 12


def test_pipeline_single_segment_when_period_covers_run():
    spec, params = masked_diag_start()
    sched = carlgd.Schedule(total_steps=10, eta=0.1, reupload_period=10,
                            classical_refine_steps=0, carleman_order=1,
                            prune_fraction=0.5)
    report = pipeline.run_pipeline(spec, None, sched, params, seed=0)
    assert report.segments["segment"].size == 1
    assert report.segments["kappa"][0] > 0


def test_pipeline_requires_mask(diag_spec):
    sched = carlgd.Schedule(total_steps=5, eta=0.1, reupload_period=5,
                            classical_refine_steps=0, carleman_order=1)
    with pytest.raises(InputError):
        pipeline.run_pipeline(diag_spec, None, sched,
                              carlgd.ParamVector([1.0, 1.0]), seed=0)


def test_pipeline_error_resets_each_segment(mlp_spec, iris):
    dense = pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05, seed=0)
    pruned = pipeline.prune_topk(dense, 0.2)
    sched = carlgd.Schedule(total_steps=60, eta=0.05, reupload_period=20,
                            classical_refine_steps=0, carleman_order=2,
                            prune_fraction=0.2)
    report = pipeline.run_pipeline(mlp_spec, iris, sched, pruned, seed=0)
    err = report.steps["err_l2"]
    seg = report.steps["segment"]
    assert report.segments["segment"].size == 3
    for s in range(3):
        rows = np.where(seg == s)[0]
        first = rows[1] if s == 0 else rows[0]  # row 0 is the upload itself
        assert err[first] == 0.0
        assert err[rows[-1]] > 0.0


def test_pipeline_mask_constant_and_masked_zero(mlp_spec, iris):
    dense = pipeline.pretrain(mlp_spec, iris, steps=150, eta=0.05, seed=1)
    pruned = pipeline.prune_topk(dense, 0.2)
    sched = carlgd.Schedule(total_steps=30, eta=0.05, reupload_period=10,
                            classical_refine_steps=5, carleman_order=2,
                            prune_fraction=0.2)
    report = pipeline.run_pipeline(mlp_spec, iris, sched, pruned, seed=1)
    assert np.array_equal(report.final.mask, pruned.mask)
    assert np.all(report.final.values[~pruned.mask] == 0.0)


def test_pipeline_refine_phase_accrues_no_error(mlp_spec, iris):
    dense = pipeline.pretrain(mlp_spec, iris, steps=150, eta=0.05, seed=0)
    pruned = pipeline.prune_topk(dense, 0.2)
    sched = carlgd.Schedule(total_steps=30, eta=0.05, reupload_period=10,
                            classical_refine_steps=5, carleman_order=2,
                            prune_fraction=0.2)
    report = pipeline.run_pipeline(mlp_spec, iris, sched, pruned, seed=0)
    phases = report.steps["phase"]
    err = report.steps["err_l2"]
    refine_rows = phases == "classical_refine"
    assert refine_rows.sum() == 10  # two full segments worth of refinement
    assert np.all(err[refine_rows] == 0.0)


def test_pipeline_deterministic(mlp_spec, iris):
    dense = pipeline.pretrain(mlp_spec, iris, steps=100, eta=0.05, seed=2)
    pruned = pipeline.prune_topk(dense, 0.2)
    sched = carlgd.Schedule(total_steps=20, eta=0.05, reupload_period=10,
                            classical_refine_steps=0, carleman_order=2,
                            prune_fraction=0.2)
    a = pipeline.run_pipeline(mlp_spec, iris, sched, pruned, seed=2)
    b = pipeline.run_pipeline(mlp_spec, iris, sched, pruned, seed=2)
    assert np.array_equal(a.steps["loss"], b.steps["loss"])
    assert np.array_equal(a.steps["err_l2"], b.steps["err_l2"])
    assert np.array_equal(a.final.values, b.final.values)


def test_pipeline_divergence_truncates_report():
    spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(1.0, 40.0))
    params = pipeline.prune_topk(carlgd.ParamVector([1.0, 1.0]), 1.0)
    sched = carlgd.Schedule(total_steps=400, eta=0.1, reupload_period=400,
                            classical_refine_steps=0, carleman_order=1,
                            prune_fraction=1.0)
    report = pipeline.run_pipeline(spec, None, sched, params, seed=0)
    assert report.diverged_at is not None
    assert report.steps["step"][-1] < 400


def test_pipeline_diverges_in_refinement(tmp_path, capsys):
    """A run that leaves bounds during a classical refinement ends there:
    the multiplier 1 - 0.1 * 110 = -10 passes the 1e8 bound at step 9, the
    last rows are the refinement's, and the CLI exits 2."""
    spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(110.0, 1.0))
    params = pipeline.prune_topk(carlgd.ParamVector([1.0, 0.5]), 1.0)
    sched = carlgd.Schedule(total_steps=20, eta=0.1, reupload_period=2,
                            classical_refine_steps=10, carleman_order=1,
                            prune_fraction=1.0)
    report = pipeline.run_pipeline(spec, None, sched, params, seed=0)
    assert report.diverged_at == 9
    np.testing.assert_array_equal(report.steps["step"], np.arange(9))
    assert list(report.steps["phase"]) == (["carleman"] * 3
                                           + ["classical_refine"] * 6)
    assert report.segments["segment"].size == 1

    out = tmp_path / "run"
    rc = main(["pipeline", "--set", "model.kind=diag_quadratic",
               "--set", "model.coefficients=[110.0,1.0]",
               "--set", "init.params=[1.0,0.5]", "--set", "pretrain.steps=0",
               "--fraction", "1.0", "--steps", "20", "--reupload", "2",
               "--refine", "10", "--order", "1", "--eta", "0.1",
               "--out", str(out)])
    assert rc == 2
    assert "diverged at step 9" in capsys.readouterr().out
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 10 and lines[-1].endswith(",classical_refine")


def test_pipeline_cut_at_first_step(tmp_path, capsys):
    """A segment whose first Carleman step already leaves bounds adds an
    empty table: the report keeps the start row alone, with every column's
    dtype, and the CLI writes that row and exits 2."""
    spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(1.0, 4.0))
    params = pipeline.prune_topk(carlgd.ParamVector([1.0, 0.5]), 0.5)
    sched = carlgd.Schedule(total_steps=4, eta=1e9, reupload_period=2,
                            classical_refine_steps=0, carleman_order=1,
                            prune_fraction=0.5)
    report = pipeline.run_pipeline(spec, None, sched, params, seed=0)
    assert report.diverged_at == 1
    assert [(k, v.dtype.kind, v.size) for k, v in report.steps.items()] == [
        ("step", "i", 1), ("loss", "f", 1), ("accuracy", "f", 1),
        ("err_l2", "f", 1), ("err_linf", "f", 1), ("segment", "i", 1),
        ("phase", "U", 1)]
    assert [(k, v.dtype.kind, v.size) for k, v in report.segments.items()] == [
        ("segment", "i", 1), ("start_step", "i", 1), ("kappa", "f", 1),
        ("kappa_method", "U", 1), ("D", "i", 1), ("upload_nnz", "i", 1),
        ("y0_norm", "f", 1)]
    assert report.steps["step"][0] == 0 and report.steps["err_l2"][0] == 0.0

    out = tmp_path / "run"
    rc = main(["pipeline", "--set", "model.kind=diag_quadratic",
               "--set", "model.coefficients=[1.0,4.0]",
               "--set", "init.params=[1.0,0.5]", "--set", "pretrain.steps=0",
               "--steps", "4", "--reupload", "2", "--eta", "1e9",
               "--out", str(out)])
    assert rc == 2
    assert "diverged at step 1" in capsys.readouterr().out
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_refinement_no_worse_error_at_segment_end(mlp_spec, iris):
    # paired runs, same seeds: with classical refinement the segment ends
    # carry no accumulated error, so the per-segment final error can only
    # improve on the refinement-free schedule
    means = {}
    for c in (0, 10):
        ends = []
        for seed in range(5):
            dense = pipeline.pretrain(mlp_spec, iris, steps=200, eta=0.05,
                                      seed=seed)
            pruned = pipeline.prune_topk(dense, 0.37)
            assert pruned.mask.sum() == 10
            sched = carlgd.Schedule(total_steps=100, eta=0.05,
                                    reupload_period=20,
                                    classical_refine_steps=c,
                                    carleman_order=2, prune_fraction=0.37)
            report = pipeline.run_pipeline(mlp_spec, iris, sched, pruned,
                                           seed=seed)
            seg = report.steps["segment"]
            err = report.steps["err_l2"]
            for s in range(report.segments["segment"].size):
                rows = np.where(seg == s)[0]
                ends.append(err[rows[-1]])
        means[c] = np.mean(ends)
    assert means[10] <= means[0]


# ---------------------------------------------------------------- simulate

def test_simulate_anchor_options(cubic_spec):
    p0 = carlgd.ParamVector([0.5])
    by_start = pipeline.simulate(cubic_spec, None, p0, eta=0.1, order=3,
                                 steps=5, anchor="start")
    by_zero = pipeline.simulate(cubic_spec, None, p0, eta=0.1, order=3,
                                steps=5, anchor="zero")
    by_point = pipeline.simulate(cubic_spec, None, p0, eta=0.1, order=3,
                                 steps=5, anchor=np.array([0.2]))
    assert np.array_equal(by_start.exact, by_zero.exact)
    assert np.array_equal(by_start.exact, by_point.exact)
    assert np.array_equal(by_point.lift.field.theta_star, [0.2])
    # first step is exact under a fresh anchor
    assert by_start.records["err_l2"][1] == 0.0
    with pytest.raises(InputError):
        pipeline.simulate(cubic_spec, None, p0, eta=0.1, order=1, steps=1,
                          anchor="elsewhere")


def test_simulate_masked_keeps_masked_zero(mlp_spec, iris):
    dense = pipeline.pretrain(mlp_spec, iris, steps=100, eta=0.05, seed=0)
    pruned = pipeline.prune_topk(dense, 0.2)
    res = pipeline.simulate(mlp_spec, iris, pruned, eta=0.05, order=2, steps=15)
    assert np.all(res.approx[:, ~pruned.mask] == 0.0)
    assert np.all(res.exact[:, ~pruned.mask] == 0.0)


def test_simulate_is_one_pipeline_segment(mlp_spec, iris):
    dense = pipeline.pretrain(mlp_spec, iris, steps=100, eta=0.05, seed=0)
    pruned = pipeline.prune_topk(dense, 0.37)
    T = 12
    sched = carlgd.Schedule(total_steps=T, eta=0.05, reupload_period=T,
                            classical_refine_steps=0, carleman_order=2,
                            prune_fraction=0.37)
    report = pipeline.run_pipeline(mlp_spec, iris, sched, pruned, seed=0)
    sim = pipeline.simulate(mlp_spec, iris, pruned, eta=0.05, order=2,
                            steps=T, anchor="start")
    assert report.segments["segment"].size == 1 and report.diverged_at is None
    assert report.steps["step"].size == sim.records["step"].size == T + 1
    for key in ("step", "segment", "phase"):
        assert np.array_equal(report.steps[key][1:], sim.records[key][1:])
    for key in ("loss", "accuracy", "err_l2", "err_linf"):
        assert report.steps[key][1:].tobytes() == sim.records[key][1:].tobytes()
    assert np.array_equal(report.final.values, sim.approx[-1])


def test_schedule_validation():
    with pytest.raises(InputError):
        carlgd.Schedule(total_steps=0, eta=0.1)
    with pytest.raises(InputError):
        carlgd.Schedule(total_steps=10, eta=0.1, reupload_period=11)
    with pytest.raises(InputError):
        carlgd.Schedule(total_steps=10, eta=0.1, prune_fraction=0.0)
    with pytest.raises(InputError):
        carlgd.Schedule(total_steps=10, eta=-0.1)


def test_norm2_finite_past_overflow():
    with np.errstate(over="ignore"):
        big = norm2(np.array([1e200, 1e200]))
    assert big == pytest.approx(np.sqrt(2) * 1e200, rel=1e-15)
    rng = np.random.default_rng(2)
    for x in (rng.standard_normal(27), np.zeros(3), np.array([1e150, 3e150])):
        assert norm2(x) == np.linalg.norm(x)  # same bits in the normal range
    assert norm2(np.array([np.inf, 1.0])) == np.inf
    assert np.isnan(norm2(np.array([np.nan, 1.0])))


def one_row_norm(x):
    """The 1-D rule, independently: np.linalg.norm, recomputed on
    x / max|x| when it overflows and max|x| is finite."""
    with np.errstate(over="ignore"):
        value = np.linalg.norm(x)
    scale = np.max(np.abs(x), initial=0.0)
    if np.isfinite(value) or not np.isfinite(scale):
        return value
    return scale * np.linalg.norm(x / scale)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 27, 40, 100, 257])
def test_norm2_of_a_stack_is_per_row_norm2(n):
    """norm2 of a (rows, n) stack gives each row the bits of norm2 on that
    row alone, and of the 1-D rule, across scales from 1e-300 to 1e300:
    rows that overflow, hold inf or NaN, or are zero included, and on a
    strided view of the stack."""
    rng = np.random.default_rng(n)
    scales = 10.0 ** rng.uniform(-300, 300, size=(400, 1))
    X = rng.standard_normal((400, n)) * scales
    X[0] = 0.0
    X[1, 0] = np.inf
    X[2, -1] = -np.inf
    X[3, 0] = np.nan
    X[4] = 1e200  # overflows, finite after the rescale
    X[5, 0], X[5, -1] = np.inf, np.nan
    expected = np.array([one_row_norm(x) for x in X])
    stacked = norm2(X)
    one_by_one = np.array([norm2(x) for x in X])
    strided = norm2(np.repeat(X, 2, axis=1)[:, ::2])
    for got in (stacked, one_by_one, strided):
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()
    assert np.isnan(stacked[[3, 5]]).all() and np.isinf(stacked[[1, 2]]).all()
    assert norm2(np.zeros((0, n))).shape == (0,)


def test_schedule_holds_its_trajectory_table_to_the_budget(monkeypatch):
    """A schedule whose trajectory table, total_steps + 1 rows of the
    STEP_COLUMNS, has more than MAX_STATES floats is rejected when it is
    made; one that fills the budget exactly is not."""
    width = len(pipeline.STEP_COLUMNS)
    monkeypatch.setattr(util, "MAX_STATES", 11 * width)
    pipeline.Schedule(total_steps=10, eta=0.1, reupload_period=5)
    with pytest.raises(CapacityError, match="12 trajectory rows of 7 columns"):
        pipeline.Schedule(total_steps=11, eta=0.1, reupload_period=5)


def test_loss_acc_reads_inf_for_overflowing_loss(mlp_spec, cubic_spec, iris):
    """`models.loss` raises on these MLP weights; the one forward pass of
    `models.loss_accuracy` returns the overflow, silently, and the record
    reads inf next to the accuracy."""
    with pytest.raises(carlgd.models.NumericOverflowError):
        carlgd.loss(mlp_spec, np.full(mlp_spec.n, 1e100), iris)
    lv, acc = pipeline._loss_acc(mlp_spec, np.full((1, mlp_spec.n), 1e100), iris)
    assert lv[0] == np.inf and 0.0 <= acc[0] <= 1.0
    lv, acc = pipeline._loss_acc(cubic_spec, np.array([[1e100]]), None)
    assert lv[0] == np.inf and np.isnan(acc[0])
