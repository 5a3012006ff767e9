import numpy as np
import pytest

import carlgd
from carlgd import diagnostics, models, pipeline, util
from carlgd.errors import EmptySupportError, InputError
from carlgd.util import norm2


def exact_spectrum(lams):
    lams = np.asarray(lams, dtype=float)
    return diagnostics.Spectrum(n=lams.size, method="direct", eigenvalues=lams)


# --------------------------------------------------------------- spectrum

def test_spectrum_diag_quadratic(diag_spec):
    s = carlgd.spectrum(diag_spec, carlgd.ParamVector([3.0, -1.0]))
    np.testing.assert_allclose(np.sort(s.eigenvalues), [1.0, 4.0])


def test_spectrum_zero_model():
    spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=(0.0, 0.0, 0.0))
    s = carlgd.spectrum(spec, carlgd.ParamVector(np.zeros(3)))
    np.testing.assert_array_equal(s.eigenvalues, np.zeros(3))


def test_spectrum_respects_mask(diag_spec):
    masked = carlgd.ParamVector([1.0, 0.0], mask=[True, False])
    s = carlgd.spectrum(diag_spec, masked)
    np.testing.assert_array_equal(s.eigenvalues, [1.0])


def test_lanczos_matches_direct_histogram(iris):
    # per-eigenvalue weight noise scales like 1/(n*sqrt(probes)), so the
    # agreement bound needs a few hundred eigenvalues to be meaningful
    spec = carlgd.ModelSpec(kind="mlp", layer_widths=(4, 16, 8, 3),
                            activation="quadratic_poly", alpha=0.1)
    point = pipeline.pretrain(spec, iris, steps=100, eta=0.05, seed=3)
    direct = carlgd.spectrum(spec, point, iris, method="direct")
    lan = carlgd.spectrum(spec, point, iris, method="lanczos",
                          k=80, probes=16, seed=0)
    assert carlgd.histogram_l1(direct, lan, nbins=20) < 0.05


def test_lanczos_breakdown_counts():
    """A probe stops where its beta falls below 1e-12, so it yields one
    Ritz value per distinct eigenvalue its start reaches: 2 on the
    coefficients (1, 1, 1, 2), 1 on a zero Hessian."""
    for coeffs, ritz in (((1.0, 1.0, 1.0, 2.0), [1.0, 2.0]),
                         ((0.0, 0.0, 0.0), [0.0])):
        spec = carlgd.ModelSpec(kind="diag_quadratic", coefficients=coeffs)
        s = carlgd.spectrum(spec, np.ones(len(coeffs)), method="lanczos",
                            k=80, probes=16, seed=0)
        np.testing.assert_allclose(s.ritz_values, np.tile(ritz, 16),
                                   rtol=0, atol=1e-12)
        assert s.ritz_weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_lanczos_probe_groups_match_one_group(mlp_spec, iris, monkeypatch):
    """The probes advance in lockstep, one HVP call per step on all of a
    group's probes; a MAX_STATES too small for every probe's basis splits
    them into groups, down to one probe each, with the same spectrum."""
    point = carlgd.init_params(mlp_spec, 1)
    calls = []
    hvp = models.hvp
    monkeypatch.setattr(models, "hvp", lambda spec, theta, data, v:
                        calls.append(len(v)) or hvp(spec, theta, data, v))
    one = carlgd.spectrum(mlp_spec, point, iris, method="lanczos", k=5,
                          probes=4, seed=0)
    assert calls == [4] * 5
    for budget, group in ((2 * 5 * mlp_spec.n, 2), (100, 1)):
        calls.clear()
        monkeypatch.setattr(util, "MAX_STATES", budget)
        split = carlgd.spectrum(mlp_spec, point, iris, method="lanczos", k=5,
                                probes=4, seed=0)
        assert calls == [group] * (5 * 4 // group)
        np.testing.assert_allclose(split.ritz_values, one.ritz_values, rtol=0,
                                   atol=1e-12 * np.max(np.abs(one.ritz_values)))
        np.testing.assert_allclose(split.ritz_weights, one.ritz_weights,
                                   rtol=0, atol=1e-12)


def test_lanczos_needs_a_free_parameter(diag_spec):
    none_free = carlgd.ParamVector([0.0, 0.0], mask=[False, False])
    with pytest.raises(InputError, match="free parameter"):
        carlgd.spectrum(diag_spec, none_free, method="lanczos")


def test_lanczos_weights_normalized(mlp_spec, iris):
    s = carlgd.spectrum(mlp_spec, carlgd.init_params(mlp_spec, 1), iris,
                        method="lanczos", k=40, probes=4, seed=2)
    assert s.ritz_weights.sum() == pytest.approx(1.0, abs=1e-10)


# -------------------------------------------------------------- error proxy

def test_proxy_normalized_at_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lams = rng.uniform(-2, 2, size=rng.integers(2, 30))
        if not np.any(np.abs(lams) >= 0.4):
            lams[0] = 1.0
        E = carlgd.error_proxy(exact_spectrum(lams), eta=1.0, t_range=[0])
        assert E[0] == 1.0


def test_proxy_four_eigenvalue_example():
    # a-values (-0.5, -0.5, -0.5, +0.5) at eta=1: lambda = -a
    spect = exact_spectrum([0.5, 0.5, 0.5, -0.5])
    E = carlgd.error_proxy(spect, eta=1.0, t_range=range(6))
    assert E[0] == 1.0
    assert E[5] == 1.921875  # (3*0.5^5 + 1.5^5) / 4, exact in binary


def test_proxy_decreasing_when_all_dissipative():
    spect = exact_spectrum([0.5, 0.6])  # a = -0.5, -0.6
    E = carlgd.error_proxy(spect, eta=1.0, t_range=range(30))
    assert np.all(np.diff(E) < 0)


def test_proxy_empty_support_rejected():
    spect = exact_spectrum([0.1, -0.2, 0.3])
    with pytest.raises(EmptySupportError):
        carlgd.error_proxy(spect, eta=1.0, t_range=range(5))


def test_proxy_eta_scaling_moves_support():
    spect = exact_spectrum([10.0, -10.0])
    E = carlgd.error_proxy(spect, eta=0.05, t_range=range(3))
    assert E[0] == 1.0
    with pytest.raises(EmptySupportError):
        carlgd.error_proxy(spect, eta=0.01, t_range=range(3))


def test_proxy_raw_scale_matches_eta_one():
    spect = exact_spectrum([0.5, -0.7, 1.2])
    a = carlgd.error_proxy(spect, eta=1.0, t_range=range(10), scale="eta")
    b = carlgd.error_proxy(spect, eta=0.123, t_range=range(10), scale="raw")
    np.testing.assert_array_equal(a, b)


def test_proxy_asymptotic_ratio():
    # ratio E(t+1)/E(t) approaches the largest |1+a| on the support
    for lams, want in (([0.5] * 19 + [-0.5], 1.5),
                       ([0.5, 2.3], 1.3)):
        spect = exact_spectrum(lams)
        E = carlgd.error_proxy(spect, eta=1.0, t_range=[200, 201])
        ratio = E[1] / E[0]
        assert abs(ratio - want) <= 0.01 * want


def test_proxy_past_overflow_reads_inf():
    """Once |1 + a|^t overflows, E(t) is +inf, never NaN: a point of zero
    weight adds exactly 0, not 0 * inf, and no warning is raised."""
    spect = diagnostics.Spectrum(n=2, method="lanczos",
                                 ritz_values=np.array([1e3, 3e3]),
                                 ritz_weights=np.array([1.0, 0.0]))
    E = carlgd.error_proxy(spect, eta=1.0, t_range=[0, 1, 200])
    np.testing.assert_array_equal(E, [1.0, 999.0, np.inf])


def test_proxy_mode_zeroed_by_one_step_adds_zero_without_warning():
    """lambda = 1/eta gives |1 + a| = 0: that mode adds exactly 0 at t > 0,
    and its reciprocal (for a t of -1) raises no divide-by-zero warning."""
    E = carlgd.error_proxy(exact_spectrum([1.0, -0.5]), eta=1.0, t_range=range(4))
    assert E.tolist() == [1.0, 0.75, 1.125, 1.6875]


def _proxy_per_t(spect, eta, t_range):
    """E(t) one t at a time, each a sum over the support (threshold 0.4)."""
    lam, w = spect.points_weights()
    a = -eta * lam
    support = np.abs(a) >= 0.4
    growth, w = np.abs(1.0 + a[support]), w[support]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([np.where(w > 0, w * growth ** t, 0.0).sum() / w.sum()
                         for t in np.asarray(list(t_range))])


def test_proxy_blocks_of_t_match_the_per_t_sums_bitwise(monkeypatch):
    """E over blocks of t has the bits of one sum per t: spectra with 1, 11,
    58 and 263 support points, zero weights and powers past the float
    range, integer t (2 and -1 included) and float t, under the default
    budget and under blocks of one t and of a few t."""
    rng = np.random.default_rng(4)
    t_ranges = [range(-3, 2500), np.linspace(0.0, 300.0, 601), [5, 2, 2, 0]]
    overflowed = []
    for size in (1, 11, 58, 263):
        lam = rng.uniform(-4.0, 4.0, size)
        lam[np.abs(lam) < 0.4] += 1.0  # all on the support
        lam[:size // 3] *= 10.0  # |1 + a| up to 41 overflows by t = 191
        w = rng.random(size)
        w[1::4] = 0.0
        spect = diagnostics.Spectrum(n=size, method="lanczos",
                                     ritz_values=lam, ritz_weights=w / w.sum())
        for t_range in t_ranges:
            want = _proxy_per_t(spect, 1.0, t_range)
            for budget in (util.BLOCK_VALUES, 1, 3 * size + 1):
                monkeypatch.setattr(util, "BLOCK_VALUES", budget)
                E = carlgd.error_proxy(spect, eta=1.0, t_range=t_range)
                assert E.view(np.uint64).tobytes() \
                    == want.view(np.uint64).tobytes(), (size, budget)
            overflowed.append(np.isinf(want).any())
    assert any(overflowed) and not any(np.isnan(want))
    # one point: a last-bit difference in one power is not rounded away
    for lam in rng.uniform(0.4, 4.0, 300):
        spect = exact_spectrum([lam])
        want = _proxy_per_t(spect, 1.0, [-1, 2, 3, 2])
        E = carlgd.error_proxy(spect, eta=1.0, t_range=[-1, 2, 3, 2])
        assert E.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_proxy_from_lanczos_spectrum(mlp_spec, iris):
    s = carlgd.spectrum(mlp_spec, carlgd.init_params(mlp_spec, 0), iris,
                        method="lanczos", k=40, probes=4, seed=1)
    E = carlgd.error_proxy(s, eta=1.0, t_range=range(4), threshold=0.05)
    assert E[0] == pytest.approx(1.0)


# ------------------------------------------------------------ cost estimate

def test_cost_estimate_step_scaling_exact():
    base = dict(n=1024, s=8, kappa=3.0, eps=0.01)
    for regime, want in (("fully", 2.0), ("almost", 4.0)):
        r = carlgd.cost_estimate(T=200, regime=regime, **base) \
            / carlgd.cost_estimate(T=100, regime=regime, **base)
        assert r == want


def test_cost_estimate_polylog_scaling():
    a = carlgd.cost_estimate(n=16, T=10, s=4, kappa=2.0, eps=0.1, regime="fully")
    b = carlgd.cost_estimate(n=256, T=10, s=4, kappa=2.0, eps=0.1, regime="fully")
    assert b / a == 8.0  # log2(n^2) = 2 log2(n)


def test_cost_estimate_validation():
    with pytest.raises(InputError):
        carlgd.cost_estimate(n=16, T=10, s=4, kappa=2.0, eps=0.1, regime="other")
    with pytest.raises(InputError):
        carlgd.cost_estimate(n=16, T=-1, s=4, kappa=2.0, eps=0.1, regime="fully")


# --------------------------------------------------------- trajectory error

def test_trajectory_error_zero_for_identical():
    traj = np.random.default_rng(5).standard_normal((7, 3))
    for mode in ("l2", "linf"):
        np.testing.assert_array_equal(
            carlgd.trajectory_error(traj, traj, mode=mode), np.zeros(7))


def test_trajectory_error_single_param_equals_linf_on_slice():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((9, 2))
    b = rng.standard_normal((9, 2))
    single = carlgd.trajectory_error(a, b, mode="single_param", param_index=1)
    linf = carlgd.trajectory_error(a[:, 1:2], b[:, 1:2], mode="linf")
    np.testing.assert_array_equal(single, linf)


def test_trajectory_error_length_mismatch():
    with pytest.raises(InputError):
        carlgd.trajectory_error(np.zeros((3, 2)), np.zeros((4, 2)))


def test_trajectory_error_l2_does_not_overflow():
    """The l2 error is norm2 of each row, as err_l2 in trajectory.csv: a
    row of 1e200 entries reads 1.414e200, with no overflow warning (the
    suite turns RuntimeWarning into an error)."""
    row = np.array([[1e200, 1e200]])
    err = carlgd.trajectory_error(row, np.zeros((1, 2)), mode="l2")
    assert err[0] == norm2(row[0]) == pytest.approx(np.sqrt(2) * 1e200)


def test_loglog_slope_on_cubic_run(cubic_spec):
    res = pipeline.simulate(cubic_spec, None, carlgd.ParamVector([0.5]),
                            eta=0.1, order=2, steps=40, anchor="start")
    err = carlgd.trajectory_error(res.approx, res.exact, mode="single_param",
                                  param_index=0)
    slope = carlgd.loglog_slope(err)
    assert np.isfinite(slope)


def test_loglog_slope_degenerate_returns_nan():
    assert np.isnan(carlgd.loglog_slope(np.zeros(5)))


def test_bin_edges_pad_never_vanishes():
    """The pad is 1e-9 wherever that resolves next to max|points|, so those
    edges keep their bits; at 3e6 it grows, and every bin keeps a positive
    width."""
    pts = np.array([1.0, 17.8])
    assert diagnostics.bin_edges(pts, 40).tobytes() == \
        np.linspace(1.0 - 1e-9, 17.8 + 1e-9, 41).tobytes()
    for pts in (np.array([3e6]), np.array([-1e300, -1e300])):
        edges = diagnostics.bin_edges(pts, 40)
        assert np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)
