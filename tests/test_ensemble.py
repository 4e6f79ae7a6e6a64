import json

import numpy as np
import pytest

from stochwave import (ChaosSpace, CovarianceSpec, EnsembleConfig, Field,
                       QWienerSampler, State, build_model, chaos_vs_mc,
                       default_covariance, make_grid, run_ensemble,
                       step_exp_euler, strong_order, tail_curve, weak_order)

GRID = make_grid(1, [16], [2 * np.pi])
UNIT_GRID = make_grid(1, [8], [1.0])


def _linear_model(grid=GRID):
    return build_model("nls", grid, sign=0, smoothness=1)


def _mode_state(grid, model, wave=1):
    x = grid.x_axes[0]
    L = grid.lengths[0]
    return State(grid, np.exp(2j * np.pi * wave * x / L)[None, :], model.roles)


def _scalar_noise(lam=0.5):
    return CovarianceSpec(np.array([lam]), [Field(UNIT_GRID, np.ones(UNIT_GRID.shape))])


def test_config_validation():
    m = _linear_model()
    phi0 = _mode_state(GRID, m)
    with pytest.raises(ValueError):
        EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.01, covariance=None,
                       n_paths=1, master_seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.3, covariance=None,
                       n_paths=4, master_seed=0)


def test_zero_noise_ensemble_has_zero_variance():
    m = _linear_model()
    phi0 = _mode_state(GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=0.2, dt=0.02, covariance=None,
                        n_paths=4, master_seed=1,
                        observables=("norm_sq", "graph_norm_j1"))
    res = run_ensemble(cfg)
    for stats in res.observables.values():
        assert stats["var"] == pytest.approx(0.0, abs=1e-28)
    assert res.n_stopped == 0


def test_ensemble_replay_is_bit_identical():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=0.5, dt=0.05,
                        covariance=_scalar_noise(), n_paths=8, master_seed=3,
                        observables=("norm_sq", "pairing_re", "pairing_im"))
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_sup_ratio_stable_across_initial_data():
    m = _linear_model(UNIT_GRID)
    cov = _scalar_noise(0.3)
    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(10):
        phases = np.exp(2j * np.pi * rng.uniform(size=UNIT_GRID.shape))
        phi0 = State(UNIT_GRID, phases[None, :], m.roles)
        cfg = EnsembleConfig(model=m, phi0=phi0, T=0.5, dt=0.02, covariance=cov,
                            n_paths=64, master_seed=7)
        ratios.append(run_ensemble(cfg).sup_ratio)
    ratios = np.array(ratios)
    assert np.max(ratios) / np.min(ratios) < 1.2


def test_strong_order_multiplicative_noise():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 128,
                        covariance=_scalar_noise(), n_paths=300, master_seed=11)
    fit = strong_order(cfg, [1 / 8, 1 / 16, 1 / 32, 1 / 128])
    assert not fit.skipped
    assert fit.order >= 0.4
    assert fit.monotone


def test_strong_order_deterministic_and_exact_cases():
    m = build_model("nls", GRID, p=3, sign=1)
    x = GRID.x_axes[0]
    phi0 = State(GRID, (0.5 * np.exp(1j * x))[None, :], m.roles)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 256, covariance=None,
                        n_paths=2, master_seed=1)
    fit = strong_order(cfg, [1 / 16, 1 / 32, 1 / 64, 1 / 256])
    assert fit.order >= 0.9

    lin = _linear_model()
    phi_lin = _mode_state(GRID, lin)
    cfg2 = EnsembleConfig(model=lin, phi0=phi_lin, T=1.0, dt=1 / 64,
                         covariance=None, n_paths=2, master_seed=1)
    fit2 = strong_order(cfg2, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    assert fit2.skipped  # exact integrator, errors at roundoff


def test_order_fit_requires_four_rungs():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 16,
                        covariance=_scalar_noise(), n_paths=4, master_seed=1)
    with pytest.raises(ValueError):
        strong_order(cfg, [1 / 4, 1 / 8, 1 / 16])
    with pytest.raises(ValueError):
        weak_order(cfg, [1 / 4, 1 / 8, 1 / 16])


@pytest.mark.parametrize("fit", [strong_order, weak_order])
def test_order_fits_reject_rungs_that_do_not_divide_T(fit):
    # 0.3 is not a multiple of 0.04; in the second ladder it is a multiple of
    # 0.025 but still does not divide T = 1, so its rung would stop at 0.9
    # without noise and could not sum the fine increments with noise.
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    for ladder in ([0.3, 0.2, 0.1, 0.04], [0.3, 0.1, 0.05, 0.025]):
        for cov in (_scalar_noise(), None):
            cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=min(ladder),
                                 covariance=cov, n_paths=4, master_seed=1)
            with pytest.raises(ValueError, match="finest dt|divide T"):
                fit(cfg, ladder)


def test_weak_order_scalar_mode():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 64,
                        covariance=_scalar_noise(), n_paths=800, master_seed=13)
    ladder = [1 / 4, 1 / 8, 1 / 16, 1 / 64]
    fit = weak_order(cfg, ladder, observable="log_norm_sq", noise_floor_factor=3.0)
    strong = strong_order(cfg, ladder)
    assert not fit.skipped and not strong.skipped
    assert fit.order >= strong.order - 0.25  # weak at least strong, with fit slack

    const_fit = weak_order(cfg, ladder, observable="constant")
    assert const_fit.skipped  # constant functionals have zero weak error
    assert np.max(const_fit.errors) == 0.0


def test_weak_error_matches_closed_form():
    lam = 0.5
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 64,
                        covariance=_scalar_noise(lam), n_paths=2000, master_seed=17)
    fit = weak_order(cfg, [1 / 4, 1 / 8, 1 / 16, 1 / 64], observable="norm_sq",
                     noise_floor_factor=3.0)

    def closed(dt):
        return (1 + lam * dt) ** round(1 / dt)

    for dt, err, se in zip(fit.dts, fit.errors, fit.stderrs):
        ref = abs(closed(dt) - closed(1 / 64))
        assert abs(err - ref) <= 3 * se + 1e-12


def test_tail_curve_zero_noise():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.05, covariance=None,
                        n_paths=16, master_seed=19, threshold=1e9)
    tc = tail_curve(cfg, np.linspace(0.1, 0.9, 9))
    assert np.all(tc.survival == 1.0)
    assert tc.m_hat == pytest.approx(0.0)
    assert tc.lower_bound_ok()


def test_tail_curve_decreasing_and_bounded():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    n0 = max(m.graph_norms(phi0, 1))
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.01,
                        covariance=_scalar_noise(4.0), n_paths=300,
                        master_seed=23, threshold=2.0 * n0, n_smooth=1)
    tc = tail_curve(cfg, np.arange(0.05, 1.0, 0.05))
    assert np.all(np.diff(tc.survival) <= 1e-12)  # monotone nonincreasing
    assert tc.survival[-1] < 1.0
    assert tc.lower_bound_ok()
    with pytest.raises(ValueError):
        tail_curve(cfg, [0.0, 0.5])


def test_chaos_vs_mc_linear_agreement():
    g = make_grid(1, [16], [2 * np.pi])
    m = build_model("nls", g, sign=0, smoothness=1)
    cov = default_covariance(g, n_modes=2, lambda0=0.4, gamma=2.0)
    x = g.x_axes[0]
    phi0 = State(g, (np.exp(1j * x) + 0.3)[None, :], m.roles)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=0.5, dt=0.02, covariance=cov,
                        n_paths=600, master_seed=29)
    rep = chaos_vs_mc(cfg, ChaosSpace(2, 4))
    assert rep.mean_within_3se
    assert rep.tail_fraction < 1e-4
    assert rep.mc_second_moment > 0 and rep.chaos_energy > 0


def test_chaos_vs_mc_discrepancy_grows_with_amplitude():
    g = make_grid(1, [16], [2 * np.pi])
    cov = default_covariance(g, n_modes=2, lambda0=0.3, gamma=2.0)
    x = g.x_axes[0]
    gaps = []
    for amp in (0.05, 0.2, 0.8):
        m = build_model("nls", g, p=3, sign=1, smoothness=1)
        phi0 = State(g, (amp * np.exp(1j * x))[None, :], m.roles)
        cfg = EnsembleConfig(model=m, phi0=phi0, T=0.4, dt=0.02, covariance=cov,
                            n_paths=200, master_seed=31)
        rep = chaos_vs_mc(cfg, ChaosSpace(2, 3))
        ref = m.norm(phi0) ** 2
        gaps.append(abs(rep.second_moment_gap) / ref)
    assert gaps[0] < gaps[-1]


def test_seed_isolation_under_path_permutation():
    # summing per-path results in any order cannot change the aggregate:
    # check stream draws are tied to the path index, not execution order
    cov = _scalar_noise()
    forward = [QWienerSampler(cov, 41, i).increments(0.1, 4) for i in range(6)]
    backward = [QWienerSampler(cov, 41, i).increments(0.1, 4)
                for i in reversed(range(6))]
    for i in range(6):
        assert np.array_equal(forward[i], backward[5 - i])


def _march(model, phi0, dt, increments):
    state = phi0
    for dW in increments:
        state = step_exp_euler(model, state, dt, dW)
    return state


def test_chaos_vs_mc_monte_carlo_side_equals_a_per_stream_loop():
    g = make_grid(1, [16], [2 * np.pi])
    m = build_model("nls", g, p=3, sign=1, smoothness=1)
    cov = default_covariance(g, n_modes=2, lambda0=0.3, gamma=2.0)
    x = g.x_axes[0]
    phi0 = State(g, (0.5 * np.exp(1j * x) + 0.2)[None, :], m.roles)
    n_paths, T, dt = 5, 0.1, 0.02
    cfg = EnsembleConfig(model=m, phi0=phi0, T=T, dt=dt, covariance=cov,
                         n_paths=n_paths, master_seed=37)
    rep = chaos_vs_mc(cfg, ChaosSpace(2, 2))

    probe = phi0 * (1.0 / m.norm(phi0))
    pairs, norm_sq = [], []
    for i in range(n_paths):
        final = _march(m, phi0, dt, QWienerSampler(cov, 37, i).increments(dt, 5))
        pairs.append(m.inner(final, probe))
        norm_sq.append(m.norm(final) ** 2)
    re, im, norm_sq = np.real(pairs), np.imag(pairs), np.array(norm_sq)
    root_n = np.sqrt(n_paths)
    assert rep.probe_mc == [(float(re.mean()), float(im.mean()),
                             float(re.std(ddof=1) / root_n),
                             float(im.std(ddof=1) / root_n))]
    assert rep.mc_second_moment == float(norm_sq.mean())
    assert rep.mc_second_moment_stderr == float(norm_sq.std(ddof=1) / root_n)


def test_strong_order_errors_equal_a_coupled_march():
    m = build_model("nls", UNIT_GRID, p=3, sign=1, smoothness=1)
    phi0 = _mode_state(UNIT_GRID, m)
    cov = _scalar_noise()
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 32, covariance=cov,
                         n_paths=3, master_seed=43)
    fit = strong_order(cfg, [1 / 8, 1 / 4, 1 / 32, 1 / 16])

    errs = np.zeros((3, 3))
    for i in range(3):
        fine = QWienerSampler(cov, 43, i).increments(1 / 32, 32)
        ref = _march(m, phi0, 1 / 32, fine)
        for k, factor in enumerate((8, 4, 2)):
            coarse = fine.reshape(32 // factor, factor, *fine.shape[1:]).sum(axis=1)
            errs[k, i] = m.norm(_march(m, phi0, factor / 32, coarse) - ref)
    np.testing.assert_array_equal(fit.dts, [1 / 4, 1 / 8, 1 / 16])
    np.testing.assert_array_equal(fit.errors, errs.mean(axis=1))
    np.testing.assert_array_equal(fit.stderrs, errs.std(axis=1, ddof=1) / np.sqrt(3))


def test_weak_order_rejects_a_path_observable():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 16,
                         covariance=_scalar_noise(), n_paths=4, master_seed=1)
    with pytest.raises(ValueError, match="whole path"):
        weak_order(cfg, [1 / 2, 1 / 4, 1 / 8, 1 / 16], observable="sup_sum_sq")
