import json

import numpy as np
import pytest

from stochwave import (ChaosSpace, CovarianceSpec, EnsembleConfig, Field,
                       QWienerSampler, TailCurve, build_model, chaos_vs_mc,
                       default_covariance, make_grid, run_ensemble, solve_ito,
                       step_exp_euler, strong_order, weak_order)
from stochwave.cli import _json

GRID = make_grid(1, [16], [2 * np.pi])
UNIT_GRID = make_grid(1, [8], [1.0])


def _linear_model(grid=GRID):
    return build_model("nls", grid, sign=0, smoothness=1)


def _mode_state(grid, model, wave=1):
    x = grid.x_axes[0]
    L = grid.lengths[0]
    return np.exp(2j * np.pi * wave * x / L)[None, :]


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
    assert _json(a) == _json(b)


def test_sup_ratio_stable_across_initial_data():
    m = _linear_model(UNIT_GRID)
    cov = _scalar_noise(0.3)
    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(10):
        phases = np.exp(2j * np.pi * rng.uniform(size=UNIT_GRID.shape))
        phi0 = phases[None, :]
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
    phi0 = (0.5 * np.exp(1j * x))[None, :]
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
    tc = TailCurve.from_stop_times(run_ensemble(cfg).stop_times, np.linspace(0.1, 0.9, 9))
    assert np.all(tc.survival == 1.0)
    assert tc.m_hat == pytest.approx(0.0)
    assert tc.lower_bound_ok()


def test_tail_curve_decreasing_and_bounded():
    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    n0 = max(m.generator.graph_norm_ladder(phi0, 1))
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.01,
                        covariance=_scalar_noise(4.0), n_paths=300,
                        master_seed=23, threshold=2.0 * n0)
    stop_times = run_ensemble(cfg).stop_times
    tc = TailCurve.from_stop_times(stop_times, np.arange(0.05, 1.0, 0.05))
    assert np.all(np.diff(tc.survival) <= 1e-12)  # monotone nonincreasing
    assert tc.survival[-1] < 1.0
    assert tc.lower_bound_ok()
    with pytest.raises(ValueError):
        TailCurve.from_stop_times(stop_times, [0.0, 0.5])


def test_chaos_vs_mc_linear_agreement():
    g = make_grid(1, [16], [2 * np.pi])
    m = build_model("nls", g, sign=0, smoothness=1)
    cov = default_covariance(g, n_modes=2, lambda0=0.4, gamma=2.0)
    x = g.x_axes[0]
    phi0 = (np.exp(1j * x) + 0.3)[None, :]
    cfg = EnsembleConfig(model=m, phi0=phi0, T=0.5, dt=0.02, covariance=cov,
                        n_paths=600, master_seed=29)
    rep, _ = chaos_vs_mc(cfg, ChaosSpace(2, 4))
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
        phi0 = (amp * np.exp(1j * x))[None, :]
        cfg = EnsembleConfig(model=m, phi0=phi0, T=0.4, dt=0.02, covariance=cov,
                            n_paths=200, master_seed=31)
        rep, _ = chaos_vs_mc(cfg, ChaosSpace(2, 3))
        ref = m.generator.metric_norm(phi0) ** 2
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
    phi0 = (0.5 * np.exp(1j * x) + 0.2)[None, :]
    n_paths, T, dt = 5, 0.1, 0.02
    cfg = EnsembleConfig(model=m, phi0=phi0, T=T, dt=dt, covariance=cov,
                         n_paths=n_paths, master_seed=37)
    rep, _ = chaos_vs_mc(cfg, ChaosSpace(2, 2))

    probe = phi0 * (1.0 / m.generator.metric_norm(phi0))
    pairs, norm_sq = [], []
    for i in range(n_paths):
        final = _march(m, phi0, dt, QWienerSampler(cov, 37, i).increments(dt, 5))
        pairs.append(m.generator.metric_inner(final, probe))
        norm_sq.append(m.generator.metric_norm(final) ** 2)
    re, im, norm_sq = np.real(pairs), np.imag(pairs), np.array(norm_sq)
    root_n = np.sqrt(n_paths)
    assert rep.probe_mc == [(float(re.mean()), float(im.mean()),
                             float(re.std(ddof=1) / root_n),
                             float(im.std(ddof=1) / root_n))]
    assert rep.mc_second_moment == float(norm_sq.mean())
    assert rep.mc_second_moment_stderr == float(norm_sq.std(ddof=1) / root_n)


def test_chaos_vs_mc_monte_carlo_side_transforms_each_final_at_most_three_times(monkeypatch):
    # the observables of the Monte Carlo side (both probe pairings and the
    # squared norm) take one ladder and one pairing per path: at most three
    # forward transforms beside the steps' own, the probe built once per run
    import stochwave.ensemble as ensemble
    from stochwave.grids import Grid

    g = make_grid(1, [16], [2 * np.pi])
    m = build_model("nls", g, sign=0, smoothness=1)
    cov = default_covariance(g, n_modes=2, lambda0=0.3, gamma=2.0)
    phi0 = (0.5 * np.exp(1j * g.x_axes[0]) + 0.2)[None, :]
    cfg = EnsembleConfig(model=m, phi0=phi0, T=0.04, dt=0.02, covariance=cov,
                         n_paths=6, master_seed=3)
    to_spectral, step, path_columns = Grid.to_spectral, ensemble.step_exp_euler, \
        ensemble._path_columns
    count = {"all": 0, "step": 0, "mc": 0}

    def counted(self, values):
        count["all"] += 1
        return to_spectral(self, values)

    def stepped(*args):
        before = count["all"]
        out = step(*args)
        count["step"] += count["all"] - before
        return out

    def monte_carlo_side(*args):
        before = count["all"] - count["step"]
        out = path_columns(*args)
        count["mc"] += count["all"] - count["step"] - before
        return out

    monkeypatch.setattr(Grid, "to_spectral", counted)
    monkeypatch.setattr(ensemble, "step_exp_euler", stepped)
    monkeypatch.setattr(ensemble, "_path_columns", monte_carlo_side)
    chaos_vs_mc(cfg, ChaosSpace(2, 2))
    assert count["step"] > 0
    assert 0 < count["mc"] <= 3 * cfg.n_paths


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
            errs[k, i] = m.generator.metric_norm(_march(m, phi0, factor / 32, coarse) - ref)
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


def test_blown_paths_end_at_their_last_finite_state():
    # focusing cubic from amplitude 3: every path blows up before T and must
    # end at its last finite state (the process stopped at tau ^ T), as its
    # solve_ito trajectory does, not at phi0
    m = build_model("nls", UNIT_GRID, p=3, sign=1)
    phi0 = np.full((1,) + UNIT_GRID.shape, 3.0 + 0j)
    cov = CovarianceSpec(np.array([0.5]), [Field(UNIT_GRID, np.ones(UNIT_GRID.shape))])
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.01, covariance=cov,
                         n_paths=4, master_seed=3)
    with np.errstate(all="ignore"):
        res = run_ensemble(cfg)
        finals = []
        for i in range(cfg.n_paths):
            traj = solve_ito(m, phi0, cfg.T, cfg.dt, QWienerSampler(cov, 3, i))
            assert traj.blown_up and traj.stop_time == res.stop_times[i]
            assert traj.times[-1] <= traj.stop_time
            assert traj.graph_norms[-1].tobytes() == \
                m.generator.graph_norm_ladder(traj.final, m.smoothness).tobytes()
            finals.append(m.generator.metric_norm(traj.final) ** 2)
    assert res.n_blown == 4
    assert res.observables["norm_sq"]["mean"] == np.mean(finals) > 9.0


def test_run_ensemble_does_not_depend_on_the_stack_size(monkeypatch):
    # stacks of every path (the default budget here), of 7 and of 1 path, on
    # every observable that _columns knows, the model's invariants too: each
    # column is reduced stack by stack, in index order
    import stochwave.ensemble as ensemble

    m = _linear_model()
    phi0 = _mode_state(GRID, m)
    cov = default_covariance(GRID, n_modes=3, lambda0=4.0, gamma=1.5)
    top = max(m.generator.graph_norm_ladder(phi0, m.smoothness))
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.01, covariance=cov,
                         n_paths=30, master_seed=5, threshold=2.0 * top,
                         observables=("norm_sq", "sup_sum_sq", "pairing_re", "graph_norm_j1",
                                      "norm", "log_norm_sq", "constant", "pairing_im",
                                      "graph_norm_j0", "mass", "energy"))
    want = _json(run_ensemble(cfg))
    assert 0 < json.loads(want)["n_stopped"] < cfg.n_paths
    for size in (7, 1):
        monkeypatch.setattr(ensemble, "_STACK_BYTES", size * 8 * 100 * GRID.size)
        assert _json(run_ensemble(cfg)) == want


def test_order_fits_step_once_per_path_and_step_through_the_module_name(monkeypatch):
    # the model, noise and ladder of the ito_ladder benchmark at 6 paths: each
    # fit makes n_paths x sum(steps) calls of stochwave.ensemble.step_exp_euler,
    # and its errors are those of a per-path march on the real increments
    import stochwave.ensemble as ensemble

    m = _linear_model(UNIT_GRID)
    phi0 = _mode_state(UNIT_GRID, m)
    cov = default_covariance(UNIT_GRID, n_modes=1, lambda0=0.5, gamma=2.0)
    ladder, n_paths, seed = [0.25, 0.125, 0.0625, 0.015625], 6, 2024
    cfg = EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=ladder[-1], covariance=cov,
                         n_paths=n_paths, master_seed=seed)
    calls = []

    def counted(*args):
        calls.append(1)
        return step_exp_euler(*args)

    monkeypatch.setattr(ensemble, "step_exp_euler", counted)
    strong = strong_order(cfg, ladder)
    assert len(calls) == n_paths * (4 + 8 + 16 + 64)
    weak = weak_order(cfg, ladder, observable="log_norm_sq", noise_floor_factor=3.0)
    assert len(calls) == 2 * n_paths * (4 + 8 + 16 + 64)

    errs, diffs = np.zeros((3, n_paths)), np.zeros((3, n_paths))
    f = lambda st: 2.0 * np.log(max(m.generator.metric_norm(st), 1e-300))
    for i in range(n_paths):
        fine = QWienerSampler(cov, seed, i).increments(ladder[-1], 64)
        ref = _march(m, phi0, ladder[-1], fine)
        for k, dt in enumerate(ladder[:-1]):
            factor = round(dt / ladder[-1])
            sol = _march(m, phi0, dt, fine.reshape(64 // factor, factor, -1).sum(axis=1))
            errs[k, i] = m.generator.metric_norm(sol - ref)
            diffs[k, i] = f(sol) - f(ref)
    root_n = np.sqrt(n_paths)
    assert strong.errors.tobytes() == errs.mean(axis=1).tobytes()
    assert strong.stderrs.tobytes() == (errs.std(axis=1, ddof=1) / root_n).tobytes()
    assert weak.errors.tobytes() == np.abs(diffs.mean(axis=1)).tobytes()
    assert weak.stderrs.tobytes() == (diffs.std(axis=1, ddof=1) / root_n).tobytes()


def _conserved_of_one_state(model, state):
    """Model.conserved as a sum over one state's grid at a time."""
    pr, dv, grid = model.params, model.grid.dv, model.grid
    data, out = state, {}
    if model.name == "nls":
        psi = data[0]
        out["mass"] = float(np.sum(np.abs(psi) ** 2) * dv)
        grad2 = float(np.sum(grid.k_squared * np.abs(grid.to_spectral(psi)) ** 2))
        pot = float(np.sum(np.abs(psi) ** (pr.p + 1)) * dv)
        out["energy"] = grad2 - pr.sign * 2.0 / (pr.p + 1) * pot
    elif model.name in ("klein_gordon", "sine_gordon"):
        u, v = data[0], data[1]
        b2 = grid.k_squared + pr.k0**2
        bnorm2 = float(np.sum(b2 * np.abs(grid.to_spectral(u)) ** 2))
        kin = float(np.sum(np.abs(v) ** 2) * dv)
        if model.name == "klein_gordon":
            pot = -pr.sign / (pr.p + 1) * float(np.sum(np.abs(u) ** (pr.p + 1)) * dv)
        else:
            pot = pr.g * float(np.sum(np.real(np.cos(u))) * dv)
        out["energy"] = 0.5 * kin + 0.5 * bnorm2 + pot
    elif model.name == "zakharov":
        out["mass"] = float(np.sum(np.abs(data[0]) ** 2) * dv)
    else:
        out["charge"] = float(np.sum(np.abs(data[0]) ** 2 + np.abs(data[1]) ** 2) * dv)
    return out


def _observable_of_one_state(model, name, phi0, state):
    """An observable as a function of one final state, the oracle of the columns."""
    gen = model.generator
    s, size = gen.n_components, model.grid.size
    norm = float(np.sqrt(np.sum(gen._flat_metric()
                                * np.abs(model.grid.to_spectral(state).reshape(s, size)) ** 2).real))
    probe = phi0 * (1.0 / max(model.generator.metric_norm(phi0), 1e-300))
    pairing = complex(np.sum(gen._flat_metric() * model.grid.to_spectral(state).reshape(s, size)
                             * np.conj(model.grid.to_spectral(probe).reshape(s, size))))
    if name.startswith("graph_norm_j"):
        j = int(name.removeprefix("graph_norm_j"))
        return model.generator.graph_norm_ladder(state, j)[j]
    return {"norm_sq": norm ** 2, "constant": 1.0, "norm": norm,
            "log_norm_sq": 2.0 * np.log(max(norm, 1e-300)),
            "pairing_re": pairing.real, "pairing_im": pairing.imag,
            }.get(name, _conserved_of_one_state(model, state).get(name, np.nan))


@pytest.mark.parametrize("name, dim", [("nls", 1), ("nls", 2), ("klein_gordon", 1),
                                       ("sine_gordon", 1), ("zakharov", 1), ("zakharov", 2),
                                       ("maxwell_dirac", 1)])
def test_observable_columns_equal_the_one_state_values_bit_for_bit(name, dim):
    # each name alone, then every name in one call, forward and reversed: one
    # shared ladder, pairing and invariant set give each row the same bits
    from stochwave.ensemble import _columns, _probe

    grid = make_grid(dim, [16, 8][:dim], [2 * np.pi, 3.0][:dim])
    model = build_model(name, grid, smoothness=2)
    rng = np.random.default_rng(5)
    states = [model.random_smooth_state(rng, radius=r) for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
    states.append(np.zeros((model.generator.n_components,) + model.grid.shape, dtype=complex))
    data = np.stack(states)
    phi0 = states[1]
    probe = _probe(model, phi0)
    names = ("norm_sq", "constant", "log_norm_sq", "norm", "graph_norm_j0", "graph_norm_j1",
             "graph_norm_j2", "pairing_re", "pairing_im", "mass", "energy", "charge")
    want = {observable: np.array([_observable_of_one_state(model, observable, phi0, st)
                                  for st in states]).tobytes() for observable in names}
    for observable in names:
        column = _columns(model, [observable], probe, data)
        assert column.shape == (1, len(states))
        assert column[0].tobytes() == want[observable], observable
    for order in (names, names[::-1]):
        rows = _columns(model, order, probe, data)
        assert rows.shape == (len(names), len(states))
        for observable, row in zip(order, rows):
            assert row.tobytes() == want[observable], (order[0], observable)
    with pytest.raises(ValueError, match="whole path"):
        _columns(model, ["norm_sq", "sup_sum_sq"], probe, data)
    with pytest.raises(ValueError, match="unknown observable 'nope'"):
        _columns(model, ["norm_sq", "nope"], probe, data)
