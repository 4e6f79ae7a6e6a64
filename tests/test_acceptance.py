"""End-to-end verification battery at desk scale.

Every check prints one PASS/FAIL line (run with ``pytest -s`` to see them
stream); each line states the measured quantity and its tolerance. Statistical
checks use fixed master seeds so the suite is deterministic.
"""

from math import factorial

import numpy as np
import pytest
from scipy.linalg import expm

import stochwave as sw
from oracles import apply_Q, empirical_covariance, growth_bound_fit
from stochwave.chaos import ChaosSpace, solve_wick_evolution, wick_identity_deviations
from stochwave.cli import _json
from stochwave.noise import discrete_pairing, sample_moments

GRID32 = sw.make_grid(1, [32], [2 * np.pi])
GRID64 = sw.make_grid(1, [64], [2 * np.pi])
UNIT8 = sw.make_grid(1, [8], [1.0])


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def _real_state(model, seed, radius):
    st = model.random_smooth_state(np.random.default_rng(seed), radius)
    data = st
    if model.name == "sine_gordon":
        data = np.real(data)
    if model.name == "maxwell_dirac":
        data = data.copy()
        data[2:] = np.real(data[2:])
    return data.astype(complex)


def _mode_state(grid, model, wave=1, amp=1.0):
    x = grid.x_axes[0]
    L = grid.lengths[0]
    st = np.zeros((model.generator.n_components,) + model.grid.shape, dtype=complex)
    st[0] = amp * np.exp(2j * np.pi * wave * x / L)
    return st


def _scalar_noise(lam):
    return sw.CovarianceSpec(np.array([lam]), [sw.Field(UNIT8, np.ones(UNIT8.shape))])


def _all_models():
    return [
        sw.build_model("nls", GRID32, p=3, sign=1),
        sw.build_model("klein_gordon", GRID32, p=3, sign=-1, k0=1.0),
        sw.build_model("sine_gordon", GRID32, g=1.0, k0=1.0),
        sw.build_model("zakharov", GRID32),
        sw.build_model("maxwell_dirac", GRID32, k0=1.0, m=1.0),
    ]


def test_unitarity():
    """Free propagators preserve the state-space norm to 1e-12."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for model in _all_models():
        gen = model.generator
        s = gen.n_components
        for _ in range(100):
            data = rng.standard_normal((s,) + GRID32.shape) \
                + 1j * rng.standard_normal((s,) + GRID32.shape)
            st = data
            t = rng.uniform(-5, 5)
            dev = abs(gen.metric_norm(gen.propagate(t, st)) / gen.metric_norm(st) - 1)
            worst = max(worst, dev)
    ok = worst < 1e-12
    _report("unitarity", ok, f"max |norm ratio - 1| = {worst:.2e} (< 1e-12)")
    assert ok


def _wave_propagator_deviation():
    """Largest entrywise deviation of the wave-block propagator matrices from
    the cos/sin closed form and from expm, at two k0 and two times."""
    worst = 0.0
    for k0 in (1.0, 2.5):
        wave = sw.build_model("klein_gordon", GRID32, k0=k0).generator
        for t in (0.3, 1.7):
            P = wave.propagator_matrices(t)
            k = GRID32.k_axes[0]
            for i in range(GRID32.size):
                b = np.sqrt(k[i] ** 2 + k0**2)
                closed = np.array([[np.cos(t * b), np.sin(t * b) / b],
                                   [-b * np.sin(t * b), np.cos(t * b)]])
                oracle = expm(-1j * t * wave.symbol[:, :, i])
                worst = max(worst, np.max(np.abs(P[i] - closed)),
                            np.max(np.abs(P[i] - oracle)))
    return worst


def test_wave_propagator_matrix():
    """Wave-block propagator matches the cos/sin closed form and expm."""
    worst = _wave_propagator_deviation()
    ok = worst < 1e-12
    _report("wave-propagator", ok, f"max entrywise deviation = {worst:.2e} (< 1e-12)")
    assert ok


def test_wave_propagator_matrix_rejects_a_phase_defect(monkeypatch):
    # a free propagator evaluated at (1 + 1e-6) t, a phase that drifts with t
    exact = sw.SpectralOperator.propagator_matrices
    monkeypatch.setattr(sw.SpectralOperator, "propagator_matrices",
                        lambda self, t: exact(self, (1 + 1e-6) * t))
    assert _wave_propagator_deviation() >= 1e-12


def test_deterministic_conservation():
    """Split-step drift: exact invariants tiny, energies second order."""
    results = []

    nls = sw.build_model("nls", GRID64, p=3, sign=1)
    x = GRID64.x_axes[0]
    psi0 = (0.4 * np.exp(1j * x) + 0.1 * np.exp(2j * x))[None, :]
    c0 = {n: c[0] for n, c in nls.conserved_blocks(psi0[None]).items()}
    cons = sw.solve_ito(nls, psi0, 1.0, 1e-3, None, scheme="strang").conserved
    mass_drift = np.max(np.abs(cons["mass"] - c0["mass"])) / abs(c0["mass"])
    energy_drift = np.max(np.abs(cons["energy"] - c0["energy"])) / abs(c0["energy"])
    results.append(("nls mass", mass_drift, 1e-8))
    results.append(("nls energy", energy_drift, 1e-6))

    for name, sign in (("klein_gordon", -1), ("sine_gordon", 1)):
        m = sw.build_model(name, GRID32, p=3, sign=sign, g=1.0, k0=1.0)
        st = _real_state(m, 3, 0.4)
        e0 = m.conserved_blocks(st[None])["energy"][0]
        drifts = []
        for dt in (4e-3, 2e-3, 1e-3):
            tr = sw.solve_ito(m, st, 0.5, dt, None, scheme="strang")
            drifts.append(np.max(np.abs(tr.conserved["energy"] - e0)) / abs(e0))
        slope = min(np.log2(drifts[i] / drifts[i + 1]) for i in range(2))
        results.append((f"{name} energy slope", -slope, -1.8))  # want slope >= 1.8

    zak = sw.build_model("zakharov", GRID32)
    st = _real_state(zak, 5, 0.4)
    m0 = zak.conserved_blocks(st[None])["mass"][0]
    tr = sw.solve_ito(zak, st, 1.0, 1e-3, None, scheme="strang")
    results.append(("zakharov mass", np.max(np.abs(tr.conserved["mass"] - m0)) / m0, 1e-8))

    md = sw.build_model("maxwell_dirac", GRID32, k0=1.0, m=1.0)
    st = _real_state(md, 7, 0.4)
    q0 = md.conserved_blocks(st[None])["charge"][0]
    tr = sw.solve_ito(md, st, 1.0, 1e-3, None, scheme="strang")
    results.append(("maxwell_dirac charge", np.max(np.abs(tr.conserved["charge"] - q0)) / q0,
                    1e-6))

    ok = all(v < tol for _, v, tol in results)
    detail = "; ".join(f"{n} {v:.2e}" + (f" (slope {-v:.2f})" if "slope" in n else "")
                       for n, v, _ in results)
    _report("conservation", ok, detail)
    assert ok, results


def test_estimate_verification():
    """Nonlinearity bounds: zero violations on 1000 samples per inequality."""
    bad = []
    sine_fitted = None
    for model in _all_models():
        reports = sw.verify_estimates(model, sample_count=1000, radius=1.0, seed=101)
        for r in reports:
            if r.violations:
                bad.append((r.inequality_id, r.violations))
            if r.inequality_id == "sine:contraction":
                sine_fitted = r.fitted_constant
    ok = not bad and sine_fitted is not None and sine_fitted <= 1 + 1e-12
    _report("estimates", ok,
            f"violations {bad or 0}; sine contraction constant "
            f"{sine_fitted:.15f} (<= 1+1e-12)")
    assert ok


def test_picard_contraction():
    """Residuals geometric, ratio scales with the horizon, marching agrees."""
    m = sw.build_model("sine_gordon", GRID32, g=1.0, k0=1.0)
    st = _real_state(m, 2, 0.3)
    cov = sw.default_covariance(GRID32, n_modes=3, lambda0=0.5, gamma=2.0)
    theta = sw.ThetaPotential([sw.Field(GRID32, np.sqrt(l) * e.values)
                               for l, e in zip(cov.eigenvalues, cov.eigenfields)])
    zeta = np.array([0.4, -0.2, 0.3])
    tol = 1e-11
    res_T = sw.picard_solve(m, st, 0.5, theta, zeta, n_time_nodes=65, tol=tol)
    res_half = sw.picard_solve(m, st, 0.25, theta, zeta, n_time_nodes=33, tol=tol)
    geometric = all(np.diff(res_T.residuals) < 0)
    ratio_of_ratios = res_half.contraction_ratio / res_T.contraction_ratio
    halves = 0.35 <= ratio_of_ratios <= 0.65
    fp_ok = res_T.fixed_point_residual <= 2 * tol

    # agreement with the exponential-Euler march, order >= 0.9 in dt
    sups, dts = [], (1 / 20, 1 / 40, 1 / 80)
    for dt in dts:
        n = round(0.5 / dt)
        pic = sw.picard_solve(m, st, 0.5, None, n_time_nodes=n + 1, tol=1e-12)
        state, worst = st, 0.0
        for i in range(n):
            state = sw.step_exp_euler(m, state, dt)
            worst = max(worst, m.generator.metric_norm(state - pic.states[i + 1]))
        sups.append(worst)
    order = np.polyfit(np.log(dts), np.log(sups), 1)[0]
    ok = (res_T.converged and res_half.converged and geometric and halves
          and fp_ok and order >= 0.9)
    _report("picard-contraction", ok,
            f"ratio {res_T.contraction_ratio:.4f}, T/2 scaling {ratio_of_ratios:.3f} "
            f"(in [0.35,0.65]), fixed-point residual {res_T.fixed_point_residual:.1e} "
            f"(<= {2*tol:.0e}), marching order {order:.2f} (>= 0.9)")
    assert ok


def test_holomorphy():
    """Cauchy-Riemann residuals small and sharpening with the stencil."""
    results = []

    m = sw.build_model("sine_gordon", GRID32, g=1.0, k0=1.0)
    st = _real_state(m, 2, 0.3)
    cov = sw.default_covariance(GRID32, n_modes=3, lambda0=0.5, gamma=2.0)
    theta = sw.ThetaPotential([sw.Field(GRID32, np.sqrt(l) * e.values)
                               for l, e in zip(cov.eigenvalues, cov.eigenfields)])
    zeta = np.zeros(3)
    eta = 40.0 * np.array([1.0, 0.8, -0.5])
    probe = st * (1.0 / m.generator.metric_norm(st))
    r_coarse = sw.holomorphy_check(m, st, 0.4, theta, zeta, eta, [0.0], probe,
                                   spacing=1e-2, n_time_nodes=41, tol=1e-13,
                                   max_iter=200)
    r_fine = sw.holomorphy_check(m, st, 0.4, theta, zeta, eta, [0.0], probe,
                                 spacing=5e-3, n_time_nodes=41, tol=1e-13,
                                 max_iter=200)
    results.append(("sine_gordon", r_coarse, r_fine))

    lin = sw.build_model("nls", GRID32, sign=0, smoothness=1)
    phi0 = _mode_state(GRID32, lin)
    th_lin = sw.ThetaPotential([sw.Field(GRID32, np.ones(GRID32.shape))])
    probe_lin = phi0 * (1.0 / lin.generator.metric_norm(phi0))
    rl_coarse = sw.holomorphy_check(lin, phi0, 0.5, th_lin, np.array([0.2]),
                                    np.array([11.0]), [0.0], probe_lin,
                                    spacing=1e-2, n_time_nodes=65, tol=1e-13,
                                    max_iter=200)
    rl_fine = sw.holomorphy_check(lin, phi0, 0.5, th_lin, np.array([0.2]),
                                  np.array([11.0]), [0.0], probe_lin,
                                  spacing=5e-3, n_time_nodes=65, tol=1e-13,
                                  max_iter=200)
    results.append(("linear-theta", rl_coarse, rl_fine))

    ok = all(rc < 1e-6 and rc / rf >= 10 for _, rc, rf in results)
    detail = "; ".join(f"{n}: {rc:.2e} -> {rf:.2e} ({rc/rf:.0f}x)"
                       for n, rc, rf in results)
    _report("holomorphy", ok, detail + " (coarse < 1e-6, improvement >= 10x)")
    assert ok


def _covariance_deviations(combos=range(6)):
    """|estimate - (t ^ tau)(Q psi, phi)| / stderr of the covariance identity at
    10,000 paths and master seed 1000, for the chosen of six combinations."""
    cov = sw.default_covariance(GRID32, n_modes=4, lambda0=0.5, gamma=2.0)
    sampler = sw.QWienerSampler(cov, 1000, 0)
    e = cov.eigenfields
    mixed = sw.Field(GRID32, (e[0].values + e[2].values) / np.sqrt(2))
    table = [
        (1.0, 1.0, e[0], e[0], 64),
        (1.0, 1.0, e[0], e[1], 64),
        (2.0, 3.0, e[0], e[0], 96),
        (0.5, 1.0, e[1], e[1], 64),
        (1.0, 2.0, mixed, mixed, 64),
        (1.5, 0.5, e[2], mixed, 96),
    ]
    devs = []
    for t, tau, psi, phi, steps in (table[i] for i in combos):
        est, se = empirical_covariance(sampler, t, tau, psi, phi,
                                       n_paths=10000, n_steps=steps)
        target = min(t, tau) * apply_Q(cov, psi).inner(phi).real
        devs.append(abs(est - target) / se if se > 0 else 0.0)
    return devs


def test_covariance_identity():
    """E[(W(t),psi)(W(tau),phi)] = (t ^ tau)(Q psi, phi), six combinations."""
    devs = _covariance_deviations()
    ok = all(dev <= 3.0 for dev in devs)
    _report("covariance-identity", ok,
            f"deviations/stderr = [{', '.join(f'{d:.2f}' for d in devs)}] (all <= 3)")
    assert ok


def test_covariance_identity_rejects_a_sampler_variance_defect(monkeypatch):
    # the estimate sums the increments that every march draws, so a sampler
    # whose variance is 10% too large fails the gate at its own seed and sample
    drawn = sw.QWienerSampler.increments
    monkeypatch.setattr(sw.QWienerSampler, "increments",
                        lambda self, dt, n_steps: np.sqrt(1.1) * drawn(self, dt, n_steps))
    [dev] = _covariance_deviations([0])
    assert dev > 3.0


def test_wiener_integrals():
    """Cross-order orthogonality, isometry, second-integral closed form, each on
    the increments that the marches draw (path p's stream, on one eigenfield)."""
    cov = sw.default_covariance(GRID32, n_modes=4, lambda0=0.5, gamma=2.0)
    ones1 = lambda t: np.ones_like(t)
    ones2 = lambda s, t: np.ones_like(s + t)
    est_o, se_o = sw.orthogonality_check(1, 2, ones1, ones2,
                                         sw.unit_increments(cov, 211, 5000, 64))
    ortho_ok = abs(est_o) <= 3 * se_o

    iso_devs = []
    for steps, seed in ((32, 202), (64, 203), (128, 204)):
        est, se = sw.orthogonality_check(1, 1, ones1, ones1,
                                         sw.unit_increments(cov, seed, 5000, steps))
        iso_devs.append(abs(est - discrete_pairing(1, ones1, ones1, steps)) / se)
    iso_ok = all(d <= 3 for d in iso_devs)

    # the discrete I_2(1) is beta(1)^2 - sum dB^2 row by row, and its first two
    # moments are exactly 0 and the discrete pairing 2 - 2/64
    dB = sw.unit_increments(cov, 205, 5000, 64)
    i2 = sw.multiple_wiener(2, ones2, dB)
    closed_ok = np.allclose(i2, dB.sum(axis=1) ** 2 - np.sum(dB**2, axis=1), rtol=0, atol=1e-12)
    exact = (0.0, discrete_pairing(2, ones2, ones2, 64))
    moment_devs = []
    for p, want in zip((1, 2), exact):
        mean, _, se = sample_moments(i2**p)
        moment_devs.append(abs(mean - want) / se)
    dist_ok = closed_ok and all(d <= 3 for d in moment_devs)

    ok = ortho_ok and iso_ok and dist_ok
    _report("wiener-integrals", ok,
            f"E[I1 I2]/se = {abs(est_o)/se_o:.2f}; isometry devs "
            f"{[f'{d:.2f}' for d in iso_devs]}; rows equal beta^2 - sum dB^2: {closed_ok}; "
            f"moment devs from 0 and 2 - 2/64 {[f'{d:.2f}' for d in moment_devs]} (all <= 3)")
    assert ok


def _moment_law_deviation():
    """The moment law's deviation |mean - target| / stderr, its mean and its
    target, on 10,000 paths of 50 steps at master seed 301."""
    lam = 0.5
    m = sw.build_model("nls", UNIT8, sign=0, smoothness=1)
    cov = _scalar_noise(lam)
    phi0 = _mode_state(UNIT8, m)
    cfg = sw.EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=0.02, covariance=cov,
                           n_paths=10000, master_seed=301,
                           observables=("norm_sq",))
    res = sw.run_ensemble(cfg)
    stats = res.observables["norm_sq"]
    target = m.generator.metric_norm(phi0) ** 2 * (1 + lam * cfg.dt) ** round(cfg.T / cfg.dt)
    return abs(stats["mean"] - target) / stats["stderr"], stats["mean"], target


def test_ito_moment_law():
    """Scalar multiplicative noise: the exponential-Euler mean of ||phi(1)||^2.

    Each step multiplies the state by 1 + dW with E|1 + dW|^2 = 1 + lambda dt,
    so the scheme's exact mean is ||phi0||^2 (1 + lambda dt)^(T/dt) = 1.6446
    ||phi0||^2 at dt = 0.02, not the continuous law's e^lambda = 1.6487.
    """
    dev, mean, target = _moment_law_deviation()
    ok = dev <= 3.0
    _report("moment-law", ok,
            f"mean {mean:.4f} vs {target:.4f}, deviation {dev:.2f} stderr (<= 3)")
    assert ok


def test_ito_moment_law_rejects_a_sampler_variance_excess(monkeypatch):
    # every path's increments come from the sampler, so a variance 20% too
    # large moves the scheme's mean past the gate at its own seed and sample
    drawn = sw.QWienerSampler.increments
    monkeypatch.setattr(sw.QWienerSampler, "increments",
                        lambda self, dt, n_steps: np.sqrt(1.2) * drawn(self, dt, n_steps))
    assert _moment_law_deviation()[0] > 3.0


def test_convergence_orders():
    """Strong order >= 0.4 with noise, >= 0.9 deterministic, monotone ladders."""
    m = sw.build_model("nls", UNIT8, sign=0, smoothness=1)
    phi0 = _mode_state(UNIT8, m)
    cfg = sw.EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 256,
                           covariance=_scalar_noise(0.5), n_paths=400,
                           master_seed=401)
    noisy = sw.strong_order(cfg, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 256])

    det = sw.build_model("nls", GRID32, p=3, sign=1)
    x = GRID32.x_axes[0]
    det0 = (0.5 * np.exp(1j * x))[None, :]
    dcfg = sw.EnsembleConfig(model=det, phi0=det0, T=1.0, dt=1 / 512,
                            covariance=None, n_paths=2, master_seed=1)
    deterministic = sw.strong_order(dcfg, [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 512])

    ok = (noisy.order >= 0.4 and noisy.monotone
          and deterministic.order >= 0.9 and deterministic.monotone)
    _report("convergence-orders", ok,
            f"noisy strong {noisy.order:.3f} (>= 0.4, monotone {noisy.monotone}); "
            f"deterministic {deterministic.order:.3f} (>= 0.9, monotone "
            f"{deterministic.monotone})")
    assert ok


def test_tail_curve():
    """Stopping-time survival monotone; quadratic fit lower-bounds it."""
    m = sw.build_model("nls", sw.make_grid(1, [16], [2 * np.pi]), sign=0, smoothness=1)
    grid = m.grid
    phi0 = _mode_state(grid, m)
    cov = sw.default_covariance(grid, n_modes=3, lambda0=4.0, gamma=1.5)
    n0 = max(m.generator.graph_norm_ladder(phi0, 1))
    cfg = sw.EnsembleConfig(model=m, phi0=phi0, T=1.0, dt=1 / 100, covariance=cov,
                           n_paths=1000, master_seed=501, threshold=2.0 * n0)
    tc = sw.TailCurve.from_stop_times(sw.run_ensemble(cfg).stop_times,
                                      np.arange(0.05, 1.0, 0.05))
    monotone = bool(np.all(np.diff(tc.survival) <= 1e-12))
    bound = tc.lower_bound_ok()
    nontrivial = tc.survival[-1] < 1.0
    ok = monotone and bound and nontrivial
    _report("tail-curve", ok,
            f"survival monotone {monotone}, fitted M {tc.m_hat:.3f} lower-bounds on "
            f"(0, 0.5] within band {bound}, final survival {tc.survival[-1]:.3f}")
    assert ok


def _wick_identity_deviations(space, rng):
    """Each identity's largest deviation (``wick_identity_deviations``) over
    200 calls with ``rng``: 2,000 pairs a : b and test vectors, 2,000 CCR
    draws and 2,000 exponential-vector pairings."""
    worst = {}
    for _ in range(200):
        for name, dev in wick_identity_deviations(space, rng).items():
            worst[name] = np.maximum(worst.get(name, 0.0), dev)  # a NaN stays
    return worst


def test_chaos_algebra():
    """Wick/S-transform identities at tight tolerances on the truncation."""
    space = ChaosSpace(4, 4)
    rng = np.random.default_rng(601)
    devs = _wick_identity_deviations(space, rng)
    s_dev, ccr_dev, pair_dev = (devs["wick_multiplicativity"], devs["ccr"],
                                devs["exp_vector_pairing"])
    identities_ok = all(dev < 1e-10 for dev in devs.values())

    gamma_dev = 0.0
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        A /= np.linalg.norm(A, 2)
        B /= np.linalg.norm(B, 2)
        phi = rng.standard_normal(space.n_indices) + 1j * rng.standard_normal(space.n_indices)
        lhs = space.gamma_matrix(A @ B) @ phi
        rhs = space.gamma_matrix(A) @ (space.gamma_matrix(B) @ phi)
        gamma_dev = max(gamma_dev, np.max(np.abs(lhs - rhs)))
    gamma_ok = gamma_dev < 1e-10

    big = ChaosSpace(4, 8)
    tail_dev = 0.0
    for _ in range(20):
        zeta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        zeta *= rng.uniform(0.3, 0.85) / np.sqrt(np.sum(np.abs(zeta) ** 2))
        eta *= rng.uniform(0.3, 0.85) / np.sqrt(np.sum(np.abs(eta) ** 2))
        got = big.s_transform(big.exp_vector(eta), zeta)
        tail_dev = max(tail_dev, abs(got - np.exp(np.sum(zeta * eta))))
    tail_ok = tail_dev < 1e-6

    ok = identities_ok and gamma_ok and tail_ok
    _report("chaos-algebra", ok,
            f"S-mult dev {s_dev:.1e}, CCR dev {ccr_dev:.1e}, exp-vector pairing rel dev "
            f"{pair_dev:.1e}, second-quantization dev {gamma_dev:.1e} (all < 1e-10); "
            f"coherent-pairing tail {tail_dev:.1e} (< 1e-6 at degree 8)")
    assert ok


def test_chaos_algebra_rejects_a_convolution_without_its_vacuum_pairs(monkeypatch):
    # a Wick product that drops pair column 0, the pairs (vacuum, K) of every K
    table = ChaosSpace._pair_columns

    def without_column_0(self):
        columns, undo = table(self)
        return columns[1:], undo

    monkeypatch.setattr(ChaosSpace, "_pair_columns", without_column_0)
    devs = _wick_identity_deviations(ChaosSpace(4, 4), np.random.default_rng(601))
    assert devs["wick_multiplicativity"] >= 1e-10


def test_growth_bound():
    """Every sampled S-transform fits under a C exp(K |zeta|_1^2) envelope."""
    space = ChaosSpace(4, 4)
    rng = np.random.default_rng(701)
    radii = np.logspace(-1, 1, 9)
    fits = []
    for i in range(20):
        phi = rng.standard_normal(space.n_indices) + 1j * rng.standard_normal(space.n_indices)
        fits.append(growth_bound_fit(
            # F as a Python complex, so the Cauchy-Riemann stencil runs in
            # Python's complex arithmetic
            lambda z: complex(space.s_transform(phi, np.asarray(z))), space, p=1,
            sample_radii=radii, seed=800 + i))
    for i in range(5):
        eta = 0.4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        fits.append(growth_bound_fit(
            lambda z: np.exp(np.sum(np.asarray(z) * eta)), space, p=1,
            sample_radii=radii, seed=900 + i))
    covered = all(f.covered for f in fits)
    finite = all(np.isfinite(f.C) and np.isfinite(f.K) and f.K >= 0 for f in fits)
    analytic = all(f.cr_residual < 1e-8 for f in fits)
    ok = covered and finite and analytic
    _report("growth-bound", ok,
            f"25 fits covered={covered}, finite={finite}, max K "
            f"{max(f.K for f in fits):.3f}, max CR residual "
            f"{max(f.cr_residual for f in fits):.1e} (< 1e-8)")
    assert ok


def test_cross_formulation():
    """Wick evolution S-transform tracks the Theta flow; degree 0 = Ito mean."""
    grid = sw.make_grid(1, [16], [2 * np.pi])
    space = ChaosSpace(2, 4)
    m = sw.build_model("sine_gordon", grid, g=1.0, k0=1.0)
    st = _real_state(m, 7, 0.25)
    cov = sw.default_covariance(grid, n_modes=2, lambda0=0.3, gamma=2.0)
    qfields = [sw.Field(grid, np.sqrt(l) * e.values)
               for l, e in zip(cov.eigenvalues, cov.eigenfields)]
    theta = sw.ThetaPotential(qfields)
    rng = np.random.default_rng(801)
    dts = np.array([0.02, 0.01, 0.005])
    fit_ok, worst_resid, max_C = True, 0.0, 0.0
    for _ in range(5):
        zeta = 0.8 * rng.uniform(-1, 1, size=2)
        diffs = []
        for dt in dts:
            wick = solve_wick_evolution(m, st, qfields, 0.4, dt, space)
            pic = sw.picard_solve(m, st, 0.4, theta, zeta,
                                  n_time_nodes=round(0.4 / dt) + 1, tol=1e-12,
                                  max_iter=80)
            s_state = space.s_transform(wick.final, zeta)
            diffs.append(m.generator.metric_norm(s_state - pic.final))
        C, tail = np.polyfit(dts, diffs, 1)
        max_C = max(max_C, C)
        model_err = np.max(np.abs(np.polyval([C, tail], dts) - diffs))
        worst_resid = max(worst_resid, model_err / max(diffs[0], 1e-300))
        fit_ok &= np.isfinite(C) and C > 0 and np.all(np.diff(diffs) < 0) \
            and tail < 0.05 * diffs[0]
    consistency_ok = fit_ok and worst_resid < 0.1

    lin = sw.build_model("nls", grid, sign=0, smoothness=1)
    phi0 = _mode_state(grid, lin, amp=1.0)
    phi0[0] += 0.3
    cfg = sw.EnsembleConfig(model=lin, phi0=phi0, T=0.5, dt=0.02, covariance=cov,
                           n_paths=3000, master_seed=803)
    rep, _ = sw.chaos_vs_mc(cfg, space)
    ok = consistency_ok and rep.mean_within_3se
    _report("cross-formulation", ok,
            f"S-transform matches Theta flow within C*dt + tail at 5 test vectors "
            f"(max fitted C {max_C:.2f}, fit residual {worst_resid:.1%}); "
            f"degree-0 vs Monte Carlo mean within 3 stderr: {rep.mean_within_3se}")
    assert ok


def test_reproducibility():
    """Same config + seed -> bit-identical ensembles on every rerun."""
    m = sw.build_model("nls", UNIT8, sign=0, smoothness=1)
    phi0 = _mode_state(UNIT8, m)
    cfg = sw.EnsembleConfig(model=m, phi0=phi0, T=0.5, dt=0.05,
                           covariance=_scalar_noise(0.5), n_paths=16,
                           master_seed=901,
                           observables=("norm_sq", "sup_sum_sq", "pairing_re",
                                        "pairing_im"))
    blobs = [_json(sw.run_ensemble(cfg)) for _ in range(3)]
    ok = blobs[0] == blobs[1] == blobs[2]
    _report("reproducibility", ok,
            f"ensemble bytes identical across three reruns: {ok}")
    assert ok
