import tracemalloc
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

from stochwave import (BlowUpError, ChaosSpace, CovarianceSpec, EnsembleConfig, Field,
                       QWienerSampler, ThetaPotential, build_model, default_covariance,
                       holomorphy_check, make_grid, picard_solve, run_ensemble,
                       solve_ito, solve_wick_evolution, step_exp_euler)
from stochwave.cli import _csv, cmd_simulate
from stochwave.config import ExperimentConfig
from stochwave.solver import BLOWUP_CAP, _SCHEMES, _exp_euler, _ito_march

GRID = make_grid(1, [32], [2 * np.pi])


def _sine_gordon_setup(radius=0.3, seed=2):
    m = build_model("sine_gordon", GRID, g=1.0, k0=1.0)
    st = m.random_smooth_state(np.random.default_rng(seed), radius)
    st = np.real(st).astype(complex)
    cov = default_covariance(GRID, n_modes=3, lambda0=0.5, gamma=2.0)
    theta = ThetaPotential([Field(GRID, np.sqrt(l) * e.values)
                            for l, e in zip(cov.eigenvalues, cov.eigenfields)])
    return m, st, theta


def test_theta_affine_in_z():
    _, _, theta = _sine_gordon_setup()
    zeta = np.array([0.3, -0.1, 0.2])
    eta = np.array([0.1, 0.4, -0.3])
    z = 0.7 - 0.2j
    combined = theta.field_values(zeta, eta, z)
    split = theta.field_values(zeta) + z * theta.field_values(eta)
    assert np.max(np.abs(combined - split)) < 1e-14
    assert np.all(np.isfinite(combined))


def test_picard_homogeneous_single_sweep():
    m = build_model("nls", GRID, sign=0)
    st = m.random_smooth_state(np.random.default_rng(1), 0.5)
    res = picard_solve(m, st, 0.5, None, n_time_nodes=33, tol=1e-12)
    assert res.converged and len(res.residuals) == 1
    free = m.generator.propagate(0.5, st)
    assert m.generator.metric_norm(res.final - free) < 1e-13


def test_picard_constant_potential_closed_form():
    # J = 0, Theta = c real constant, single mode a: phi(t) = e^{(-ia+c)t} phi0
    m = build_model("nls", GRID, sign=0, smoothness=1)
    c = 0.4
    theta = ThetaPotential([Field(GRID, np.ones(GRID.shape))])
    x = GRID.x_axes[0]
    phi0 = np.exp(1j * x)[None, :]
    T = 0.5
    res = picard_solve(m, phi0, T, theta, np.array([c]), n_time_nodes=129, tol=1e-13,
                       max_iter=100)
    ref = phi0 * np.exp((-1j + c) * T)  # generator eigenvalue a = 1 at k = 1
    err = m.generator.metric_norm(res.final - ref) / m.generator.metric_norm(ref)
    assert res.converged
    assert err < 5e-5  # trapezoid quadrature, O(dt^2)
    res2 = picard_solve(m, phi0, T, theta, np.array([c]), n_time_nodes=257, tol=1e-13,
                        max_iter=100)
    err2 = m.generator.metric_norm(res2.final - ref) / m.generator.metric_norm(ref)
    assert err / err2 > 3.0  # halving dt cuts the error about 4x


def test_picard_contraction_ratio_scales_with_horizon():
    m, st, theta = _sine_gordon_setup()
    zeta = np.array([0.4, -0.2, 0.3])
    res_full = picard_solve(m, st, 0.5, theta, zeta, n_time_nodes=65, tol=1e-11)
    res_half = picard_solve(m, st, 0.25, theta, zeta, n_time_nodes=33, tol=1e-11)
    assert res_full.converged and res_half.converged
    assert res_full.contraction_ratio < 1.0
    ratio = res_half.contraction_ratio / res_full.contraction_ratio
    assert 0.35 < ratio < 0.65
    # residual history decreases and the fixed point is tight
    assert all(np.diff(res_full.residuals) < 0)
    assert res_full.fixed_point_residual <= 2e-11


def test_picard_reports_non_convergence():
    m, st, theta = _sine_gordon_setup(radius=0.5)
    zeta = np.array([0.5, 0.5, 0.5])
    res = picard_solve(m, st, 0.5, theta, zeta, n_time_nodes=33, tol=1e-14,
                       max_iter=2)
    assert not res.converged
    assert len(res.residuals) == 2  # history returned even without convergence


def test_picard_residual_of_exactly_zero_is_left_out_of_the_ratio(recwarn):
    # the geometric mean of the residual ratios once took the log of 0 with
    # numpy's divide warning, and then read 0.0 though no other ratio is near
    # 0: the iterate of a solve at tol 1e-300 repeats
    g = make_grid(1, [8], [1.0])
    m = build_model("nls", g, p=3, sign=1)
    st = m.random_smooth_state(np.random.default_rng(1), 0.3)
    res = picard_solve(m, st, 0.1, n_time_nodes=5, tol=1e-300, max_iter=40)
    assert res.residuals[-1] == 0.0 and res.residuals[-2] > 0 and res.converged
    rest = res.residuals[:-1]  # every residual above the roundoff floor
    assert min(rest) > 1e3 * np.finfo(float).eps
    ratios = [b / a for a, b in zip(rest, rest[1:])]
    assert res.contraction_ratio == pytest.approx(np.prod(ratios) ** (1 / len(ratios)))
    assert 0 < res.contraction_ratio < 1
    assert not [str(w.message) for w in recwarn]


def test_picard_blowup_guard():
    from stochwave import BlowUpError

    # strongly focusing cubic on large data blows past the safety cap
    m = build_model("nls", GRID, p=3, sign=1, dealias=False)
    st = m.random_smooth_state(np.random.default_rng(0), 0.5) * 1e7
    with pytest.raises(BlowUpError):
        picard_solve(m, st, 1.0, None, n_time_nodes=9, tol=1e-10, max_iter=40)


def _list_picard(model, phi0, T, theta=None, zeta=None, eta=None, z=0.0,
                 n_time_nodes=64, tol=1e-10, max_iter=60):
    """Oracle: the Picard iteration with whole-path sweeps, a list of J
    values per sweep, and no guard on the final check."""
    n_nodes = int(n_time_nodes)
    dt = T / (n_nodes - 1)
    gen = model.generator
    theta_values = None
    if theta is not None:
        theta_values = theta.field_values(
            np.zeros(theta.n_coords) if zeta is None else zeta, eta, z)

    def rhs(state):
        out = model.apply_J(state)
        if theta_values is not None:
            out = out + state * theta_values
        return out

    free = [phi0.copy()]
    for _ in range(n_nodes - 1):
        free.append(gen.propagate(dt, free[-1]))

    def sweep(states):
        F = [rhs(s) for s in states]
        out = [free[0]]
        integral = np.zeros(phi0.shape, dtype=complex)
        for i in range(1, n_nodes):
            integral = gen.propagate(dt, integral + (0.5 * dt) * F[i - 1])
            integral = integral + (0.5 * dt) * F[i]
            out.append(free[i] + integral)
        return out

    def distance(a, b):
        return max(float(np.sum(model.generator.graph_norm_ladder(sa - sb, model.smoothness)))
                   for sa, sb in zip(a, b))

    current, residuals, converged = list(free), [], False
    for _ in range(max_iter):
        nxt = sweep(current)
        if any(not np.all(np.isfinite(s)) for s in nxt) or \
           model.generator.metric_norm(nxt[-1]) > BLOWUP_CAP:
            raise BlowUpError("Picard iterate left the finite-norm region")
        res = distance(nxt, current)
        residuals.append(res)
        current = nxt
        if res <= tol:
            converged = True
            break
    fp_res = distance(sweep(current), current)
    floor = 1e3 * np.finfo(float).eps  # neither residual of a ratio at roundoff
    ratios = [residuals[i + 1] / residuals[i] for i in range(len(residuals) - 1)
              if residuals[i] > floor and residuals[i + 1] > floor]
    ratio = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
    return current, residuals, converged, fp_res, ratio


def _zakharov_2d(n=16):
    grid = make_grid(2, [n, n], [2 * np.pi] * 2)
    m = build_model("zakharov", grid)
    st = m.random_smooth_state(np.random.default_rng(4), 0.05)
    cov = default_covariance(grid, n_modes=4, lambda0=0.01, gamma=2.0)
    theta = ThetaPotential([Field(grid, np.sqrt(l) * e.values)
                            for l, e in zip(cov.eigenvalues, cov.eigenfields)])
    return m, st, theta, 0.3 * np.random.default_rng(1).standard_normal(4)


def _picard_cases():
    m, st, theta = _sine_gordon_setup(radius=0.3, seed=3)
    nls = build_model("nls", GRID, p=3, sign=1)
    nls_st = nls.random_smooth_state(np.random.default_rng(8), 0.4)
    zak, zak_st, zak_theta, zak_zeta = _zakharov_2d()
    kg = build_model("klein_gordon", GRID, p=3, sign=1)
    md = build_model("maxwell_dirac", GRID, k0=1.0, m=0.5)
    # -0 real parts on even points, -0 imaginary parts on odd ones
    zeros = zak_st.copy()
    zeros.real[..., ::2] = -0.0
    zeros.imag[..., 1::2] = -0.0
    return {
        "klein_gordon_1d_theta": (kg, kg.random_smooth_state(np.random.default_rng(5), 0.3),
                                  0.5, theta, [0.2, -0.3, 0.1],
                                  dict(n_time_nodes=17, tol=1e-11)),
        "maxwell_dirac_1d_theta": (md, md.random_smooth_state(np.random.default_rng(6), 0.3),
                                   0.5, theta, [0.2, -0.3, 0.1],
                                   dict(n_time_nodes=17, tol=1e-11)),
        "zakharov_2d_signed_zeros": (zak, zeros, 0.5, zak_theta,
                                     zak_zeta, dict(n_time_nodes=9, tol=1e-10)),
        "nls_1d_theta": (nls, nls_st, 0.5, theta, [0.2, -0.3, 0.1],
                         dict(n_time_nodes=17, tol=1e-11)),
        "zakharov_2d_theta": (zak, zak_st, 0.5, zak_theta, zak_zeta,
                              dict(n_time_nodes=9, tol=1e-10)),
        "stopped_by_max_iter": (m, st, 0.5, theta, [0.5, 0.5, 0.5],
                                dict(n_time_nodes=33, tol=1e-14, max_iter=3)),
        "blow_up": (nls, nls_st * 1e7, 1.0, None, None,
                    dict(n_time_nodes=9, tol=1e-10, max_iter=40)),
    }


@pytest.mark.parametrize("case", ["nls_1d_theta", "zakharov_2d_theta",
                                  "stopped_by_max_iter", "blow_up", "klein_gordon_1d_theta",
                                  "maxwell_dirac_1d_theta", "zakharov_2d_signed_zeros"])
def test_picard_matches_the_list_sweep_bit_for_bit(case):
    # the node-by-node sweep forms every node, residual and the final check
    # with the operations, in the order, of the whole-path sweep; in place on
    # the arrays of its own nodes, it keeps their bits, the signed zeros too.
    # Zakharov's real diagonal raises its norm powers by a plain product,
    # Klein-Gordon's dense wave block and Maxwell-Dirac's by einsum
    model, phi0, T, theta, zeta, kw = _picard_cases()[case]
    zeta = None if zeta is None else np.asarray(zeta)
    with np.errstate(all="ignore"):
        try:
            want = _list_picard(model, phi0, T, theta, zeta, **kw)
        except BlowUpError:
            with pytest.raises(BlowUpError):
                picard_solve(model, phi0, T, theta, zeta, **kw)
            assert case == "blow_up"
            return
    assert case != "blow_up"
    got = picard_solve(model, phi0, T, theta, zeta, **kw)
    states, residuals, converged, fp_res, ratio = want
    assert got.converged == converged == (case != "stopped_by_max_iter")
    assert [s.tobytes() for s in got.states] == [s.tobytes() for s in states]
    assert np.array(got.residuals).tobytes() == np.array(residuals).tobytes()
    assert np.float64(got.fixed_point_residual).tobytes() == np.float64(fp_res).tobytes()
    assert np.float64(got.contraction_ratio).tobytes() == np.float64(ratio).tobytes()


def test_picard_writes_into_no_shared_array():
    # the free path that the stencil's solves share, phi0, the probe and every
    # node that a sweep makes (an iterate's, a returned state's) are read-only
    # here: an in-place op on any of them raises
    m, st, theta, zeta = _zakharov_2d()
    eta = np.array([0.2, -0.1, 0.3, 0.05])
    probe = st * (1.0 / m.generator.metric_norm(st))
    kw = dict(n_time_nodes=9, tol=1e-12, max_iter=80)
    want = holomorphy_check(m, st, 0.5, theta, zeta, eta, [0.0], probe, **kw)
    nodes = []

    class FreeNode(np.ndarray):  # its sum, a sweep's node free[i] + integral, is read-only
        def __add__(self, other):
            nodes.append(np.asarray(self) + other)
            nodes[-1].flags.writeable = False
            return nodes[-1]

    free = [st.copy()]
    for _ in range(8):
        free.append(m.generator.propagate(0.5 / 8, free[-1]))
    free = [s.view(FreeNode) for s in free]
    for s in free + [st, probe]:
        s.flags.writeable = False
    snapshot = [s.tobytes() for s in free + [st, probe]]
    got = holomorphy_check(m, st, 0.5, theta, zeta, eta, [0.0], probe, _free=free, **kw)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # each of the 8 solves: a sweep and the final check, 8 nodes each past the first
    assert [s.tobytes() for s in free + [st, probe]] == snapshot and len(nodes) >= 8 * 2 * 8


def test_picard_solve_holds_about_two_paths():
    # free path plus one iterate and a few nodes; whole-path sweeps held 4.1
    import tracemalloc

    m, st, theta, zeta = _zakharov_2d(32)
    picard_solve(m, st, 0.5, theta, zeta, n_time_nodes=33, max_iter=2)  # warm caches
    tracemalloc.start()
    try:
        res = picard_solve(m, st, 0.5, theta, zeta, n_time_nodes=33, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= 2.5 * 33 * st.nbytes


def test_picard_final_check_raises_on_a_non_finite_node():
    # no sweep before the final check; J of the free path overflows
    m = build_model("nls", GRID, p=3, sign=1, dealias=False)
    st = m.random_smooth_state(np.random.default_rng(0), 0.5) * 1e200
    with np.errstate(all="ignore"), pytest.raises(BlowUpError):
        picard_solve(m, st, 0.1, None, n_time_nodes=5, max_iter=0)


def test_picard_rejects_a_negative_max_iter():
    m = build_model("nls", GRID, p=3, sign=1)
    with pytest.raises(ValueError, match="max_iter must be at least 0, got -1"):
        picard_solve(m, np.zeros((1,) + m.grid.shape, dtype=complex), 0.1, None,
                     n_time_nodes=5, max_iter=-1)


def test_step_exp_euler_flags_nonfinite():
    from stochwave import BlowUpError

    m = build_model("nls", GRID, p=3, sign=1)
    bad = np.zeros((1,) + m.grid.shape, dtype=complex)
    bad[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError):
        step_exp_euler(m, bad, 0.01)


def _state_algebra_step(model, state, dt, dW):
    # the exponential Euler step written out in array arithmetic
    inner = state + dt * model.apply_J(state)
    if dW is not None:
        inner = inner + state * dW
    return model.generator.propagate(dt, inner)


GRID2 = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
# every model: 2-D Zakharov takes the diagonal propagator, Maxwell-Dirac a
# dense 6 x 6 symbol with a metric; a power model with sign 0 has J = 0 and
# takes the "+ 0.0" rule unless the failure hook is on
STEP_MODELS = [("nls", {"sign": 0}), ("klein_gordon", {"p": 3, "sign": 1}),
               ("zakharov", {}), ("maxwell_dirac", {"k0": 1.0, "m": 0.5}),
               ("sine_gordon", {"g": 1.0, "k0": 1.0}), ("nls", {"sign": -1}),
               ("nls", {"sign": 1}), ("klein_gordon", {"sign": 0}),
               ("nls", {"sign": 0, "break_j_hook": True})]


def _step_setup(name, params, seed=4):
    grid = GRID2 if name == "zakharov" else GRID
    m = build_model(name, grid, **params)
    st = m.random_smooth_state(np.random.default_rng(seed), 0.5)
    w = 0.05 * np.random.default_rng(seed + 1).standard_normal(grid.shape)
    return m, st, w


# the step's increment: none, the real field w, or w cast to complex as
# ensemble._path_finals casts it; the state-algebra oracle steps the real w
NOISES = [None, "array", "complex"]


def _assert_step_matches_state_algebra(m, st, w, noise):
    dW = {None: None, "array": w, "complex": w.astype(complex)}[noise]
    # read-only inputs: a step that wrote to the state or the increment raises
    before = (st.tobytes(), None if dW is None else dW.tobytes())
    st.flags.writeable = False
    if dW is not None:
        dW.flags.writeable = False
    got = step_exp_euler(m, st, 0.01, dW)
    oracle = _state_algebra_step(m, st, 0.01, None if dW is None else w)
    assert got.tobytes() == oracle.tobytes()
    assert got.shape == st.shape and got.dtype == complex and got.flags.writeable
    assert (st.tobytes(), None if dW is None else dW.tobytes()) == before


def _assert_kernels_write_into_no_input(m, st):
    """Every public kernel and solver that takes a state, on read-only arrays:
    the state, a stack, the probe and a free path. A write into any of them
    raises, and each keeps its bytes."""
    gen = m.generator
    cov = default_covariance(m.grid, n_modes=2, lambda0=0.5, gamma=2.0)
    probe = st * (1.0 / gen.metric_norm(st))
    free = [st.copy()]
    for _ in range(2):
        free.append(gen.propagate(0.01, free[-1]))
    inputs = [st, np.stack([st, 0.5 * st]), probe, *free]
    for a in inputs:
        a.flags.writeable = False
    before = [a.tobytes() for a in inputs]
    for data in inputs[:2]:  # a state and a stack
        gen.propagate(0.01, data)
        m.apply_J(data)
        gen.graph_norm_ladder(data, 2)
        gen.metric_inner(data, probe)
    solve_ito(m, st, 0.02, 0.01, QWienerSampler(cov, 3, 0))
    holomorphy_check(m, st, 0.02, ThetaPotential(cov.noise_fields()), [0.1, -0.2], [0.3, 0.1],
                     [0.0], probe, n_time_nodes=3, _free=free)
    solve_wick_evolution(m, st, cov.noise_fields(), 0.02, 0.01, ChaosSpace(2, 2))
    run_ensemble(EnsembleConfig(m, st, 0.02, 0.01, cov, 2, 0))
    assert [a.tobytes() for a in inputs] == before


@pytest.mark.parametrize("name, params", STEP_MODELS)
@pytest.mark.parametrize("noise", NOISES)
def test_step_exp_euler_equals_state_algebra_bit_for_bit(name, params, noise):
    m, st, w = _step_setup(name, params)
    _assert_step_matches_state_algebra(m, st, w, noise)
    if noise == "array":  # once per model: the other kernels and solvers too
        _assert_kernels_write_into_no_input(m, st)


@pytest.mark.parametrize("name, params", STEP_MODELS)
@pytest.mark.parametrize("noise", NOISES)
def test_step_exp_euler_keeps_the_bits_of_signed_zeros(name, params, noise):
    # -0 entries, in the real part, the imaginary part or both: the sum
    # phi + dt*J turns each into +0, and so must the "+ 0.0" of a zero J
    m, st, w = _step_setup(name, params)
    flat = st.reshape(-1)
    flat[::3] = complex(-0.0, -0.0)
    flat.real[1::7] = -0.0
    flat.imag[2::5] = -0.0
    assert np.signbit(flat.real).any() and np.signbit(flat.imag).any()
    _assert_step_matches_state_algebra(m, st, w, noise)


def test_zero_J_is_derived_from_the_model():
    assert build_model("nls", GRID, sign=0)._zero_J
    assert build_model("klein_gordon", GRID, sign=0)._zero_J
    assert not build_model("nls", GRID, sign=0, break_j_hook=True)._zero_J
    assert not build_model("nls", GRID, sign=1)._zero_J
    assert not build_model("sine_gordon", GRID)._zero_J


@pytest.mark.parametrize("case", ["other_grid", "component_count", "dt_zero",
                                  "dt_negative", "dW_axis", "dW_components",
                                  "dW_scalar", "dW_numpy_scalar"])
def test_step_exp_euler_rejects_bad_input(case):
    # a wrongly shaped increment once broadcast into a wrong step
    m, st, w = _step_setup("zakharov", {})
    state, dt, dW, match = st, 0.01, w, None
    if case == "other_grid":
        state, match = np.zeros((2, 8, 8)), r"state shape \(2, 8, 8\), expected \(2, 16, 16\)"
    elif case == "component_count":
        state, match = st[:1], r"state shape \(1, 16, 16\), expected \(2, 16, 16\)"
    elif case.startswith("dt_"):
        dt = {"dt_zero": 0.0, "dt_negative": -0.01}[case]
        match = f"dt must be above 0, got {dt}"
    else:
        dW = {"dW_axis": w[0], "dW_components": np.stack([w, w]), "dW_scalar": 0.01,
              "dW_numpy_scalar": np.float64(0.01)}[case]
        match = "increment shape"
    with pytest.raises(ValueError, match=match):
        step_exp_euler(m, state, dt, dW)


def test_step_exp_euler_flags_nonfinite_noise():
    from stochwave import BlowUpError

    m = build_model("klein_gordon", GRID, p=3, sign=1)
    st = m.random_smooth_state(np.random.default_rng(4), 0.5)
    dW = np.zeros(GRID.shape)
    dW[3] = np.nan
    with pytest.raises(BlowUpError, match="after exponential Euler step"):
        step_exp_euler(m, st, 0.01, dW)


def test_step_exp_euler_exact_linear():
    m = build_model("nls", GRID, sign=0)
    st = m.random_smooth_state(np.random.default_rng(3), 0.5)
    stepped = step_exp_euler(m, st, 0.1)
    exact = m.generator.propagate(0.1, st)
    assert m.generator.metric_norm(stepped - exact) < 1e-13


def test_step_exp_euler_gbm_reduction():
    # zero generator mode: psi -> psi (1 + dW), plain multiplicative Euler
    g = make_grid(1, [8], [1.0])
    m = build_model("nls", g, sign=0, smoothness=1)
    st = np.full((1,) + g.shape, 1.0 + 0.5j)
    out = step_exp_euler(m, st, 0.01, np.full(g.shape, 0.03))
    assert np.allclose(out, st * 1.03, atol=1e-14)


def test_step_exp_euler_vs_strang_one_step():
    m = build_model("nls", GRID, p=3, sign=1)
    x = GRID.x_axes[0]
    st = (0.5 * np.exp(1j * x))[None, :]
    diffs = []
    for dt in (2e-2, 1e-2, 5e-3):
        a = step_exp_euler(m, st, dt)
        b = solve_ito(m, st, dt, dt, None, scheme="strang").final
        diffs.append(m.generator.metric_norm(a - b))
    orders = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    assert min(orders) > 1.8  # single-step difference O(dt^2)


def test_picard_matches_marching_at_order_one():
    m, st, _ = _sine_gordon_setup(radius=0.25, seed=5)
    T = 0.5
    sups = []
    dts = (1 / 20, 1 / 40, 1 / 80)
    for dt in dts:
        n = round(T / dt)
        res = picard_solve(m, st, T, None, n_time_nodes=n + 1, tol=1e-12, max_iter=80)
        state = st
        worst = 0.0
        for i in range(n):
            state = step_exp_euler(m, state, dt)
            worst = max(worst, m.generator.metric_norm(state - res.states[i + 1]))
        sups.append(worst)
    order = np.polyfit(np.log(dts), np.log(sups), 1)[0]
    assert order >= 0.9


def test_solve_ito_linear_no_noise():
    m = build_model("nls", GRID, sign=0, smoothness=1)
    st = m.random_smooth_state(np.random.default_rng(1), 0.5)
    traj = solve_ito(m, st, 0.5, 0.01, None, threshold=1e6)
    assert traj.stop_time is None and not traj.blown_up
    assert np.max(np.abs(traj.graph_norms - traj.graph_norms[0])) < 1e-12


def _recorded(model, phi0, T, dt, sampler=None, threshold=np.inf, kernel=_exp_euler):
    """The march of ``solve_ito``, with a ``record`` that collects every
    recorded step: the times, the states and the graph norms, phi0's first."""
    n_steps = round(T / dt)
    dW = None if sampler is None else sampler.increments(dt, n_steps)[:, None, None]
    ladder = lambda st: model.generator.graph_norm_ladder(st, model.smoothness)
    times, states, norms = [0.0], [phi0.copy()], [ladder(phi0)]

    def record(t, data, ladders):
        for d, g in zip(data, ladders):
            times.append(t)
            states.append(d)
            norms.append(g)

    _ito_march(model, phi0, dt, n_steps, threshold, dW, 1, record, kernel)
    return np.asarray(times), states, np.asarray(norms)


def _assert_table_of(traj, model, times, states, norms):
    """``traj`` is the table of the path ``times``, ``states``, ``norms`` bit
    for bit: its times, graph norms, every conserved column and final state."""
    assert traj.times.tobytes() == np.asarray(times).tobytes()
    assert traj.graph_norms.tobytes() == np.asarray(norms).tobytes()
    rows = [model.conserved_blocks(s[None]) for s in states]
    assert list(traj.conserved) == list(rows[0])
    for name, column in traj.conserved.items():
        assert column.tobytes() == np.array([r[name][0] for r in rows]).tobytes()
    assert traj.final.tobytes() == states[-1].tobytes()


def test_solve_ito_norm_history_matches_states():
    m, st, _ = _sine_gordon_setup(radius=0.3, seed=6)
    cov = default_covariance(GRID, n_modes=2, lambda0=0.2, gamma=2.0)
    traj = solve_ito(m, st, 0.2, 0.01, QWienerSampler(cov, 5, 0))
    times, states, _ = _recorded(m, st, 0.2, 0.01, QWienerSampler(cov, 5, 0))
    assert len(states) == len(traj.times) == 21
    for i, state in enumerate(states):
        recomputed = m.generator.graph_norm_ladder(state, m.smoothness)
        assert np.max(np.abs(recomputed - traj.graph_norms[i])) < 1e-10
        energy = m.conserved_blocks(state[None])["energy"][0]
        assert abs(energy - traj.conserved["energy"][i]) <= 1e-12 * abs(energy)
    assert traj.final.tobytes() == states[-1].tobytes()


def test_solve_ito_keeps_rows_not_states():
    # the traced peak of a 400-step march exceeds a 100-step one's by less than
    # a few states: each step adds its row, a few floats, and drops its state
    m, phi0, _, _ = _zakharov_2d(n=32)
    solve_ito(m, phi0, 1e-3, 1e-3, None, scheme="strang")  # propagator cache, once
    peaks = []
    for n_steps in (100, 400):
        tracemalloc.start()
        try:
            traj = solve_ito(m, phi0, n_steps * 1e-3, 1e-3, None, scheme="strang")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(traj.times) == n_steps + 1
    assert peaks[1] - peaks[0] < 4 * phi0.nbytes


def test_solve_ito_non_finite_step_ends_at_the_last_finite_state():
    # p = 31 from amplitude 2.5: step 1 stays under the cap, step 2 overflows,
    # so the path ends at the state of step 1
    m = build_model("nls", make_grid(1, [8], [1.0]), p=31, sign=1, dealias=False)
    st = np.full((1, 8), 2.5 + 0j)
    with np.errstate(all="ignore"):
        traj = solve_ito(m, st, 1.0, 0.01, None)
    step1 = step_exp_euler(m, st, 0.01)
    assert traj.blown_up and traj.stop_time == 0.02
    assert list(traj.times) == [0.0, 0.01] and len(traj.conserved["mass"]) == 2
    assert traj.final.tobytes() == step1.tobytes()
    assert traj.graph_norms[-1].tobytes() == \
        m.generator.graph_norm_ladder(step1, m.smoothness).tobytes()


def test_solve_ito_validates_threshold():
    m = build_model("nls", GRID, sign=0, smoothness=1)
    st = m.random_smooth_state(np.random.default_rng(1), 0.5)
    with pytest.raises(ValueError):
        solve_ito(m, st, 0.5, 0.01, None, threshold=0.1 * m.generator.metric_norm(st))


def test_tight_threshold_stops_with_strong_noise():
    g = make_grid(1, [8], [1.0])
    m = build_model("nls", g, sign=0, smoothness=1)
    spec = CovarianceSpec(np.array([4.0]), [Field(g, np.ones(g.shape))])
    x = g.x_axes[0]
    phi0 = np.exp(2j * np.pi * x)[None, :]
    threshold = m.generator.metric_norm(phi0) * 1.0001
    stopped = 0
    for i in range(100):
        traj = solve_ito(m, phi0, 1.0, 1e-3, QWienerSampler(spec, 17, i),
                         threshold=threshold)
        stopped += traj.stopped
    # continuum crossing is almost sure; discrete sampling misses the paths
    # whose partial sums stay strictly below the hairline margin
    assert stopped >= 95


def test_stop_time_monotone_in_threshold():
    g = make_grid(1, [8], [1.0])
    m = build_model("nls", g, sign=0, smoothness=1)
    spec = CovarianceSpec(np.array([2.0]), [Field(g, np.ones(g.shape))])
    x = g.x_axes[0]
    phi0 = np.exp(2j * np.pi * x)[None, :]
    n0 = m.generator.metric_norm(phi0)
    for stream in range(10):
        previous = -np.inf
        for factor in (1.05, 1.2, 1.5, 2.5):
            traj = solve_ito(m, phi0, 1.0, 1e-2, QWienerSampler(spec, 23, stream),
                             threshold=n0 * factor)
            tau = np.inf if traj.stop_time is None else traj.stop_time
            assert tau >= previous
            previous = tau


_Path = namedtuple("_Path", "times states norms stop_time blown_up seed_info sup_sq")


def _per_path_ito(model, phi0, T, dt, sampler, threshold=np.inf):
    """The oracle of the stacked march: the per-path loop that ``solve_ito``
    ran before it, on ``step_exp_euler`` and ``graph_norm_ladder``, recording
    every step. Returns its times, states, graph norms, stop time, blown-up
    flag and seed info, and the running sup of sum_j ||A^j phi||^2."""
    n_steps = round(T / dt)
    N = model.smoothness
    state = phi0.copy()
    norms0 = model.generator.graph_norm_ladder(state, N)
    increments = None if sampler is None else sampler.increments(dt, n_steps)
    times, states, norm_hist = [0.0], [state.copy()], [norms0]
    sup_sq = float(np.sum(norms0**2))
    stop_time, blown = None, False
    for n in range(n_steps):
        dW = increments[n] if increments is not None else None
        try:
            state = step_exp_euler(model, state, dt, dW)
        except BlowUpError:
            blown = True
            stop_time = (n + 1) * dt
            break
        t, norms = (n + 1) * dt, model.generator.graph_norm_ladder(state, N)
        sup_sq = max(sup_sq, float(np.sum(norms**2)))
        hit = float(np.max(norms[:max(N, 1)])) > threshold
        blown = not hit and float(norms[0]) > BLOWUP_CAP
        times.append(t)
        states.append(state.copy())
        norm_hist.append(norms)
        if hit or blown:
            stop_time = t
            break
    seed_info = {}
    if sampler is not None:
        seed_info = {"master_seed": sampler.master_seed, "stream_id": sampler.stream_id}
    return _Path(np.asarray(times), states, np.asarray(norm_hist), stop_time, blown,
                 seed_info, sup_sq)


def _march_case(name):
    """(model, phi0, T, dt, covariance, master_seed, n_paths, threshold, mixed):
    ``mixed`` says that some paths stop and some run to T."""
    unit = make_grid(1, [8], [1.0])
    scalar = lambda lam: CovarianceSpec(np.array([lam]), [Field(unit, np.ones(unit.shape))])
    mode = lambda m, g: np.exp(2j * np.pi * g.x_axes[0] / g.lengths[0])[None]
    top = lambda m, st: max(m.generator.graph_norm_ladder(st, m.smoothness)[:max(m.smoothness, 1)])
    if name == "moment_law":
        m = build_model("nls", unit, sign=0, smoothness=1)
        return m, mode(m, unit), 1.0, 0.02, scalar(0.5), 301, 40, np.inf, False
    if name == "tail_curve":
        m = build_model("nls", make_grid(1, [16], [2 * np.pi]), sign=0, smoothness=1)
        phi0 = mode(m, m.grid)
        cov = default_covariance(m.grid, n_modes=3, lambda0=4.0, gamma=1.5)
        return m, phi0, 1.0, 0.01, cov, 501, 60, 2.0 * top(m, phi0), True
    if name == "klein_gordon":  # dense block with a metric
        m = build_model("klein_gordon", GRID, p=3)
        phi0 = m.random_smooth_state(np.random.default_rng(3), 0.5)
        cov = default_covariance(GRID, n_modes=3, lambda0=1.0, gamma=2.0)
        return m, phi0, 0.5, 0.01, cov, 11, 40, 1.2 * top(m, phi0), True
    if name == "zakharov_2d":  # diagonal block
        m, phi0, _, _ = _zakharov_2d()
        cov = default_covariance(m.grid, n_modes=3, lambda0=1.0, gamma=2.0)
        return m, phi0, 0.3, 0.01, cov, 12, 16, 1.02 * top(m, phi0), True
    if name == "focusing":  # blown up above the cap
        m = build_model("nls", unit, p=3, sign=1)
        phi0 = np.full((1, 8), 3.0 + 0j)
        return m, phi0, 0.5, 0.01, scalar(0.5), 13, 20, np.inf, True
    if name == "non_finite":  # blown up by an overflowing step
        m = build_model("nls", unit, p=31, sign=1, dealias=False)
        phi0 = np.full((1, 8), 2.5 + 0j)
        return m, phi0, 0.1, 0.01, scalar(0.5), 16, 9, np.inf, False
    if name == "sine_gordon_hook":  # J scaled by each path's own norm
        m = build_model("sine_gordon", GRID, g=1.0, k0=1.0, break_j_hook=True)
        _, phi0, _ = _sine_gordon_setup(radius=0.3, seed=5)
        cov = default_covariance(GRID, n_modes=3, lambda0=1.0, gamma=2.0)
        return m, phi0, 0.5, 0.01, cov, 14, 30, 1.1 * top(m, phi0), True
    if name == "no_noise":
        m = build_model("klein_gordon", GRID, p=3)
        phi0 = m.random_smooth_state(np.random.default_rng(4), 0.5)
        return m, phi0, 0.2, 0.01, None, 0, 9, np.inf, False
    if name == "cap":  # the norm passes BLOWUP_CAP but stays finite
        m = build_model("nls", unit, sign=0, smoothness=1)
        return m, mode(m, unit) * 5e11, 1.0, 0.02, scalar(1.0), 15, 30, np.inf, True
    raise KeyError(name)


MARCH_CASES = ("moment_law", "tail_curve", "klein_gordon", "zakharov_2d", "focusing",
               "non_finite", "sine_gordon_hook", "no_noise", "cap")


def _sampler(cov, seed, i):
    return None if cov is None else QWienerSampler(cov, seed, i)


@pytest.mark.parametrize("case", MARCH_CASES)
def test_ito_march_equals_the_per_path_march_bit_for_bit(case):
    # final states, sups, stop times and blown flags, for stacks of 1, 7 and
    # all paths, each path on its own stream; each one-path march's recorded
    # states; and the table and final state that solve_ito keeps of each path
    m, phi0, T, dt, cov, seed, n_paths, threshold, mixed = _march_case(case)
    n_steps = round(T / dt)
    with np.errstate(all="ignore"):
        oracle = [_per_path_ito(m, phi0, T, dt, _sampler(cov, seed, i), threshold)
                  for i in range(n_paths)]
        dW = None if cov is None else np.stack(
            [_sampler(cov, seed, i).increments(dt, n_steps) for i in range(n_paths)],
            axis=1)[:, :, None]
        for size in (1, 7, n_paths):
            for start in range(0, n_paths, size):
                paths = range(start, min(start + size, n_paths))
                recorded = []
                final, sup, stop, blown = _ito_march(
                    m, phi0, dt, n_steps, threshold,
                    None if dW is None else dW[:, start:paths.stop], len(paths),
                    lambda t, data, norms: recorded.extend(d.tobytes() for d in data))
                for b, path in enumerate(oracle[start:paths.stop]):
                    assert final[b].tobytes() == path.states[-1].tobytes()
                    assert sup[b].tobytes() == np.float64(path.sup_sq).tobytes()
                    assert (stop[b] * dt if stop[b] else None) == path.stop_time
                    assert blown[b] == path.blown_up
                if size == 1:
                    assert recorded == [s.tobytes() for s in oracle[start].states[1:]]
        for i, path in enumerate(oracle):  # solve_ito keeps the table of each path
            traj = solve_ito(m, phi0, T, dt, _sampler(cov, seed, i), threshold=threshold)
            _assert_table_of(traj, m, path.times, path.states, path.norms)
            assert (traj.stop_time, traj.blown_up) == (path.stop_time, path.blown_up)
    stopped = [path.stop_time is not None for path in oracle]
    assert (0 < sum(stopped) < n_paths) == mixed
    if case in ("focusing", "non_finite", "cap"):
        assert [path.blown_up for path in oracle] == stopped and any(stopped)


def _deterministic_loop(model, phi0, T, dt, scheme):
    """The oracle of the noise-free march: the loop of the former
    ``solve_deterministic``, recording every step, with the split step written
    as its three calls. Returns the times, states and graph norms."""
    gen = model.generator

    def strang(state):
        half = gen.propagate(0.5 * dt, state)
        return gen.propagate(0.5 * dt, model.nonlinear_substep(half, dt))

    stepper = {"strang": strang, "exp_euler": lambda s: step_exp_euler(model, s, dt)}[scheme]
    state = phi0.copy()
    ladder = lambda st: model.generator.graph_norm_ladder(st, model.smoothness)
    times, states, norms = [0.0], [state.copy()], [ladder(state)]
    for n in range(round(T / dt)):
        state = stepper(state)
        times.append((n + 1) * dt)
        states.append(state.copy())
        norms.append(ladder(state))
    return np.asarray(times), states, np.asarray(norms)


@pytest.mark.parametrize("scheme", ("strang", "exp_euler"))
@pytest.mark.parametrize("name", ("nls", "klein_gordon", "zakharov", "maxwell_dirac",
                                  "sine_gordon"))
def test_march_equals_the_deterministic_loop_bit_for_bit(name, scheme):
    # every recorded state, time and graph norm of the noise-free march, and
    # the table and final state that solve_ito keeps of it
    m = build_model(name, make_grid(1, [16], [2 * np.pi]))
    phi0 = m.random_smooth_state(np.random.default_rng(7), 0.3)
    times, states, norms = _deterministic_loop(m, phi0, 0.2, 0.005, scheme)
    got = _recorded(m, phi0, 0.2, 0.005, kernel=_SCHEMES[scheme])
    assert got[0].tobytes() == times.tobytes() and got[2].tobytes() == norms.tobytes()
    assert [s.tobytes() for s in got[1]] == [s.tobytes() for s in states]
    traj = solve_ito(m, phi0, 0.2, 0.005, None, scheme=scheme)
    _assert_table_of(traj, m, times, states, norms)
    assert (traj.stop_time, traj.blown_up, traj.seed_info) == (None, False, {})


def test_solve_ito_scheme_is_checked():
    m, st, _ = _sine_gordon_setup()
    cov = default_covariance(GRID, n_modes=2, lambda0=0.2, gamma=2.0)
    with pytest.raises(ValueError, match="no noise term"):
        solve_ito(m, st, 0.1, 0.01, QWienerSampler(cov, 5, 0), scheme="strang")
    with pytest.raises(ValueError, match="unknown scheme 'rk4'"):
        solve_ito(m, st, 0.1, 0.01, None, scheme="rk4")


@pytest.mark.parametrize("case", ("tail_curve", "cap", "non_finite"))
def test_solve_ito_records_the_per_path_trajectory(case):
    # the threshold, the cap and the non-finite stop, step by step: every
    # recorded state, and the table and final state that solve_ito keeps
    m, phi0, T, dt, cov, seed, n_paths, threshold, _ = _march_case(case)
    for i in range(min(n_paths, 12)):
        with np.errstate(all="ignore"):
            want = _per_path_ito(m, phi0, T, dt, _sampler(cov, seed, i), threshold)
            times, states, norms = _recorded(m, phi0, T, dt, _sampler(cov, seed, i),
                                             threshold)
            got = solve_ito(m, phi0, T, dt, _sampler(cov, seed, i), threshold=threshold)
            _assert_table_of(got, m, want.times, want.states, want.norms)
        assert times.tobytes() == want.times.tobytes()
        assert norms.tobytes() == want.norms.tobytes()
        assert [s.tobytes() for s in states] == [s.tobytes() for s in want.states]
        assert (got.stop_time, got.blown_up, got.seed_info) == \
            (want.stop_time, want.blown_up, want.seed_info)


def test_ito_mean_square_continuity():
    # E||phi(t+d) - phi(t)||^2 decays linearly in d. The zero mode isolates
    # the stochastic modulus (no free-phase rotation mixed in).
    g = make_grid(1, [8], [1.0])
    m = build_model("nls", g, sign=0, smoothness=1)
    spec = CovarianceSpec(np.array([0.5]), [Field(g, np.ones(g.shape))])
    phi0 = np.ones((1,) + g.shape, dtype=complex)
    dt = 1 / 64
    step_marks = (1, 2, 4, 8)
    deltas = np.array(step_marks) * dt
    gaps = np.zeros(len(deltas))
    n_paths = 400
    base_steps = 16
    for i in range(n_paths):
        sampler = QWienerSampler(spec, 31, i)
        incs = sampler.increments(dt, base_steps + max(step_marks))
        state = phi0
        for n in range(base_steps):
            state = step_exp_euler(m, state, dt, incs[n])
        anchor = state
        moving = anchor
        for k in range(max(step_marks)):
            moving = step_exp_euler(m, moving, dt, incs[base_steps + k])
            if (k + 1) in step_marks:
                gaps[step_marks.index(k + 1)] += m.generator.metric_norm(moving - anchor) ** 2
    gaps /= n_paths
    slope = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
    assert 0.8 < slope < 1.2


def test_gronwall_graph_norm_growth():
    # fit the growth constant once, then fresh data stays inside the envelope
    m, _, theta = _sine_gordon_setup()
    zeta = np.array([0.3, 0.2, -0.1])
    rng = np.random.default_rng(77)
    T = 0.5

    def growth_rate(state):
        res = picard_solve(m, state, T, theta, zeta, n_time_nodes=33, tol=1e-10)
        sum_norms = lambda st: float(np.sum(m.generator.graph_norm_ladder(st, m.smoothness)))
        s0 = sum_norms(state)
        rates = []
        for t, s in zip(res.times[1:], res.states[1:]):
            rates.append(np.log(max(sum_norms(s) / s0, 1e-300)) / t)
        return max(rates)

    calibration = max(growth_rate(np.real(m.random_smooth_state(rng, 0.3)).astype(complex))
                      for _ in range(5))
    c1 = max(calibration, 0.0) * 1.5 + 0.1
    for _ in range(50):
        st = np.real(m.random_smooth_state(rng, 0.3)).astype(complex)
        assert growth_rate(st) <= c1


def test_holomorphy_theta_independent_of_z():
    m, st, _ = _sine_gordon_setup()
    zero_theta = ThetaPotential([Field(GRID, np.zeros(GRID.shape))])
    probe = st * (1.0 / m.generator.metric_norm(st))
    res = holomorphy_check(m, st, 0.3, zero_theta, np.array([0.0]), np.array([0.0]),
                           [0.1 + 0.1j], probe, spacing=1e-2, n_time_nodes=31,
                           tol=1e-13)
    assert res < 1e-12


def test_holomorphy_affine_single_mode():
    m = build_model("nls", GRID, sign=0, smoothness=1)
    theta = ThetaPotential([Field(GRID, np.ones(GRID.shape))])
    x = GRID.x_axes[0]
    phi0 = np.exp(1j * x)[None, :]
    probe = phi0 * (1.0 / m.generator.metric_norm(phi0))
    res = holomorphy_check(m, phi0, 0.5, theta, np.array([0.3]), np.array([2.0]),
                           [0.25], probe, spacing=1e-2, n_time_nodes=65, tol=1e-13)
    assert res < 1e-8  # entire exponential in z


def test_holomorphy_check_equals_separate_solves_bit_for_bit(monkeypatch):
    # the stencil's 8 solves per center share one free path, built once
    from stochwave.solver import _cr_residual

    m, st, theta, zeta = _zakharov_2d()
    eta = np.array([0.2, -0.1, 0.3, 0.05])
    probe = st * (1.0 / m.generator.metric_norm(st))
    centers = [0.0, 0.1 - 0.2j]
    kw = dict(n_time_nodes=9, tol=1e-12, max_iter=80)
    solves = []

    def F(z):
        solves.append(picard_solve(m, st, 0.5, theta, zeta, eta, z, **kw))
        return complex(m.generator.metric_inner(solves[-1].final, probe))

    want = max(0.0, *(_cr_residual(F, z0, 1e-2) for z0 in centers))
    calls = []
    propagate = m.generator.propagate
    monkeypatch.setattr(m.generator, "propagate", lambda t, x: calls.append(t) or propagate(t, x))
    got = holomorphy_check(m, st, 0.5, theta, zeta, eta, centers, probe, spacing=1e-2, **kw)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    sweeps = sum(len(res.residuals) + 1 for res in solves)
    assert len(solves) == 16 and len(calls) == 8 * (1 + sweeps)
    # outside the check, a solve builds its own free path again
    calls.clear()
    res = picard_solve(m, st, 0.5, theta, zeta, eta, 0.0, **kw)
    assert len(calls) == 8 * (1 + len(res.residuals) + 1)


def _csv_of_states(model, times, states, graph_norms):
    """The reference trajectory table: it takes the conserved quantities of
    every recorded state when it formats the table."""
    names = sorted(model.conserved_blocks(states[0][None]).keys())
    n_orders = graph_norms.shape[1]
    header = ["time"] + [f"graph_norm_j{j}" for j in range(n_orders)] + names
    lines = [",".join(header) + "\n"]
    for i, t in enumerate(times):
        cons = model.conserved_blocks(states[i][None])
        row = [t, *graph_norms[i], *[cons[n][0] for n in names]]
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def test_export_trajectory_csv():
    # the columns simulate writes, byte for byte the per-state formatter's
    # text, for every model and scheme
    for name in ("nls", "klein_gordon", "zakharov", "maxwell_dirac", "sine_gordon"):
        for scheme in _SCHEMES:
            cfg = ExperimentConfig.from_dict({
                "model": {"name": name},
                "grid": {"dim": 1, "points": [32], "lengths": [2 * np.pi]},
                "initial": {"kind": "smooth_random", "amplitude": 0.3, "seed": 7},
                "solver": {"T": 0.1, "dt": 0.005, "scheme": scheme}})
            m = cfg.build_model()
            phi0 = cfg.build_initial(m)
            _, _, files = cmd_simulate(cfg, SimpleNamespace(allow_stop=False))
            times, states, norms = _recorded(m, phi0, 0.1, 0.005, kernel=_SCHEMES[scheme])
            text = _csv(files["trajectory.csv"])
            assert text == _csv_of_states(m, times, states, norms)
            lines = text.strip().splitlines()
            assert lines[0].startswith("time,graph_norm_j0")
            assert all(n in lines[0] for n in m.conserved_blocks(phi0[None]))
            assert len(lines) == len(times) + 1 == 22
