import numpy as np
import pytest

from stochwave import build_model, make_grid, verify_estimates
from stochwave.solver import _ito_march, _strang, solve_ito

GRID = make_grid(1, [32], [2 * np.pi])
ALL_NAMES = ("nls", "klein_gordon", "zakharov", "maxwell_dirac", "sine_gordon")


def _real_state(model, seed=0, radius=0.3):
    st = model.random_smooth_state(np.random.default_rng(seed), radius)
    if model.name in ("sine_gordon",):
        st = np.real(st).astype(complex)
    if model.name == "maxwell_dirac":
        for i in (2, 3, 4, 5):  # real potential sector
            st[i] = np.real(st[i])
    return st


def test_build_nls_paraxial():
    g2 = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
    m = build_model("nls", g2, p=3, sign=1)
    # generator is -Lap: symbol +|k|^2
    assert m.generator.symbol[0, 0, 0, 0] == pytest.approx(0.0)
    assert np.all(np.real(m.generator.symbol[0, 0]) >= -1e-14)
    assert m.generator.n_components == 1


def test_build_sine_gordon_two_component():
    m = build_model("sine_gordon", GRID, g=1.0, k0=1.0)
    assert m.generator.n_components == 2
    st = np.full((2,) + GRID.shape, np.pi / 2, dtype=complex)
    out = m.apply_J(st)
    assert np.allclose(out[0], 0.0, atol=1e-14)
    assert np.allclose(out[1], 1.0, atol=1e-14)


def test_build_zakharov_structure():
    m = build_model("zakharov", GRID)
    assert m.generator.n_components == 2
    # normalized coupling carries the phase factor making mass an invariant:
    # J = (-i psi Re v, i |grad| |psi|^2)
    rng = np.random.default_rng(1)
    st = m.random_smooth_state(rng, 0.5)
    out = m.apply_J(st)
    psi, v = st[0], st[1]
    expected0 = -1j * m._dealias(psi * np.real(v))
    assert np.allclose(out[0], expected0, atol=1e-13)
    # density source is i times a real field
    assert np.max(np.abs(out[1] + np.conj(out[1]))) < 1e-12


def test_nls_cubic_amplitude():
    m = build_model("nls", GRID, p=3, sign=-1)
    st = np.full((1,) + GRID.shape, 2.0, dtype=complex)
    out = m.apply_J(st)
    # |2|^2 * 2 = 8 with the documented i phase from the normalization
    assert np.allclose(out[0], -8j, atol=1e-12)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_J_of_zero_is_zero(name):
    m = build_model(name, GRID, p=3, sign=1, k0=1.0, m=1.0)
    out = m.apply_J(np.zeros((m.generator.n_components,) + m.grid.shape, dtype=complex))
    assert np.max(np.abs(out)) == 0.0


def test_build_model_rejects_bad_input():
    with pytest.raises(ValueError):
        build_model("airy", GRID)
    with pytest.raises(ValueError):
        build_model("nls", GRID, p=1)
    with pytest.raises(ValueError):
        build_model("nls", GRID, sign=2)
    g3 = make_grid(3, [4, 4, 4], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        build_model("maxwell_dirac", g3)


def test_conserved_values():
    m = build_model("nls", GRID, p=3, sign=1)
    st = m.random_smooth_state(np.random.default_rng(0), 1.0)
    st = st * (1.0 / m.generator.metric_norm(st))
    assert m.conserved_blocks(st[None])["mass"][0] == pytest.approx(1.0, rel=1e-12)

    sg = build_model("sine_gordon", GRID, g=1.0, k0=1.0)
    zero = np.zeros((2,) + sg.grid.shape, dtype=complex)
    assert sg.conserved_blocks(zero[None])["energy"][0] == pytest.approx(GRID.volume)


def test_klein_gordon_energy_constant_on_linear_flow():
    # single spectral mode, sign 0: closed-form per-mode rotation keeps energy
    m = build_model("klein_gordon", GRID, p=3, sign=0, k0=1.0)
    x = GRID.x_axes[0]
    st = np.zeros((2,) + GRID.shape, dtype=complex)
    st[0] = 0.5 * np.exp(2j * x)
    e0 = m.conserved_blocks(st[None])["energy"][0]
    b = np.sqrt(4.0 + 1.0)
    for t in (0.3, 0.9, 2.2):
        moved = m.generator.propagate(t, st)
        # oracle: (psi, v) -> (cos(tb) psi, -b sin(tb) psi) for v0 = 0
        assert np.allclose(moved[0], np.cos(t * b) * st[0], atol=1e-12)
        energy = m.conserved_blocks(moved[None])["energy"][0]
        assert energy == pytest.approx(e0, rel=1e-12)


@pytest.mark.parametrize("name", ("nls", "klein_gordon", "sine_gordon"))
def test_J_commutes_with_translation(name):
    m = build_model(name, GRID, p=3, sign=1, k0=1.0)
    st = _real_state(m, seed=4)
    shift = 5
    rolled = np.roll(st, shift, axis=-1)
    j_then_roll = np.roll(m.apply_J(st), shift, axis=-1)
    roll_then_j = m.apply_J(rolled)
    assert np.max(np.abs(j_then_roll - roll_then_j)) < 1e-12


def test_maxwell_dirac_charge_conserved():
    m = build_model("maxwell_dirac", GRID, k0=1.0, m=1.0)
    st = _real_state(m, seed=7, radius=0.4)
    q0 = m.conserved_blocks(st[None])["charge"][0]
    traj = solve_ito(m, st, 1.0, 1e-3, None, scheme="strang")
    assert len(traj.conserved["charge"]) == 1001
    assert np.max(np.abs(traj.conserved["charge"] - q0)) / q0 < 1e-6


def test_maxwell_dirac_gauge_projection_and_residual():
    m = build_model("maxwell_dirac", GRID, k0=1.0, m=1.0)
    st = _real_state(m, seed=8, radius=0.4)
    assert m.gauge_residual(st) > 1e-6  # random data is off the gauge slice
    # the gauge slice: real potentials and A0_t = dx A1 (Nyquist-zeroed derivative)
    fixed = st.copy()
    fixed[2:] = np.real(fixed[2:])
    k = GRID.k_axes[0].copy()
    k[GRID.npts[0] // 2] = 0.0
    fixed[3] = GRID.to_physical(1j * k * GRID.to_spectral(fixed[4]))
    assert m.gauge_residual(fixed) < 1e-12
    # the residual is a diagnostic, not enforced: it stays bounded but moves
    # at every step of the march that solve_ito runs, collected by its record
    residuals = []

    def record(t, data, norms):
        residuals.extend(m.gauge_residual(d) for d in data)

    _ito_march(m, fixed, 1e-3, 200, np.inf, None, 1, record, _strang)
    assert len(residuals) == 200 and all(np.isfinite(r) for r in residuals)
    nls = build_model("nls", GRID, p=3, sign=1)
    with pytest.raises(ValueError):
        nls.gauge_residual(np.zeros((1,) + nls.grid.shape, dtype=complex))


@pytest.mark.parametrize("name,invariant", [
    ("nls", "mass"), ("zakharov", "mass"), ("maxwell_dirac", "charge"),
])
def test_exact_invariants_under_strang(name, invariant):
    m = build_model(name, GRID, p=3, sign=1, k0=1.0, m=1.0)
    st = _real_state(m, seed=2, radius=0.4)
    c0 = m.conserved_blocks(st[None])[invariant][0]
    traj = solve_ito(m, st, 0.5, 2e-3, None, scheme="strang")
    assert len(traj.conserved[invariant]) == 251
    assert np.max(np.abs(traj.conserved[invariant] - c0)) / abs(c0) < 1e-10


@pytest.mark.parametrize("name,sign", [
    ("klein_gordon", -1), ("sine_gordon", 1), ("nls", 1),
])
def test_energy_drift_second_order(name, sign):
    m = build_model(name, GRID, p=3, sign=sign, g=1.0, k0=1.0)
    st = _real_state(m, seed=3, radius=0.4)
    e0 = m.conserved_blocks(st[None])["energy"][0]
    drifts = []
    for dt in (8e-3, 4e-3, 2e-3):
        traj = solve_ito(m, st, 0.48, dt, None, scheme="strang")
        drifts.append(np.max(np.abs(traj.conserved["energy"] - e0)) / abs(e0))
    slopes = [np.log2(drifts[i] / drifts[i + 1]) for i in range(len(drifts) - 1)]
    assert min(slopes) >= 1.8


def test_estimates_sine_gordon_unit_constant():
    m = build_model("sine_gordon", GRID, g=1.0, k0=1.0)
    reports = {r.inequality_id: r for r in verify_estimates(m, sample_count=300, seed=1)}
    contraction = reports["sine:contraction"]
    assert contraction.declared_constant == 1.0
    assert contraction.violations == 0
    assert contraction.fitted_constant <= 1 + 1e-12


def test_estimates_klein_gordon_cubic():
    m = build_model("klein_gordon", GRID, p=3, sign=1, k0=1.0)
    reports = {r.inequality_id: r for r in verify_estimates(m, sample_count=300, seed=2)}
    for key in ("cubic:power", "cubic:lipschitz", "cubic:grad-power", "cubic:grad-lipschitz"):
        assert reports[key].violations == 0
        assert np.isfinite(reports[key].fitted_constant)


def test_estimates_zero_radius_trivial():
    m = build_model("nls", GRID, p=3, sign=1)
    reports = verify_estimates(m, sample_count=120, radius=1e-12, seed=3)
    assert all(r.violations == 0 for r in reports)


def _reference_reports(m, n, radius, seed):
    """verify_estimates sample by sample, from public per-state calls."""
    rng = np.random.default_rng(seed)
    singles = [(m.random_smooth_state(rng, radius),) for _ in range(n)]
    pairs = [(m.random_smooth_state(rng, radius), m.random_smooth_state(rng, radius))
             for _ in range(n)]
    J, norm = m.apply_J, m.generator.metric_norm
    gn = lambda x, j: m.generator.graph_norm_ladder(x, j)[j]
    e = {"sine_gordon": 1, "zakharov": 2, "maxwell_dirac": 2}.get(m.name, m.params.p) - 1
    top = lambda x, j: float(np.max(m.generator.graph_norm_ladder(x, j)))
    suite = []  # (id, pair, args -> (lhs, core, envelope), declared)
    for j in range(m.smoothness + 1):
        suite += [(f"{m.name}:growth:j{j}", False,
                   lambda x, j=j: (gn(J(x), j), gn(x, j), (1.0 + top(x, j)) ** e), None),
                  (f"{m.name}:lipschitz:j{j}", True, lambda x, y, j=j: (
                      gn(J(x) - J(y), j), gn(x - y, j),
                      (1.0 + max(top(x, j), top(y, j))) ** e), None)]
    suite += [(f"{m.name}:growth-lower:j{j}", False,
               lambda x, j=j: (gn(J(x), j), gn(x, j), (1.0 + top(x, j - 1)) ** e), None)
              for j in range(1, m.smoothness + 1)]
    if m.name == "klein_gordon" and m.params.p == 3:
        suite += [
            ("cubic:power", False, lambda x: (norm(J(x)), 1.0, norm(x) ** 3), None),
            ("cubic:lipschitz", True, lambda x, y: (
                norm(J(x) - J(y)), norm(x - y), norm(x) ** 2 + norm(y) ** 2), None),
            ("cubic:grad-power", False, lambda x: (gn(J(x), 1), gn(x, 1), norm(x) ** 2), None),
            ("cubic:grad-lipschitz", True, lambda x, y: (
                gn(J(x) - J(y), 1), gn(x - y, 1),
                (1.0 + max(norm(x), norm(y), gn(x, 1), gn(y, 1))) ** 2), None)]
    if m.name == "sine_gordon":
        suite += [
            ("sine:contraction", False, lambda x: (norm(J(x)), norm(x), 1.0), 1.0),
            ("sine:grad-bound", False, lambda x: (gn(J(x), 1), norm(x), 1.0), None),
            ("sine:lipschitz", True, lambda x, y: (norm(J(x) - J(y)), norm(x - y), 1.0), None),
            ("sine:grad-lipschitz", True, None, None)]
    reports = []
    for iid, pair, f, declared in suite:
        ratios = []
        for args in (pairs if pair else singles):
            if f is None:  # ||A(J(a)-J(b))|| <= K ||a-b|| ||A a|| + ||a-b||
                a, b = args
                diff = norm(a - b)
                excess, denom = gn(J(a) - J(b), 1) - diff, diff * gn(a, 1)
                ratios.append((0.0 if excess <= 0 else np.inf) if denom <= 1e-300
                              else max(excess, 0.0) / denom)
                continue
            lhs, core, env = f(*args)
            denom = env * core
            ratios.append((0.0 if lhs <= 1e-300 else np.inf) if denom <= 1e-300
                          else lhs / denom)
        fitted = float(np.max(ratios))
        bound = fitted if declared is None else declared
        reports.append((iid, n, int(np.sum(np.array(ratios) > bound * (1.0 + 1e-10))),
                        fitted.hex(), declared))
    return reports


GRID2D = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])


@pytest.mark.parametrize("name, grid, params", [
    ("nls", GRID, {"p": 3, "sign": 1}),
    ("klein_gordon", GRID, {"p": 3, "sign": -1, "k0": 1.0}),
    ("sine_gordon", GRID, {"g": 1.0, "k0": 1.0}),
    ("zakharov", GRID, {}),
    ("maxwell_dirac", GRID, {"k0": 1.0, "m": 1.0}),
    ("klein_gordon", GRID, {"p": 3, "sign": 1, "k0": 1.0}),
    ("sine_gordon", GRID, {"g": 1.0, "k0": 1.0, "break_j_hook": True}),
    ("zakharov", GRID2D, {}),
    ("nls", GRID, {"p": 5, "sign": 1}),
])
def test_verify_estimates_equal_the_per_sample_reference(name, grid, params):
    # 130 samples: two full stacks of 64 and a partial one
    m = build_model(name, grid, **params)
    got = [(r.inequality_id, r.sample_count, r.violations, r.fitted_constant.hex(),
            r.declared_constant) for r in verify_estimates(m, sample_count=130, seed=101)]
    assert got == _reference_reports(m, 130, 1.0, 101)


def test_overflowing_samples_are_violations():
    # norms that overflow once read every ratio as 0 (or NaN) and passed
    for m in (build_model("sine_gordon", GRID, g=1.0, k0=1.0),
              build_model("klein_gordon", GRID, p=3, sign=1, k0=1.0)):
        for radius in (1e200, 1e308):
            with np.errstate(all="ignore"):
                reports = verify_estimates(m, sample_count=100, radius=radius, seed=5)
            assert all(r.violations == 100 for r in reports), (m.name, radius)


def test_build_model_rejects_a_non_integral_power():
    assert build_model("nls", GRID, p=3.0).params.p == 3
    with pytest.raises(ValueError, match="an integer, got 2.5"):
        build_model("nls", GRID, p=2.5)


def test_verify_estimates_enforces_sample_floor():
    m = build_model("nls", GRID, p=3, sign=1)
    with pytest.raises(ValueError):
        verify_estimates(m, sample_count=50)


def test_lipschitz_constant_tracks_power_envelope():
    # raw Lipschitz ratios grow with radius no faster than the declared power
    m = build_model("klein_gordon", GRID, p=3, sign=1, k0=1.0)
    rng = np.random.default_rng(9)
    ratios = {}
    for radius in (0.5, 1.0, 2.0):
        worst = 0.0
        for _ in range(60):
            a = m.random_smooth_state(rng, radius)
            b = m.random_smooth_state(rng, radius)
            diff = m.generator.metric_norm(a - b)
            if diff > 1e-12:
                worst = max(worst, m.generator.metric_norm(m.apply_J(a) - m.apply_J(b)) / diff)
        ratios[radius] = worst
    # the cubic's local Lipschitz constant scales like the squared radius
    normalized = [ratios[r] / r**2 for r in (0.5, 1.0, 2.0)]
    assert max(normalized) / min(normalized) < 3.0


def test_break_j_hook_violates_estimates():
    m = build_model("sine_gordon", GRID, g=1.0, k0=1.0, break_j_hook=True)
    reports = {r.inequality_id: r for r in verify_estimates(m, sample_count=100, seed=4)}
    assert reports["sine:contraction"].violations > 0
