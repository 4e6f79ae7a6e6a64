import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import factorial

from numpy.polynomial import hermite_e

from stochwave import build_model, default_covariance, make_grid
from stochwave.cli import _csv, cmd_chaos
from stochwave.config import ExperimentConfig
from stochwave.chaos import (ChaosSpace, growth_bound_fit, solve_wick_evolution,
                             wick_nonlinearity)

SPACE = ChaosSpace(3, 4)
RNG = np.random.default_rng(0)


def _random_vec(space, max_deg=None, rng=RNG):
    c = rng.standard_normal(space.n_indices) + 1j * rng.standard_normal(space.n_indices)
    if max_deg is not None:
        c = np.where(space.degrees <= max_deg, c, 0.0)
    return c


def _random_zeta(space, scale=0.5, rng=RNG):
    return scale * (rng.standard_normal(space.n_modes)
                    + 1j * rng.standard_normal(space.n_modes))


def _vacuum(space):
    c = np.zeros(space.n_indices, dtype=complex)
    c[0] = 1.0
    return c


def _first_chaos(space, coords):
    """sum_m coords_m xi_m: the coefficient of e_m is coords_m."""
    c = np.zeros(space.n_indices, dtype=complex)
    for m, y in enumerate(coords):
        c[space.position(np.eye(space.n_modes, dtype=int)[m])] = y
    return c


def _deterministic(space, state):
    """The chaos-valued field of a deterministic state: ``state`` in the
    degree-0 block, zero in every other."""
    data = np.zeros((space.n_indices,) + state.shape, dtype=complex)
    data[0] = state
    return data


def test_space_counts_and_weights():
    assert SPACE.n_indices == 35  # C(3 + 4, 4)
    assert SPACE.mode_weights.tolist() == [2.0, 3.0, 4.0]  # w_i = i + 1


def test_vacuum_exponential_vector():
    v = SPACE.exp_vector(np.zeros(3))
    assert v[0] == 1.0
    assert np.max(np.abs(v[1:])) == 0.0


def test_single_mode_exp_vector_hermite_coefficients():
    # in the orthonormal Hermite dictionary the degree-k entry is 1/sqrt(k!)
    space = ChaosSpace(1, 6)
    v = space.exp_vector(np.array([1.0]))

    for k in range(7):
        pos = space.position([k])
        normalized = v[pos] * np.sqrt(space.factorials[pos])
        assert normalized == pytest.approx(1.0 / np.sqrt(factorial(k)))


def test_exp_vector_pairing_series():
    space = ChaosSpace(3, 10)
    zeta = _random_zeta(space, 0.4)
    eta = _random_zeta(space, 0.4)
    got = space.pairing(space.exp_vector(zeta), space.exp_vector(eta))
    # direct series summation oracle
    ip = np.sum(zeta * eta)
    oracle = sum(ip**k / factorial(k) for k in range(11))
    assert abs(got - oracle) < 1e-12
    assert abs(got - np.exp(ip)) < 1e-8  # truncation tail only


def test_norm_matches_gaussian_quadrature_oracle():
    # hand-checkable degree <= 2 cases against Gauss-Hermite integration
    space = ChaosSpace(1, 4)
    nodes, weights = hermite_e.hermegauss(40)
    weights = weights / np.sqrt(2 * np.pi)

    def l2_gauss(coeffs_by_degree):
        vals = sum(c * hermite_e.hermeval(nodes, [0] * k + [1])
                   for k, c in enumerate(coeffs_by_degree))
        return np.sqrt(np.sum(weights * np.abs(vals) ** 2))

    vec = np.zeros(space.n_indices, dtype=complex)
    vec[space.position([0])] = 0.7
    vec[space.position([1])] = -0.3
    vec[space.position([2])] = 0.5
    assert space.norm(vec, 0, 0.0) == pytest.approx(l2_gauss([0.7, -0.3, 0.5]), rel=1e-10)


def test_s_transform_examples():
    zeta = _random_zeta(SPACE)
    assert SPACE.s_transform(_vacuum(SPACE), zeta) == pytest.approx(1.0)
    first = _first_chaos(SPACE, [1.0, 0.0, 0.0])
    assert SPACE.s_transform(first, zeta) == pytest.approx(zeta[0])
    eta = _random_zeta(SPACE, 0.3)
    got = SPACE.s_transform(SPACE.exp_vector(eta), zeta)
    tail = abs(np.sum(zeta * eta)) ** 5 / 120 * 3
    assert abs(got - np.exp(np.sum(zeta * eta))) < tail + 1e-12


def test_wick_product_identities():
    phi = _random_vec(SPACE, max_deg=2)
    vac = _vacuum(SPACE)
    assert np.allclose(SPACE.convolve(vac, phi), phi)
    power = vac  # the vacuum is the unit: each of its Wick powers is itself
    for _ in range(5):
        power = SPACE.convolve(power, vac)
    assert np.array_equal(power, vac)
    first = _first_chaos(SPACE, [1.0, 0.0, 0.0])
    sq = SPACE.convolve(first, first)
    expect = np.zeros(SPACE.n_indices, dtype=complex)
    expect[SPACE.position([2, 0, 0])] = 1.0
    assert np.allclose(sq, expect)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_s_multiplicativity(seed):
    rng = np.random.default_rng(seed)
    a = _random_vec(SPACE, max_deg=2, rng=rng)
    b = _random_vec(SPACE, max_deg=2, rng=rng)
    zeta = _random_zeta(SPACE, 0.6, rng=rng)
    lhs = SPACE.s_transform(SPACE.convolve(a, b), zeta)
    rhs = SPACE.s_transform(a, zeta) * SPACE.s_transform(b, zeta)
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_wick_algebra_commutative_associative_distributive():
    a = _random_vec(SPACE, max_deg=1)
    b = _random_vec(SPACE, max_deg=1)
    c = _random_vec(SPACE, max_deg=2)
    wick = SPACE.convolve
    assert np.max(np.abs(wick(a, b) - wick(b, a))) < 1e-10
    assert np.max(np.abs(wick(wick(a, b), c) - wick(a, wick(b, c)))) < 1e-10
    assert np.max(np.abs(wick(a, b + c) - (wick(a, b) + wick(a, c)))) < 1e-10


def test_annihilation_and_creation():
    y = _random_zeta(SPACE, 0.7)
    assert np.max(np.abs(SPACE.lowering(y, _vacuum(SPACE)))) == 0
    assert np.allclose(SPACE.raising(y, _vacuum(SPACE)), _first_chaos(SPACE, y))
    # creation from the top degree leaves the truncation: every term drops
    top = np.zeros(SPACE.n_indices, dtype=complex)
    top[-1] = 1.0
    assert not np.any(SPACE.raising(y, top))


def _pair_table(space):
    """(I, J, K) with alpha_I + alpha_J = alpha_K, in row-major (I, J) order:
    a scan of every (I, J). An index's key has its entries as digits in base
    max_degree + 1, so the key of a sum within the table is the sum of keys."""
    I, J = np.nonzero(space.degrees[:, None] + space.degrees[None, :] <= space.max_degree)
    keys = space.indices @ (space.max_degree + 1) ** np.arange(space.n_modes)
    by_key = np.argsort(keys)
    K = by_key[np.searchsorted(keys[by_key], keys[I] + keys[J])]
    assert all(space.position(space.indices[i] + space.indices[j]) == k
               for i, j, k in zip(I[::97], J[::97], K[::97]))
    return I, J, K


def _signed_zeros(rng, shape):
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[rng.random(shape) < 0.2] = 0.0
    c[rng.random(shape) < 0.2] = -0.0
    c.real[rng.random(shape) < 0.1] *= -0.0
    return c


@pytest.mark.parametrize("space", [ChaosSpace(4, 4), ChaosSpace(3, 4), ChaosSpace(1, 3)],
                         ids=["4x4", "3x4", "1x3"])
@pytest.mark.parametrize("tail", [(), (5,), (2, 8)], ids=["1d", "2d", "2comp"])
def test_convolve_equals_a_scatter_add_bit_for_bit(space, tail):
    I, J, K = _pair_table(space)
    rng = np.random.default_rng(11)
    for trial in range(6):
        a = _signed_zeros(rng, (space.n_indices,) + tail)
        b = _signed_zeros(rng, (space.n_indices,) + tail)
        if trial % 2:
            a = -a
        want = np.zeros_like(a)
        np.add.at(want, K, a[I] * b[J])
        assert space.convolve(a, b).tobytes() == want.tobytes()


def _shifted(space, m, step):
    """Rows alpha with alpha + step e_m in the table, and that neighbour's position."""
    rows, cols = [], []
    for i, alpha in enumerate(space.indices):
        moved = alpha + step * np.eye(space.n_modes, dtype=int)[m]
        if moved.min() >= 0 and moved.sum() <= space.max_degree:
            rows.append(i)
            cols.append(space.position(moved))
    return np.array(rows, dtype=int), np.array(cols, dtype=int)


def _raise_loop(space, weights, data):
    out = np.zeros_like(data)
    for m, y in enumerate(weights):
        ok, dn = _shifted(space, m, -1)
        out[ok] += y * data[dn]
    return out


def _lower_loop(space, weights, data):
    out = np.zeros_like(data)
    for m, y in enumerate(weights):
        ok, up = _shifted(space, m, +1)
        count = (space.indices[ok, m] + 1).reshape((-1,) + (1,) * (data.ndim - 1))
        out[ok] += y * count * data[up]
    return out


def test_ladder_maps_equal_per_mode_loops_bit_for_bit():
    rng = np.random.default_rng(12)
    y = _signed_zeros(rng, SPACE.n_modes)
    phi = _signed_zeros(rng, SPACE.n_indices)
    assert SPACE.raising(y, phi).tobytes() == _raise_loop(SPACE, y, phi).tobytes()
    assert SPACE.lowering(y, phi).tobytes() == _lower_loop(SPACE, y, phi).tobytes()
    # the operator matrices: the maps applied to the identity
    eye = np.eye(SPACE.n_indices, dtype=complex)
    assert np.array_equal(SPACE.raising(y, eye), _raise_loop(SPACE, y, eye))
    assert np.array_equal(SPACE.lowering(y, eye), _lower_loop(SPACE, y, eye))
    # field weights on a (n_idx, s, M) stack, as the Wick solve's noise term
    fields = [_signed_zeros(rng, 16) for _ in range(SPACE.n_modes)]
    stack = _signed_zeros(rng, (SPACE.n_indices, 2, 16))
    assert SPACE.raising(fields, stack).tobytes() == _raise_loop(SPACE, fields, stack).tobytes()
    assert SPACE.lowering(fields, stack).tobytes() == _lower_loop(SPACE, fields, stack).tobytes()
    # a mode without a weight has no term
    partial = fields[:2] + [None]
    assert SPACE.raising(partial, stack).tobytes() == \
        _raise_loop(SPACE, fields[:2], stack).tobytes()


@pytest.mark.parametrize("y", [[1.0, 2.0, 3.0], [1.0]])
def test_ladder_maps_reject_a_weight_count_other_than_the_mode_count(y):
    space = ChaosSpace(2, 3)
    for ladder in (space.raising, space.lowering):
        for data in (_random_vec(space), np.eye(space.n_indices, dtype=complex)):
            with pytest.raises(ValueError, match="need 2 mode weights"):
                ladder(y, data)


def test_ccr_on_interior_degrees():
    y = _random_zeta(SPACE, 0.8)
    z = _random_zeta(SPACE, 0.6)
    eye = np.eye(SPACE.n_indices, dtype=complex)
    a, a_plus = SPACE.lowering(y, eye), SPACE.raising(z, eye)
    comm = a @ a_plus - a_plus @ a
    pairing = np.sum(y * z)
    interior = SPACE.degrees <= SPACE.max_degree - 1
    block = comm[np.ix_(interior, interior)]
    expect = pairing * np.eye(int(np.sum(interior)))
    assert np.max(np.abs(block - expect)) < 1e-10


def test_second_quantization_properties():
    phi = _random_vec(SPACE)
    gamma = SPACE.gamma_matrix
    ident = gamma(np.eye(3)) @ phi
    assert np.max(np.abs(ident - phi)) < 1e-12
    killed = gamma(np.zeros((3, 3))) @ phi
    assert killed[0] == phi[0]
    assert np.max(np.abs(killed[1:])) == 0.0
    # multiplicativity with norm-bounded maps
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    A /= np.linalg.norm(A, 2)
    B /= np.linalg.norm(B, 2)
    lhs = gamma(A @ B) @ phi
    rhs = gamma(A) @ (gamma(B) @ phi)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    # coherent-state covariance
    zeta = _random_zeta(SPACE, 0.5)
    g = gamma(np.diag(SPACE.mode_weights)) @ SPACE.exp_vector(zeta)
    assert np.max(np.abs(g - SPACE.exp_vector(SPACE.mode_weights * zeta))) < 1e-12


def test_mode_norm_closed_form():
    # |y|_p^2 = sum_i w_i^(2p) |y_i|^2 with the default weights w = (2, 3)
    space = ChaosSpace(2, 3)
    y = np.array([3.0, 4.0j])
    assert space.mode_norm(y, 0) == 5.0
    assert space.mode_norm(y, 1) == pytest.approx(np.sqrt(6.0**2 + 12.0**2), rel=1e-15)
    assert space.mode_norm(y, 2) == pytest.approx(np.sqrt(12.0**2 + 36.0**2), rel=1e-15)
    # on a stack of vectors, one norm per row
    rows = np.array([[3.0, 4.0j], [0.0, 1.0]])
    assert space.mode_norm(rows, 1).tolist() == [space.mode_norm(r, 1) for r in rows]


def test_norm_values_and_monotonicity():
    norm = SPACE.norm
    assert norm(_vacuum(SPACE), 3, 0.7) == pytest.approx(1.0)
    first = _first_chaos(SPACE, [1.0, 0.0, 0.0])
    w1 = SPACE.mode_weights[0]
    assert norm(first, 2, 0.0) == pytest.approx(w1**2)
    phi = _random_vec(SPACE)
    # ||Phi||_0: sum alpha! |a_alpha|^2, bit for bit
    assert norm(phi, 0, 0.0) == float(np.sqrt(np.sum(SPACE.factorials * np.abs(phi) ** 2)))
    for p in (0, 1, 2):
        assert norm(phi, p, 0.0) <= norm(phi, p + 1, 0.0) + 1e-12
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        assert norm(phi, 1, lo) <= norm(phi, 1, hi) + 1e-12
    with pytest.raises(ValueError):
        norm(phi, 1, 1.5)


def test_s_transform_injective_on_truncation():
    # evaluations at n_indices generic vectors pin down the coefficients
    rng = np.random.default_rng(8)
    zs = [0.8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
          for _ in range(SPACE.n_indices)]
    M = np.stack([SPACE.monomials(z) for z in zs])
    assert np.linalg.cond(M) < 1e8


def test_operator_symbols():
    # the symbol <<Xi phi_zeta, phi_eta>> of an operator matrix Xi
    def symbol(xi, zeta, eta):
        return SPACE.s_transform(xi @ SPACE.exp_vector(zeta), eta)

    zeta, eta = _random_zeta(SPACE, 0.4), _random_zeta(SPACE, 0.4)
    eye = np.eye(SPACE.n_indices, dtype=complex)
    ip = np.sum(zeta * eta)
    assert abs(symbol(eye, zeta, eta) - np.exp(ip)) < 1e-3 * abs(np.exp(ip)) + 1e-3
    assert symbol(np.zeros_like(eye), zeta, eta) == 0.0
    y = _random_zeta(SPACE, 0.5)
    number = SPACE.raising(y, eye) @ SPACE.lowering(y, eye)
    got = symbol(number, zeta, eta)
    ref = np.sum(y * zeta) * np.sum(y * eta) * np.exp(ip)
    assert abs(got - ref) < 5e-3 * (1 + abs(ref))  # truncation tail only


def test_growth_bound_fit_constant_and_exp():
    fit = growth_bound_fit(lambda z: 1.0 + 0j, SPACE, p=1,
                           sample_radii=np.logspace(-1, 1, 8))
    assert fit.C == pytest.approx(1.0)
    assert fit.K == pytest.approx(0.0, abs=1e-12)
    assert fit.covered and fit.cr_residual < 1e-8

    eta = _random_zeta(SPACE, 0.5)
    F = lambda z: np.exp(np.sum(np.asarray(z) * eta))
    fit = growth_bound_fit(F, SPACE, p=1, sample_radii=np.logspace(-1, 1, 8))
    assert fit.covered and fit.K >= 0.0 and fit.cr_residual < 1e-8

    phi = _random_vec(SPACE)
    fit = growth_bound_fit(lambda z: SPACE.s_transform(phi, np.asarray(z)), SPACE, p=1,
                           sample_radii=np.logspace(-1, 1, 8))
    assert fit.covered and np.isfinite(fit.C)


def test_wick_nonlinearity_reduces_to_J_on_degree_zero():
    grid = make_grid(1, [16], [2 * np.pi])
    space = ChaosSpace(2, 3)
    rng = np.random.default_rng(5)
    for name in ("nls", "klein_gordon", "sine_gordon", "zakharov", "maxwell_dirac"):
        model = build_model(name, grid, p=3, sign=1, k0=1.0, m=1.0)
        st = model.random_smooth_state(rng, 0.4)
        wick = wick_nonlinearity(model, space, _deterministic(space, st))
        plain = model.apply_J(st)
        assert np.max(np.abs(wick[0] - plain)) < 1e-12
        assert np.max(np.abs(wick[1:])) == 0.0


def test_wick_cube_of_first_chaos_has_pure_degree_three():
    grid = make_grid(1, [8], [2 * np.pi])
    space = ChaosSpace(2, 4)
    model = build_model("nls", grid, p=3, sign=1, dealias=False)
    data = np.zeros((space.n_indices, 1) + grid.shape, dtype=complex)
    pos = space.position([1, 0])
    data[pos, 0] = 0.5 + 0.2j  # first-chaos, constant in space
    out = wick_nonlinearity(model, space, data)
    nonzero_degrees = {int(space.degrees[i]) for i in range(space.n_indices)
                       if np.max(np.abs(out[i])) > 1e-14}
    assert nonzero_degrees == {3}


def test_wick_sine_of_constant():
    grid = make_grid(1, [8], [2 * np.pi])
    space = ChaosSpace(2, 3)
    model = build_model("sine_gordon", grid, g=1.0, k0=1.0)
    st = np.full((2,) + grid.shape, np.pi / 2, dtype=complex)
    out = wick_nonlinearity(model, space, _deterministic(space, st))
    assert np.allclose(out[0, 1], 1.0, atol=1e-13)


def test_wick_power_requires_odd_exponent():
    grid = make_grid(1, [8], [2 * np.pi])
    model = build_model("nls", grid, p=4, sign=1)
    space = ChaosSpace(2, 3)
    st = model.random_smooth_state(np.random.default_rng(0), 0.3)
    with pytest.raises(ValueError):
        wick_nonlinearity(model, space, _deterministic(space, st))


def test_wick_nonlinearity_refuses_a_stack_of_the_wrong_shape():
    grid = make_grid(1, [8], [2 * np.pi])
    model = build_model("klein_gordon", grid, p=3, sign=1)
    space = ChaosSpace(2, 2)
    for shape in ((5, 2, 8), (6, 1, 8), (6, 2, 16), (6, 2)):
        with pytest.raises(ValueError, match=r"chaos state shape .*, expected \(6, 2, 8\)"):
            wick_nonlinearity(model, space, np.zeros(shape, dtype=complex))


def test_degree_energy_equals_per_block_norms_bit_for_bit():
    # one transform of the stack must give each block's metric_norm(...) ** 2;
    # 10,500 blocks, since squaring as x * x instead of pow(x, 2) changes
    # about one value in a thousand
    grid = make_grid(1, [16], [2 * np.pi])
    model = build_model("klein_gordon", grid, p=3, sign=1)
    space = ChaosSpace(3, 4)
    rng = np.random.default_rng(8)
    shape = (space.n_indices, 2) + grid.shape
    for _ in range(300):
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        per_index = [space.factorials[i] * model.generator.metric_norm(b) ** 2
                     for i, b in enumerate(data)]
        want = np.zeros(space.max_degree + 1)
        np.add.at(want, space.degrees, per_index)
        assert space.degree_energy(model.generator, data).tobytes() == want.tobytes()


def test_degree_energy_sums_each_degree_in_index_order():
    # the per-degree sums must round as a scatter-add over the indices in
    # table order; norms spread over many decades make the order visible
    grid = make_grid(1, [8], [2 * np.pi])
    model = build_model("klein_gordon", grid, p=3, sign=1)
    space = ChaosSpace(4, 4)
    assert space.n_indices == 70
    rng = np.random.default_rng(12)
    shape = (space.n_indices, 2) + grid.shape
    for _ in range(2000):
        scale = np.exp(rng.uniform(-8.0, 8.0, (space.n_indices, 1, 1)))
        data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        norms = model.generator.graph_norm_ladder(data, 0)[:, 0]
        per_index = space.factorials * np.array([n ** 2 for n in norms.tolist()])
        want = np.zeros(space.max_degree + 1)
        np.add.at(want, space.degrees, per_index)
        assert space.degree_energy(model.generator, data).tobytes() == want.tobytes()


def test_wick_evolution_zero_noise_reduces_to_deterministic():
    grid = make_grid(1, [16], [2 * np.pi])
    space = ChaosSpace(2, 3)
    model = build_model("sine_gordon", grid, g=1.0, k0=1.0)
    st = model.random_smooth_state(np.random.default_rng(6), 0.3)
    st = np.real(st).astype(complex)
    wick = solve_wick_evolution(model, st, [], 0.3, 0.01, space)
    from stochwave import solve_ito

    det = solve_ito(model, st, 0.3, 0.01, None)
    assert model.generator.metric_norm(wick.final[0] - det.final) < 1e-10
    assert np.max(np.abs(wick.final[1:])) == 0.0


def test_wick_evolution_refuses_an_initial_state_of_the_wrong_component_count():
    # a 1-component state once broadcast into both Klein-Gordon components
    # of the degree-0 block, and the solve ran
    grid = make_grid(1, [16], [2 * np.pi])
    model = build_model("klein_gordon", grid, p=3, sign=1)
    st = 0.1 * np.ones((1, 16))
    fields = default_covariance(grid, 2, 0.5, 2.0).noise_fields()
    with pytest.raises(ValueError, match=r"state shape \(1, 16\), expected \(2, 16\)"):
        solve_wick_evolution(model, st, fields, 0.02, 0.01, ChaosSpace(2, 2))


def test_wick_evolution_linear_closed_form():
    # J = 0, one noise mode q = c (constant), zero spatial mode: blocks follow
    # the coherent expansion Phi_k(t) = e^{-i a t} (c t)^k / k! phi0 + O(dt)
    grid = make_grid(1, [8], [1.0])
    space = ChaosSpace(1, 4)
    model = build_model("nls", grid, sign=0, smoothness=1)
    phi0 = np.ones((1,) + grid.shape, dtype=complex)
    c = 0.8
    from stochwave import Field

    q = Field(grid, c * np.ones(grid.shape))
    T = 1.0
    errs = []
    for dt in (0.02, 0.01, 0.005):
        wick = solve_wick_evolution(model, phi0, [q], T, dt, space)
        final = wick.final
        worst = 0.0
        for k in range(space.max_degree + 1):
            block = final[space.position([k]), 0]
            expect = (c * T) ** k / factorial(k)
            worst = max(worst, np.max(np.abs(block - expect)))
        errs.append(worst)
    assert errs[0] > errs[1] > errs[2]
    order = np.polyfit(np.log([0.02, 0.01, 0.005]), np.log(errs), 1)[0]
    assert order > 0.9


def test_wick_evolution_s_transform_tracks_picard():
    grid = make_grid(1, [16], [2 * np.pi])
    space = ChaosSpace(2, 4)
    model = build_model("sine_gordon", grid, g=1.0, k0=1.0)
    st = model.random_smooth_state(np.random.default_rng(7), 0.25)
    st = np.real(st).astype(complex)
    from stochwave import Field, ThetaPotential, default_covariance, picard_solve

    cov = default_covariance(grid, n_modes=2, lambda0=0.3, gamma=2.0)
    qfields = [Field(grid, np.sqrt(l) * e.values)
               for l, e in zip(cov.eigenvalues, cov.eigenfields)]
    theta = ThetaPotential(qfields)
    zeta = np.array([0.5, -0.3])
    diffs = []
    for dt in (0.02, 0.01):
        wick = solve_wick_evolution(model, st, qfields, 0.4, dt, space)
        s_state = space.s_transform(wick.final, zeta)
        pic = picard_solve(model, st, 0.4, theta, zeta, n_time_nodes=round(0.4 / dt) + 1,
                           tol=1e-12, max_iter=80)
        diffs.append(model.generator.metric_norm(s_state - pic.final))
    assert diffs[1] < diffs[0]
    assert diffs[0] / diffs[1] > 1.6  # O(dt) with a small truncation floor


def test_wick_evolution_flags_truncation_overflow():
    # strong coupling on a tiny truncation pushes energy into the top degree
    grid = make_grid(1, [8], [1.0])
    space = ChaosSpace(1, 2)
    model = build_model("nls", grid, sign=0, smoothness=1)
    phi0 = np.ones((1,) + grid.shape, dtype=complex)
    from stochwave import Field

    q = Field(grid, 6.0 * np.ones(grid.shape))
    wick = solve_wick_evolution(model, phi0, [q], 1.0, 0.01, space)
    assert wick.truncation_flagged
    assert np.max(wick.tail_fractions) > 0.2


def test_chaos_csv_export():
    # the chaos command's coefficient table: one row per multi-index of the
    # space, in table order, each pairing read back bit for bit
    cfg = ExperimentConfig.from_dict({
        "model": {"name": "nls", "sign": 0, "smoothness": 1},
        "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
        "initial": {"kind": "modes", "amplitude": 1.0, "modes": [[0, 1, 1.0, 0.0]]},
        "solver": {"T": 0.1, "dt": 0.0125},
        "noise": {"enabled": True, "n_modes": 3, "lambda0": 0.5},
        "chaos": {"n_modes": 3, "max_degree": 4}, "mc": {"n_paths": 4}})
    _, _, files = cmd_chaos(cfg, None)
    lines = _csv(files["chaos_coefficients.csv"]).splitlines()
    assert lines[0] == "multi_index,real,imag"
    assert len(lines) == SPACE.n_indices + 1
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [f"({' '.join(map(str, a))})" for a in SPACE.indices.tolist()]
    table = files["chaos_coefficients.csv"]
    assert np.array_equal([float(r[1]) for r in rows], table["real"])
    assert np.array_equal([float(r[2]) for r in rows], table["imag"])
    assert np.any(table["real"] != 0)


@pytest.mark.parametrize("n_modes, degree", [(2, 30), (3, 26)])
def test_factorials_are_exact_products_rounded_once(n_modes, degree):
    # an int64 product of the entries' factorials wraps above 2^63: on (2, 30)
    # 79 of 496 came out wrong, 52 of them negative
    space = ChaosSpace(n_modes, degree)
    want = [float(math.prod(factorial(a) for a in alpha)) for alpha in space.indices.tolist()]
    assert space.factorials.tolist() == want
    # <<E(z), E(z)>> = sum over |alpha| <= M of z^(2 alpha) / alpha!, which
    # sums by degree to the truncated series of exp(|z|^2)
    zeta = np.full(n_modes, 2.0)
    v = space.exp_vector(zeta)
    series = sum(Fraction(4 * n_modes) ** k / factorial(k) for k in range(degree + 1))
    assert space.pairing(v, v) == pytest.approx(float(series), rel=1e-14)
    # with the degree factorials |alpha|! the degree-d block sums to |z|^(2d)
    assert space.norm(v, 0, 1.0) ** 2 == pytest.approx(
        sum((4 * n_modes) ** d for d in range(degree + 1)), rel=1e-13)


def test_max_degree_stops_where_the_factorials_leave_the_floats():
    # alpha! <= |alpha|! and 170! ~ 7.3e306 is a float; 171! once raised
    # OverflowError from the factorial table
    assert ChaosSpace(1, 170).factorials[-1] == float(factorial(170))
    with pytest.raises(ValueError, match="max_degree must be from 0 to 170, got 171"):
        ChaosSpace(1, 171)


@pytest.mark.parametrize("n_modes, degree", [(1, 6), (2, 8), (3, 6), (6, 2), (6, 5), (8, 4),
                                             (10, 3), (12, 4)])
def test_pair_columns_equal_a_scan_of_every_pair(n_modes, degree):
    # each K's pairs in scan order, K's by pair count (a stable sort), column
    # c the c-th pair of each K with more than c: the table that the
    # sub-index enumeration must reproduce array for array
    space = ChaosSpace(n_modes, degree)
    groups = [[] for _ in range(space.n_indices)]
    for i, j, k in zip(*(col.tolist() for col in _pair_table(space))):
        groups[k].append((i, j))
    order = sorted(range(space.n_indices), key=lambda k: -len(groups[k]))
    columns, undo = space._pair_columns()
    assert len(columns) == len(groups[order[0]])
    for c, (I, J) in enumerate(columns):
        want = [groups[k][c] for k in order if len(groups[k]) > c]
        assert I.tolist() == [i for i, _ in want]
        assert J.tolist() == [j for _, j in want]
    assert undo.tolist() == np.argsort(order).tolist()
