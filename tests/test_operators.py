import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stochwave import build_model, make_grid
from stochwave.operators import SpectralOperator, _abs_grad_symbol, _dirac_symbol


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, [16], [2 * np.pi])


def _random_state(grid, s, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((s,) + grid.shape) + 1j * rng.standard_normal((s,) + grid.shape)


def _apply(op, data):
    """The spectral action of ``op`` on a state's (s, *grid.shape) values: each
    coefficient vector times the dense symbol(k)."""
    g, s = op.grid, op.n_components
    flat = g.to_spectral(data).reshape(s, g.size)
    out = np.einsum("abm,bm->am", op.symbol.reshape(s, s, g.size), flat)
    return g.to_physical(out.reshape(data.shape))


def _operator(kind, grid, k0=1.0, m=1.0):
    """The generator block named ``kind``: a model's generator as ``build_model``
    states it, or a test-local ``SpectralOperator`` of one symbol helper."""
    if kind == "laplacian":  # A = -Lap, the NLS generator
        return build_model("nls", grid).generator
    if kind == "wave_block":
        return build_model("klein_gordon", grid, k0=k0).generator
    if kind == "zakharov_block":
        return build_model("zakharov", grid).generator
    if kind == "maxwell_dirac_block":
        return build_model("maxwell_dirac", grid, k0=k0, m=m).generator
    if kind == "shifted_sqrt":
        return SpectralOperator(grid, np.sqrt(grid.k_squared + k0**2)[None, None])
    if kind == "abs_grad":
        return SpectralOperator(grid, _abs_grad_symbol(grid)[None, None])
    assert kind == "dirac_1d"
    return SpectralOperator(grid, _dirac_symbol(grid, m))


def _identity(grid, s=1):
    return SpectralOperator(grid, np.eye(s).reshape((s, s) + (1,) * grid.dim) * np.ones(grid.shape))


def _mode_state(grid, wave, component=0, s=1):
    x = grid.x_axes[0]
    st_ = np.zeros((s,) + grid.shape, dtype=complex)
    st_[component] = np.exp(1j * wave * x)
    return st_


def test_symbol_values(grid):
    neg_lap = build_model("nls", grid).generator
    k = grid.k_axes[0]
    i2 = np.argmin(np.abs(k - 2.0))
    assert neg_lap.symbol[0, 0, i2] == pytest.approx(4.0)
    wave = build_model("klein_gordon", grid, k0=1.0).generator
    assert wave.metric[0, 0] == pytest.approx(1.0)  # B^2 = k^2 + k0^2 at k = 0
    assert wave.symbol[1, 0, 0] == pytest.approx(-1j)
    with pytest.raises(ValueError, match="k0 must be above 0, got 0.0"):
        build_model("klein_gordon", grid, k0=0.0)  # degenerate metric


def test_dirac_eigenvalues_at_zero_mode(grid):
    gen = build_model("maxwell_dirac", grid, k0=1.0, m=1.0).generator
    eig = np.linalg.eigvalsh(gen.symbol[0:2, 0:2, 0])
    assert eig == pytest.approx([-1.0, 1.0])
    # the one copy of the rule that the Dirac block lives on 1-d grids
    with pytest.raises(ValueError, match="1\\+1-dimensional"):
        build_model("maxwell_dirac", make_grid(2, [8, 8], [1.0, 1.0]))


def test_apply_laplacian_plane_wave(grid):
    neg_lap = build_model("nls", grid).generator
    st_ = _mode_state(grid, 1)
    assert np.allclose(_apply(neg_lap, st_), st_, atol=1e-13)


def test_apply_identity_and_b_squared(grid):
    ident = _identity(grid)
    st_ = _random_state(grid, 1, seed=1)
    assert np.allclose(_apply(ident, st_), st_, atol=1e-13)
    B = _operator("shifted_sqrt", grid, k0=2.0)
    const = np.full((1,) + grid.shape, 1.5 + 0.5j)
    assert np.allclose(_apply(B, _apply(B, const)), 4.0 * const, atol=1e-12)


def test_free_schrodinger_phase(grid):
    # generator A = -Lap, so the k = 1 multiplier is exp(-i t)
    neg_lap = build_model("nls", grid).generator
    st_ = _mode_state(grid, 1)
    out = neg_lap.propagate(0.5, st_)
    assert np.allclose(out, np.exp(-0.5j) * st_, atol=1e-13)


def test_propagate_t_zero_identity(grid):
    wave = build_model("klein_gordon", grid, k0=1.0).generator
    st_ = _random_state(grid, 2, seed=2)
    assert np.allclose(wave.propagate(0.0, st_), st_, atol=1e-13)


def test_wave_zero_mode_rotation(grid):
    # k = 0, k0 = 1: (1, 0) -> (cos t, -sin t)
    wave = build_model("klein_gordon", grid, k0=1.0).generator
    st_ = np.zeros((2,) + grid.shape, dtype=complex)
    st_[0] = 1.0
    t = 0.73
    out = wave.propagate(t, st_)
    assert np.allclose(out[0], np.cos(t), atol=1e-12)
    assert np.allclose(out[1], -np.sin(t), atol=1e-12)


def test_wave_propagator_closed_form(grid):
    wave = build_model("klein_gordon", grid, k0=1.3).generator
    t = 0.41
    P = wave.propagator_matrices(t)
    k = grid.k_axes[0]
    for i in range(grid.size):
        b = np.sqrt(k[i] ** 2 + 1.3**2)
        closed = np.array([[np.cos(t * b), np.sin(t * b) / b],
                           [-b * np.sin(t * b), np.cos(t * b)]])
        assert np.max(np.abs(P[i] - closed)) < 1e-12
        oracle = expm(-1j * t * wave.symbol[:, :, i])
        assert np.max(np.abs(P[i] - oracle)) < 1e-12


def test_dirac_dispersion_eigenphases(grid):
    m = 0.7
    # the Dirac block [0:2, 0:2] of the block-diagonal Maxwell-Dirac generator
    gen = build_model("maxwell_dirac", grid, k0=1.0, m=m).generator
    t = 0.9
    P = gen.propagator_matrices(t)[:, 0:2, 0:2]
    k = gen.symbol[0, 1].real.ravel()  # Nyquist-zeroed momenta
    for i in range(grid.size):
        om = np.sqrt(k[i] ** 2 + m**2)
        expected = np.array([np.exp(-1j * om * t), np.exp(1j * om * t)])
        got = np.linalg.eigvals(P[i])
        direct = max(abs(got[0] - expected[0]), abs(got[1] - expected[1]))
        swapped = max(abs(got[0] - expected[1]), abs(got[1] - expected[0]))
        assert min(direct, swapped) < 1e-12


def test_propagate_requires_hermitian(grid):
    sym = np.zeros((1, 1) + grid.shape, dtype=complex)
    sym[0, 0] = 1j * (1 + grid.k_squared)  # anti-Hermitian
    op = SpectralOperator(grid, sym)
    assert not op.hermitian
    with pytest.raises(ValueError):
        op.propagate(0.1, _random_state(grid, 1))


def test_propagator_cache_shared_by_stacks_and_states(grid, monkeypatch):
    wave = build_model("klein_gordon", grid, k0=1.0).generator
    built = []
    build = wave.propagator_matrices
    monkeypatch.setattr(wave, "propagator_matrices", lambda t: built.append(t) or build(t))
    st_ = _random_state(grid, 2, seed=4)
    stack = np.stack([st_, 2.0 * st_])
    first = wave.propagate(0.3, stack)
    second = wave.propagate(0.3, stack)
    single = wave.propagate(0.3, st_)
    assert built == [0.3]
    assert np.array_equal(first, second)
    assert np.allclose(single, first[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("s", [1, 2, 6])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_propagate_equals_the_per_mode_matrix_product_bit_for_bit(s, dim):
    rng = np.random.default_rng(10 * s + dim)
    g = make_grid(dim, [8, 6, 4][:dim], [2 * np.pi, 3.0, 5.0][:dim])
    X = rng.standard_normal((s, s) + g.shape) + 1j * rng.standard_normal((s, s) + g.shape)
    op = SpectralOperator(g, X + np.conj(np.swapaxes(X, 0, 1)))
    t = 0.37
    for B in (1, 7):
        data = rng.standard_normal((B, s) + g.shape) + 1j * rng.standard_normal((B, s) + g.shape)
        data[rng.random(data.shape) < 0.2] = -0.0
        data[rng.random(data.shape) < 0.1] *= 1e-310  # subnormal
        coeffs = g.to_spectral(data).reshape(B, s, g.size)
        if s == 1:
            out = coeffs * np.exp(-1j * t * np.real(op.symbol.reshape(1, 1, g.size)[0, 0]))
        else:
            out = np.einsum("mab,nbm->nam", op.propagator_matrices(t), coeffs)
        want = g.to_physical(out.reshape(data.shape))
        snapshot = data.tobytes()
        assert op.propagate(t, data).tobytes() == want.tobytes()
        assert op.propagate(t, data[0]).tobytes() == want[0].tobytes()
        assert op.propagate(t, data[None]).tobytes() == want[None].tobytes()
        assert data.tobytes() == snapshot


@pytest.mark.parametrize("s", [2, 6])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_diagonal_symbols_equal_the_dense_contraction_bit_for_bit(s, dim):
    # a diagonal symbol contracts only its diagonals; on finite coefficients,
    # signed zeros and subnormals included, that is the dense einsum's result
    rng = np.random.default_rng(100 + 10 * s + dim)
    g = make_grid(dim, [8, 6, 4][:dim], [2 * np.pi, 3.0, 5.0][:dim])
    sym = np.zeros((s, s) + g.shape, dtype=complex)
    for a in range(s):
        d = rng.standard_normal(g.shape)
        d[rng.random(g.shape) < 0.2] = -0.0
        sym[a, a] = d
    sym[1, 1].flat[0] = sym[0, 0].flat[0]  # a degenerate mode
    op = SpectralOperator(g, sym)
    assert op.diagonal and op.hermitian
    dense = sym.reshape(s, s, g.size)
    t = -0.83
    for B in (1, 5):
        data = rng.standard_normal((B, s) + g.shape) + 1j * rng.standard_normal((B, s) + g.shape)
        data[rng.random(data.shape) < 0.2] = -0.0
        data[rng.random(data.shape) < 0.1] *= 1e-310  # subnormal
        coeffs = g.to_spectral(data).reshape(B, s, g.size)
        out = np.einsum("mab,nbm->nam", op.propagator_matrices(t), coeffs)
        want = g.to_physical(out.reshape(data.shape))
        assert op.propagate(t, data).tobytes() == want.tobytes()
        assert op.propagate(t, data[0]).tobytes() == want[0].tobytes()
        state = data[0]
        ladder, c = [], g.to_spectral(state).reshape(s, g.size)
        for _ in range(3):
            ladder.append(np.sqrt(np.sum(np.ones((s, g.size)) * np.abs(c) ** 2).real))
            c = np.einsum("abm,bm->am", dense, c)
        assert op.graph_norm_ladder(state, 2).tobytes() == np.array(ladder).tobytes()


def _einsum_ladder(op, data, j_max):
    """The graph-norm ladder of a diagonal symbol with every power by the
    element-wise einsum of its diagonals."""
    g, s = op.grid, op.n_components
    flat = g.to_spectral(data).reshape(len(data), s, g.size)
    diag = np.diagonal(op.symbol.reshape(s, s, g.size), axis1=0, axis2=1).T
    weights = np.ones((s, g.size)) if op.metric is None else op.metric.reshape(s, g.size)
    out = []
    for _ in range(j_max + 1):
        out.append(np.sqrt(np.sum(weights * np.abs(flat) ** 2, axis=(1, 2)).real))
        flat = np.einsum("am,...am->...am", diag, flat)
    return np.stack(out, axis=1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_real_diagonal_norm_powers_equal_the_einsum_ladder_on_non_finite_values(
        dim, weighted):
    # a real diagonal raises its norm powers by numpy's product, which warns on
    # 0 * inf and on overflow where einsum is silent: on inf, NaN, overflowing
    # and subnormal coefficients the ladder keeps einsum's bits, and it warns
    # only where the einsum ladder warns: an inf coefficient times the
    # transform's scale, or a finite power whose square overflows
    g = make_grid(dim, [8, 6][:dim], [2 * np.pi, 3.0][:dim])
    rng = np.random.default_rng(60 + dim)
    sym = np.zeros((2, 2) + g.shape, dtype=complex)
    sym[0, 0] = g.k_squared  # 0 at the zero mode: 0 * inf there
    sym[1, 1] = -1e200 * rng.random(g.shape)  # 1e150 coefficients overflow
    sym[1, 1].flat[1] = -0.0
    metric = 1.0 + rng.random((2,) + g.shape) if weighted else None
    op = SpectralOperator(g, sym, metric)
    assert op.diagonal and op.hermitian
    data = rng.standard_normal((6, 2) + g.shape) + 1j * rng.standard_normal((6, 2) + g.shape)
    data[rng.random(data.shape) < 0.2] = -0.0
    data[0, 0].flat[3] = np.inf
    data[1, 1].flat[2] = complex(-np.inf, np.nan)
    data[2, 0].flat[0] = np.nan
    data[3] *= 1e150
    data[4] *= 1e-310  # subnormal
    data[5, 1].flat[4] = complex(0.0, -np.inf)
    for stack in (data, data[2:5]):
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = _einsum_ladder(op, stack, 3)
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = op.graph_norm_ladder(stack, 3)
        assert got.tobytes() == want.tobytes()
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]
    # the last stack: a NaN block; one whose power overflows to inf, and whose
    # next power meets the -0 entry as 0 * inf = NaN; a subnormal block
    assert np.isnan(want[0]).all() and np.isfinite(want[2, :3]).all()
    assert np.isinf(want[1, 1]) and np.isnan(want[1, 2:]).all()


def test_diagonal_flag():
    g = make_grid(1, [8], [2 * np.pi])
    assert build_model("zakharov", g).generator.diagonal
    assert _identity(g, s=3).diagonal
    for name in ("nls", "klein_gordon", "maxwell_dirac"):
        assert not build_model(name, g).generator.diagonal
    assert not _operator("dirac_1d", g, m=0.5).diagonal
    assert not _identity(g).diagonal
    # a complex diagonal is not a diagonal symbol: a metric-Hermitian one is real
    sym = np.zeros((2, 2) + g.shape, dtype=complex)
    sym[0, 0], sym[1, 1] = g.k_squared, 1j * g.k_squared
    assert not SpectralOperator(g, sym).diagonal


@pytest.mark.parametrize("kind,params,s", [
    ("laplacian", {}, 1),
    ("wave_block", {"k0": 1.0}, 2),
    ("zakharov_block", {}, 2),
    ("maxwell_dirac_block", {"k0": 1.0, "m": 1.0}, 6),
])
def test_metric_norms_equal_the_single_state_formula_bit_for_bit(grid, kind, params, s):
    op = _operator(kind, grid, **params)
    g = np.ones((s, grid.size)) if op.metric is None else op.metric.reshape(s, grid.size)
    states = [_random_state(grid, s, seed=seed) for seed in range(12)]
    want = np.array([np.sqrt(np.sum(g * np.abs(grid.to_spectral(st_).reshape(s, grid.size)) ** 2).real)
                     for st_ in states])
    blocks = op.graph_norm_ladder(np.stack(states), 0)[:, 0]
    assert blocks.tobytes() == want.tobytes()
    assert np.array([op.metric_norm(st_) for st_ in states]).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, kind, params", [
    (1, "laplacian", {}),
    (2, "laplacian", {}),
    (1, "zakharov_block", {}),
    (2, "zakharov_block", {}),
    (1, "wave_block", {"k0": 1.0}),
    (2, "wave_block", {"k0": 1.0}),
    (1, "maxwell_dirac_block", {"k0": 1.0, "m": 1.0}),
])
def test_graph_norm_ladder_blocks_equal_the_per_state_ladder_bit_for_bit(dim, kind, params):
    # scalar, diagonal and dense-with-metric symbols: a block's ladder is the
    # per-state ladder and the single-state formula, whatever the stack
    g = make_grid(dim, [8, 6][:dim], [2 * np.pi, 3.0][:dim])
    op = _operator(kind, g, **params)
    s = op.n_components
    dense = op.symbol.reshape(s, s, g.size)
    weights = np.ones((s, g.size)) if op.metric is None else op.metric.reshape(s, g.size)
    rng = np.random.default_rng(40 + dim)
    for B in (1, 7):
        data = rng.standard_normal((B, s) + g.shape) + 1j * rng.standard_normal((B, s) + g.shape)
        data[rng.random(data.shape) < 0.2] = -0.0
        blocks = op.graph_norm_ladder(data, 3)
        assert blocks.shape == (B, 4)
        assert op.graph_norm_ladder(data.reshape((1, B, s) + g.shape), 3).shape == (1, B, 4)
        for k in range(B):
            state = data[k]
            assert blocks[k].tobytes() == op.graph_norm_ladder(state, 3).tobytes()
            ladder, c = [], g.to_spectral(state).reshape(s, g.size)
            for _ in range(4):
                ladder.append(np.sqrt(np.sum(weights * np.abs(c) ** 2).real))
                c = np.einsum("abm,bm->am", dense, c)
            assert blocks[k].tobytes() == np.array(ladder).tobytes()
    with pytest.raises(ValueError):
        op.graph_norm_ladder(data, -1)


def test_shape_mismatch_rejected(grid):
    # the one state check: the shape (s, *grid.shape) of the generator, its
    # one message, and the complex cast that it makes once (no copy when the
    # array is complex already)
    lap = build_model("nls", grid).generator
    for bad in (_random_state(grid, 2), _random_state(grid, 1)[0], _random_state(grid, 1)[None],
                _random_state(make_grid(1, [8], [2 * np.pi]), 1)):
        with pytest.raises(ValueError, match=r"^state shape \(.*\), expected \(1, 16\)$"):
            lap._as_state(bad)
    good = _random_state(grid, 1)
    assert lap._as_state(good) is good
    real = np.ones((1,) + grid.shape)
    assert lap._as_state(real).dtype == complex and np.array_equal(lap._as_state(real), real)


@pytest.mark.parametrize("kind,params,s", [
    ("laplacian", {}, 1),
    ("shifted_sqrt", {"k0": 1.0}, 1),
    ("abs_grad", {}, 1),
    ("wave_block", {"k0": 1.0}, 2),
    ("dirac_1d", {"m": 0.5}, 2),
    ("zakharov_block", {}, 2),
    ("maxwell_dirac_block", {"k0": 1.0, "m": 1.0}, 6),
])
def test_unitarity_and_group_law(grid, kind, params, s):
    op = _operator(kind, grid, **params)
    assert op.hermitian
    rng = np.random.default_rng(5)
    for seed in range(5):
        st_ = _random_state(grid, s, seed=seed)
        t1, t2 = rng.uniform(-5, 5, size=2)
        n0 = op.metric_norm(st_)
        moved = op.propagate(t1, st_)
        assert abs(op.metric_norm(moved) / n0 - 1) < 1e-12
        twice = op.propagate(t2, moved)
        direct = op.propagate(t1 + t2, st_)
        assert op.metric_norm(twice - direct) < 1e-12 * n0


def test_graph_norm_values(grid):
    neg_lap = build_model("nls", grid).generator
    st_ = _mode_state(grid, 2)
    st_ = st_ * (1.0 / neg_lap.metric_norm(st_))
    assert neg_lap.graph_norm_ladder(st_, 2) == pytest.approx([1.0, 4.0, 16.0], rel=1e-12)
    with pytest.raises(ValueError, match="graph_norm power j must be at least 0, got -1"):
        neg_lap.graph_norm_ladder(st_, -1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2))
def test_graph_norm_monotone_under_truncation(seed, j):
    grid = make_grid(1, [16], [2 * np.pi])
    op = build_model("nls", grid).generator
    st_ = _random_state(grid, 1, seed=seed)
    full = op.graph_norm_ladder(st_, j)[j]
    coeffs = grid.to_spectral(st_)
    keep = np.abs(grid.k_axes[0]) <= 2.0
    truncated = grid.to_physical(coeffs * keep)
    assert op.graph_norm_ladder(truncated, j)[j] <= full + 1e-12


def test_metric_hermiticity_flag_tolerance(grid):
    wave = build_model("klein_gordon", grid, k0=1.0).generator
    g = wave._flat_metric()
    S = wave._flat_symbol()
    GS = g[:, None, :] * S
    dev = np.max(np.abs(GS - np.conj(np.transpose(GS, (1, 0, 2)))))
    assert dev < 1e-13 * (1 + np.max(np.abs(GS)))


@pytest.mark.parametrize("dim, kind, params", [
    (1, "laplacian", {}),
    (2, "laplacian", {}),
    (1, "zakharov_block", {}),
    (2, "zakharov_block", {}),
    (1, "wave_block", {"k0": 1.0}),
    (1, "maxwell_dirac_block", {"k0": 1.0, "m": 1.0}),
])
def test_metric_inner_blocks_equal_the_single_state_pairing_bit_for_bit(dim, kind, params):
    # g * a * conj(b) per block, with the weights multiplied even when they
    # are all 1: (1 + 0j) * (-0 - 0j) is +0 - 0j, so skipping them would
    # flip signed zeros; zero components give such coefficients
    g = make_grid(dim, [8, 6][:dim], [2 * np.pi, 3.0][:dim])
    op = _operator(kind, g, **params)
    s = op.n_components
    weights = np.ones((s, g.size)) if op.metric is None else op.metric.reshape(s, g.size)
    rng = np.random.default_rng(60 + dim)
    for B in (1, 7):
        data = rng.standard_normal((B, s) + g.shape) + 1j * rng.standard_normal((B, s) + g.shape)
        data[rng.random(data.shape) < 0.2] = -0.0
        data[-1, 0] = -0.0
        b = np.where(rng.random((s,) + g.shape) < 0.5, -0.0, data[0])
        b[-1] = complex(-0.0, -0.0)
        pairs = op.metric_inner(data, b)
        assert pairs.shape == (B,)
        cb = g.to_spectral(b).reshape(s, g.size)
        for k in range(B):
            want = np.array(complex(np.sum(weights * g.to_spectral(data[k]).reshape(s, g.size)
                                           * np.conj(cb))))
            assert pairs[k].tobytes() == want.tobytes()
            assert op.metric_inner(data[k], b).shape == ()
            assert op.metric_inner(data[k], b).tobytes() == want.tobytes()
