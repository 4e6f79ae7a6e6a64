import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochwave import Field, build_model, make_grid


def test_unit_box_wavenumbers():
    g = make_grid(1, [8], [2 * np.pi])
    assert sorted(g.k_axes[0]) == pytest.approx([-4, -3, -2, -1, 0, 1, 2, 3])


def test_2d_tensor_grid():
    g = make_grid(2, [8, 8], [2 * np.pi, 2 * np.pi])
    assert g.size == 64
    assert g.k_squared.shape == (8, 8)


@pytest.mark.parametrize("bad", [
    dict(dim=1, points_per_axis=[7], lengths=[1.0]),      # odd
    dict(dim=1, points_per_axis=[2], lengths=[1.0]),      # tiny
    dict(dim=1, points_per_axis=[8], lengths=[-1.0]),     # bad length
    dict(dim=2, points_per_axis=[8], lengths=[1.0, 1.0]), # axis mismatch
    dict(dim=4, points_per_axis=[8] * 4, lengths=[1.0] * 4),
])
def test_make_grid_rejects(bad):
    with pytest.raises(ValueError):
        make_grid(**bad)


def test_wavenumbers_symmetric_up_to_nyquist():
    g = make_grid(1, [16], [3.0])
    k = g.k_axes[0]
    nonzero = [x for x in k if x != 0 and not np.isclose(abs(x), abs(k).max())]
    # every nonzero non-Nyquist mode has its mirror image
    for x in nonzero:
        assert any(np.isclose(y, -x) for y in nonzero)
    assert np.sum(np.isclose(np.abs(k), np.abs(k).max())) == 1  # lone Nyquist


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.floats(min_value=0.5, max_value=20.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_transform_round_trip(log2n, length, seed):
    g = make_grid(1, [2**log2n], [length])
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    back = g.to_physical(g.to_spectral(values))
    assert np.max(np.abs(back - values)) <= 1e-12 * max(np.max(np.abs(values)), 1.0)


def test_parseval_norm_agreement():
    g = make_grid(2, [8, 16], [1.0, 2.0])
    rng = np.random.default_rng(3)
    f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    spectral_norm = np.sqrt(np.sum(np.abs(g.to_spectral(f.values)) ** 2))
    assert f.norm() == pytest.approx(spectral_norm, rel=1e-13)


def test_field_inner_and_norm():
    g = make_grid(1, [8], [1.0])
    ones = Field(g, np.ones(g.shape))
    assert ones.inner(ones) == pytest.approx(1.0)   # unit box volume
    assert ones.norm() == pytest.approx(1.0)
    assert ones.values.dtype == np.complex128


def test_state_shape_mismatch_rejected():
    # a state is its (s, *grid.shape) array, checked where it enters a solver
    g = make_grid(1, [8], [1.0])
    with pytest.raises(ValueError, match=r"state shape \(2, 7\), expected \(2, 8\)"):
        build_model("klein_gordon", g).generator._as_state(np.zeros((2, 7)))


def test_operations_do_not_mutate_inputs():
    # the transforms write into fresh arrays: a read-only argument stays as it was
    g = make_grid(1, [8], [1.0])
    st_ = np.ones((1, 8), dtype=complex)
    st_.flags.writeable = False
    coeffs = g.to_spectral(st_)
    coeffs.flags.writeable = False
    assert np.array_equal(g.to_physical(coeffs), st_)
    assert np.array_equal(st_, np.ones((1, 8)))


@pytest.mark.parametrize("points", [[16], [8, 4], [4, 6, 8]])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_transforms_equal_fftn_bit_for_bit(points, lead):
    # the per-axis passes must reproduce fftn/ifftn exactly, stack axes or
    # not, and the forward transform a real float64 argument as fftn
    # transforms it (the inverse takes complex coefficients); each transform
    # returns a new complex array and never writes to its argument
    g = make_grid(len(points), points, [1.5] * len(points))
    rng = np.random.default_rng(len(points) + 3 * len(lead))
    real = rng.standard_normal(lead + g.shape)
    axes = tuple(range(len(lead), real.ndim))
    x = real + 1j * rng.standard_normal(lead + g.shape)
    cases = [(g.to_spectral, x, np.fft.fftn(x, axes=axes) * g._fft_scale),
             (g.to_spectral, real, np.fft.fftn(real, axes=axes) * g._fft_scale),
             (g.to_physical, x, np.fft.ifftn(x / g._fft_scale, axes=axes))]
    for transform, arg, expected in cases:
        snapshot = arg.tobytes()
        out = transform(arg)
        assert arg.tobytes() == snapshot
        assert out.dtype == np.complex128 and not np.shares_memory(out, arg)
        assert out.tobytes() == expected.tobytes()


def _same_bits(a, b):
    """Equal bit for bit, any NaN matching any NaN."""
    a, b = a.view(np.float64), b.view(np.float64)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("points,lengths", [([8], [2 * np.pi]), ([4, 6], [1.0, 3.0])])
def test_inverse_scaling_keeps_the_division_bits_on_specials(points, lengths):
    # to_physical multiplies complex input by (1/s) - 0j instead of dividing
    # by s. On a grid with 1/s > 1 the inverse transform of a constant array
    # of any pair of specials (signed zeros, infinities, NaN, subnormals, the
    # largest finite values) equals that of the quotient, zero signs included
    # (a +0j factor gets the real part of, e.g., -0 + 0j wrong)
    g = make_grid(len(points), points, lengths)
    assert 1.0 / g._fft_scale > 1.0
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                -2.2e-308, 1e308, -1e308, 1.5, -2.5]
    with np.errstate(all="ignore"):
        for re in specials:
            for im in specials:
                c = np.full((2,) + g.shape, complex(re, im))
                want = np.fft.ifftn(c / g._fft_scale, axes=tuple(range(1, c.ndim)))
                assert _same_bits(g.to_physical(c), want), (re, im)
