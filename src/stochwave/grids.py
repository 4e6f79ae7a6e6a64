"""Periodic grids, complex lattice fields, and multi-component states.

All spatial discretization lives here: uniform periodic lattices on
[0, L_1) x ... x [0, L_d), unitary Fourier transforms (Parseval scaling, so
L2 norms agree between the physical and spectral views), and the value
semantics shared by every downstream module: operations never mutate their
inputs, grids are immutable and freely shareable.

The transforms call numpy's own pocketfft kernels, the gufuncs
``numpy.fft._pocketfft_umath.fft`` and ``.ifft`` (numpy >= 2.0), one 1-D pass
per grid axis, last axis first. Those are the kernels that ``np.fft.fft`` and
``ifft`` call, given here the same normalisation factor (1 forward, 1/n
inverse), and last axis first is the order in which ``fftn`` runs its own 1-D
passes, so the coefficients are those of ``np.fft.fftn``/``ifftn`` bit for bit,
without the cost of numpy's Python wrappers and their temporaries on every
call. The first pass runs on the last axis, the gufunc's default core axis,
so it is called without an ``axes`` list (the same bits, less argument
parsing); the later passes, their axes lists and the scale factors are cached
per grid. The forward transform writes its first pass into a fresh complex
array and runs every later pass, and the unitary scaling, in place on it; the
inverse takes complex coefficients, undoes the scaling into a fresh array and
runs its passes in place on that. Neither transform modifies its argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath

_COMPLEX = np.dtype(complex)
MAX_GRID_POINTS = 1 << 22  # 2048 x 2048: a fixed bound on every array's size


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on the box [0, L_1) x ... x [0, L_d).

    Wavenumbers are the angular frequencies 2*pi*n/L_j per axis in FFT
    ordering; the set is symmetric about zero except for the single
    unpaired Nyquist mode on each axis.
    """

    dim: int
    npts: tuple[int, ...]
    lengths: tuple[float, ...]

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.npts)

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.npts))

    @cached_property
    def dv(self) -> float:
        """Volume of one lattice cell."""
        return float(np.prod([L / n for L, n in zip(self.lengths, self.npts)]))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def k_axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis angular wavenumbers in FFT ordering."""
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
            for n, L in zip(self.npts, self.lengths)
        )

    @cached_property
    def x_axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.arange(n) * (L / n) for n, L in zip(self.npts, self.lengths)
        )

    @cached_property
    def k_mesh(self) -> tuple[np.ndarray, ...]:
        """Open (broadcastable) meshgrid of wavenumbers."""
        return tuple(np.meshgrid(*self.k_axes, indexing="ij", sparse=True))

    @cached_property
    def x_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.x_axes, indexing="ij", sparse=True))

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for km in self.k_mesh:
            out = out + km**2
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule mask: keep |mode index| <= floor(n/3) per axis, as
        complex 1 and 0, the cast that a product of complex coefficients with
        a bool mask makes on every call (the same bits), made once."""
        keep = np.ones(self.shape, dtype=bool)
        for ax, n in enumerate(self.npts):
            idx = np.abs(np.fft.fftfreq(n) * n)
            ax_keep = idx <= n // 3
            shape = [1] * self.dim
            shape[ax] = n
            keep &= ax_keep.reshape(shape)
        return keep.astype(_COMPLEX)

    @cached_property
    def _fft_scale(self) -> float:
        # Parseval-unitary scaling: sum_k |f_hat|^2 == sum_x |f|^2 * dv.
        return float(np.sqrt(self.dv / self.size))

    @cached_property
    def _fwd_fft_scale(self) -> np.ndarray:
        # s + 0j, the factor of to_spectral: numpy multiplies a complex array
        # by a float s as by s + 0j, and a complex 0-d array spares it the
        # conversion on every call, with the same bits
        return np.array(complex(self._fft_scale, 0.0))

    @cached_property
    def _inv_fft_scale(self) -> np.ndarray:
        # (1/s) - 0j, the factor by which to_physical multiplies its input
        return np.array(complex(1.0 / self._fft_scale, -0.0))

    @cached_property
    def _inv_n_last(self) -> float:
        # the inverse factor 1/n of the first (last-axis) pass
        return 1.0 / self.npts[-1]

    @cached_property
    def _fft_rest(self) -> tuple[tuple[list, float], ...]:
        # the passes after the first, one per remaining grid axis of a
        # (..., *shape) array, last first as fftn visits them: the gufunc
        # axes of the 1-D pass and its inverse factor 1/n
        return tuple(
            ([(axis,), (), (axis,)], 1.0 / self.npts[axis])
            for axis in range(-2, -self.dim - 1, -1)
        )

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Forward transform (unitary). Works on (..., *shape) arrays."""
        out = np.empty(values.shape, _COMPLEX)
        # the gufunc's factor is a double: a float spares the int's conversion
        _pocketfft_umath.fft(values, 1.0, out)
        for axes, _ in self._fft_rest:
            _pocketfft_umath.fft(out, 1.0, out, axes=axes)
        out *= self._fwd_fft_scale
        return out

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform (unitary) of complex (..., *shape) coefficients.

        numpy divides a complex array by the scale s as by s + 0j, by Smith's
        terms (re + im*0) * (1/s) and (im - re*0) * (1/s). The coefficients
        are instead multiplied by (1/s) - 0j, which forms re*(1/s) + im*0 and
        im*(1/s) - re*0: the same bits (NaN sign and payload aside) at a
        fraction of the cost. The one exception is a grid with 1/s < 1
        (volume > size**2), where a product that underflows to zero can take
        the other zero's sign.
        """
        out = coeffs * self._inv_fft_scale
        _pocketfft_umath.ifft(out, self._inv_n_last, out)
        for axes, inv_n in self._fft_rest:
            _pocketfft_umath.ifft(out, inv_n, out, axes=axes)
        return out


def make_grid(dim: int, points_per_axis, lengths) -> Grid:
    """Build a periodic grid, rejecting odd or tiny sizes and bad lengths."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim!r}")
    points = tuple(int(n) for n in np.atleast_1d(points_per_axis))
    lens = tuple(float(L) for L in np.atleast_1d(lengths))
    if len(points) != dim or len(lens) != dim:
        raise ValueError(f"points and lengths must each have dim = {dim} entries, "
                         f"got {points_per_axis!r} and {lengths!r}")
    for n in points:
        if n < 4:
            raise ValueError(f"grid needs at least 4 points per axis, got {n}")
        if n % 2 != 0:
            raise ValueError(f"points per axis must be even, got {n}")
    if math.prod(points) > MAX_GRID_POINTS:
        raise ValueError(f"points must number at most {MAX_GRID_POINTS} in all, "
                         f"got {math.prod(points)}")
    for L in lens:
        if not 0 < L < np.inf:
            raise ValueError(f"axis lengths must be positive and finite, got {L}")
    return Grid(dim=int(dim), npts=points, lengths=lens)


@dataclass
class Field:
    """Complex scalar function on a grid, stored in physical space."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dv))

    def inner(self, other: "Field") -> complex:
        """L2 pairing int f * conj(g) dx."""
        return complex(np.sum(self.values * np.conj(other.values)) * self.grid.dv)


@dataclass
class State:
    """Ordered bundle of components on a shared grid.

    Stored as one (s, *grid.shape) complex array so spectral operators can
    act on all components at once.
    """

    grid: Grid
    data: np.ndarray
    roles: tuple[str, ...]

    def __post_init__(self):
        if type(self.data) is not np.ndarray or self.data.dtype is not _COMPLEX:
            self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (len(self.roles),) + self.grid.shape:
            raise ValueError(
                f"state shape {self.data.shape} incompatible with "
                f"{len(self.roles)} roles on grid {self.grid.shape}"
            )

    @property
    def n_components(self) -> int:
        return len(self.roles)

    @classmethod
    def zeros(cls, grid: Grid, roles) -> "State":
        roles = tuple(roles)
        return cls(grid, np.zeros((len(roles),) + grid.shape, dtype=complex), roles)

    def spectral(self) -> np.ndarray:
        return self.grid.to_spectral(self.data)

    @classmethod
    def from_spectral(cls, grid: Grid, coeffs: np.ndarray, roles) -> "State":
        return cls(grid, grid.to_physical(coeffs), tuple(roles))

    def copy(self) -> "State":
        return State(self.grid, self.data.copy(), self.roles)

    def __add__(self, other):
        return State(self.grid, self.data + other.data, self.roles)

    def __sub__(self, other):
        return State(self.grid, self.data - other.data, self.roles)

    def __mul__(self, c):
        return State(self.grid, self.data * c, self.roles)

    __rmul__ = __mul__
