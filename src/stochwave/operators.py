"""Spectral multiplier operators, exact free propagators, and graph norms.

Every linear operator here is diagonal in Fourier space: for each wavenumber
vector k it carries an s x s complex matrix ``symbol(k)`` acting on the
component vector of a state. Wave-type blocks are self-adjoint with respect
to an energy inner product rather than the plain component-wise L2 product;
that inner product is encoded as a positive diagonal per-mode metric, and
"hermitian" throughout this module means metric-Hermitian. The propagator
exp(-i*t*A) is then exactly metric-norm preserving mode by mode.

``models.build_model`` states each model's generator from the grid's k^2
(-Lap) and the symbol helpers below: |k| (|grad|), the 2x2 wave block
i[[0,1],[-B^2,0]] with B = sqrt(-Lap + k0^2) and the energy metric (B^2, 1)
(propagator [[cos tB, B^-1 sin tB], [-B sin tB, cos tB]]), the 1+1-dimensional
Dirac symbol sigma1*k + sigma3*m, and the 6x6 Maxwell-Dirac block Dirac(m)
plus two wave pairs.

The unpaired Nyquist mode is zeroed inside odd-order symbols (|grad|, the
Dirac momentum) so real fields stay real under the operator.

Per-mode matrices are held as (s, s, M) arrays, the layout of the symbol,
so every contraction with an (s, M) or (B, s, M) coefficient stack runs
over contiguous memory; ``propagator_matrices`` returns the (M, s, s) form.

Each action has one entry point, and each takes a state's (s, *grid.shape)
array or a stack of them with any leading shape: the free flow is
``propagate``, the symbol acts on spectral coefficients through
``apply_spectral``, every norm comes from ``graph_norm_ladder``, the graph
norms ||A^j phi|| of each state, and every pairing from ``metric_inner``. The
metric (H-) norm is the ladder's j = 0 column (``metric_norm`` for one
state), and a single graph norm is one entry of a ladder. A stack's entries
have the bits of each state alone. ``_as_state`` is the one check of a state
array's shape, made where a state enters a solver or a command.

Two structures are detected once, at construction, and skip work that they
make trivial. A diagonal symbol (s > 1, every off-diagonal entry exactly
zero, as for the Zakharov block) keeps only the (s, M) diagonals of its
symbol and of its propagators, and contracts with an element-wise einsum
instead of the dense per-mode one. On finite coefficients the off-diagonal
terms that this drops are signed zeros, and einsum sums into an output that
starts at +0 either way, so the results are the same to the bit. (A
non-finite coefficient differs: the dense form spreads it to every component
of its mode as 0 * inf = NaN, the element-wise form keeps it in its own.)
numpy's ``*`` is not used for this: its complex product rounds differently
from einsum's, and it does not add to +0, so it keeps a -0. The one exception
is a norm power of a real diagonal (every imaginary part exactly zero, as in
Zakharov's diag(k^2, -|k|)), which ``graph_norm_ladder`` raises by
``_diag * flat``: each part of d * c is then one product and a signed zero,
rounded once whether or not the product is fused, so only the sign of a zero
can differ from einsum's, and the ladder reads moduli alone. 0 * inf gives
NaN in both. The product runs with numpy's overflow and invalid warnings off,
as silent as einsum. An unweighted operator (``metric`` None, plain L2) sums
the squared moduli directly, which is exact since g * x with g = 1.0 is x.

The propagator's plan is fixed at construction as well: s = 1 multiplies
the cached per-mode phases in place, a diagonal symbol contracts its cached
(s, M) diagonals with "am,nam->nam", any other its (s, s, M) matrices with
"abm,nbm->nam". A call of ``propagate``, on one state or a stack, is then
the cache lookup, one forward transform, the contraction and one inverse
transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import _COMPLEX, Grid, _bound

HERMITICITY_TOL = 1e-13


@dataclass
class SpectralOperator:
    """Per-wavenumber matrix multiplier with optional diagonal metric.

    ``symbol`` has shape (s, s, *grid.shape); ``metric`` is None (plain L2)
    or a positive (s, *grid.shape) weight array defining the inner product
    <u, v> = sum_k sum_a g_a(k) u_a(k) conj(v_a(k)) on spectral coefficients.
    Immutable after construction; derived caches are lazy.

    ``diagonal`` is set when s > 1 and every off-diagonal symbol entry is
    exactly 0; ``propagate`` and ``apply_spectral`` then contract the (s, M)
    diagonals element-wise with ``np.einsum``, bit for bit the dense
    contraction on finite coefficients, and the norm ladder raises real
    diagonals by numpy's product (see the module doc). With ``metric`` None
    the norms skip the product with unit weights.
    """

    grid: Grid
    symbol: np.ndarray
    metric: np.ndarray | None = None
    hermitian: bool = field(init=False)
    diagonal: bool = field(init=False)
    _diag: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _real_diag: bool = field(default=False, init=False, repr=False, compare=False)
    _contract: str | None = field(default=None, init=False, repr=False, compare=False)
    _eig: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _prop_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.symbol = np.asarray(self.symbol, dtype=complex)
        s = self.symbol.shape[0]
        if self.symbol.shape[:2] != (s, s) or self.symbol.shape[2:] != self.grid.shape:
            raise ValueError(f"symbol shape {self.symbol.shape} invalid for grid")
        if self.metric is not None:
            self.metric = np.asarray(self.metric, dtype=float)
            if self.metric.shape != (s,) + self.grid.shape:
                raise ValueError("metric shape must be (s, *grid.shape)")
            if np.any(self.metric <= 0):
                raise ValueError("metric weights must be positive")
        self.hermitian = self._check_hermitian()
        S = self._flat_symbol()
        self.diagonal = s > 1 and not np.any(S[~np.eye(s, dtype=bool)])
        if self.diagonal:
            self._diag = _diagonals(S)
            self._real_diag = not np.any(self._diag.imag)
        # the propagator plan (module doc): None for the phases of s = 1
        self._contract = None if s == 1 else (
            "am,nam->nam" if self.diagonal else "abm,nbm->nam")

    @property
    def n_components(self) -> int:
        return self.symbol.shape[0]

    def _flat_symbol(self) -> np.ndarray:
        s = self.n_components
        return self.symbol.reshape(s, s, self.grid.size)

    def _flat_metric(self) -> np.ndarray:
        s = self.n_components
        if self.metric is None:
            return np.ones((s, self.grid.size))
        return self.metric.reshape(s, self.grid.size)

    def _check_hermitian(self) -> bool:
        S = self._flat_symbol()
        g = self._flat_metric()
        GS = g[:, None, :] * S
        dev = np.max(np.abs(GS - np.conj(np.transpose(GS, (1, 0, 2)))))
        scale = 1.0 + np.max(np.abs(GS))
        return bool(dev < HERMITICITY_TOL * scale)

    def _eigensystem(self):
        """Stacked eigendecomposition of the metric-symmetrized symbol."""
        if self._eig is None:
            s = self.n_components
            S = np.moveaxis(self._flat_symbol(), -1, 0)      # (M, s, s)
            g = np.moveaxis(self._flat_metric(), -1, 0)      # (M, s)
            sq = np.sqrt(g)
            H = sq[:, :, None] * S / sq[:, None, :]
            w, U = np.linalg.eigh(H)
            self._eig = (w, U, sq)
        return self._eig

    def propagator_matrices(self, t: float) -> np.ndarray:
        """Dense per-mode matrices of exp(-i*t*symbol), shape (M, s, s)."""
        w, U, sq = self._eigensystem()
        phase = np.exp(-1j * t * w)
        core = np.einsum("mab,mb,mcb->mac", U, phase, np.conj(U))
        return core * sq[:, None, :] / sq[:, :, None]

    def propagate(self, t: float, data: np.ndarray) -> np.ndarray:
        """Apply exp(-i*t*A) to an (..., s, *grid.shape) array, one state or a
        stack; exactly metric-norm preserving per mode. Phases (s = 1), shaped
        (1, *grid.shape) like one state so that the product with a state needs
        no broadcast, or matrices are cached per time step under the keys
        ("phase", t) and t."""
        if not self.hermitian:
            raise ValueError("propagate requires a (metric-)Hermitian symbol")
        spec = self._contract
        key = ("phase", float(t)) if spec is None else float(t)
        P = self._prop_cache.get(key)
        if P is None:
            if spec is None:
                P = np.exp(-1j * t * np.real(self.symbol[0]))
            else:
                P = self.propagator_matrices(t).transpose(1, 2, 0)
                P = _diagonals(P) if self.diagonal else np.ascontiguousarray(P)
            if len(self._prop_cache) > 16:
                self._prop_cache.clear()
            self._prop_cache[key] = P
        coeffs = self.grid.to_spectral(data)
        if spec is None:
            coeffs *= P
        else:
            flat = coeffs.reshape(-1, self.symbol.shape[0], self.grid.size)
            coeffs = np.einsum(spec, P, flat).reshape(data.shape)
        return self.grid.to_physical(coeffs)

    def apply_spectral(self, flat: np.ndarray) -> np.ndarray:
        """Spectral action on flat (s, M) or (B, s, M) coefficients: each
        coefficient vector times symbol(k)."""
        if self.diagonal:
            return np.einsum("am,...am->...am", self._diag, flat)
        return np.einsum("abm,...bm->...am", self._flat_symbol(), flat)

    def metric_norm(self, data: np.ndarray) -> float:
        """The H-norm of one (s, *grid.shape) state, its ladder's j = 0 entry."""
        return float(self.graph_norm_ladder(data, 0)[0])

    def metric_inner(self, data: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Energy-weighted pairings <a, b>, conjugating b, of each state a of an
        (..., s, *grid.shape) array with the (s, *grid.shape) state b, one per
        state. Unit weights multiply too: that keeps the signed zeros and
        non-finite values of g * a * conj(b)."""
        s, size = self.n_components, self.grid.size
        ca = self.grid.to_spectral(data).reshape(-1, s, size)
        cb = self.grid.to_spectral(b).reshape(s, size)
        pairs = np.sum(self._flat_metric() * ca * np.conj(cb), axis=(1, 2))
        return pairs.reshape(data.shape[:-1 - self.grid.dim])

    def graph_norm_ladder(self, data: np.ndarray, j_max: int) -> np.ndarray:
        """The metric norms of A^j applied to each state of an (..., s,
        *grid.shape) array, j = 0..j_max (j = 0 the plain norm), as (...,
        j_max + 1) from one transform. A state's weights g times |c|^2
        (unweighted, |c|^2 alone: the same bits) are one contiguous run that
        np.sum reduces pairwise, as for the state alone, bit for bit."""
        if j_max < 0:  # inline: the ladder runs on every step of a march
            _bound("graph_norm power j", j_max, least=0)
        flat = self.grid.to_spectral(data).reshape(-1, self.n_components, self.grid.size)
        g = None if self.metric is None else self._flat_metric()
        out = np.empty((len(flat), j_max + 1))
        for j in range(j_max + 1):
            squares = np.abs(flat) ** 2
            out[:, j] = np.sqrt(np.sum(squares if g is None else g * squares, axis=(1, 2)).real)
            if j < j_max:
                if self._real_diag:  # the product, the same moduli (module doc)
                    with np.errstate(over="ignore", invalid="ignore"):
                        flat = self._diag * flat
                else:
                    flat = self.apply_spectral(flat)
        return out.reshape(data.shape[:-1 - self.grid.dim] + (j_max + 1,))

    def _as_state(self, data) -> np.ndarray:
        """``data`` as a complex (s, *grid.shape) state array, cast once (no
        copy when it is one already); ValueError on any other shape."""
        if type(data) is not np.ndarray or data.dtype is not _COMPLEX:
            data = np.asarray(data, dtype=complex)
        if data.shape != self.symbol.shape[1:]:
            raise ValueError(f"state shape {data.shape}, expected {self.symbol.shape[1:]}")
        return data


def _diagonals(matrices: np.ndarray) -> np.ndarray:
    """The contiguous (s, M) diagonals of (s, s, M) per-mode matrices."""
    return np.ascontiguousarray(np.diagonal(matrices, axis1=0, axis2=1).T)


def _zeroed_nyquist_k(grid: Grid, axis: int) -> np.ndarray:
    k = grid.k_axes[axis].copy()
    k[grid.npts[axis] // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = grid.npts[axis]
    return k.reshape(shape)


def _abs_grad_symbol(grid: Grid) -> np.ndarray:
    ksq = np.zeros(grid.shape)
    for ax in range(grid.dim):
        ksq = ksq + _zeroed_nyquist_k(grid, ax) ** 2
    return np.sqrt(ksq)


def _wave_symbol_metric(grid: Grid, k0: float):
    _bound("k0", k0, above=0)  # so that B is invertible
    b2 = grid.k_squared + k0**2
    sym = np.zeros((2, 2) + grid.shape, dtype=complex)
    sym[0, 1] = 1j
    sym[1, 0] = -1j * b2
    metric = np.stack([b2, np.ones(grid.shape)])
    return sym, metric


def _dirac_symbol(grid: Grid, m: float):
    """sigma1 * k + sigma3 * m on a 1-dimensional grid, Nyquist momentum zeroed."""
    _bound("m", m, least=0)
    k = _zeroed_nyquist_k(grid, 0).ravel()
    sym = np.zeros((2, 2) + grid.shape, dtype=complex)
    sym[0, 0] = m
    sym[1, 1] = -m
    sym[0, 1] = k
    sym[1, 0] = k
    return sym


def _maxwell_dirac_symbol_metric(grid: Grid, k0: float, m: float):
    """Dirac(m) + wave(k0) + wave(k0) on (psi1, psi2, A0, A0_t, A1, A1_t), unit
    weights on the spinor and the wave block's energy weights on each pair."""
    wave_sym, wave_metric = _wave_symbol_metric(grid, k0)
    sym = np.zeros((6, 6) + grid.shape, dtype=complex)
    sym[0:2, 0:2] = _dirac_symbol(grid, m)
    sym[2:4, 2:4] = wave_sym
    sym[4:6, 4:6] = wave_sym
    return sym, np.concatenate([np.ones((2,) + grid.shape), wave_metric, wave_metric])
