"""Truncated Fock-space white noise calculus over n Gaussian modes.

Coefficient dictionary
----------------------
A functional of n independent standard Gaussians xi_1..xi_n is stored by its
coefficients in the *unnormalized* product Hermite (Wick monomial) basis,

    Phi(xi) = sum_{|alpha| <= M} a_alpha  prod_i He_{alpha_i}(xi_i),

He_m the probabilists' Hermite polynomials (He_0=1, He_1=x, He_2=x^2-1, ...).
This dictionary makes the three central structures elementary:

* squared L2(Gaussian) norm:  ||Phi||_0^2 = sum_alpha alpha! |a_alpha|^2;
* S-transform = polynomial evaluation:  S Phi(zeta) = sum_alpha a_alpha zeta^alpha,
  because pairing against the exponential vector phi_zeta (whose coefficients
  are zeta^alpha / alpha!) under the bilinear duality
  <<Phi, Psi>> = sum alpha! a_alpha b_alpha cancels the factorials;
* Wick product = coefficient convolution:  (Phi : Psi)_gamma =
  sum_{alpha+beta=gamma} a_alpha b_beta, the unique product with
  S(Phi : Psi) = (S Phi)(S Psi).

A chaos element is its coefficient array, of shape (n_indices, ...): one
coefficient per multi-index for a functional, one state block per index for
a chaos-valued field, which ``solve_wick_evolution`` marches as its bare
(n_indices, s, *grid.shape) stack. Each map of the calculus has one entry
point on ``ChaosSpace``:

* Wick product: ``convolve``. It adds each coefficient's products one at a
  time, from zero, in the order of the pair table, one column of pairs per
  pass, so it rounds as a scatter-add over that table would, bit for bit;
* S-transform: ``s_transform``, the monomials zeta^alpha contracted with the
  index axis, for a scalar, a stack of fields or an operator's symbol;
* exponential vector phi_zeta: ``exp_vector``; the bilinear pairing of two
  coefficient vectors: ``pairing``. They satisfy <<phi_zeta, phi_eta>> =
  e^{<zeta,eta>} (no conjugation; the Hilbert inner product is used only
  for norms);
* annihilation/creation a_y/a+_y: ``lowering``/``raising``, with scalar or
  field weights. The operator matrices are the maps applied to the identity,
  and they satisfy the CCR on degrees strictly below the truncation order;
* second quantization Gamma(B): ``gamma_matrix(B) @ a``, the polynomial
  substitution zeta -> B^T zeta, which is degree-homogeneous and hence
  exact under truncation;
* the graded norm of a coefficient vector, ``norm``, and the test-vector
  norms, ``mode_norm``, below; the energy per degree of a chaos-valued
  field, ``degree_energy``, under a generator's norm.

Conjugation convention: powers like |psi|^2 psi are not Wick polynomials in
psi alone. We use the doubled-variable convention, treating psi and its
coefficient-conjugate psi* as independent Wick arguments, so
:|psi|^2 psi: = psi : psi : psi*. For real test vectors zeta this gives
S(:J(psi):)(zeta) = J(S psi(zeta)) exactly (modulo truncation). J itself is
not restated here: ``wick_nonlinearity`` evaluates ``Model.nonlinearity`` in
the Wick algebra, whose product is ``ChaosSpace.convolve`` and whose sine is
the truncated Wick-Taylor series.

The weighted norms |zeta|_p = |A^p zeta| use the reference weights fixed at
w_i = i + 1 for modes i = 1..n (each above 1, and their inverse is
Hilbert-Schmidt in the infinite limit), and the graded functional norms are

    ||Phi||_{p,beta}^2 = sum_alpha (|alpha|!)^{+-beta} alpha! |a_alpha|^2
                          prod_i w_i^{2 p alpha_i},

with exponent +beta for p >= 0 and -beta for p < 0 (the dual scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement, product
from math import comb, factorial

import numpy as np

from .grids import _bound
from .models import Model, _powers
from .solver import _cr_residual, _step_count

# A Wick solve is flagged as truncated once the top degree holds more than
# this fraction of the energy.
TAIL_FLAG_FRACTION = 0.2
MAX_INDICES = 100_000  # a fixed bound on a space's indices, each a state block


def _multi_indices(n_modes: int, max_degree: int) -> np.ndarray:
    """All multi-indices with |alpha| <= M in graded order."""
    rows = []
    for deg in range(max_degree + 1):
        block = []
        for picks in combinations_with_replacement(range(n_modes), deg):
            alpha = [0] * n_modes
            for i in picks:
                alpha[i] += 1
            block.append(tuple(alpha))
        rows.extend(sorted(block))
    return np.array(rows, dtype=int).reshape(len(rows), n_modes)


@dataclass
class ChaosSpace:
    """Truncation parameters, cached combinatorial tables, and the maps of the
    calculus on (n_indices, ...) coefficient arrays."""

    n_modes: int
    max_degree: int
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _bound("n_modes", self.n_modes, least=1)
        # alpha! <= |alpha|!, and 171! overflows a float
        _bound("max_degree", self.max_degree, 0, 170)
        _bound("the index count C(n_modes + max_degree, max_degree)",
               comb(self.n_modes + self.max_degree, self.max_degree), most=MAX_INDICES)
        self.mode_weights = np.arange(2, self.n_modes + 2, dtype=float)
        self.indices = _multi_indices(self.n_modes, self.max_degree)
        self.n_indices = len(self.indices)
        self.degrees = self.indices.sum(axis=1)
        # exact k! for k <= max_degree as Python ints: each alpha! is the exact
        # product rounded once to float (an int64 product wraps above 2^63)
        self._factorial = np.array([factorial(k) for k in range(self.max_degree + 1)],
                                   dtype=object)
        self.factorials = np.prod(self._factorial[self.indices], axis=1).astype(float)
        self._pos = {tuple(alpha): i for i, alpha in enumerate(self.indices.tolist())}

    def position(self, alpha) -> int:
        return self._pos[tuple(int(a) for a in alpha)]

    def _pair_columns(self):
        """Pairs alpha_I + alpha_J = alpha_K as ordered (I, J) columns.

        K's pairs are its sub-indices alpha_I <= alpha_K with J at alpha_K -
        alpha_I, at most 2^degree of them rather than a scan of every (I, J),
        in table order (by I, then J). The K's go by pair count, most first,
        and column c holds the c-th pair of every K with more than c, a prefix
        of the sorted K's. Also returns the unsort.
        """
        tab = self._cache.get("columns")
        if tab is None:
            pos = self._pos
            groups = [sorted((pos[sub], pos[tuple(a - c for a, c in zip(alpha, sub))])
                             for sub in product(*(range(a + 1) for a in alpha)))
                      for alpha in self.indices.tolist()]
            order = sorted(range(self.n_indices), key=lambda k: -len(groups[k]))
            columns = []
            for c in range(len(groups[order[0]])):
                I, J = zip(*(groups[k][c] for k in order if len(groups[k]) > c))
                columns.append((np.array(I), np.array(J)))
            tab = (columns, np.argsort(order))
            self._cache["columns"] = tab
        return tab

    def _shifts(self, step: int) -> np.ndarray:
        """[i, m] = position of alpha_i + step e_m, or -1 outside the table."""
        tab = self._cache.get(("shift", step))
        if tab is None:
            unit = step * np.eye(self.n_modes, dtype=int)
            tab = np.array([[self._pos.get(tuple(a + u), -1) for u in unit]
                            for a in self.indices], dtype=int).reshape(-1, self.n_modes)
            self._cache[("shift", step)] = tab
        return tab

    def monomials(self, zeta: np.ndarray) -> np.ndarray:
        """zeta^alpha for every stored multi-index."""
        zeta = np.asarray(zeta, dtype=complex)
        if zeta.shape != (self.n_modes,):
            raise ValueError("test vector has wrong mode count")
        with np.errstate(invalid="ignore"):
            out = np.prod(zeta[None, :] ** self.indices, axis=1)
        return out

    def exp_vector(self, zeta: np.ndarray) -> np.ndarray:
        """Exponential (coherent) vector phi_zeta: coefficients zeta^alpha / alpha!."""
        return self.monomials(zeta) / self.factorials

    def pairing(self, a: np.ndarray, b: np.ndarray) -> complex:
        """Bilinear pairing <<Phi, Psi>> = sum alpha! a_alpha b_alpha of two
        coefficient vectors."""
        return np.sum(self.factorials * a * b)

    def s_transform(self, data: np.ndarray, zeta: np.ndarray):
        """S Phi(zeta) = <<Phi, phi_zeta>> = sum_alpha Phi_alpha zeta^alpha on an
        (n_idx, ...) stack: one value per remaining entry, and a numpy scalar,
        not a 0-d array, for a 1-D ``data`` (scalar arithmetic rounds as
        Python's complex does; the array loops may fuse a multiply-add)."""
        return np.tensordot(self.monomials(zeta), data, axes=(0, 0))[()]

    def mode_norm(self, zeta: np.ndarray, p: int) -> np.ndarray:
        """|zeta|_p = |A^p zeta| = sqrt(sum_i w_i^(2p) |zeta_i|^2) over the last axis."""
        return np.sqrt(np.sum(np.abs(self.mode_weights ** p * zeta) ** 2, axis=-1))

    def norm(self, a: np.ndarray, p: int, beta: float) -> float:
        """Graded weighted norm ||Phi||_{p,beta} of a coefficient vector; p < 0
        selects the dual scale.

        ||Phi||_0 is the (0, 0) case: sqrt(sum alpha! |a_alpha|^2).
        """
        _bound("beta", beta, 0, 1)
        sign = 1.0 if p >= 0 else -1.0
        deg_fact = self._factorial[self.degrees].astype(float)
        wpow = np.prod(self.mode_weights[None, :] ** (2.0 * p * self.indices), axis=1)
        weights = (deg_fact ** (sign * beta)) * self.factorials * wpow
        return float(np.sqrt(np.sum(weights * np.abs(a) ** 2)))

    def degree_energy(self, generator, data: np.ndarray) -> np.ndarray:
        """Energy alpha! ||Phi_alpha||_H^2 of a chaos-valued field's
        (n_indices, s, *grid.shape) stack, aggregated per degree; the norm is
        ``generator``'s."""
        norms = generator.graph_norm_ladder(data, 0)[:, 0]
        per_index = self.factorials * _powers(norms, 2)
        # bincount adds the weights one at a time in index order, as a
        # scatter-add over the indices would
        return np.bincount(self.degrees, weights=per_index, minlength=self.max_degree + 1)

    def convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Wick coefficient convolution; works on (n_idx, ...) stacks.

        Column by column, so each coefficient adds its products one at a
        time, from zero, in pair-table order: a scatter-add's sums, bit for bit.
        """
        columns, undo = self._pair_columns()
        out = np.zeros_like(np.broadcast_arrays(a, b)[0])
        for I, J in columns:
            out[:len(I)] += a[I] * b[J]
        return out[undo]

    def raising(self, weights, data: np.ndarray) -> np.ndarray:
        """(a+_y Phi)_beta = sum_m y_m Phi_{beta-e_m} on an (n_idx, ...) stack.

        One weight y_m per mode: a scalar, a field broadcasting against a
        block, or None to leave the mode out. Terms past degree M drop.
        """
        return self._ladder(weights, data, -1)

    def lowering(self, weights, data: np.ndarray) -> np.ndarray:
        """(a_y Phi)_beta = sum_m y_m (beta_m + 1) Phi_{beta+e_m}; see ``raising``."""
        return self._ladder(weights, data, +1)

    def _ladder(self, weights, data, step):
        # sum_m y_m [beta_m + 1 if lowering] data_{beta + step e_m}
        table = self._shifts(step)
        if len(weights) != self.n_modes:
            raise ValueError(f"need {self.n_modes} mode weights, got {len(weights)}")
        out = np.zeros_like(data)
        for m, y in enumerate(weights):
            if y is not None:
                ok = table[:, m] >= 0
                if step > 0:
                    y = y * (self.indices[ok, m] + 1).reshape((-1,) + (1,) * (data.ndim - 1))
                out[ok] += y * data[table[ok, m]]
        return out

    def gamma_matrix(self, mode_map: np.ndarray) -> np.ndarray:
        """Matrix of the second quantization Gamma(B) in the Wick basis.

        Polynomial substitution zeta -> B^T zeta, built column by column:
        the column of alpha + e_m is the Wick product of the column of
        alpha with the first-degree image of mode m.
        """
        B = np.asarray(mode_map, dtype=complex)
        key = ("gamma", B.tobytes())
        mat = self._cache.get(key)
        if mat is not None:
            return mat
        n = self.n_modes
        if B.shape != (n, n):
            raise ValueError("mode map must be n_modes x n_modes")
        cols = np.zeros((self.n_indices, self.n_indices), dtype=complex)
        cols[0, 0] = 1.0  # vacuum column
        # First-degree images L_m: coefficients of (B^T zeta)_m = sum_j B_jm zeta_j.
        first = np.zeros((n, self.n_indices), dtype=complex)
        for m in range(n):
            for jmode in range(n):
                first[m, self.position(np.eye(n, dtype=int)[jmode])] = B[jmode, m]
        for i in np.argsort(self.degrees, kind="stable"):
            if self.degrees[i] == 0:
                continue
            m = int(np.nonzero(self.indices[i])[0][0])
            parent = self.indices[i].copy()
            parent[m] -= 1
            cols[:, i] = self.convolve(cols[:, self.position(parent)], first[m])
        self._cache[key] = cols
        return cols


@dataclass
class GrowthFit:
    C: float
    K: float
    cr_residual: float
    covered: bool


def growth_bound_fit(F, space: ChaosSpace, p: int, sample_radii,
                     seed: int = 0) -> GrowthFit:
    """Fit |F(zeta)| <= C exp(K |zeta|_p^2) over ray samples.

    The rays go along 6 random directions of unit p-norm. K is the
    nonnegative least-squares slope of log|F| against |zeta|_p^2 and C is
    lifted so the envelope covers every sample. Also estimates the
    Cauchy-Riemann residual of z -> F(z*zeta + eta) on a fourth-order
    stencil of spacing 1e-3 as the entireness check.
    """
    rng = np.random.default_rng(seed)
    radii = np.asarray(sample_radii, dtype=float)
    n = space.n_modes
    dirs = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    dirs /= space.mode_norm(dirs, p)[:, None]  # |dir|_p = 1
    xs, ys = [], []
    for r in radii:
        for d in dirs:
            val = abs(F(r * d))
            xs.append(r * r)
            ys.append(np.log(max(val, 1e-300)))
    xs, ys = np.asarray(xs), np.asarray(ys)
    finite = np.isfinite(ys)
    if not np.all(finite):
        return GrowthFit(np.inf, np.inf, np.inf, covered=False)
    xbar, ybar = xs.mean(), ys.mean()
    denom = np.sum((xs - xbar) ** 2)
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / denom) if denom > 0 else 0.0
    K = max(slope, 0.0)
    C = float(np.exp(np.max(ys - K * xs)))
    covered = bool(np.all(ys <= np.log(C) + K * xs + 1e-9))
    # Entireness probe along a random complex line.
    zdir, base = dirs[0], 0.5 * dirs[1]
    cr = _cr_residual(lambda zv: F(zv * zdir + base), 0.37 + 0.21j, 1e-3)
    return GrowthFit(C=C, K=K, cr_residual=float(cr), covered=covered)


# ---------------------------------------------------------------------------
# Chaos-valued fields and the Wick evolution
# ---------------------------------------------------------------------------

def _odd_power(p: int) -> int:
    """The power p of a Wick-quantized |a|^{p-1} a; ValueError unless odd."""
    if p % 2 == 0:
        raise ValueError(f"Wick quantization needs an odd power p, got {p}")
    return p


class _WickAlgebra:
    """Wick arithmetic on (n_indices, *grid.shape) chaos coefficient stacks."""

    conj = staticmethod(np.conj)

    def __init__(self, space: ChaosSpace):
        self.space = space
        self.product = space.convolve

    @staticmethod
    def re(a):
        return 0.5 * (a + np.conj(a))

    def modsq(self, a):
        return self.product(a, np.conj(a))

    def abs_pow(self, a, p):
        """:|a|^{p-1} a: = a^{:(p+1)/2:} : conj(a)^{:(p-1)/2:} for odd p."""
        mag = modsq = self.modsq(a)
        for _ in range((_odd_power(p) - 3) // 2):
            mag = self.product(mag, modsq)
        return self.product(mag, a)

    def sin(self, a):
        """Wick sine via Taylor expansion around the degree-0 block (exact)."""
        c = a[0]
        shifted = a.copy()
        shifted[0] = 0.0
        derivs = [np.sin(c), np.cos(c), -np.sin(c), -np.cos(c)]
        out = np.zeros_like(shifted)
        term = np.zeros_like(shifted)
        term[0] = 1.0  # (a - c)^{:0:}
        fact = 1.0
        for j in range(self.space.max_degree + 1):
            if j > 0:
                term = self.product(term, shifted)
                fact *= j
            out = out + (derivs[j % 4] / fact) * term
        return out


def wick_nonlinearity(model: Model, space: ChaosSpace, data: np.ndarray) -> np.ndarray:
    """Wick quantization of the model nonlinearity on a chaos-valued field's
    (n_indices, s, *grid.shape) stack, block by block.

    The same ``Model.nonlinearity`` that defines J, evaluated in the Wick
    algebra: polynomial terms become Wick powers (conjugates via the
    doubled-variable convention) and the sine its exact truncated Wick-Taylor
    series, so degree-0-only inputs reproduce the ordinary J.
    """
    expect = (space.n_indices, model.generator.n_components) + model.grid.shape
    if data.shape != expect:
        raise ValueError(f"chaos state shape {data.shape}, expected {expect}")
    return model.nonlinearity(_WickAlgebra(space), data)


@dataclass
class WickTrajectory:
    """The end of a Wick solve: its final (n_indices, s, *grid.shape) stack,
    that stack's energy per degree, the top degree's energy share after each
    step, and whether that share ever passed ``TAIL_FLAG_FRACTION``."""

    final: np.ndarray
    final_energy: np.ndarray
    tail_fractions: np.ndarray
    truncation_flagged: bool


def solve_wick_evolution(model: Model, phi0: np.ndarray, noise_fields, T: float,
                         dt: float, space: ChaosSpace) -> WickTrajectory:
    """March the Wick-quantized equation on the truncated chaos space.

    The chaos-valued field is its (n_indices, s, *grid.shape) coefficient
    stack, which starts as ``phi0`` in the degree-0 block and zero elsewhere.
    ``noise_fields`` lists the potential ``Field``s q_i coupled to the Gaussian
    modes; the noise term is the time-frozen first-chaos element
    Z = sum_i q_i xi_i acting by Wick multiplication, so Wick multiplication
    is lower triangular in degree and the degree-0 block evolves as the
    deterministic equation. The S-transform of the solution at test vector
    zeta follows the deterministic flow with potential sum_i zeta_i q_i up
    to O(dt) and the degree-M truncation tail. Each step's per-degree energy
    is computed once; the solve is flagged once the top degree's share of it
    exceeds ``TAIL_FLAG_FRACTION``.
    """
    n_steps = _step_count(T, dt)
    fields = [q.values for q in noise_fields]
    if len(fields) > space.n_modes:
        raise ValueError("more noise fields than chaos modes")
    gen = model.generator
    phi0 = gen._as_state(phi0)
    data = np.zeros((space.n_indices,) + phi0.shape, dtype=complex)
    data[0] = phi0
    # Z = sum_i q_i xi_i acts by Wick multiplication, the raising map
    weights = fields + [None] * (space.n_modes - len(fields))

    tails = []
    for _ in range(n_steps):
        drift = wick_nonlinearity(model, space, data) + space.raising(weights, data)
        data = gen.propagate(dt, data + dt * drift)
        energy = space.degree_energy(gen, data)
        total = float(np.sum(energy))
        tails.append(float(energy[-1] / total) if total > 0 else 0.0)
    tails = np.asarray(tails)
    return WickTrajectory(data, energy, tails, bool(np.any(tails > TAIL_FLAG_FRACTION)))
