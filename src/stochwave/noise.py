"""Q-Wiener process sampling and discrete multiple Wiener integrals.

The H-valued Wiener process with trace-class covariance Q is sampled through
its eigen-series W(t) = sum_i sqrt(lambda_i) e_i beta_i(t) with independent
scalar Brownian motions beta_i. ``QWienerSampler`` is the one source of
increments, which are real fields: each trajectory owns a Philox generator
keyed by (master_seed, stream_id), so paths reproduce bit for bit regardless
of scheduling, and path p draws stream p (``path_samplers``) in every march
and every estimate.

Discrete multiple Wiener integrals are iterated left-point Ito sums; for a
symmetric kernel f the order-2 integral is

    I_2(f) = 2 sum_{i<j} f(t_i, t_j) dB_i dB_j,

whose covariance is E[I_2(f) I_2(g)] = 4 sum_{i<j} f_ij g_ij dt^2, the
discrete version of 2 (f, g) over the full square (equivalently (2!)^2 times
the inner product over the ordered simplex). Orthogonality across different
orders holds exactly in expectation. The integrals on [0, 1] take a
(n_paths, steps) stack of those increments (``unit_increments``); each row's
sum stays one np.dot (one r F r for order 2), which keeps the rounding of a
path on its own.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid, _bound

ORTHONORMALITY_TOL = 1e-10


@dataclass
class CovarianceSpec:
    """Finite eigen-expansion (lambda_i, e_i) of a trace-class covariance."""

    eigenvalues: np.ndarray
    eigenfields: list[Field]

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if not np.all((self.eigenvalues > 0) & (self.eigenvalues < np.inf)):
            raise ValueError("covariance eigenvalues must be positive and finite")
        if len(self.eigenfields) != len(self.eigenvalues):
            raise ValueError("need one eigenfield per eigenvalue")
        gram = np.array([
            [ei.inner(ej) for ej in self.eigenfields] for ei in self.eigenfields
        ])
        dev = np.max(np.abs(gram - np.eye(len(self.eigenfields))))
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenfields not orthonormal (deviation {dev:.2e})")
        # mode_matrix() as (n_modes, grid.size) rows, built once for every increment
        self._mode_rows = self.mode_matrix().reshape(len(self.eigenvalues), -1)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def grid(self) -> Grid:
        return self.eigenfields[0].grid

    def apply_Q(self, psi: Field) -> Field:
        """Q psi = sum_i lambda_i <psi, e_i> e_i."""
        out = np.zeros(self.grid.shape, dtype=complex)
        for lam, e in zip(self.eigenvalues, self.eigenfields):
            out += lam * psi.inner(e) * e.values
        return Field(self.grid, out)

    def noise_fields(self) -> list[Field]:
        """The noise potential sqrt(lambda_i) e_i, one field per mode."""
        return [Field(self.grid, np.sqrt(lam) * e.values)
                for lam, e in zip(self.eigenvalues, self.eigenfields)]

    def mode_matrix(self) -> np.ndarray:
        """(n_modes, *grid.shape) stack of eigenfield values (real part)."""
        return np.stack([np.real(e.values) for e in self.eigenfields])


def default_covariance(grid: Grid, n_modes: int = 4, lambda0: float = 1.0,
                       gamma: float = 2.0) -> CovarianceSpec:
    """Real trigonometric eigenbasis with lambda_i = lambda0 * i^-gamma.

    gamma > 1 keeps the tail summable; the basis (constant, cos, sin, ...)
    along the first axis is exactly orthonormal on the grid.
    """
    _bound("n_modes", n_modes, 1, grid.npts[0] - 1)  # the next would be the Nyquist pair
    _bound("lambda0", lambda0, above=0)
    _bound("gamma", gamma, above=1)  # a trace-class tail
    L = grid.lengths[0]
    x = grid.x_mesh[0] * np.ones(grid.shape)
    vol = grid.volume
    fields = [Field(grid, np.ones(grid.shape) / np.sqrt(vol))]
    wave = 1
    while len(fields) < n_modes:
        fields.append(Field(grid, np.sqrt(2.0 / vol) * np.cos(2 * np.pi * wave * x / L)))
        if len(fields) < n_modes:
            fields.append(Field(grid, np.sqrt(2.0 / vol) * np.sin(2 * np.pi * wave * x / L)))
        wave += 1
    lams = lambda0 * (np.arange(1, n_modes + 1, dtype=float) ** (-gamma))
    return CovarianceSpec(lams, fields[:n_modes])


@dataclass
class QWienerSampler:
    """Seeded increment generator for one trajectory (one stream).

    A stream owns no shared state. The per-step normal draws come from a
    single Philox generator keyed by (master_seed, stream_id); replaying a
    stream with the same dt sequence reproduces identical increments.
    """

    spec: CovarianceSpec
    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        seeds = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        self._rng = np.random.Generator(np.random.Philox(seeds))

    def normals(self, n_steps: int) -> np.ndarray:
        """(n_steps, n_modes) standard normals from this stream."""
        return self._rng.standard_normal((n_steps, self.spec.n_modes))

    def increments(self, dt: float, n_steps: int) -> np.ndarray:
        """(n_steps, *grid.shape) real increment fields, vectorized."""
        if not dt > 0:  # inline: every path draws its increments here
            _bound("dt", dt, above=0)
        xi = self.normals(n_steps)
        amp = xi * np.sqrt(self.spec.eigenvalues * dt)
        # np.tensordot(amp, mode_matrix(), axes=(1, 0)): its np.dot, without its reshapes
        return np.dot(amp, self.spec._mode_rows).reshape((n_steps,) + self.spec.grid.shape)


def path_samplers(spec: CovarianceSpec | None, master_seed: int,
                  n_paths: int) -> Iterator[QWienerSampler | None]:
    """The noise of paths 0 .. n_paths - 1 in order (None without a covariance):
    path p draws stream p of the master seed, the one rule by which every
    path gets its increments."""
    for p in range(n_paths):
        yield None if spec is None else QWienerSampler(spec, master_seed, stream_id=p)


def unit_increments(spec: CovarianceSpec, master_seed: int, n_paths: int,
                    steps: int) -> np.ndarray:
    """(n_paths, steps) standard Brownian increments on [0, 1], one path per
    row: path p's increment fields at dt = 1 / steps, projected on eigenfield p
    mod n_modes and divided by sqrt(lambda), so all of ``increments`` (the
    sqrt(dt), each eigenvalue's scaling, the mode matrix) shapes the rows."""
    weights = [np.conj(e.values).ravel() * (spec.grid.dv / np.sqrt(lam))
               for lam, e in zip(spec.eigenvalues, spec.eigenfields)]
    return np.array([np.dot(path.increments(1.0 / steps, steps).reshape(steps, -1),
                            weights[p % spec.n_modes]).real
                     for p, path in enumerate(path_samplers(spec, master_seed, n_paths))])


def sample_moments(sample: np.ndarray) -> tuple:
    """Mean, ddof = 1 variance and standard error of samples along the last
    axis; the standard error is np.std(ddof=1) / sqrt(n), to the bit."""
    var = np.var(sample, axis=-1, ddof=1)
    return np.mean(sample, axis=-1), var, np.sqrt(var) / np.sqrt(sample.shape[-1])


def empirical_covariance(sampler: QWienerSampler, t: float, tau: float,
                         psi: Field, phi: Field, n_paths: int = 1000,
                         n_steps: int = 64) -> tuple[float, float]:
    """Monte Carlo estimate of E[(W(t), psi)(W(tau), phi)] with its stderr.

    The exact value is (t ^ tau) (Q psi, phi). Path p's W is the cumulative
    sum of the increments that path p of a march draws (``path_samplers`` of
    the sampler's master seed), on a step grid containing both t and tau so
    there is no time-discretization bias, and is paired with psi and phi on
    the grid.
    """
    _bound("t", t, above=0)
    _bound("tau", tau, above=0)
    _bound("n_paths", n_paths, least=1000)
    dt = max(t, tau) / n_steps
    i_t, i_tau = round(t / dt), round(tau / dt)
    if not (min(i_t, i_tau) >= 1 and np.isclose(i_t * dt, t) and np.isclose(i_tau * dt, tau)):
        raise ValueError("t and tau must be commensurate with the step grid")
    dv = sampler.spec.grid.dv
    c_psi, c_phi = np.conj(psi.values).ravel() * dv, np.conj(phi.values).ravel() * dv
    prods = np.empty(n_paths)
    for p, path in enumerate(path_samplers(sampler.spec, sampler.master_seed, n_paths)):
        inc = path.increments(dt, n_steps)
        w = np.cumsum(inc.reshape(n_steps, -1), axis=0)  # W(k dt), k = 1..n_steps
        prods[p] = np.dot(w[i_t - 1], c_psi).real * np.dot(w[i_tau - 1], c_phi).real
    est, _, stderr = sample_moments(prods)
    return float(est), float(stderr)


def _kernel_values(n: int, kernel, steps: int) -> np.ndarray:
    """An order-n kernel at the left points of [0, 1] cut into `steps` cells.

    Kernels may be callables on left endpoints or precomputed arrays; the
    values must have one entry per step (per cell of the square for n = 2),
    and an order-2 kernel must be symmetric.
    """
    if n not in (1, 2):
        raise ValueError("only orders n in {1, 2} are supported")
    lefts = np.arange(steps) * (1.0 / steps)
    if callable(kernel):
        K = kernel(lefts) if n == 1 else kernel(lefts[:, None], lefts[None, :])
    else:
        K = np.asarray(kernel, dtype=float)
    if K.shape != (steps,) * n:
        raise ValueError(f"order-{n} kernel must have shape {(steps,) * n}, got {K.shape}")
    if n == 2 and np.max(np.abs(K - K.T)) > 1e-12 * (1.0 + np.max(np.abs(K))):
        raise ValueError("order-2 kernel must be symmetric")
    return K


def multiple_wiener(n: int, kernel, dB: np.ndarray) -> np.ndarray:
    """Discrete iterated Ito integral I_n of each row of a (n_paths, steps) stack.

    n = 1: sum f(t_k) dB_k with left-endpoint kernel values.
    n = 2: 2 sum_{i<j} f(t_i, t_j) dB_i dB_j, kernel symmetric and
    piecewise constant on the partition cells.
    """
    K = _kernel_values(n, kernel, dB.shape[1])
    if n == 1:
        return np.array([np.dot(K, r) for r in dB])
    diag = np.diag(K)
    # r F r - sum F_ii r_i^2 equals 2 sum_{i<j} F_ij r_i r_j
    return np.array([r @ K @ r - np.dot(diag, r**2) for r in dB])


def orthogonality_check(n: int, m: int, f, g, dB: np.ndarray) -> tuple[float, float]:
    """Monte Carlo estimate of E[I_n(f) I_m(g)] over [0, 1] with its standard
    error, over the rows of a (n_paths, steps) increment stack."""
    est, _, stderr = sample_moments(multiple_wiener(n, f, dB) * multiple_wiener(m, g, dB))
    return float(est), float(stderr)


def discrete_pairing(n: int, f, g, steps: int) -> float:
    """Exact expectation of the discrete product E[I_n(f) I_n(g)] over [0, 1].

    Order 1: sum f_i g_i dt. Order 2: 4 sum_{i<j} f_ij g_ij dt^2, the
    discrete form of 2 (f, g) over the square.
    """
    F, G = _kernel_values(n, f, steps), _kernel_values(n, g, steps)
    dt = 1.0 / steps
    if n == 1:
        return float(np.dot(F, G) * dt)
    lower = np.tril(np.ones((steps, steps)), k=-1)
    return float(4.0 * np.sum(F * G * lower.T) * dt * dt)
