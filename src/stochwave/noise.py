"""Q-Wiener process sampling and discrete multiple Wiener integrals.

The H-valued Wiener process with trace-class covariance Q is sampled through
its eigen-series W(t) = sum_i sqrt(lambda_i) e_i beta_i(t) with independent
scalar Brownian motions beta_i. Increments are real fields. Sampling is
deterministic per (master_seed, stream_id): each trajectory owns a Philox
generator keyed by those two integers, so parallel paths reproduce bit for
bit regardless of scheduling, and replaying a stream regenerates identical
increments.

Discrete multiple Wiener integrals are iterated left-point Ito sums; for a
symmetric kernel f the order-2 integral is

    I_2(f) = 2 sum_{i<j} f(t_i, t_j) dB_i dB_j,

whose covariance is E[I_2(f) I_2(g)] = 4 sum_{i<j} f_ij g_ij dt^2, the
discrete version of 2 (f, g) over the full square (equivalently (2!)^2 times
the inner product over the ordered simplex). Orthogonality across different
orders holds exactly in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Field, Grid

ORTHONORMALITY_TOL = 1e-10


@dataclass
class CovarianceSpec:
    """Finite eigen-expansion (lambda_i, e_i) of a trace-class covariance."""

    eigenvalues: np.ndarray
    eigenfields: list[Field]

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if np.any(self.eigenvalues <= 0):
            raise ValueError("covariance eigenvalues must be positive")
        if len(self.eigenfields) != len(self.eigenvalues):
            raise ValueError("need one eigenfield per eigenvalue")
        gram = np.array([
            [ei.inner(ej) for ej in self.eigenfields] for ei in self.eigenfields
        ])
        dev = np.max(np.abs(gram - np.eye(len(self.eigenfields))))
        if dev > ORTHONORMALITY_TOL:
            raise ValueError(f"eigenfields not orthonormal (deviation {dev:.2e})")

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def grid(self) -> Grid:
        return self.eigenfields[0].grid

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))

    def apply_Q(self, psi: Field) -> Field:
        """Q psi = sum_i lambda_i <psi, e_i> e_i."""
        out = np.zeros(self.grid.shape, dtype=complex)
        for lam, e in zip(self.eigenvalues, self.eigenfields):
            out += lam * psi.inner(e) * e.values
        return Field(self.grid, out)

    def mode_matrix(self) -> np.ndarray:
        """(n_modes, *grid.shape) stack of eigenfield values (real part)."""
        return np.stack([np.real(e.values) for e in self.eigenfields])


def default_covariance(grid: Grid, n_modes: int = 4, lambda0: float = 1.0,
                       gamma: float = 2.0) -> CovarianceSpec:
    """Real trigonometric eigenbasis with lambda_i = lambda0 * i^-gamma.

    gamma > 1 keeps the tail summable; the basis (constant, cos, sin, ...)
    along the first axis is exactly orthonormal on the grid.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1 for a trace-class tail")
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
    _rng: np.random.Generator | None = dc_field(default=None, repr=False)

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
            self._rng = np.random.Generator(np.random.Philox(ss))
        return self._rng

    def normals(self, n_steps: int) -> np.ndarray:
        """(n_steps, n_modes) standard normals from this stream."""
        return self._generator().standard_normal((n_steps, self.spec.n_modes))

    def increments(self, dt: float, n_steps: int) -> np.ndarray:
        """(n_steps, *grid.shape) real increment fields, vectorized."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        xi = self.normals(n_steps)
        amp = xi * np.sqrt(self.spec.eigenvalues * dt)
        return np.tensordot(amp, self.spec.mode_matrix(), axes=(1, 0))


@dataclass
class BrownianPath:
    """Per-mode Brownian values beta_i(t_k) on an increasing time grid."""

    times: np.ndarray
    values: np.ndarray  # (n_times, n_modes), values[0] == 0

    @classmethod
    def sample(cls, rng: np.random.Generator, tau: float, n_steps: int,
               n_modes: int = 1) -> "BrownianPath":
        dt = tau / n_steps
        dB = rng.standard_normal((n_steps, n_modes)) * np.sqrt(dt)
        beta = np.vstack([np.zeros((1, n_modes)), np.cumsum(dB, axis=0)])
        return cls(np.linspace(0.0, tau, n_steps + 1), beta)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def increments(self, mode: int = 0) -> np.ndarray:
        return np.diff(self.values[:, mode])


def empirical_covariance(sampler: QWienerSampler, t: float, tau: float,
                         psi: Field, phi: Field, n_paths: int = 1000,
                         n_steps: int = 64) -> tuple[float, float]:
    """Monte Carlo estimate of E[(W(t), psi)(W(tau), phi)] with its stderr.

    The exact value is (t ^ tau) (Q psi, phi); W is accumulated on a grid
    containing both t and tau so there is no time-discretization bias.
    """
    if t <= 0 or tau <= 0:
        raise ValueError("t and tau must be positive")
    if n_paths < 1000:
        raise ValueError("the covariance estimate needs at least 1000 paths")
    t_max = max(t, tau)
    dt = t_max / n_steps
    i_t, i_tau = round(t / dt), round(tau / dt)
    if not (np.isclose(i_t * dt, t) and np.isclose(i_tau * dt, tau)):
        raise ValueError("t and tau must be commensurate with the step grid")
    lam_sqrt = np.sqrt(sampler.spec.eigenvalues)
    modes = sampler.spec.mode_matrix()
    # Pairings reduce to mode coordinates: (W, psi) = sum_i sqrt(l_i) b_i(t) <e_i, psi>.
    c_psi = np.array([Field(psi.grid, m.astype(complex)).inner(psi).real for m in modes])
    c_phi = np.array([Field(phi.grid, m.astype(complex)).inner(phi).real for m in modes])
    prods = np.empty(n_paths)
    for p in range(n_paths):
        stream = QWienerSampler(sampler.spec, sampler.master_seed, p)
        xi = stream.normals(n_steps) * np.sqrt(dt)
        beta = np.cumsum(xi, axis=0)
        w_t = lam_sqrt * beta[i_t - 1] if i_t > 0 else np.zeros_like(lam_sqrt)
        w_tau = lam_sqrt * beta[i_tau - 1] if i_tau > 0 else np.zeros_like(lam_sqrt)
        prods[p] = float(np.dot(w_t, c_psi) * np.dot(w_tau, c_phi))
    est = float(np.mean(prods))
    stderr = float(np.std(prods, ddof=1) / np.sqrt(n_paths))
    return est, stderr


def multiple_wiener(n: int, kernel, path: BrownianPath, mode: int = 0) -> float:
    """Discrete iterated Ito integral I_n over the path's partition.

    n = 1: sum f(t_k) dB_k with left-endpoint kernel values.
    n = 2: 2 sum_{i<j} f(t_i, t_j) dB_i dB_j, kernel symmetric and
    piecewise constant on the partition cells.
    Kernels may be callables on left endpoints or precomputed arrays.
    """
    dB = path.increments(mode)
    n_steps = len(dB)
    lefts = path.times[:-1]
    if n == 1:
        f = kernel(lefts) if callable(kernel) else np.asarray(kernel, dtype=float)
        if f.shape != (n_steps,):
            raise ValueError("order-1 kernel must have one value per step")
        return float(np.dot(f, dB))
    if n == 2:
        if callable(kernel):
            F = kernel(lefts[:, None], lefts[None, :])
        else:
            F = np.asarray(kernel, dtype=float)
        if F.shape != (n_steps, n_steps):
            raise ValueError("order-2 kernel must be (n_steps, n_steps)")
        if np.max(np.abs(F - F.T)) > 1e-12 * (1.0 + np.max(np.abs(F))):
            raise ValueError("order-2 kernel must be symmetric")
        total = float(dB @ F @ dB)
        diag = float(np.dot(np.diag(F), dB**2))
        return total - diag  # equals 2 * sum_{i<j} F_ij dB_i dB_j
    raise ValueError("only orders n in {1, 2} are supported")


def orthogonality_check(n: int, m: int, f, g, n_paths: int = 2000,
                        steps: int = 64, tau: float = 1.0,
                        seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of E[I_n(f) I_m(g)] with its standard error."""
    if n not in (1, 2) or m not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    rng = np.random.default_rng(seed)
    prods = np.empty(n_paths)
    for p in range(n_paths):
        path = BrownianPath.sample(rng, tau, steps)
        prods[p] = multiple_wiener(n, f, path) * multiple_wiener(m, g, path)
    est = float(np.mean(prods))
    stderr = float(np.std(prods, ddof=1) / np.sqrt(n_paths))
    return est, stderr


def discrete_pairing(n: int, f, g, steps: int, tau: float = 1.0) -> float:
    """Exact expectation of the discrete product E[I_n(f) I_n(g)].

    Order 1: sum f_i g_i dt. Order 2: 4 sum_{i<j} f_ij g_ij dt^2, the
    discrete form of 2 (f, g) over the square.
    """
    dt = tau / steps
    lefts = np.arange(steps) * dt
    if n == 1:
        fv = f(lefts) if callable(f) else np.asarray(f, dtype=float)
        gv = g(lefts) if callable(g) else np.asarray(g, dtype=float)
        return float(np.dot(fv, gv) * dt)
    if n == 2:
        F = f(lefts[:, None], lefts[None, :]) if callable(f) else np.asarray(f)
        G = g(lefts[:, None], lefts[None, :]) if callable(g) else np.asarray(g)
        lower = np.tril(np.ones((steps, steps)), k=-1)
        return float(4.0 * np.sum(F * G * lower.T) * dt * dt)
    raise ValueError("only orders 1 and 2 are supported")
