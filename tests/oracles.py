"""Test oracles that no command runs: the growth-bound fit of S-transforms
and the Monte Carlo estimator of the Q-Wiener covariance identity. Each
serves the tests that check the paper's claim it carries."""

from dataclasses import dataclass

import numpy as np

from stochwave.grids import Field, _bound
from stochwave.noise import CovarianceSpec, QWienerSampler, path_samplers, sample_moments
from stochwave.solver import _cr_residual


def mode_norm(space, zeta: np.ndarray, p: int) -> np.ndarray:
    """|zeta|_p = |A^p zeta| = sqrt(sum_i w_i^(2p) |zeta_i|^2) over the last
    axis, with the space's mode weights w."""
    return np.sqrt(np.sum(np.abs(space.mode_weights ** p * zeta) ** 2, axis=-1))


@dataclass
class GrowthFit:
    C: float
    K: float
    cr_residual: float
    covered: bool


def growth_bound_fit(F, space, p: int, sample_radii, seed: int = 0) -> GrowthFit:
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
    dirs /= mode_norm(space, dirs, p)[:, None]  # |dir|_p = 1
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


def apply_Q(spec: CovarianceSpec, psi: Field) -> Field:
    """Q psi = sum_i lambda_i <psi, e_i> e_i."""
    out = np.zeros(spec.grid.shape, dtype=complex)
    for lam, e in zip(spec.eigenvalues, spec.eigenfields):
        out += lam * psi.inner(e) * e.values
    return Field(spec.grid, out)


def empirical_covariance(sampler: QWienerSampler, t: float, tau: float,
                         psi: Field, phi: Field, n_paths: int,
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
