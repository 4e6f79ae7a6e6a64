import numpy as np
import pytest

from stochwave import (CovarianceSpec, Field, QWienerSampler, brownian_increments,
                       default_covariance, empirical_covariance, make_grid,
                       multiple_wiener, orthogonality_check)
from stochwave.noise import discrete_pairing, sample_moments

GRID = make_grid(1, [32], [2 * np.pi])


@pytest.fixture(scope="module")
def cov():
    return default_covariance(GRID, n_modes=4, lambda0=0.5, gamma=2.0)


def test_default_covariance_orthonormal_and_trace(cov):
    gram = np.array([[ei.inner(ej).real for ej in cov.eigenfields]
                     for ei in cov.eigenfields])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10
    assert np.sum(cov.eigenvalues) == pytest.approx(0.5 * (1 + 1 / 4 + 1 / 9 + 1 / 16))


def test_covariance_rejects_bad_spectra():
    ones = Field(GRID, np.ones(GRID.shape) / np.sqrt(GRID.volume))
    with pytest.raises(ValueError):
        CovarianceSpec(np.array([-1.0]), [ones])
    with pytest.raises(ValueError):
        CovarianceSpec(np.array([1.0, 1.0]), [ones, ones])  # not orthonormal


def test_geometric_trace():
    lams = 2.0 ** -np.arange(1, 9)
    fields = default_covariance(GRID, n_modes=8, lambda0=1.0, gamma=1.5).eigenfields
    spec = CovarianceSpec(lams, fields)
    assert np.sum(spec.eigenvalues) == pytest.approx(1 - 2.0**-8)


def test_single_mode_increment_variance(cov):
    ones = Field(GRID, np.ones(GRID.shape) / np.sqrt(GRID.volume))
    spec = CovarianceSpec(np.array([1.0]), [ones])
    dt = 0.25
    draws = QWienerSampler(spec, 0, 0).increments(dt, 4000)
    pairings = np.array([Field(GRID, d.astype(complex)).inner(ones).real
                         for d in draws])
    var = pairings.var(ddof=1)
    se = var * np.sqrt(2.0 / len(pairings))
    assert abs(var - dt) < 3 * se


def test_replay_is_bit_identical(cov):
    a = QWienerSampler(cov, 42, 5).increments(0.01, 64)
    b = QWienerSampler(cov, 42, 5).increments(0.01, 64)
    assert np.array_equal(a, b)
    c = QWienerSampler(cov, 42, 5)
    chunks = np.concatenate([c.increments(0.01, 32), c.increments(0.01, 32)])
    assert np.array_equal(a, chunks)  # chunked draws see the same stream


@pytest.mark.parametrize("grid", [GRID, make_grid(2, [8, 6], [2 * np.pi, 3.0])],
                         ids=["1d", "2d"])
def test_increments_equal_the_tensordot_form_bit_for_bit(grid):
    # the mode matrix is built once per covariance, and the product is the
    # np.dot that tensordot calls; both draws share the stream's state
    spec = default_covariance(grid, n_modes=5, lambda0=0.7, gamma=1.5)
    sampler, replay = QWienerSampler(spec, 9, 2), QWienerSampler(spec, 9, 2)
    for n_steps, dt in ((17, 0.01), (1, 0.25), (0, 0.1), (40, 1e-3)):
        got = sampler.increments(dt, n_steps)
        amp = replay.normals(n_steps) * np.sqrt(spec.eigenvalues * dt)
        want = np.tensordot(amp, spec.mode_matrix(), axes=(1, 0))
        assert got.shape == want.shape == (n_steps,) + grid.shape
        assert got.tobytes() == want.tobytes()


def test_streams_are_uncorrelated(cov):
    n = 4000
    a = QWienerSampler(cov, 7, 0).normals(n)[:, 0]
    b = QWienerSampler(cov, 7, 1).normals(n)[:, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3 / np.sqrt(n)


def test_increment_mode_scaling(cov):
    n = 5000
    sampler = QWienerSampler(cov, 3, 0)
    dt = 0.1
    draws = sampler.increments(dt, n)
    for i, (lam, e) in enumerate(zip(cov.eigenvalues, cov.eigenfields)):
        pair = np.array([Field(GRID, d.astype(complex)).inner(e).real for d in draws])
        var = pair.var(ddof=1)
        se = var * np.sqrt(2.0 / n)
        assert abs(var - lam * dt) < 3 * se + 1e-12


def test_refinement_consistency(cov):
    # summed half-step increments match the coarse increment distribution
    n = 4000
    fine = QWienerSampler(cov, 11, 0).increments(0.05, 2 * n)
    summed = fine[0::2] + fine[1::2]
    coarse = QWienerSampler(cov, 12, 0).increments(0.1, n)
    e1 = cov.eigenfields[0]
    p_sum = np.array([Field(GRID, d.astype(complex)).inner(e1).real for d in summed])
    p_coarse = np.array([Field(GRID, d.astype(complex)).inner(e1).real for d in coarse])
    for moment in (1, 2):
        ms, mc = np.mean(p_sum**moment), np.mean(p_coarse**moment)
        se = np.std(p_sum**moment, ddof=1) / np.sqrt(n) \
            + np.std(p_coarse**moment, ddof=1) / np.sqrt(n)
        assert abs(ms - mc) < 3 * se + 1e-12


def test_increment_rejects_nonpositive_dt(cov):
    with pytest.raises(ValueError):
        QWienerSampler(cov, 0, 0).increments(0.0, 1)


def test_empirical_covariance_examples(cov):
    sampler = QWienerSampler(cov, 100, 0)
    e1, e2 = cov.eigenfields[0], cov.eigenfields[1]
    est, se = empirical_covariance(sampler, 1.0, 1.0, e1, e1, n_paths=2000, n_steps=32)
    assert abs(est - cov.eigenvalues[0]) < 3 * se
    est, se = empirical_covariance(sampler, 1.0, 1.0, e1, e2, n_paths=2000, n_steps=32)
    assert abs(est) < 3 * se
    est, se = empirical_covariance(sampler, 2.0, 3.0, e1, e1, n_paths=2000, n_steps=48)
    assert abs(est - 2.0 * cov.eigenvalues[0]) < 3 * se


def test_empirical_covariance_enforces_path_floor(cov):
    sampler = QWienerSampler(cov, 1, 0)
    e1 = cov.eigenfields[0]
    with pytest.raises(ValueError):
        empirical_covariance(sampler, 1.0, 1.0, e1, e1, n_paths=100)


def test_wiener_integral_order_one_telescopes():
    dB = brownian_increments(np.random.default_rng(0), 4, 128)
    ones = lambda t: np.ones_like(t)
    assert multiple_wiener(1, ones, dB) == pytest.approx(dB.sum(axis=1))
    zero = lambda t: np.zeros_like(t)
    assert np.array_equal(multiple_wiener(1, zero, dB), np.zeros(4))


def test_wiener_integral_order_two_closed_form_moments():
    # the discrete I_2(1) is beta(1)^2 - sum dB^2 row by row (the continuous
    # beta(1)^2 - 1 has second moment 2, the discrete one 2 - 2/64), and its
    # first two moments lie within 3 standard errors of 0 and that pairing
    ones2 = lambda s, t: np.ones_like(s + t)
    dB = brownian_increments(np.random.default_rng(1), 3000, 64)
    i2 = multiple_wiener(2, ones2, dB)
    np.testing.assert_allclose(i2, dB.sum(axis=1) ** 2 - np.sum(dB**2, axis=1),
                               rtol=0, atol=1e-12)
    for moment, exact in ((1, 0.0), (2, discrete_pairing(2, ones2, ones2, 64))):
        mean, _, se = sample_moments(i2**moment)
        assert abs(mean - exact) <= 3 * se


def test_wiener_integral_rejects_bad_kernels():
    dB = brownian_increments(np.random.default_rng(2), 3, 16)
    with pytest.raises(ValueError, match="orders"):
        multiple_wiener(3, lambda t: t, dB)
    asym = np.triu(np.ones((16, 16)))
    with pytest.raises(ValueError, match="symmetric"):
        multiple_wiener(2, asym, dB)
    with pytest.raises(ValueError, match="shape"):
        multiple_wiener(2, np.ones((16, 15)), dB)
    with pytest.raises(ValueError, match="shape"):
        multiple_wiener(1, np.ones(17), dB)


def _per_path_orthogonality(n, m, f, g, n_paths, steps, seed):
    """orthogonality_check one path at a time: a (steps, 1) draw per path from
    one Generator, its values on a linspace time grid, and each kernel
    evaluated and symmetry-checked per path."""
    def integral(order, kernel, times, dB):
        lefts = times[:-1]
        if order == 1:
            return float(np.dot(kernel(lefts), dB))
        F = kernel(lefts[:, None], lefts[None, :])
        assert np.max(np.abs(F - F.T)) <= 1e-12 * (1.0 + np.max(np.abs(F)))
        return float(dB @ F @ dB) - float(np.dot(np.diag(F), dB**2))
    rng = np.random.default_rng(seed)
    prods = np.empty(n_paths)
    for p in range(n_paths):
        step_dB = rng.standard_normal((steps, 1)) * np.sqrt(1.0 / steps)
        beta = np.vstack([np.zeros((1, 1)), np.cumsum(step_dB, axis=0)])
        times = np.linspace(0.0, 1.0, steps + 1)
        dB = np.diff(beta[:, 0])
        prods[p] = integral(n, f, times, dB) * integral(m, g, times, dB)
    est, _, stderr = sample_moments(prods)
    return float(est), float(stderr)


def test_stacked_integrals_equal_the_per_path_loop_bit_for_bit():
    ones = lambda t: np.ones_like(t)
    ones2 = lambda s, t: np.ones_like(s + t)
    wavy = lambda t: np.cos(3.0 * t) + t
    bump2 = lambda s, t: np.exp(-(s - t) ** 2) + s * t
    kernels = {1: wavy, 2: bump2}
    # verify's two checks (master seed 42, 2,000 paths, 32 steps), then each
    # pair of orders at three step counts
    cases = [(1, 2, ones, ones2, 2000, 32, 42), (1, 1, ones, ones, 2000, 32, 43)]
    cases += [(n, m, kernels[n], kernels[m], 500, steps, 10 * steps + 3 * n + m)
              for steps in (16, 32, 64) for n, m in ((1, 1), (1, 2), (2, 2))]
    for case in cases:
        assert orthogonality_check(*case[:4], n_paths=case[4], steps=case[5],
                                   seed=case[6]) == _per_path_orthogonality(*case)
    for steps in (16, 32, 64):
        lefts = np.linspace(0.0, 1.0, steps + 1)[:-1]
        dt = 1.0 / steps
        assert discrete_pairing(1, wavy, ones, steps) == float(
            np.dot(wavy(lefts), ones(lefts)) * dt)
        F, G = bump2(lefts[:, None], lefts[None, :]), ones2(lefts[:, None], lefts[None, :])
        lower = np.tril(np.ones((steps, steps)), k=-1)
        assert discrete_pairing(2, bump2, ones2, steps) == float(
            4.0 * np.sum(F * G * lower.T) * dt * dt)


def test_orthogonality_across_orders():
    ones = lambda t: np.ones_like(t)
    ones2 = lambda s, t: np.ones_like(s + t)
    est, se = orthogonality_check(1, 2, ones, ones2, n_paths=3000, steps=32, seed=3)
    assert abs(est) < 3 * se


def test_ito_isometry_multiple_step_counts():
    f = lambda t: np.sqrt(2.0) * np.ones_like(t)  # ||f||^2 = 2 on [0, 1]
    for steps, seed in ((16, 4), (32, 5), (64, 6)):
        est, se = orthogonality_check(1, 1, f, f, n_paths=3000, steps=steps, seed=seed)
        assert abs(est - 2.0) < 3 * se


def test_order_two_pairing_matches_discrete_oracle():
    ones2 = lambda s, t: np.ones_like(s + t)
    steps = 32
    est, se = orthogonality_check(2, 2, ones2, ones2, n_paths=4000, steps=steps, seed=7)
    oracle = discrete_pairing(2, ones2, ones2, steps)  # -> 2 (f, f) as steps grow
    assert abs(est - oracle) < 3 * se
    assert oracle == pytest.approx(2.0 * (1.0 - 1.0 / steps))
