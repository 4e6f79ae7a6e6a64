"""Ensemble execution, convergence-order fits, tail statistics, cross-checks.

Paths are independent: path i owns noise stream i (``noise.path_samplers``)
and results are reduced in index order, so the aggregate is bit-identical
from run to run. ``run_ensemble`` marches the paths in stacks with the
stopping rule (``solver._ito_march``; the stop times also give the survival
curve, ``TailCurve.from_stop_times``), and ``_path_finals`` one by one to T
on one or more dts. Strong-order fits couple refinement levels pathwise by
summing fine increments into coarse ones; weak-order fits use the same
coupling so the Monte Carlo noise on E f(phi_dt) - E f(phi_ref) is the
variance of a pathwise difference rather than of two independent ensembles.
Order fits are least squares on log-log ladders, discarding points below ten
times the Monte Carlo noise floor.

A Monte Carlo sample is a column: ``_columns`` maps a (B, s, *grid.shape)
stack of final states (an ensemble's stack of paths, or a path's rungs) to a
row per named observable, each value as from its state alone, from one norm
ladder and one probe pairing; ``noise.sample_moments`` reduces the rows to
means, variances and standard errors. A stack's finals are dropped once its
columns are taken, so no run holds more than one stack of states.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .chaos import ChaosSpace, WickTrajectory, solve_wick_evolution
from .grids import MAX_ARRAY_ELEMENTS, _bound
from .models import Model, _powers
from .noise import CovarianceSpec, path_samplers, sample_moments
from .solver import _ito_march, _step_count, step_exp_euler

# The survival curve's lower-bound fit window is rho <= TAIL_FIT_RHO_MAX.
TAIL_FIT_RHO_MAX = 0.5
# fixed bounds on the work of one ensemble, the same on every host
MAX_PATHS, MAX_PATH_STEPS = 1_000_000, 100_000_000
_STACK_BYTES = 2 << 20  # the bytes of one stack's increments in run_ensemble


@dataclass
class EnsembleConfig:
    """Everything one ensemble needs; reproducible from (config, seed)."""

    model: Model
    phi0: np.ndarray
    T: float
    dt: float
    covariance: CovarianceSpec | None
    n_paths: int
    master_seed: int
    threshold: float = np.inf
    observables: tuple[str, ...] = ("norm_sq",)
    probe: np.ndarray = field(init=False)  # built once per run (``_probe``)

    def __post_init__(self):
        self.phi0 = self.model.generator._as_state(self.phi0)
        _check_paths(self.n_paths)
        n_steps = _step_count(self.T, self.dt)
        _check_work(self.n_paths, n_steps)
        if self.covariance is not None:
            _check_increments(n_steps, self.model.grid.size)
        self.probe = _probe(self.model, self.phi0)


def _check_work(n_paths: int, n_steps: int) -> None:
    """The bound on a run's marching: ``n_paths`` paths of ``n_steps`` steps
    each, at most MAX_PATH_STEPS steps in all."""
    _bound("n_paths x steps", n_paths * n_steps, most=MAX_PATH_STEPS)


def _check_increments(n_steps: int, points: int) -> None:
    """The bound on one path's increments, an (n_steps, *grid.shape) array that
    a march draws whole: at most MAX_ARRAY_ELEMENTS."""
    _bound("steps x grid points", n_steps * points, most=MAX_ARRAY_ELEMENTS)


def _check_paths(n_paths) -> None:
    """A Monte Carlo path count, from 2 (a variance needs two) to MAX_PATHS."""
    _bound("n_paths", n_paths, 2, MAX_PATHS)


def _probe(model: Model, phi0: np.ndarray) -> np.ndarray:
    """phi0 normalized in the model's H-norm, the probe of every pairing."""
    return phi0 * (1.0 / max(model.generator.metric_norm(phi0), 1e-300))


def _columns(model: Model, names, probe: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The observables ``names`` of each state of a (B, s, *grid.shape) stack as
    (len(names), B), each as from the state alone: one graph-norm ladder, one
    pairing with ``probe`` and the invariants, each only if a name needs it."""
    if "sup_sum_sq" in names:
        raise ValueError("sup_sum_sq is a sup over the whole path, not a function "
                         "of the final state")
    gen, out, named = model.generator, np.empty((len(names), len(data))), set(names)
    # the ladder's names and powers, one spelling per power: ASCII digits with no
    # sign or leading zero; a negative power gets past it for the ladder's own error
    js = {n: int(m[1] or 0) for n in names
          if (m := re.fullmatch(r"graph_norm_j(0|-?[1-9][0-9]*)|norm|norm_sq|log_norm_sq", n))}
    if js:  # to the top power, or to a negative one for the error
        ladder = gen.graph_norm_ladder(data, min(js.values(), key=lambda j: (j >= 0, -j)))
    pairs = gen.metric_inner(data, probe) if {"pairing_re", "pairing_im"} & named else 0j
    values = {"constant": 1.0, "pairing_re": pairs.real, "pairing_im": pairs.imag,
              **dict.fromkeys(("mass", "energy", "charge"), np.nan),
              **(model.conserved_blocks(data) if {"mass", "energy", "charge"} & named else {})}
    for row, name in zip(out, names):
        if name == "norm_sq":
            row[:] = _powers(ladder[:, 0], 2)
        elif name == "log_norm_sq":
            # low-variance functional for weak-order fits on multiplicative noise
            row[:] = [2.0 * np.log(max(n, 1e-300)) for n in ladder[:, 0].tolist()]
        elif name in js:
            row[:] = ladder[:, js[name]]
        elif name in values:
            row[:] = values[name]
        else:
            raise ValueError(f"unknown observable '{name}'")
    return out


@dataclass
class EnsembleResult:
    observables: dict            # name -> {"mean", "var", "stderr"}
    stop_times: list             # stop time per path, None when the path ran to T
    n_stopped: int
    n_blown: int
    sup_ratio: float             # E[sup_t sum_j ||A^j phi||^2] / sum_j ||A^j phi0||^2
    master_seed: int
    n_paths: int


def _path_finals(config: EnsembleConfig, dts) -> Iterator[np.ndarray]:
    """Yield each path's final states, one per dt in ``dts`` (finest last).

    The increments are drawn once at the finest dt; a coarser dt sums them,
    so every dt sees the same Brownian path. Each rung's increments are cast
    to complex once, the cast that the product with the state makes anyway.
    """
    model, phi0 = config.model, config.phi0
    rungs = [(dt, _step_count(config.T, dt)) for dt in dts]
    n_fine = rungs[-1][1]
    for sampler in path_samplers(config.covariance, config.master_seed, config.n_paths):
        fine = None if sampler is None else sampler.increments(dts[-1], n_fine)
        finals = np.empty((len(rungs),) + phi0.shape, dtype=complex)
        for r, (dt, n) in enumerate(rungs):
            dW = [None] * n if fine is None else (fine if n == n_fine else fine.reshape(
                n, n_fine // n, *fine.shape[1:]).sum(axis=1)).astype(complex)
            state = phi0
            for inc in dW:
                state = step_exp_euler(model, state, dt, inc)
            finals[r] = state
        yield finals


@np.errstate(over="ignore", invalid="ignore")
def run_ensemble(config: EnsembleConfig) -> EnsembleResult:
    """Independent trajectories with stream_id = path index, ordered reduction:
    ``_ito_march`` on stacks of paths in index order, whose increments fill one
    array of ``_STACK_BYTES`` (one path's, if larger), each stack's finals
    reduced to their observable columns as it ends. Blown-up paths count as
    stopped, not fatal, and their non-finite observables as data: the run, the
    reduction too, has numpy's overflow and invalid warnings off. The result is
    the same bit for bit for any stack size."""
    model, phi0, dt, grid = config.model, config.phi0, config.dt, config.model.grid
    n_steps = _step_count(config.T, dt)
    size = min(config.n_paths, max(1, _STACK_BYTES // (8 * n_steps * grid.size)))
    buf = None if config.covariance is None else np.empty((n_steps, size, 1) + grid.shape)
    stacks, samplers = [], path_samplers(config.covariance, config.master_seed, config.n_paths)
    named = [name for name in config.observables if name != "sup_sum_sq"]
    for start in range(0, config.n_paths, size):
        n = min(size, config.n_paths - start)
        for b, sampler in zip(range(n), samplers):
            if sampler is not None:
                buf[:, b, 0] = sampler.increments(dt, n_steps)
        dW = None if buf is None else buf[:, :n]
        finals, sups, stops, blown = _ito_march(model, phi0, dt, n_steps, config.threshold, dW, n)
        stacks.append((sups, stops, blown, _columns(model, named, config.probe, finals)))
    sups, stops, blown, columns = (np.concatenate(part, axis=-1) for part in zip(*stacks))
    moments = dict(zip(named, zip(*sample_moments(columns))), sup_sum_sq=sample_moments(sups))
    observables = {name: dict(zip(("mean", "var", "stderr"), map(float, moments[name])))
                   for name in config.observables}
    denom = float(np.sum(model.generator.graph_norm_ladder(phi0, model.smoothness) ** 2))
    return EnsembleResult(
        observables=observables,
        stop_times=[k * dt if k else None for k in stops.tolist()],
        n_stopped=int(np.count_nonzero(stops)),
        n_blown=int(np.count_nonzero(blown)),
        sup_ratio=float(np.mean(sups) / denom) if denom > 0 else np.nan,
        master_seed=config.master_seed,
        n_paths=config.n_paths,
    )


# ---------------------------------------------------------------------------
# Convergence orders with pathwise-coupled refinement
# ---------------------------------------------------------------------------

@dataclass
class OrderFit:
    dts: np.ndarray
    errors: np.ndarray
    stderrs: np.ndarray
    order: float
    fit_residual: float
    monotone: bool
    skipped: bool = False   # exact integrator: errors at roundoff


def _fit_order(dts, errors, stderrs, scale, floor=10.0) -> OrderFit:
    dts, errors, stderrs = map(np.asarray, (dts, errors, stderrs))
    if np.all(errors < 1e-12 * max(scale, 1e-300)):
        return OrderFit(dts, errors, stderrs, np.nan, 0.0, True, skipped=True)
    keep = errors > floor * stderrs
    if keep.sum() < 2:
        # not enough rungs clear the Monte Carlo noise floor for a fit
        return OrderFit(dts, errors, stderrs, np.nan, np.inf, False, skipped=True)
    x, y = np.log(dts[keep]), np.log(errors[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    monotone = bool(np.all(np.diff(errors[np.argsort(dts)]) >= -stderrs[np.argsort(dts)][1:]))
    return OrderFit(dts, errors, stderrs, float(slope), resid, monotone)


def _ladder(T: float, dt_ladder) -> np.ndarray:
    """Validate an order-fit ladder; returns its dts descending (finest last).

    A ladder needs at least 4 rungs, every rung must divide T, and the rungs
    must be distinct multiples of the finest, whose increments they sum.
    """
    dts = np.sort(np.asarray(dt_ladder, dtype=float))[::-1]
    _bound("dt_ladder length", len(dts), least=4)
    steps = [_step_count(T, dt) for dt in dts.tolist()]
    if any(steps[-1] % n for n in steps) or len(set(steps)) < len(steps):
        raise ValueError(f"dt_ladder entries must be distinct multiples of the finest dt, "
                         f"got {dts.tolist()}")
    return dts


def strong_order(config: EnsembleConfig, dt_ladder) -> OrderFit:
    """Pathwise strong error E||phi_dt(T) - phi_ref(T)|| vs dt, log-log fit.

    The finest ladder entry is the reference; coarse-level increments are
    sums of the fine ones, so every level sees the same Brownian path.
    Rungs below ten times their standard error are dropped.
    """
    gen = config.model.generator
    dts = _ladder(config.T, dt_ladder)
    errs = _path_columns(config, dts, lambda f: gen.graph_norm_ladder(f[:-1] - f[-1], 0)[:, 0])
    mean, _, stderr = sample_moments(errs)
    return _fit_order(dts[:-1], mean, stderr, scale=gen.metric_norm(config.phi0))


def weak_order(config: EnsembleConfig, dt_ladder, observable: str = "norm_sq",
               noise_floor_factor: float = 10.0) -> OrderFit:
    """Coupled weak error |E f(phi_dt) - E f(phi_ref)| vs dt, log-log fit."""
    column = lambda data: _columns(config.model, (observable,), config.probe, data)[0]
    scale = abs(column(config.phi0[None])[0]) + 1.0
    dts = _ladder(config.T, dt_ladder)
    f = _path_columns(config, dts, column)
    mean, _, stderr = sample_moments(f[:-1] - f[-1])
    return _fit_order(dts[:-1], np.abs(mean), stderr, scale=scale, floor=noise_floor_factor)


def _path_columns(config: EnsembleConfig, dts, column) -> np.ndarray:
    """``column(finals)`` of each path's finals (``_path_finals``), one column
    per path: a row per rung (or per observable of the one rung), which
    ``sample_moments`` reduces along."""
    return np.stack([column(finals) for finals in _path_finals(config, dts)], axis=1)


# ---------------------------------------------------------------------------
# Stopping-time tail curve
# ---------------------------------------------------------------------------

@dataclass
class TailCurve:
    rhos: np.ndarray
    survival: np.ndarray
    band: np.ndarray          # 3-sigma binomial half width
    m_hat: float              # least-squares fit of 1 - rho^2 * M to the curve
    n_paths: int

    def lower_bound_ok(self) -> bool:
        """Does 1 - rho^2 M_hat stay below the curve plus its band on the fit window?"""
        sel = self.rhos <= TAIL_FIT_RHO_MAX
        return bool(np.all(1.0 - self.m_hat * self.rhos[sel] ** 2
                           <= self.survival[sel] + self.band[sel]))

    @classmethod
    def from_stop_times(cls, stop_times, rho_grid) -> "TailCurve":
        """Empirical survival P(tau > rho) of per-path stop times (None: ran to T)."""
        rhos = _rho_grid(rho_grid)
        n = len(stop_times)
        taus = np.array([np.inf if s is None else s for s in stop_times])
        survival = np.array([np.mean(taus > r) for r in rhos])
        band = 3.0 * np.sqrt(survival * (1 - survival) / n) + 1.0 / n
        sel = rhos <= TAIL_FIT_RHO_MAX
        denom = float(np.sum(rhos[sel] ** 4))
        m_hat = float(np.sum((1 - survival[sel]) * rhos[sel] ** 2) / denom) if denom > 0 else 0.0
        return cls(rhos, survival, band, m_hat, n)


def _rho_grid(rho_grid) -> np.ndarray:
    """Validate a survival grid: a flat list of rho values, each in (0, 1)."""
    rhos = np.asarray(rho_grid, dtype=float)
    if rhos.ndim != 1 or not np.all((rhos > 0) & (rhos < 1)):
        raise ValueError(f"rho_grid must be a flat list of values in (0, 1), got {rhos.tolist()}")
    return rhos


# ---------------------------------------------------------------------------
# Chaos-vs-Monte-Carlo cross validation
# ---------------------------------------------------------------------------

@dataclass
class ChaosMcReport:
    probe_mc: list            # one row: (re, im, stderr_re, stderr_im)
    probe_chaos: list         # one row: (re, im)
    mean_within_3se: bool
    mc_second_moment: float
    mc_second_moment_stderr: float
    chaos_energy: float
    second_moment_gap: float
    tail_fraction: float


def chaos_vs_mc(config: EnsembleConfig,
                space: ChaosSpace) -> tuple[ChaosMcReport, tuple[WickTrajectory, np.ndarray]]:
    """Compare the Ito ensemble against the Wick-evolution chaos solution;
    returns the report, and the chaos side's solve with its blocks' probe pairings.

    The probe is the normalized initial state. The mean field comparison is
    exact up to Monte Carlo and dt error: the centered noise contributes
    nothing to either mean (the degree-0 block is driven only by lower
    degrees, of which there are none). Second moments differ between the
    time-white Ito noise and the time-frozen chaos noise; the gap is reported
    as a diagnostic, not asserted.
    """
    model, phi0, cov = config.model, config.phi0, config.covariance
    if cov is None:
        raise ValueError("chaos_vs_mc needs a noise model")

    # Monte Carlo side: each path's probe pairing and squared norm, a column per path.
    columns = _path_columns(config, [config.dt], lambda f: _columns(
        model, ("pairing_re", "pairing_im", "norm_sq"), config.probe, f)[:, 0])
    (re, im, mc2), _, (se_re, se_im, mc2_se) = (map(float, m) for m in sample_moments(columns))

    # Chaos side: frozen first-chaos noise on the shared eigenbasis, each block paired.
    fields = cov.noise_fields()[: space.n_modes]
    wick = solve_wick_evolution(model, phi0, fields, config.T, config.dt, space)
    pairs = model.generator.metric_inner(wick.final, config.probe)
    cz = complex(pairs[0])
    ok = abs(re - cz.real) <= 3 * se_re + 1e-12 and abs(im - cz.imag) <= 3 * se_im + 1e-12

    energy = float(np.sum(wick.final_energy))
    tail = float(wick.tail_fractions[-1]) if len(wick.tail_fractions) else 0.0
    return ChaosMcReport(
        probe_mc=[(re, im, se_re, se_im)],
        probe_chaos=[(cz.real, cz.imag)], mean_within_3se=ok,
        mc_second_moment=mc2, mc_second_moment_stderr=mc2_se,
        chaos_energy=energy, second_moment_gap=float(energy - mc2),
        tail_fraction=tail,
    ), (wick, pairs)
