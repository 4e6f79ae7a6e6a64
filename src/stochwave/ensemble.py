"""Ensemble execution, convergence-order fits, tail statistics, cross-checks.

Paths are independent: path i owns noise stream i and results are reduced
in index order, so the aggregate is bit-identical from run to run. Every
path gets its stream from ``_noise`` and is marched either with the
stopping rule (``_stopping_paths``) or to T on one or more dts
(``_path_finals``). Strong-order fits couple refinement levels pathwise by summing
fine increments into coarse ones; weak-order fits use the same coupling so
the Monte Carlo noise on E f(phi_dt) - E f(phi_ref) is the variance of a
pathwise difference rather than of two independent ensembles. Order fits are
least squares on log-log ladders, discarding points below ten times the
Monte Carlo noise floor.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .chaos import ChaosSpace, WickTrajectory, solve_wick_evolution
from .grids import Field, State
from .models import Model
from .noise import CovarianceSpec, QWienerSampler
from .solver import Trajectory, _step_count, solve_ito, step_exp_euler


@dataclass
class EnsembleConfig:
    """Everything one ensemble needs; reproducible from (config, seed)."""

    model: Model
    phi0: State
    T: float
    dt: float
    covariance: CovarianceSpec | None
    n_paths: int
    master_seed: int
    threshold: float = np.inf
    n_smooth: int | None = None
    observables: tuple[str, ...] = ("norm_sq",)

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("an ensemble needs at least 2 paths")
        _step_count(self.T, self.dt)


def _observable_fn(model: Model, name: str, phi0: State):
    """Map a final state to a float; ``sup_sum_sq`` needs the path, not a state."""
    probe = phi0 * (1.0 / max(model.norm(phi0), 1e-300))
    if name == "norm_sq":
        return lambda st: model.norm(st) ** 2
    if name == "constant":
        return lambda st: 1.0
    if name == "log_norm_sq":
        # low-variance functional for weak-order fits on multiplicative noise
        return lambda st: 2.0 * np.log(max(model.norm(st), 1e-300))
    if name == "norm":
        return lambda st: model.norm(st)
    if name == "sup_sum_sq":
        raise ValueError("sup_sum_sq is a sup over the whole path, not a function "
                         "of the final state")
    if name.startswith("graph_norm_j"):
        j = int(name.removeprefix("graph_norm_j"))
        return lambda st: model.graph_norm(st, j)
    if name == "pairing_re":
        return lambda st: model.inner(st, probe).real
    if name == "pairing_im":
        return lambda st: model.inner(st, probe).imag
    if name in ("mass", "energy", "charge"):
        return lambda st: model.conserved(st).get(name, np.nan)
    raise ValueError(f"unknown observable '{name}'")


@dataclass
class EnsembleResult:
    observables: dict            # name -> {"mean", "var", "stderr"}
    stop_times: list             # stop time per path, None when the path ran to T
    n_stopped: int
    n_blown: int
    sup_ratio: float             # E[sup_t sum_j ||A^j phi||^2] / sum_j ||A^j phi0||^2
    path_seeds: list
    master_seed: int
    n_paths: int

    def to_dict(self) -> dict:
        return {
            "observables": {
                k: {kk: float(vv) for kk, vv in v.items()}
                for k, v in sorted(self.observables.items())
            },
            "stop_times": [None if s is None else float(s) for s in self.stop_times],
            "n_stopped": self.n_stopped,
            "n_blown": self.n_blown,
            "sup_ratio": float(self.sup_ratio),
            "path_seeds": list(self.path_seeds),
            "master_seed": self.master_seed,
            "n_paths": self.n_paths,
        }


def _noise(config: EnsembleConfig, i: int) -> QWienerSampler | None:
    """Path i's noise: Philox stream i of the master seed, or none."""
    if config.covariance is None:
        return None
    return QWienerSampler(config.covariance, config.master_seed, stream_id=i)


def _stopping_paths(config: EnsembleConfig) -> Iterator[Trajectory]:
    """Each path marched by ``solve_ito`` with the stopping rule, in index order."""
    n_steps = _step_count(config.T, config.dt)
    for i in range(config.n_paths):
        yield solve_ito(config.model, config.phi0, config.T, config.dt, _noise(config, i),
                        threshold=config.threshold, n_smooth=config.n_smooth,
                        record_every=n_steps)


def _path_finals(config: EnsembleConfig, dts) -> Iterator[list[State]]:
    """Yield, path by path, the final state at each dt in ``dts`` (finest last).

    The increments are drawn once at the finest dt; a coarser dt sums them,
    so every dt sees the same Brownian path.
    """
    steps = [_step_count(config.T, dt) for dt in dts]
    n_fine = steps[-1]
    for i in range(config.n_paths):
        sampler = _noise(config, i)
        fine = None if sampler is None else sampler.increments(dts[-1], n_fine)
        finals = []
        for dt, n in zip(dts, steps):
            dW = fine
            if fine is not None and n < n_fine:
                dW = fine.reshape(n, n_fine // n, *fine.shape[1:]).sum(axis=1)
            state = config.phi0
            for k in range(n):
                state = step_exp_euler(config.model, state, dt,
                                       None if dW is None else dW[k])
            finals.append(state)
        yield finals


def run_ensemble(config: EnsembleConfig) -> EnsembleResult:
    """Independent trajectories with stream_id = path index, ordered reduction.

    Per-path blow-ups are counted as stopped paths, not fatal. The result is
    reproducible bit for bit from (config, master_seed).
    """
    fns = {name: _observable_fn(config.model, name, config.phi0)
           for name in config.observables if name != "sup_sum_sq"}
    trajs = list(_stopping_paths(config))
    sups = np.array([t.sup_sum_sq() for t in trajs])
    observables = {}
    for name in config.observables:
        vals = sups if name == "sup_sum_sq" else \
            np.array([fns[name](t.final_state()) for t in trajs])
        observables[name] = {
            "mean": float(np.mean(vals)),
            "var": float(np.var(vals, ddof=1)),
            "stderr": float(np.std(vals, ddof=1) / np.sqrt(len(vals))),
        }
    denom = float(np.sum(config.model.graph_norms(config.phi0,
                                                  config.model.smoothness
                                                  if config.n_smooth is None
                                                  else config.n_smooth) ** 2))
    return EnsembleResult(
        observables=observables,
        stop_times=[t.stop_time for t in trajs],
        n_stopped=sum(t.stopped for t in trajs),
        n_blown=sum(t.blown_up for t in trajs),
        sup_ratio=float(np.mean(sups) / denom) if denom > 0 else np.nan,
        path_seeds=list(range(config.n_paths)),
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

    def to_dict(self):
        def clean(x):
            return float(x) if np.isfinite(x) else None

        return {
            "dts": [float(x) for x in self.dts],
            "errors": [float(x) for x in self.errors],
            "stderrs": [float(x) for x in self.stderrs],
            "order": clean(self.order),
            "fit_residual": clean(self.fit_residual),
            "monotone": bool(self.monotone),
            "skipped": bool(self.skipped),
        }


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

    A ladder needs at least 4 rungs, every rung must divide T, and every rung
    must be a multiple of the finest, whose increments it sums.
    """
    dts = np.sort(np.asarray(dt_ladder, dtype=float))[::-1]
    if len(dts) < 4:
        raise ValueError("order fits need a ladder of at least 4 dt values")
    n_ref = _step_count(T, dts[-1])
    for dt in dts[:-1]:
        if n_ref % _step_count(T, dt):
            raise ValueError("ladder entries must be multiples of the finest dt")
    return dts


def strong_order(config: EnsembleConfig, dt_ladder,
                 noise_floor_factor: float = 10.0) -> OrderFit:
    """Pathwise strong error E||phi_dt(T) - phi_ref(T)|| vs dt, log-log fit.

    The finest ladder entry is the reference; coarse-level increments are
    sums of the fine ones, so every level sees the same Brownian path.
    Rungs below noise_floor_factor times their standard error are dropped.
    """
    model = config.model
    dts = _ladder(config.T, dt_ladder)
    errs = np.zeros((len(dts) - 1, config.n_paths))
    for i, finals in enumerate(_path_finals(config, dts)):
        for k, sol in enumerate(finals[:-1]):
            errs[k, i] = model.norm(sol - finals[-1])
    mean = errs.mean(axis=1)
    stderr = errs.std(axis=1, ddof=1) / np.sqrt(config.n_paths)
    return _fit_order(dts[:-1], mean, stderr, scale=model.norm(config.phi0),
                      floor=noise_floor_factor)


def weak_order(config: EnsembleConfig, dt_ladder, observable: str = "norm_sq",
               noise_floor_factor: float = 10.0) -> OrderFit:
    """Coupled weak error |E f(phi_dt) - E f(phi_ref)| vs dt, log-log fit."""
    f = _observable_fn(config.model, observable, config.phi0)
    dts = _ladder(config.T, dt_ladder)
    diffs = np.zeros((len(dts) - 1, config.n_paths))
    for i, finals in enumerate(_path_finals(config, dts)):
        f_ref = f(finals[-1])
        for k, sol in enumerate(finals[:-1]):
            diffs[k, i] = f(sol) - f_ref
    mean = np.abs(diffs.mean(axis=1))
    stderr = diffs.std(axis=1, ddof=1) / np.sqrt(config.n_paths)
    return _fit_order(dts[:-1], mean, stderr, scale=abs(f(config.phi0)) + 1.0,
                      floor=noise_floor_factor)


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

    def lower_bound_ok(self, rho_max: float = 0.5) -> bool:
        """Does 1 - rho^2 M_hat stay below the curve plus its band?"""
        sel = self.rhos <= rho_max
        return bool(np.all(1.0 - self.m_hat * self.rhos[sel] ** 2
                           <= self.survival[sel] + self.band[sel]))

    def to_dict(self):
        return {
            "rhos": [float(x) for x in self.rhos],
            "survival": [float(x) for x in self.survival],
            "band": [float(x) for x in self.band],
            "m_hat": float(self.m_hat),
            "n_paths": self.n_paths,
        }


def tail_curve(config: EnsembleConfig, rho_grid) -> TailCurve:
    """Empirical survival P(tau > rho) of the graph-norm stopping time."""
    rhos = np.asarray(rho_grid, dtype=float)
    if np.any(rhos <= 0) or np.any(rhos >= 1):
        raise ValueError("rho grid must lie in (0, 1)")
    taus = np.array([np.inf if t.stop_time is None else t.stop_time
                     for t in _stopping_paths(config)])
    survival = np.array([np.mean(taus > r) for r in rhos])
    band = 3.0 * np.sqrt(survival * (1 - survival) / config.n_paths) + 1.0 / config.n_paths
    sel = rhos <= 0.5
    denom = float(np.sum(rhos[sel] ** 4))
    m_hat = float(np.sum((1 - survival[sel]) * rhos[sel] ** 2) / denom) if denom > 0 else 0.0
    return TailCurve(rhos, survival, band, m_hat, config.n_paths)


# ---------------------------------------------------------------------------
# Chaos-vs-Monte-Carlo cross validation
# ---------------------------------------------------------------------------

@dataclass
class ChaosMcReport:
    probe_mc: list            # per probe: (re, im, stderr_re, stderr_im)
    probe_chaos: list         # per probe: (re, im)
    mean_within_3se: bool
    mc_second_moment: float
    mc_second_moment_stderr: float
    chaos_energy: float
    second_moment_gap: float
    tail_fraction: float
    wick: WickTrajectory = field(repr=False)  # the chaos side's solve; not reported

    def to_dict(self):
        return {
            "probe_mc": [[float(x) for x in row] for row in self.probe_mc],
            "probe_chaos": [[float(x) for x in row] for row in self.probe_chaos],
            "mean_within_3se": bool(self.mean_within_3se),
            "mc_second_moment": float(self.mc_second_moment),
            "mc_second_moment_stderr": float(self.mc_second_moment_stderr),
            "chaos_energy": float(self.chaos_energy),
            "second_moment_gap": float(self.second_moment_gap),
            "tail_fraction": float(self.tail_fraction),
        }


def chaos_vs_mc(config: EnsembleConfig, space: ChaosSpace,
                probes: list[State] | None = None) -> ChaosMcReport:
    """Compare the Ito ensemble against the Wick-evolution chaos solution.

    The mean field comparison is exact up to Monte Carlo and dt error: the
    centered noise contributes nothing to either mean (the degree-0 block is
    driven only by lower degrees, of which there are none). Second moments
    differ between the time-white Ito noise and the time-frozen chaos noise;
    the gap is reported as a diagnostic, not asserted.
    """
    model, cov = config.model, config.covariance
    if cov is None:
        raise ValueError("chaos_vs_mc needs a noise model")
    if probes is None:
        probes = [config.phi0 * (1.0 / max(model.norm(config.phi0), 1e-300))]

    # Monte Carlo side: pairings against each probe plus the second moment.
    pair_vals = np.zeros((len(probes), config.n_paths), dtype=complex)
    norm_sq = np.zeros(config.n_paths)
    for i, (final,) in enumerate(_path_finals(config, [config.dt])):
        for k, v in enumerate(probes):
            pair_vals[k, i] = model.inner(final, v)
        norm_sq[i] = model.norm(final) ** 2

    # Chaos side: frozen first-chaos noise on the shared eigenbasis.
    fields = [Field(cov.grid, np.sqrt(lam) * np.real(e.values).astype(complex))
              for lam, e in zip(cov.eigenvalues, cov.eigenfields[: space.n_modes])]
    wick = solve_wick_evolution(model, config.phi0, fields, config.T, config.dt, space)
    chaos_final = wick.final()
    zero_block = chaos_final.block(0)

    probe_mc, probe_chaos, ok = [], [], True
    for k, v in enumerate(probes):
        re, im = pair_vals[k].real, pair_vals[k].imag
        se_re = float(re.std(ddof=1) / np.sqrt(config.n_paths))
        se_im = float(im.std(ddof=1) / np.sqrt(config.n_paths))
        cz = model.inner(zero_block, v)
        probe_mc.append((float(re.mean()), float(im.mean()), se_re, se_im))
        probe_chaos.append((cz.real, cz.imag))
        ok &= abs(re.mean() - cz.real) <= 3 * se_re + 1e-12
        ok &= abs(im.mean() - cz.imag) <= 3 * se_im + 1e-12

    energy = float(np.sum(chaos_final.degree_energy()))
    mc2 = float(norm_sq.mean())
    mc2_se = float(norm_sq.std(ddof=1) / np.sqrt(config.n_paths))
    tail = float(wick.tail_fractions[-1]) if len(wick.tail_fractions) else 0.0
    return ChaosMcReport(
        probe_mc=probe_mc, probe_chaos=probe_chaos, mean_within_3se=bool(ok),
        mc_second_moment=mc2, mc_second_moment_stderr=mc2_se,
        chaos_energy=energy, second_moment_gap=float(energy - mc2),
        tail_fraction=tail, wick=wick,
    )
