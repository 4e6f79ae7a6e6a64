"""Config-driven command line driver.

Subcommands: simulate, picard, converge, chaos, ensemble, verify. Each takes
--config, --seed and --out, plus only the flags it reads (``_COMMANDS``).
A command computes and ``main`` writes. A command takes the resolved config
and returns its exit code, its report and its other files (name -> the value
of a .json file, or a CSV's named columns in the order they are written).
Before the command runs, ``main`` refuses an output path that is not a
directory or holds a run of a different config; once it returns, ``main``
writes the command's files, then config.resolved.json, then report.json
last (both carry the config hash), each piece by piece into a temporary file
that is then renamed. An error raised on the way leaves no run directory, or
a re-used one as it was. ``python -m stochwave`` runs the same commands.

The file suffix picks one of two rules, and no other module formats file
text. Every JSON file, and verify's --json stdout, is strict JSON written by
``_json``: a non-finite number is written as null. Every CSV is written a
line at a time by ``_csv``: a header of the column names, then one line per
entry with a float as ``%.17g`` (so ``inf`` and ``nan`` stay, which numeric
CSV readers parse) and anything else by ``str``.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 runtime
blow-up, stopped trajectory without --allow-stop, or a Picard solve that
does not converge, 4 a run that cannot be carried out (out of memory, or an
unexpected error, whose traceback is printed). ``ensemble`` counts stopped
and blown-up paths as data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .chaos import _odd_power, wick_identity_deviations
from .config import ConfigError, ExperimentConfig, _checked
from .ensemble import (EnsembleConfig, TailCurve, _check_increments, _check_work, _columns,
                       _probe, chaos_vs_mc, run_ensemble, strong_order, weak_order)
from .grids import MAX_ARRAY_ELEMENTS, _bound
from .models import verify_estimates
from .noise import discrete_pairing, orthogonality_check, path_samplers, unit_increments
from .solver import (BlowUpError, ConvergenceError, _free_path, _initial_norms, _kernel,
                     _step_count, holomorphy_check, picard_solve, solve_ito)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ERROR = 4


def _refuse_other_run(out: Path, cfg: ExperimentConfig) -> None:
    """A config error if ``out`` is not a directory or holds the run of a
    different config: the directory is made only after the command's work."""
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output dir {out} is not a directory")
    try:
        previous = json.loads((out / "config.resolved.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return
    if isinstance(previous, dict) and previous.get("config_hash") not in (None, cfg.hash):
        raise ConfigError(
            f"output dir {out} holds a run with a different config hash; refusing re-use"
        )


def _plain(value):
    """``value`` in plain JSON values: a dataclass by its fields, a dict, list,
    tuple or ndarray item by item, a numpy scalar as its Python value, and a
    non-finite float as None."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json(value, indent=1) -> str:
    """``value`` as strict JSON text (``_plain``), keys sorted."""
    return json.dumps(_plain(value), sort_keys=True, indent=indent, allow_nan=False)


def _csv(columns: dict):
    """Named columns as CSV lines, one at a time: a header of the names, then
    one line per entry, a float as ``%.17g`` and anything else by ``str``."""
    yield ",".join(columns) + "\n"
    for row in zip(*columns.values()):
        yield ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"


def write_atomic(path: Path, pieces) -> None:
    """Write the text ``pieces`` one by one to a temporary file beside ``path``, then rename it.

    ``os.replace`` swaps the finished file in at once, so a run that fails
    while writing leaves the previous file whole and no temporary behind.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_run(out: Path, cfg: ExperimentConfig, report: dict, files: dict) -> None:
    """Create ``out`` and write the command's files in order, then
    config.resolved.json, then report.json last, both stamped with the hash;
    a .json file's value is written by ``_json`` in one piece, a .csv file's
    columns by ``_csv`` a line at a time."""
    from . import __version__

    files = {**files, "config.resolved.json": dict(cfg.doc, config_hash=cfg.hash),
             "report.json": dict(report, config_hash=cfg.hash, artifact_version=__version__)}
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        write_atomic(out / name, [_json(content)] if name.endswith(".json") else _csv(content))


def _load(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    doc = cfg.doc
    if args.seed is not None:
        doc["master_seed"] = int(args.seed)
    if getattr(args, "dt", None) is not None:
        doc["solver"]["dt"] = float(args.dt)
    if getattr(args, "paths", None) is not None:
        doc["mc"]["n_paths"] = int(args.paths)
    if args.out is not None:
        doc["output_dir"] = str(args.out)
    return ExperimentConfig.from_dict(doc)


def _setup(cfg: ExperimentConfig):
    """The model of the resolved config, its initial state's array and covariance
    (None with the noise off), each a config error if it cannot be built or is not finite."""
    model = _checked("model", cfg.build_model)
    phi0 = model.generator._as_state(_checked("initial", cfg.build_initial, model))
    if not np.all(np.isfinite(model.generator.graph_norm_ladder(phi0, model.smoothness))):
        raise ConfigError(f"initial.amplitude must keep the graph norms up to model."
                          f"smoothness finite, got {cfg.doc['initial']['amplitude']!r}")
    cov = _checked("noise", cfg.build_covariance, model) if cfg.doc["noise"]["enabled"] else None
    return model, phi0, cov


def _ensemble(cfg: ExperimentConfig, model, phi0, cov, dt=None, **fields) -> EnsembleConfig:
    """The ensemble of the resolved config at ``dt`` (default solver.dt), checked as config."""
    sb = cfg.doc["solver"]
    return _checked("mc", EnsembleConfig, model=model, phi0=phi0, T=sb["T"],
                    dt=sb["dt"] if dt is None else dt, covariance=cov,
                    n_paths=cfg.doc["mc"]["n_paths"],
                    master_seed=cfg.doc["master_seed"], **fields)


def _threshold(cfg: ExperimentConfig, model, phi0) -> float:
    """solver.threshold (inf when null); a config error unless above phi0's norms."""
    threshold = cfg.doc["solver"]["threshold"]
    threshold = np.inf if threshold is None else threshold
    _checked("solver", _initial_norms, model, phi0, threshold)
    return threshold


def cmd_simulate(cfg: ExperimentConfig, args) -> tuple[int, dict, dict]:
    model, phi0, cov = _setup(cfg)
    sb = cfg.doc["solver"]
    threshold = _threshold(cfg, model, phi0)
    _checked("solver", _kernel, sb["scheme"], cov is not None)
    if cov is not None:  # the march draws the path's increments whole
        _checked("solver", _check_increments, _step_count(sb["T"], sb["dt"]), model.grid.size)
    [sampler] = path_samplers(cov, cfg.doc["master_seed"], 1)  # the march is path 0
    traj = solve_ito(model, phi0, sb["T"], sb["dt"], sampler, threshold, scheme=sb["scheme"])
    report = {
        "status": "stopped" if traj.stopped else "ran_to_T",
        "stop_time": traj.stop_time,
        "blown_up": traj.blown_up,
        "final_norms": traj.graph_norms[-1],
        "conserved_initial": {n: c[0] for n, c in traj.conserved.items()},
        "conserved_final": {n: c[-1] for n, c in traj.conserved.items()},
        "seed_info": traj.seed_info,
    }
    if model.name == "maxwell_dirac":
        report["gauge_residual_initial"] = model.gauge_residual(phi0)
        report["gauge_residual_final"] = model.gauge_residual(traj.final)
    code = EXIT_BLOWUP if (traj.stopped or traj.blown_up) and not args.allow_stop else EXIT_OK
    return code, report, {"trajectory.csv": {
        "time": traj.times,
        **{f"graph_norm_j{j}": norms for j, norms in enumerate(traj.graph_norms.T)},
        **{name: traj.conserved[name] for name in sorted(traj.conserved)}}}


def cmd_picard(cfg: ExperimentConfig, args) -> tuple[int, dict, dict]:
    model, phi0, cov = _setup(cfg)
    sb = cfg.doc["solver"]
    theta = _checked("noise", cfg.build_theta, model, cov)
    nz = theta.n_coords
    rng = np.random.default_rng(cfg.doc["master_seed"])
    zeta = 0.3 * rng.standard_normal(nz)
    eta = 0.3 * rng.standard_normal(nz)
    # one free path e^{-iAt_i} phi0 serves the main solve and the stencil's;
    # building it checks solver.n_time_nodes, the solve checks solver.tol
    free = _checked("solver", _free_path, model.generator, phi0, sb["T"],
                    sb["n_time_nodes"])
    result = _checked("solver", picard_solve, model, phi0, sb["T"], theta, zeta, eta,
                      0.0, n_time_nodes=sb["n_time_nodes"], tol=sb["tol"],
                      max_iter=sb["max_iter"], _free=free)
    # keep the scalars only: the solve's states need not live through the
    # stencil's eight solves
    residuals, summary = result.residuals, {
        "converged": result.converged,
        "iterations": len(result.residuals),
        "contraction_ratio": result.contraction_ratio,
        "fixed_point_residual": result.fixed_point_residual,
    }
    del result
    probe = _probe(model, phi0)
    try:
        residual = holomorphy_check(model, phi0, sb["T"], theta, zeta, eta,
                                    [0.0], probe, spacing=1e-2,
                                    n_time_nodes=sb["n_time_nodes"],
                                    tol=min(sb["tol"], 1e-12), max_iter=sb["max_iter"],
                                    _free=free)
    except ConvergenceError:
        residual = None  # a stencil solve did not converge: reported as null
    code = EXIT_OK if summary["converged"] and residual is not None else EXIT_BLOWUP
    return code, {**summary, "holomorphy_residual": residual}, {
        "picard_residuals.csv": {"iteration": range(len(residuals)), "residual": residuals}}


def cmd_converge(cfg: ExperimentConfig, args) -> tuple[int, dict, dict]:
    model, phi0, cov = _setup(cfg)
    sb, mb = cfg.doc["solver"], cfg.doc["mc"]
    ladder = mb["dt_ladder"] or [sb["T"] / n for n in (8, 16, 32, 64, 128)]
    # each of the two fits marches every path over every rung of the ladder
    _checked("mc", _check_work, mb["n_paths"],
             2 * sum(_step_count(sb["T"], dt) for dt in ladder))
    ens = _ensemble(cfg, model, phi0, cov, dt=min(ladder))
    strong = strong_order(ens, ladder)
    # log of the squared norm keeps the coupled weak estimator low-variance
    weak = weak_order(ens, ladder, observable="log_norm_sq", noise_floor_factor=3.0)
    print(f"strong order {strong.order:.3f}  weak order {weak.order:.3f}")
    return EXIT_OK, {"strong": strong, "weak": weak}, {"convergence.csv": {
        "dt": strong.dts, "strong_error": strong.errors, "strong_stderr": strong.stderrs}}


def cmd_chaos(cfg: ExperimentConfig, args) -> tuple[int, dict, dict]:
    model, phi0, cov = _setup(cfg)
    if cov is None:
        raise ConfigError("the chaos command needs noise.enabled = true")
    space = _checked("chaos", cfg.build_chaos_space)
    _checked("chaos", _bound, "indices x components x grid points (the Wick stack)",
             space.n_indices * phi0.size, most=MAX_ARRAY_ELEMENTS)
    if model.name in ("nls", "klein_gordon") and model.params.sign:  # J holds |a|^{p-1} a
        _checked("model", _odd_power, model.params.p)
    report, (wick, coeffs) = chaos_vs_mc(_ensemble(cfg, model, phi0, cov), space)
    header = {
        "n_modes": space.n_modes,
        "max_degree": space.max_degree,
        "mode_weights": space.mode_weights,
        "convention": "pairing of each chaos block against the normalized initial state",
        "config_hash": cfg.hash,
    }
    print(f"mean agreement within 3 stderr: {report.mean_within_3se}")
    return EXIT_OK, {"chaos_vs_mc": report, "truncation_flagged": wick.truncation_flagged}, {
        "chaos_coefficients.csv": {
            "multi_index": ["(" + " ".join(map(str, a)) + ")" for a in space.indices.tolist()],
            "real": coeffs.real, "imag": coeffs.imag},
        "chaos_space.json": header}


def cmd_ensemble(cfg: ExperimentConfig, args) -> tuple[int, dict, dict]:
    model, phi0, cov = _setup(cfg)
    mb = cfg.doc["mc"]
    ens = _ensemble(cfg, model, phi0, cov, threshold=_threshold(cfg, model, phi0),
                    observables=tuple(mb["observables"]))
    named = [n for n in ens.observables if n != "sup_sum_sq"]  # each finite at phi0
    for name, [value] in zip(named, _checked("mc", _columns, model, named, ens.probe, phi0[None])):
        if not np.isfinite(value):
            raise ConfigError(f"mc.observables: '{name}' is not defined for model {model.name}")
    result = run_ensemble(ens)
    report, files = {"ensemble": result}, {}
    print(f"{result.n_stopped} of {result.n_paths} paths stopped, {result.n_blown} blown up")
    if mb["rho_grid"]:
        # the survival curve reduces the same paths' stop times: one march
        curve = TailCurve.from_stop_times(result.stop_times, mb["rho_grid"])
        files["tail_curve.csv"] = {
            "rho": curve.rhos, "survival": curve.survival, "band": curve.band,
            "fitted_lower_bound": 1 - curve.m_hat * curve.rhos * curve.rhos}
        report["tail_curve"] = curve
        print(f"fitted M = {curve.m_hat:.4f}, lower bound ok: {curve.lower_bound_ok()}")
    return EXIT_OK, report, files


def cmd_verify(cfg: ExperimentConfig, args) -> tuple[int, dict, dict]:
    model, _, cov = _setup(cfg)
    cov = cov or _checked("noise", cfg.build_covariance, model)  # on or off, as for picard's Theta
    vb = cfg.doc["verify"]
    space = _checked("chaos", cfg.build_chaos_space)
    # the estimates check verify.sample_count before they sample
    reports = _checked("verify", verify_estimates, model, sample_count=vb["sample_count"],
                       radius=vb["radius"], seed=cfg.doc["master_seed"])
    violations = {r.inequality_id: r.violations for r in reports if r.violations}

    # Wiener-integral orthogonality and isometry on the increments of the marches
    dB = unit_increments(cov, cfg.doc["master_seed"], vb["orthogonality_paths"], 32)
    f_one = lambda t: np.ones_like(t)
    est, se = orthogonality_check(1, 2, f_one, lambda s, t: np.ones_like(s + t), dB)
    ortho_ok = abs(est) <= 3 * se + 1e-12
    iso_est, iso_se = orthogonality_check(1, 1, f_one, f_one, dB)
    iso_ref = discrete_pairing(1, f_one, f_one, steps=32)
    iso_ok = abs(iso_est - iso_ref) <= 3 * iso_se

    # the Wick algebra's identities on the config's chaos space
    wick = {name: {"max_deviation": dev, "ok": dev < 1e-10} for name, dev in
            wick_identity_deviations(space, np.random.default_rng(cfg.doc["master_seed"])).items()}

    payload = {
        "estimates": reports,
        "estimate_violations": violations,
        "orthogonality": {"estimate": est, "stderr": se, "ok": ortho_ok},
        "ito_isometry": {"estimate": iso_est, "stderr": iso_se,
                         "reference": iso_ref, "ok": iso_ok},
        **wick,
    }
    ok = not violations and ortho_ok and iso_ok and all(row["ok"] for row in wick.values())
    payload["ok"] = ok
    if args.json:
        print(_json(payload, indent=None))
    else:
        status = "ok" if ok else "FAILED"
        print(f"verification {status}: {len(reports)} inequalities, "
              f"{sum(violations.values())} violations")
        for iid, count in violations.items():
            print(f"  violated: {iid} ({count} samples)")
    return EXIT_OK if ok else EXIT_VERIFY, payload, {}


# The flags beyond --config, --seed and --out, and the commands that read them.
_FLAGS = {
    "--dt": dict(type=float, default=None, help="time step override"),
    "--paths": dict(type=int, default=None, help="path count override"),
    "--json": dict(action="store_true", help="machine-readable stdout"),
    "--allow-stop": dict(action="store_true",
                         help="exit 0 even when the trajectory stops or blows up"),
}
_COMMANDS = (
    ("simulate", cmd_simulate, ("--dt", "--allow-stop")),
    ("picard", cmd_picard, ()),
    ("converge", cmd_converge, ("--paths",)),
    ("chaos", cmd_chaos, ("--dt", "--paths")),
    ("ensemble", cmd_ensemble, ("--dt", "--paths")),
    ("verify", cmd_verify, ("--json",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochwave",
        description="Pseudospectral engine for stochastic semilinear wave models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        out = Path(cfg.doc["output_dir"])
        _refuse_other_run(out, cfg)
        # a non-finite value is data or a one-line blow-up, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            code, report, files = args.fn(cfg, args)
        _write_run(out, cfg, report, files)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except MemoryError as exc:
        print(f"out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
