"""Config-driven command line driver.

Subcommands: simulate, picard, converge, chaos, verify. Every run writes a
fixed set of files into its output directory (trajectory/table CSVs,
report.json, config.resolved.json), all stamped with the config hash.
Re-using a run directory with a different configuration is refused. Each
file is written whole through a temporary file and a rename, and
report.json comes last. ``python -m stochwave`` runs the same commands.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 runtime
blow-up or stopped trajectory without --allow-stop.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._files import write_atomic
from .chaos import ChaosVector, export_chaos_csv, s_transform, wick_product
from .config import ConfigError, ExperimentConfig
from .ensemble import EnsembleConfig, chaos_vs_mc, strong_order, weak_order
from .models import verify_estimates
from .noise import QWienerSampler, discrete_pairing, orthogonality_check
from .solver import (BlowUpError, export_trajectory_csv, holomorphy_check,
                     picard_solve, solve_deterministic, solve_ito)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


def _prepare_outdir(cfg: ExperimentConfig, out_override) -> Path:
    out = Path(out_override) if out_override else Path(cfg.doc["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "config.resolved.json"
    if marker.exists():
        try:
            previous = json.loads(marker.read_text())
        except json.JSONDecodeError:
            previous = None
        if previous is not None and previous.get("config_hash") not in (None, cfg.hash):
            raise ConfigError(
                f"output dir {out} holds a run with a different config hash; refusing re-use"
            )
    return out


def _write_resolved(cfg: ExperimentConfig, out: Path):
    doc = dict(cfg.doc)
    doc["config_hash"] = cfg.hash
    write_atomic(out / "config.resolved.json", json.dumps(doc, sort_keys=True, indent=1))


def _write_report(out: Path, payload: dict, cfg: ExperimentConfig):
    from . import __version__

    payload = dict(payload)
    payload["config_hash"] = cfg.hash
    payload["artifact_version"] = __version__
    write_atomic(out / "report.json", json.dumps(payload, sort_keys=True, indent=1))


def _load(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    doc = cfg.doc
    if args.seed is not None:
        doc["master_seed"] = int(args.seed)
    if args.dt is not None:
        doc["solver"]["dt"] = float(args.dt)
    if args.paths is not None:
        doc["mc"]["n_paths"] = int(args.paths)
    if args.out is not None:
        doc["output_dir"] = str(args.out)
    return ExperimentConfig.from_dict(doc)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(cfg, args.out)
    model = cfg.build_model()
    phi0 = cfg.build_initial(model)
    sb = cfg.doc["solver"]
    cov = cfg.build_covariance(model)
    threshold = sb["threshold"] if sb["threshold"] is not None else np.inf
    try:
        if cov is not None:
            sampler = QWienerSampler(cov, cfg.doc["master_seed"], stream_id=0)
            traj = solve_ito(model, phi0, sb["T"], sb["dt"], sampler,
                             threshold=threshold)
        else:
            traj = solve_deterministic(model, phi0, sb["T"], sb["dt"],
                                       scheme=sb["scheme"])
    except BlowUpError:
        _write_resolved(cfg, out)
        _write_report(out, {"status": "blowup"}, cfg)
        return EXIT_OK if args.allow_stop else EXIT_BLOWUP
    export_trajectory_csv(model, traj, out / "trajectory.csv")
    cons0 = model.conserved(traj.states[0])
    consT = model.conserved(traj.states[-1])
    report = {
        "status": "stopped" if traj.stopped else "ran_to_T",
        "stop_time": traj.stop_time,
        "blown_up": traj.blown_up,
        "final_norms": [float(x) for x in traj.graph_norms[-1]],
        "conserved_initial": cons0,
        "conserved_final": consT,
        "seed_info": traj.seed_info,
    }
    if model.name == "maxwell_dirac":
        report["gauge_residual_initial"] = model.gauge_residual(traj.states[0])
        report["gauge_residual_final"] = model.gauge_residual(traj.states[-1])
    _write_resolved(cfg, out)
    _write_report(out, report, cfg)
    if (traj.stopped or traj.blown_up) and not args.allow_stop:
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_picard(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(cfg, args.out)
    model = cfg.build_model()
    phi0 = cfg.build_initial(model)
    sb = cfg.doc["solver"]
    theta = cfg.build_theta(model, cfg.build_covariance(model))
    nz = theta.n_coords
    rng = np.random.default_rng(cfg.doc["master_seed"])
    zeta = 0.3 * rng.standard_normal(nz)
    eta = 0.3 * rng.standard_normal(nz)
    result = picard_solve(model, phi0, sb["T"], theta, zeta, eta, 0.0,
                          n_time_nodes=sb["n_time_nodes"], tol=sb["tol"],
                          max_iter=sb["max_iter"])
    probe = phi0 * (1.0 / max(model.norm(phi0), 1e-300))
    residual = holomorphy_check(model, phi0, sb["T"], theta, zeta, eta,
                                [0.0], probe, spacing=1e-2,
                                n_time_nodes=sb["n_time_nodes"],
                                tol=min(sb["tol"], 1e-12))
    write_atomic(out / "picard_residuals.csv", "iteration,residual\n" + "".join(
        f"{i},{r:.17g}\n" for i, r in enumerate(result.residuals)))
    _write_resolved(cfg, out)
    _write_report(out, {
        "converged": result.converged,
        "iterations": len(result.residuals),
        "contraction_ratio": result.contraction_ratio,
        "fixed_point_residual": result.fixed_point_residual,
        "holomorphy_residual": residual,
    }, cfg)
    return EXIT_OK if result.converged else EXIT_BLOWUP


def cmd_converge(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(cfg, args.out)
    model = cfg.build_model()
    phi0 = cfg.build_initial(model)
    sb, mb = cfg.doc["solver"], cfg.doc["mc"]
    cov = cfg.build_covariance(model)
    ladder = mb["dt_ladder"] or [sb["T"] / n for n in (8, 16, 32, 64, 128)]
    ens = EnsembleConfig(model=model, phi0=phi0, T=sb["T"], dt=min(ladder),
                         covariance=cov, n_paths=max(mb["n_paths"], 2),
                         master_seed=cfg.doc["master_seed"])
    strong = strong_order(ens, ladder)
    # log of the squared norm keeps the coupled weak estimator low-variance
    weak = weak_order(ens, ladder, observable="log_norm_sq",
                      noise_floor_factor=3.0)
    write_atomic(out / "convergence.csv", "dt,strong_error,strong_stderr\n" + "".join(
        f"{dt:.17g},{e:.17g},{s:.17g}\n"
        for dt, e, s in zip(strong.dts, strong.errors, strong.stderrs)))
    _write_resolved(cfg, out)
    _write_report(out, {"strong": strong.to_dict(), "weak": weak.to_dict()}, cfg)
    print(f"strong order {strong.order:.3f}  weak order {weak.order:.3f}")
    return EXIT_OK


def cmd_chaos(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(cfg, args.out)
    model = cfg.build_model()
    phi0 = cfg.build_initial(model)
    sb, mb = cfg.doc["solver"], cfg.doc["mc"]
    cov = cfg.build_covariance(model)
    if cov is None:
        raise ConfigError("the chaos command needs noise.enabled = true")
    space = cfg.build_chaos_space()
    ens = EnsembleConfig(model=model, phi0=phi0, T=sb["T"], dt=sb["dt"],
                         covariance=cov, n_paths=max(mb["n_paths"], 2),
                         master_seed=cfg.doc["master_seed"])
    report = chaos_vs_mc(ens, space)
    # Coefficient dump: pairings of each chaos block against the initial state.
    probe = phi0 * (1.0 / max(model.norm(phi0), 1e-300))
    final = report.wick.final()
    coeffs = np.array([model.inner(final.block(i), probe)
                       for i in range(space.n_indices)])
    export_chaos_csv(ChaosVector(space, coeffs), out / "chaos_coefficients.csv")
    header = {
        "n_modes": space.n_modes,
        "max_degree": space.max_degree,
        "mode_weights": [float(w) for w in space.mode_weights],
        "convention": "pairing of each chaos block against the normalized initial state",
        "config_hash": cfg.hash,
    }
    write_atomic(out / "chaos_space.json", json.dumps(header, sort_keys=True, indent=1))
    _write_resolved(cfg, out)
    _write_report(out, {"chaos_vs_mc": report.to_dict(),
                        "truncation_flagged": report.wick.truncation_flagged}, cfg)
    print(f"mean agreement within 3 stderr: {report.mean_within_3se}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    out = _prepare_outdir(cfg, args.out)
    model = cfg.build_model()
    vb = cfg.doc["verify"]
    reports = verify_estimates(model, sample_count=vb["sample_count"],
                               radius=vb["radius"], seed=cfg.doc["master_seed"])
    violations = {r.inequality_id: r.violations for r in reports if r.violations}

    # Wiener-integral orthogonality at moderate path counts.
    npaths = vb["orthogonality_paths"]
    f_one = lambda t: np.ones_like(t)
    g_sym = lambda s, t: np.ones_like(s + t)
    est, se = orthogonality_check(1, 2, f_one, g_sym, n_paths=npaths, steps=32,
                                  seed=cfg.doc["master_seed"])
    ortho_ok = abs(est) <= 3 * se + 1e-12
    iso_est, iso_se = orthogonality_check(1, 1, f_one, f_one, n_paths=npaths,
                                          steps=32, seed=cfg.doc["master_seed"] + 1)
    iso_ref = discrete_pairing(1, f_one, f_one, steps=32)
    iso_ok = abs(iso_est - iso_ref) <= 3 * iso_se

    # Wick algebra spot checks on a small space.
    space = cfg.build_chaos_space()
    rng = np.random.default_rng(cfg.doc["master_seed"])
    wick_dev = 0.0
    for _ in range(10):
        a = ChaosVector(space, np.where(space.degrees <= 2,
                                        rng.standard_normal(space.n_indices)
                                        + 1j * rng.standard_normal(space.n_indices), 0.0))
        b = ChaosVector(space, np.where(space.degrees <= 2,
                                        rng.standard_normal(space.n_indices)
                                        + 1j * rng.standard_normal(space.n_indices), 0.0))
        zeta = 0.5 * (rng.standard_normal(space.n_modes)
                      + 1j * rng.standard_normal(space.n_modes))
        lhs = s_transform(wick_product(a, b), zeta)
        rhs = s_transform(a, zeta) * s_transform(b, zeta)
        wick_dev = max(wick_dev, abs(lhs - rhs))
    wick_ok = wick_dev < 1e-10

    payload = {
        "estimates": [
            {
                "inequality_id": r.inequality_id,
                "sample_count": r.sample_count,
                "violations": r.violations,
                "fitted_constant": r.fitted_constant,
                "declared_constant": r.declared_constant,
            }
            for r in reports
        ],
        "estimate_violations": violations,
        "orthogonality": {"estimate": est, "stderr": se, "ok": ortho_ok},
        "ito_isometry": {"estimate": iso_est, "stderr": iso_se,
                         "reference": iso_ref, "ok": iso_ok},
        "wick_multiplicativity": {"max_deviation": wick_dev, "ok": wick_ok},
    }
    ok = not violations and ortho_ok and iso_ok and wick_ok
    payload["ok"] = ok
    _write_resolved(cfg, out)
    _write_report(out, payload, cfg)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        status = "ok" if ok else "FAILED"
        print(f"verification {status}: {len(reports)} inequalities, "
              f"{sum(violations.values())} violations")
        for iid, count in violations.items():
            print(f"  violated: {iid} ({count} samples)")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochwave",
        description="Pseudospectral engine for stochastic semilinear wave models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("picard", cmd_picard),
                     ("converge", cmd_converge), ("chaos", cmd_chaos),
                     ("verify", cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--dt", type=float, default=None, help="time step override")
        p.add_argument("--paths", type=int, default=None, help="path count override")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")
        p.add_argument("--allow-stop", action="store_true",
                       help="exit 0 even when the trajectory stops or blows up")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
