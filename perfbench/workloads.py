"""Workload definitions: generated configs, output gates and closed-form counts.

Each workload is one stochwave CLI command on a config generated from the
benchmark seed. The seed sets ``master_seed`` and ``initial.seed``; nothing
else varies with it. ``size`` selects the full benchmark size or the tiny
size the benchmark's own tests use.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_SEED = 2024
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Full sizes are the benchmark; tiny sizes keep the smoke tests fast.
_SIZES = {
    "ito_ladder": {"full": {"n_paths": 400}, "tiny": {"n_paths": 150}},
    "wick_chaos": {"full": {"points": 64, "T": 2.0, "n_paths": 50},
                   "tiny": {"points": 16, "T": 0.2, "n_paths": 20}},
    "picard_2d": {"full": {"points": 64, "nodes": 33},
                  "tiny": {"points": 16, "nodes": 9}},
}

COMMANDS = {"ito_ladder": "converge", "wick_chaos": "chaos", "picard_2d": "picard"}
NAMES = tuple(COMMANDS)


def make_config(name: str, seed: int, size: str = "full") -> dict:
    """The workload's config document for one seed."""
    sz = _SIZES[name][size]
    if name == "ito_ladder":
        # the model of configs/example_noisy_linear.json: J = 0, one noise mode
        return {
            "model": {"name": "nls", "sign": 0, "smoothness": 1},
            "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
            "initial": {"kind": "modes", "amplitude": 1.0, "seed": seed,
                        "modes": [[0, 1, 1.0, 0.0]]},
            "solver": {"T": 1.0, "dt": 0.01},
            "noise": {"enabled": True, "n_modes": 1, "lambda0": 0.5, "gamma": 2.0},
            "mc": {"n_paths": sz["n_paths"],
                   "dt_ladder": [0.25, 0.125, 0.0625, 0.015625]},
            "chaos": {"n_modes": 1, "max_degree": 4},
            "master_seed": seed,
        }
    if name == "wick_chaos":
        return {
            "model": {"name": "klein_gordon", "p": 3, "sign": 1, "k0": 1.0},
            "grid": {"dim": 1, "points": [sz["points"]],
                     "lengths": [2 * math.pi]},
            "initial": {"kind": "smooth_random", "amplitude": 0.3, "seed": seed},
            "solver": {"T": sz["T"], "dt": 0.01},
            "noise": {"enabled": True, "n_modes": 4, "lambda0": 0.5, "gamma": 2.0},
            "chaos": {"n_modes": 4, "max_degree": 4},
            "mc": {"n_paths": sz["n_paths"]},
            "master_seed": seed,
        }
    if name == "picard_2d":
        # The run time is proportional to the Picard sweep count. A random
        # initial shape or a strong Theta potential moves it between 62, 71
        # and 80 sweeps from seed to seed, so the initial state is a fixed
        # mode sum and the seed only draws the weak potential's coordinates:
        # every seed then costs 62 or 63 sweeps.
        n = sz["points"]
        return {
            "model": {"name": "zakharov"},
            "grid": {"dim": 2, "points": [n, n],
                     "lengths": [2 * math.pi, 2 * math.pi]},
            "initial": {"kind": "modes", "amplitude": 0.05, "seed": seed,
                        "modes": [[0, 1, 1.0, 0.0], [0, 2, 0.5, 0.5], [1, 1, 0.5, 0.0]]},
            "solver": {"T": 0.5, "n_time_nodes": sz["nodes"], "tol": 1e-10},
            "noise": {"enabled": False, "n_modes": 4, "lambda0": 0.01},
            "master_seed": seed,
        }
    raise KeyError(f"unknown workload '{name}'")


def gate_failures(name: str, cfg: dict, report: dict) -> tuple[list[str], list[str]]:
    """The engine's own pass criteria for one run.

    Returns (deterministic failures, statistical failures). The one
    statistical gate, wick_chaos's ``mean_within_3se``, is a 3-standard-error
    test of the Monte Carlo mean: it misses on about 1 seed in 100 with the
    program unchanged (seed 2 of seeds 0-93, at 50 and at 100 paths), so
    ``check_run`` counts it only at REFERENCE_SEED, where the whole report is
    pinned.
    """
    out, stat = [], []
    if name == "ito_ladder":
        strong = report["strong"]
        if strong["order"] is None or strong["order"] < 0.4:
            out.append(f"strong order {strong['order']} < 0.4")
        if not strong["monotone"]:
            out.append("strong errors not monotone in dt")
    elif name == "wick_chaos":
        if not report["chaos_vs_mc"]["mean_within_3se"]:
            stat.append("chaos mean outside 3 stderr of the MC mean")
        if report["truncation_flagged"]:
            out.append("chaos truncation flagged")
    elif name == "picard_2d":
        tol = cfg["solver"]["tol"]
        if not report["converged"]:
            out.append("Picard iteration did not converge")
        if not report["fixed_point_residual"] <= 2 * tol:
            out.append(f"fixed-point residual {report['fixed_point_residual']} > 2*tol")
    return out, stat


def _numbers(doc, path=""):
    """Flatten a JSON document into {path: leaf}."""
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _numbers(doc[k], f"{path}.{k}" if path else k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _numbers(v, f"{path}[{i}]")
    else:
        yield path, doc


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def compare_reference(report: dict, reference: dict) -> tuple[list[str], float]:
    """Bit-for-bit comparison; returns (mismatched paths, largest abs deviation)."""
    got, want = dict(_numbers(report)), dict(_numbers(reference))
    bad = sorted(set(got) ^ set(want))
    worst = 0.0
    for key in sorted(set(got) & set(want)):
        a, b = got[key], want[key]
        if a == b:
            continue
        bad.append(key)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and not isinstance(a, bool) and not isinstance(b, bool):
            worst = max(worst, abs(a - b)) if math.isfinite(a - b) else math.inf
        else:
            worst = math.inf
    return bad, (math.inf if bad and worst == 0.0 else worst)


def check_run(name: str, cfg: dict, out_dir: Path, exit_code: int,
              seed: int, size: str) -> dict:
    """Every output check of one run: exit code, gates, hash and reference.

    Returns ``failures`` (each fails the run), ``notes`` (statistical gate
    misses away from REFERENCE_SEED, reported only), ``deviation`` (largest
    deviation from the reference, when it applies) and the parsed ``report``.
    """
    result = {"failures": [], "notes": [], "deviation": None, "report": None}
    if exit_code != 0:
        result["failures"].append(f"exit code {exit_code}")
        return result
    try:
        report = json.loads((out_dir / "report.json").read_text())
        resolved = json.loads((out_dir / "config.resolved.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        result["failures"].append(f"unreadable outputs: {exc}")
        return result
    result["report"] = report
    try:
        fails, stat = gate_failures(name, cfg, report)
    except (KeyError, TypeError) as exc:
        result["failures"].append(f"report.json lacks a gated field: {exc!r}")
        return result
    if report.get("config_hash") != resolved.get("config_hash"):
        fails.append("report.json and config.resolved.json disagree on config_hash")
    if seed == REFERENCE_SEED and size == "full":
        fails += stat
        bad, result["deviation"] = compare_reference(
            report, json.loads(reference_path(name).read_text()))
        if bad:
            fails.append(f"report.json differs from the reference at {len(bad)} fields "
                         f"(first {bad[0]}), max deviation {result['deviation']:.3g}")
    else:
        result["notes"] = stat
    result["failures"] = fails
    return result


def expected_counts(name: str, cfg: dict, picard_iterations: list[int],
                    wick_solves: int) -> dict[str, int]:
    """Closed-form call counts the traced run must reproduce.

    ``picard_iterations`` lists the residual count of every Picard solve;
    each solve makes one sweep per residual plus a final check sweep, and
    each sweep evaluates J once per time node. ``wick_solves`` is the number
    of Wick evolutions the command ran (two at the reference commit, where
    one would do); each makes one Wick step per time step.
    """
    if name == "ito_ladder":
        T = cfg["solver"]["T"]
        steps = sum(round(T / dt) for dt in cfg["mc"]["dt_ladder"])
        # strong_order and weak_order each march every path on every rung
        return {"solver.step_exp_euler.calls": cfg["mc"]["n_paths"] * 2 * steps}
    if name == "wick_chaos":
        n_steps = round(cfg["solver"]["T"] / cfg["solver"]["dt"])
        return {"chaos.wick_nonlinearity.calls": max(wick_solves, 1) * n_steps,
                "solver.step_exp_euler.calls": cfg["mc"]["n_paths"] * n_steps}
    if name == "picard_2d":
        sweeps = sum(n + 1 for n in picard_iterations)
        # one solve plus the 8-point holomorphy stencil around z = 0
        return {"solver.picard_solve.calls": 9,
                "models.apply_J.calls": cfg["solver"]["n_time_nodes"] * sweeps}
    raise KeyError(name)


if __name__ == "__main__":
    # python3 perfbench/workloads.py NAME [SEED]: print the workload's config
    import sys

    print(json.dumps(make_config(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2
                                 else REFERENCE_SEED), indent=1))
