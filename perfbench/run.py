"""stochwave benchmark: three CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ito_ladder, wick_chaos, picard_2d, or ``all`` for each in turn. Run
from any directory of a source checkout; stochwave is imported from
``src/``, nothing is installed.

--trace 0 runs the workload's CLI command untraced, each run in a fresh
process, one at a time, until --seconds is spent, and prints the medians
of wall time, CPU time and peak memory, plus the median set-up time of
several fresh set-up probes. Times are given at a fixed host speed: each
process samples the speed of the shared host while it works
(``hostspeed.py``), and its time is rescaled by it. --trace 1 runs the command once under
``tracer.py`` and prints per-layer counts and self times, the tracing
overhead against untraced runs filling the rest of --seconds, and the
untraced cost of one unit of work of each workload (``probe.py units``).

Every run's outputs are checked: exit code, the engine's own gates, and,
for one run at REFERENCE_SEED, bit-for-bit equality of report.json with
the copy under ``reference/``. The traced run must also reproduce the
closed-form call counts of ``workloads.expected_counts``. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as W
from hostspeed import rescale
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3          # after each untraced run
CHILD_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "grids.fft.calls": "count", "grids.fft.self_s": "s", "grids.fft.bytes": "B",
    "operators.propagate.calls": "count", "operators.propagate.self_s": "s",
    "operators.propagate_blocks.calls": "count",
    "operators.propagate_blocks.self_s": "s",
    "operators.propagator_matrices.calls": "count",
    "operators.prop_cache.hit_ratio": "ratio",
    "operators.graph_norm_ladder.calls": "count",
    "operators.graph_norm_ladder.self_s": "s",
    "operators.metric_norm.calls": "count", "operators.metric_norm.self_s": "s",
    "models.apply_J.calls": "count", "models.apply_J.self_s": "s",
    "noise.increments.calls": "count", "noise.increments.self_s": "s",
    "noise.streams": "count",
    "solver.step_exp_euler.calls": "count", "solver.step_exp_euler.self_s": "s",
    "solver.step_exp_euler.p50_us": "us", "solver.step_exp_euler.p99_us": "us",
    "solver.picard_solve.calls": "count", "solver.picard_solve.self_s": "s",
    "solver.picard.iterations": "count",
    "chaos.solve_wick_evolution.calls": "count",
    "chaos.solve_wick_evolution.self_s": "s",
    "chaos.wick_nonlinearity.calls": "count", "chaos.wick_nonlinearity.self_s": "s",
    "chaos.degree_energy.calls": "count", "chaos.degree_energy.self_s": "s",
    "chaos.wick_solve.useful_ratio": "ratio",
    "ensemble.strong_order.self_s": "s", "ensemble.weak_order.self_s": "s",
    "ensemble.chaos_vs_mc.self_s": "s", "ensemble.path_steps": "count",
    "config.setup.self_s": "s",
    "cli.out_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "config"},
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
    "untraced.exp_euler_step_us": "us", "untraced.wick_step_ms": "ms",
    "untraced.picard_sweep_ms": "ms",
}
# span names behind the per-function metrics
_SPAN = {
    "operators.propagate": "operators.SpectralOperator.propagate",
    "operators.propagate_blocks": "operators.SpectralOperator.propagate_blocks",
    "operators.propagator_matrices": "operators.SpectralOperator.propagator_matrices",
    "operators.graph_norm_ladder": "operators.SpectralOperator.graph_norm_ladder",
    "operators.metric_norm": "operators.SpectralOperator.metric_norm",
    "models.apply_J": "models.Model.apply_J",
    "noise.increments": "noise.QWienerSampler.increments",
    "solver.step_exp_euler": "solver.step_exp_euler",
    "solver.picard_solve": "solver.picard_solve",
    "chaos.solve_wick_evolution": "chaos.solve_wick_evolution",
    "chaos.wick_nonlinearity": "chaos.wick_nonlinearity",
    "chaos.degree_energy": "chaos.ChaosState.degree_energy",
    "ensemble.strong_order": "ensemble.strong_order",
    "ensemble.weak_order": "ensemble.weak_order",
    "ensemble.chaos_vs_mc": "ensemble.chaos_vs_mc",
}
_FFT = ("grids.Grid.to_spectral", "grids.Grid.to_physical")


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], log: Path) -> dict:
    """Run this Python on ARGS to completion; wall, CPU and peak RSS of the child."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """One workload at one seed and size, with its scratch directory."""

    def __init__(self, name: str, seed: int, size: str, trace: int):
        self.name, self.seed, self.size = name, seed, size
        self.command = W.COMMANDS[name]
        self.work = WORK / f"{name}-{size}-seed{seed}-trace{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.n_runs = 0
        self.config_hashes: dict[int, str] = {}

    def config(self, seed: int) -> tuple[dict, Path]:
        cfg = W.make_config(self.name, seed, self.size)
        path = self.work / f"config-{seed}.json"
        path.write_text(json.dumps(cfg))
        return cfg, path

    def run(self, seed: int, traced: bool = False) -> dict:
        """One CLI run, untraced or under the tracer, with its output checks.

        An untraced run also gives its wall and CPU time at the reference
        host speed (``wall_at_ref_s``, ``cpu_at_ref_s``; None if the
        process wrote no host-speed samples).
        """
        cfg, cfg_path = self.config(seed)
        self.n_runs += 1
        out = self.work / f"run{self.n_runs}"
        cli_args = [self.command, "--config", str(cfg_path), "--out", str(out)]
        stats_path = self.work / f"{'trace' if traced else 'bursts'}{self.n_runs}.json"
        runner = HERE / ("tracer.py" if traced else "hostspeed.py")
        rec = run_child([str(runner), str(stats_path)] + cli_args,
                        self.work / f"run{self.n_runs}.log")
        rec.update(seed=seed, traced=traced)
        if not traced:
            bursts = (json.loads(stats_path.read_text())["bursts"]
                      if stats_path.exists() else None)
            rec["bursts"] = len(bursts) if bursts else 0
            rec["wall_at_ref_s"] = rescale(rec["wall_s"], bursts) if bursts else None
            rec["cpu_at_ref_s"] = rescale(rec["cpu_s"], bursts) if bursts else None
        check = W.check_run(self.name, cfg, out, rec["exit_code"], seed, self.size)
        rec.update(failures=check["failures"], notes=check["notes"],
                   deviation=check["deviation"])
        if check["report"] is not None:
            self.config_hashes[seed] = check["report"].get("config_hash")
        rec["out_bytes"] = _dir_bytes(out) if out.exists() else 0
        if traced:
            rec["cfg"] = cfg
            rec["stats"] = json.loads(stats_path.read_text()) if stats_path.exists() else None
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def probe(self, mode: str, arg: str) -> dict:
        self.n_runs += 1
        log = self.work / f"probe{self.n_runs}.log"
        rec = run_child([str(HERE / "probe.py"), mode, arg], log)
        if rec["exit_code"] != 0:
            raise BenchError(f"probe {mode} failed, see {log}:\n{log.read_text()[-2000:]}")
        return json.loads(log.read_text().strip().splitlines()[-1])


def untraced_runs(wl: Workload, budget_s: float) -> tuple[list[dict], list[dict]]:
    """Untraced runs until the budget is spent: one at the reference seed, then --seed.

    SETUP_PROBES set-up probes follow each run, so that they sample the
    whole measuring period rather than one stretch of it.
    """
    seeds = [wl.seed]
    if wl.size == "full" and wl.seed != W.REFERENCE_SEED:
        seeds.insert(0, W.REFERENCE_SEED)
    setup_config = str(wl.config(wl.seed)[1])
    start = time.perf_counter()
    runs, setups = [], []
    while True:
        runs.append(wl.run(seeds[len(runs)] if len(runs) < len(seeds) else wl.seed))
        setups += [wl.probe("setup", setup_config) for _ in range(SETUP_PROBES)]
        spent = time.perf_counter() - start
        if len(runs) >= len(seeds) and spent + runs[-1]["wall_s"] > budget_s:
            return runs, setups


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(wl: Workload, traced: dict, untraced_wall: float, units: dict) -> dict:
    """Per-layer metrics of one traced run; checks the closed-form counts first."""
    doc = traced["stats"]
    if doc is None:
        raise BenchError("the traced run wrote no statistics")
    stats, counters = doc["stats"], doc["counters"]

    def calls(*spans):
        return sum(stats.get(s, [0, 0, 0])[0] for s in spans)

    def self_s(*spans):
        return sum(stats.get(s, [0, 0, 0])[2] for s in spans) / 1e9

    m = {"grids.fft.calls": calls(*_FFT), "grids.fft.self_s": self_s(*_FFT),
         "grids.fft.bytes": counters.get("grids.fft.bytes", 0)}
    for metric, span in _SPAN.items():
        for suffix, fn in ((".calls", calls), (".self_s", self_s)):
            if metric + suffix in PER_LAYER:
                m[metric + suffix] = fn(span)
    lookups = counters.get("operators.prop_cache.lookups", 0)
    m["operators.prop_cache.hit_ratio"] = (
        counters.get("operators.prop_cache.hits", 0) / lookups if lookups else 0.0)
    m["noise.streams"] = calls("noise.QWienerSampler.__init__")
    steps_us = [ns / 1e3 for ns in doc["samples"]["solver.step_exp_euler"]]
    m["solver.step_exp_euler.p50_us"] = _percentile(steps_us, 0.5) if steps_us else 0.0
    m["solver.step_exp_euler.p99_us"] = _percentile(steps_us, 0.99) if steps_us else 0.0
    m["solver.picard.iterations"] = sum(doc["picard_iterations"])
    solves = doc["wick_solves"]
    m["chaos.wick_solve.useful_ratio"] = len(set(solves)) / len(solves) if solves else 0.0
    m["ensemble.path_steps"] = counters.get("ensemble.path_steps", 0)
    layer_self = {layer: sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
                  / 1e9 for layer in LAYERS}
    m["config.setup.self_s"] = layer_self.pop("config")
    m.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
    m["cli.out_bytes"] = traced["out_bytes"]
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    m["trace.coverage"] = sum(v[2] for v in stats.values()) / 1e9 / traced["wall_s"]
    m.update(units)

    expected = W.expected_counts(wl.name, traced["cfg"], doc["picard_iterations"],
                                 len(solves))
    wrong = {k: (m[k], v) for k, v in expected.items() if m[k] != v}
    if wrong:
        raise BenchError("traced call counts differ from the closed form "
                         f"(measured, expected): {wrong}")
    return m


def environment(wl: Workload, numpy_version: str) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stochwave").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": wl.seed,
        "numpy": numpy_version, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "threads": {var: _child_env()[var] for var in THREAD_VARS},
        "config_hash": wl.config_hashes,
    }


def measure(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    wl = Workload(name, seed, size, trace)
    start = time.perf_counter()
    traced = None
    if trace:
        traced = wl.run(seed, traced=True)
        units = wl.probe("units", str(seed)) if size == "full" else {
            k: 0.0 for k in PER_LAYER if k.startswith("untraced.")}
    runs, setups = untraced_runs(wl, seconds - (time.perf_counter() - start))
    all_runs = runs + ([traced] if traced else [])
    failed = [r for r in all_runs if r["failures"]]
    sampled = [r for r in runs if r["wall_at_ref_s"] is not None]
    if not sampled:
        raise BenchError("no untraced run recorded the host speed")
    raw = {"wall_s": statistics.median(r["wall_s"] for r in runs),
           "cpu_s": statistics.median(r["cpu_s"] for r in runs),
           "setup_s": statistics.median(p["setup_s"] for p in setups)}
    if trace:
        metrics = layer_metrics(wl, traced, raw["wall_s"], units)
        units_of = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_at_ref_s"] for r in sampled),
            "cpu_s": statistics.median(r["cpu_at_ref_s"] for r in sampled),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": statistics.median(rescale(p["setup_s"], p["bursts"])
                                         for p in setups),
        }
        units_of = END_TO_END
    deviations = [r["deviation"] for r in all_runs if r["deviation"] is not None]
    return {
        "workload": name,
        "correct": not failed,
        "attempted": len(all_runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        "error_rate": len(failed) / len(all_runs),
        "reference_max_deviation": max(deviations) if deviations else None,
        "raw_medians": raw,
        "runs": [{k: v for k, v in r.items() if k not in ("stats", "cfg")} for r in all_runs],
        "environment": environment(wl, setups[0]["numpy"]),
    }


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    name = result["workload"]
    for r in result["runs"]:
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        status += "".join(f" (statistical gate, not counted: {n})" for n in r["notes"])
        kind = "traced" if r["traced"] else "untraced"
        at_ref = "" if r["traced"] or r["wall_at_ref_s"] is None else (
            f" (at reference speed {r['wall_at_ref_s']:.3f}s, {r['bursts']} samples)")
        print(f"{name} {kind} seed={r['seed']} wall={r['wall_s']:.3f}s{at_ref} "
              f"cpu={r['cpu_s']:.3f}s rss={r['peak_rss_mb']:.1f}MB {status}")
    if result["reference_max_deviation"] is not None:
        print(f"{name} reference max deviation {result['reference_max_deviation']:.3g}")
    for key, m in result["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} unscaled medians " + " ".join(
        f"{k} {v:.6g} s" for k, v in result["raw_medians"].items()))
    print(f"{name} error_rate {result['error_rate']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(f"{name} environment {json.dumps(result['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*W.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=W.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stochwave" / "cli.py").is_file():
        print(f"error: no stochwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = W.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [measure(n, args.seed, args.seconds, args.trace, args.size) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        (result_path := WORK / f"result-{result['workload']}-trace{args.trace}.json"
         ).write_text(json.dumps(result, indent=1))
        report(result)
        print(f"{result['workload']} result written to {result_path.relative_to(ROOT)}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
