"""Tests of the benchmark itself: tiny smoke runs, output checks, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", W.NAMES)
def test_tiny_smoke_run(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_rescale_takes_the_bursts_out_and_applies_the_mean_speed():
    ref = hostspeed.REFERENCE_BURST_S
    assert hostspeed.rescale(1.0, [ref, ref]) == pytest.approx(1.0 - 2 * ref)
    # half the intervals at full speed, half at half speed
    assert hostspeed.rescale(1.0, [ref, 2 * ref]) == pytest.approx((1.0 - 3 * ref) * 0.75)


def test_sampler_samples_while_the_process_works():
    sampler = hostspeed.Sampler(interval=0.01).start()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    bursts = sampler.stop()
    assert len(bursts) >= 5 and all(b > 0 for b in bursts)


def _write_run(tmp_path, report):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.json").write_text(json.dumps(report))
    (out / "config.resolved.json").write_text(
        json.dumps({"config_hash": report["config_hash"]}))
    return out


@pytest.mark.parametrize("name", W.NAMES)
def test_reference_report_passes_its_own_checks(name, tmp_path):
    report = json.loads(W.reference_path(name).read_text())
    cfg = W.make_config(name, W.REFERENCE_SEED)
    check = W.check_run(name, cfg, _write_run(tmp_path, report), 0, W.REFERENCE_SEED, "full")
    assert check["failures"] == [] and check["deviation"] == 0.0


TAMPER = {
    "ito_ladder": lambda r: r["strong"]["errors"].__setitem__(
        0, r["strong"]["errors"][0] * (1 + 2**-52)),
    "wick_chaos": lambda r: r["chaos_vs_mc"].__setitem__(
        "chaos_energy", r["chaos_vs_mc"]["chaos_energy"] + 1e-12),
    "picard_2d": lambda r: r.__setitem__("iterations", r["iterations"] + 1),
}


@pytest.mark.parametrize("name", W.NAMES)
def test_tampered_report_counts_as_failure(name, tmp_path):
    report = json.loads(W.reference_path(name).read_text())
    TAMPER[name](report)
    cfg = W.make_config(name, W.REFERENCE_SEED)
    check = W.check_run(name, cfg, _write_run(tmp_path, report), 0, W.REFERENCE_SEED, "full")
    assert check["failures"] and check["deviation"] > 0


def test_failed_gate_or_exit_code_counts_as_failure(tmp_path):
    report = json.loads(W.reference_path("picard_2d").read_text())
    report["converged"] = False
    cfg = W.make_config("picard_2d", 7)
    out = _write_run(tmp_path, report)
    assert W.check_run("picard_2d", cfg, out, 0, 7, "full")["failures"]
    assert W.check_run("picard_2d", cfg, out, 3, 7, "full")["failures"] == ["exit code 3"]
    (out / "report.json").unlink()
    assert W.check_run("picard_2d", cfg, out, 0, 7, "full")["failures"]


def test_statistical_gate_counts_at_the_reference_seed_only(tmp_path):
    report = json.loads(W.reference_path("wick_chaos").read_text())
    report["chaos_vs_mc"]["mean_within_3se"] = False
    out = _write_run(tmp_path, report)
    cfg = W.make_config("wick_chaos", 7)
    at_seed = W.check_run("wick_chaos", cfg, out, 0, 7, "full")
    assert at_seed["failures"] == [] and at_seed["notes"]
    at_reference = W.check_run("wick_chaos", cfg, out, 0, W.REFERENCE_SEED, "full")
    assert any("3 stderr" in f for f in at_reference["failures"])


def test_metric_names_and_benchmark_json_agree():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in doc[section]}
        assert declared == emitted
    names = [m["name"] for s in ("end_to_end", "per_layer", "workloads") for m in doc[s]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names), [n for n in names if not NAME_RE.fullmatch(n)]
    assert [w["name"] for w in doc["workloads"]] == list(W.NAMES)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "picard_2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
