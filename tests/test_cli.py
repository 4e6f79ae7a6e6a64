import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochwave import _files
from stochwave.cli import _write_report, main
from stochwave.config import ExperimentConfig

BASE_CONFIG = {
    "model": {"name": "sine_gordon", "g": 1.0, "k0": 1.0},
    "grid": {"dim": 1, "points": [32], "lengths": [6.283185307179586]},
    "initial": {"kind": "smooth_random", "amplitude": 0.3, "seed": 7},
    "solver": {"T": 0.2, "dt": 0.01, "scheme": "strang"},
    "master_seed": 42,
}


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_outputs(tmp_path):
    cfg = dict(BASE_CONFIG)
    out = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "report.json").exists()
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["model"]["name"] == "sine_gordon"
    assert "config_hash" in resolved
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ran_to_T"
    assert report["config_hash"] == resolved["config_hash"]


def test_missing_model_block_exits_2(tmp_path, capsys):
    bad = {"grid": {"dim": 1, "points": [16], "lengths": [1.0]}}
    code = main(["simulate", "--config", _write(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "model" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    bad = dict(BASE_CONFIG)
    bad["extra_block"] = {}
    code = main(["simulate", "--config", _write(tmp_path, bad),
                 "--out", str(tmp_path / "r")])
    assert code == 2
    assert "extra_block" in capsys.readouterr().err


@pytest.mark.parametrize("block, key, value, message", [
    ("solver", "dt", 0.03, "dt must divide T"),
    ("solver", "dt", 0.0, "dt must be positive"),
    ("grid", "points", [31], "must be even"),
    ("grid", "points", [2], "at least 4 points"),
    ("solver", "scheme", "rk4", "unknown solver.scheme 'rk4'"),
    ("initial", "kind", "nope", "unknown initial.kind 'nope'"),
    ("mc", "dt_ladder", [0.1, 0.05, 0.03, 0.01], "dt must divide T"),
    ("mc", "dt_ladder", [0.1, 0.05, 0.04, 0.02], "multiples of the finest dt"),
    ("mc", "dt_ladder", [0.1, 0.05, 0.01], "at least 4 dt values"),
    ("mc", "n_workers", 3, "mc.n_workers must be 1"),
])
def test_invalid_value_exits_2_before_output(tmp_path, capsys, block, key, value, message):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad.setdefault(block, {})[key] = value
    out = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_dt_override_that_does_not_divide_T_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, dict(BASE_CONFIG)),
                 "--out", str(out), "--dt", "0.03"])
    assert code == 2
    assert "dt must divide T" in capsys.readouterr().err
    assert not out.exists()


def test_report_write_failing_midway_keeps_previous_report(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(BASE_CONFIG)))
    _write_report(tmp_path, {"status": "first"}, cfg)
    before = (tmp_path / "report.json").read_bytes()

    class FullDisk:
        """A file that takes half of what is written, then reports a full disk."""

        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(_files, "open", FullDisk, raising=False)
    with pytest.raises(OSError):
        _write_report(tmp_path, {"status": "second"}, cfg)
    assert (tmp_path / "report.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_python_dash_m_stochwave_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    res = subprocess.run([sys.executable, "-m", "stochwave", "--help"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "simulate" in res.stdout


def test_dt_override_echoed_in_resolved_config(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, dict(BASE_CONFIG)),
                 "--out", str(out), "--dt", "0.005"])
    assert code == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["solver"]["dt"] == 0.005


def test_resolved_config_round_trips(tmp_path):
    out1 = tmp_path / "a"
    main(["simulate", "--config", _write(tmp_path, dict(BASE_CONFIG)),
          "--out", str(out1)])
    resolved_path = out1 / "config.resolved.json"
    out2 = tmp_path / "b"
    resolved = json.loads(resolved_path.read_text())
    resolved["output_dir"] = str(out2)
    rerun_cfg = _write(tmp_path, resolved, "resolved_rerun.json")
    code = main(["simulate", "--config", rerun_cfg])
    assert code == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_mismatched_run_dir_is_refused(tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--config", _write(tmp_path, dict(BASE_CONFIG)), "--out", str(out)])
    changed = dict(BASE_CONFIG)
    changed["master_seed"] = 777
    code = main(["simulate", "--config", _write(tmp_path, changed, "c2.json"),
                 "--out", str(out)])
    assert code == 2
    assert "hash" in capsys.readouterr().err


def test_stop_exit_code_and_allow_stop(tmp_path):
    cfg = {
        "model": {"name": "nls", "sign": 0, "smoothness": 1},
        "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
        "initial": {"kind": "modes", "amplitude": 1.0, "modes": [[0, 1, 1.0, 0.0]]},
        "solver": {"T": 1.0, "dt": 0.002, "threshold": 1.02},
        "noise": {"enabled": True, "n_modes": 1, "lambda0": 6.0, "gamma": 2.0},
        "master_seed": 3,
    }
    code = main(["simulate", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "r1")])
    assert code == 3
    code = main(["simulate", "--config", _write(tmp_path, cfg, "c2.json"),
                 "--out", str(tmp_path / "r2"), "--allow-stop"])
    assert code == 0
    report = json.loads((tmp_path / "r2" / "report.json").read_text())
    assert report["status"] == "stopped"


def test_verify_ok_and_json(tmp_path, capsys):
    cfg = {
        "model": {"name": "sine_gordon", "g": 1.0, "k0": 1.0},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "verify": {"sample_count": 100, "orthogonality_paths": 500},
        "master_seed": 5,
    }
    code = main(["verify", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "v"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["estimate_violations"] == {}


def test_verify_broken_j_exits_1(tmp_path, capsys):
    cfg = {
        "model": {"name": "sine_gordon", "g": 1.0, "k0": 1.0, "break_j_hook": True},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "verify": {"sample_count": 100, "orthogonality_paths": 500},
        "master_seed": 5,
    }
    code = main(["verify", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "v")])
    assert code == 1
    out = capsys.readouterr().out
    assert "sine:contraction" in out  # names the violated inequality


def test_picard_command(tmp_path):
    cfg = {
        "model": {"name": "sine_gordon", "g": 1.0, "k0": 1.0},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "initial": {"kind": "smooth_random", "amplitude": 0.25, "seed": 2},
        "solver": {"T": 0.4, "dt": 0.01, "n_time_nodes": 41, "tol": 1e-11},
        "noise": {"n_modes": 2, "lambda0": 0.3, "gamma": 2.0},
        "master_seed": 11,
    }
    out = tmp_path / "p"
    code = main(["picard", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["contraction_ratio"] < 1.0
    assert (out / "picard_residuals.csv").exists()


def test_converge_command(tmp_path):
    cfg = {
        "model": {"name": "nls", "sign": 0, "smoothness": 1},
        "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
        "initial": {"kind": "modes", "amplitude": 1.0, "modes": [[0, 1, 1.0, 0.0]]},
        "solver": {"T": 1.0, "dt": 0.01},
        "noise": {"enabled": True, "n_modes": 1, "lambda0": 0.5, "gamma": 2.0},
        "mc": {"n_paths": 300, "dt_ladder": [0.125, 0.0625, 0.03125, 0.0078125]},
        "master_seed": 13,
    }
    out = tmp_path / "c"
    code = main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["strong"]["order"] >= 0.4
    assert (out / "convergence.csv").exists()


def test_chaos_command(tmp_path):
    cfg = {
        "model": {"name": "nls", "sign": 0, "smoothness": 1},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "initial": {"kind": "modes", "amplitude": 0.5, "modes": [[0, 1, 1.0, 0.0]]},
        "solver": {"T": 0.4, "dt": 0.02},
        "noise": {"enabled": True, "n_modes": 2, "lambda0": 0.4, "gamma": 2.0},
        "chaos": {"n_modes": 2, "max_degree": 3},
        "mc": {"n_paths": 200},
        "master_seed": 17,
    }
    out = tmp_path / "ch"
    code = main(["chaos", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["chaos_vs_mc"]["mean_within_3se"] is True
    assert (out / "chaos_coefficients.csv").exists()
    header = json.loads((out / "chaos_space.json").read_text())
    assert header["n_modes"] == 2


def test_chaos_command_solves_the_wick_evolution_once(tmp_path, monkeypatch):
    import stochwave.cli as cli
    import stochwave.ensemble as ensemble

    calls = []
    solve = ensemble.solve_wick_evolution

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ensemble, "solve_wick_evolution", counted)
    monkeypatch.setattr(cli, "solve_wick_evolution", counted, raising=False)
    cfg = {
        "model": {"name": "klein_gordon", "p": 3, "sign": 1},
        "grid": {"dim": 1, "points": [8], "lengths": [6.283185307179586]},
        "initial": {"kind": "modes", "amplitude": 0.3, "modes": [[0, 1, 1.0, 0.0]]},
        "solver": {"T": 0.1, "dt": 0.02},
        "noise": {"enabled": True, "n_modes": 2, "lambda0": 0.2, "gamma": 2.0},
        "chaos": {"n_modes": 2, "max_degree": 2},
        "mc": {"n_paths": 4},
        "master_seed": 3,
    }
    out = tmp_path / "once"
    assert main(["chaos", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert (out / "chaos_coefficients.csv").exists()


def test_rerun_same_config_is_bit_identical(tmp_path):
    cfg = {
        "model": {"name": "nls", "sign": 0, "smoothness": 1},
        "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
        "initial": {"kind": "modes", "amplitude": 1.0, "modes": [[0, 1, 1.0, 0.0]]},
        "solver": {"T": 0.5, "dt": 0.05},
        "noise": {"enabled": True, "n_modes": 1, "lambda0": 0.5, "gamma": 2.0},
        "master_seed": 23,
    }
    p1, p2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(p1)]) == 0
    assert main(["simulate", "--config", _write(tmp_path, cfg, "c2.json"),
                 "--out", str(p2)]) == 0
    assert (p1 / "trajectory.csv").read_bytes() == (p2 / "trajectory.csv").read_bytes()
    r1 = json.loads((p1 / "report.json").read_text())
    r2 = json.loads((p2 / "report.json").read_text())
    assert r1 == r2
