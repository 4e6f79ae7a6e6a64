import errno
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import stochwave.cli as cli
import stochwave.ensemble as ensemble
from stochwave import BlowUpError, ChaosSpace, QWienerSampler
from stochwave.cli import _csv, _write_run, main
from stochwave.config import ExperimentConfig

BASE_CONFIG = {
    "model": {"name": "sine_gordon", "g": 1.0, "k0": 1.0},
    "grid": {"dim": 1, "points": [32], "lengths": [6.283185307179586]},
    "initial": {"kind": "smooth_random", "amplitude": 0.3, "seed": 7},
    "solver": {"T": 0.2, "dt": 0.01, "scheme": "strang"},
    "master_seed": 42,
}
TAIL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example_tail.json"
LINEAR_CONFIG = TAIL_CONFIG.with_name("example_noisy_linear.json")


class _Reworded(str):
    """An expected error message that rewords the one its case pinned before,
    ``former``: the case keeps the name that the former message gave it."""

    def __new__(cls, message: str, former: str):
        self = super().__new__(cls, message)
        self.former = former
        return self


def _former_name(value):
    """A parameter's part of a case's name: a reworded message's former text,
    else pytest's own (None)."""
    return getattr(value, "former", None)


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
    ("solver", "dt", 0.0, _Reworded("solver: dt must be above 0, got 0.0", "dt must be positive")),
    ("grid", "points", [31], "must be even"),
    ("grid", "points", [2], _Reworded("grid: points per axis must be at least 4, got 2",
                                      "at least 4 points")),
    ("solver", "scheme", "rk4", _Reworded("solver: unknown scheme 'rk4'",
                                         "unknown solver.scheme 'rk4'")),
    ("initial", "kind", "nope", "unknown initial.kind 'nope'"),
    ("mc", "dt_ladder", [0.1, 0.05, 0.03, 0.01], "dt must divide T"),
    ("mc", "dt_ladder", [0.1, 0.05, 0.04, 0.02], "multiples of the finest dt"),
    ("mc", "dt_ladder", [0.1, 0.05, 0.01], _Reworded(
        "mc: dt_ladder length must be at least 4, got 3", "at least 4 dt values")),
    ("mc", "dt_ladder", [0.1, 0.05, 0.01, 0.0], _Reworded(
        "mc: dt must be above 0, got 0.0", "mc.dt_ladder: dt must be positive")),
    ("mc", "n_workers", 3, "mc.n_workers must be 1"),
    ("mc", "n_paths", 0, _Reworded("mc: n_paths must be from 2 to 1000000, got 0", "mc.n_paths: ")),
    ("mc", "n_paths", 2.5, "mc.n_paths must be an integer, got 2.5"),
    ("mc", "n_paths", "many", "mc.n_paths must be an integer, got 'many'"),
    ("model", "name", "foo", "model: unknown model 'foo'"),
    ("model", "p", 1, _Reworded("model: p must be at least 2, got 1",
                                "model: power exponent p must be >= 2")),
    ("model", "sign", 2, _Reworded("model: sign must be from -1 to 1, got 2",
                                   "model: sign must be -1, 0 or +1")),
    ("initial", "modes", [[0, 1, 1.0]], "initial: modes entry 0 must be [component, "
     "wavenumber, re, im] with a component in 0..1, got [0, 1, 1.0]"),
    # these once ran: a NaN amplitude or g exited 3, a NaN k0 exited 1 with a
    # traceback, a NaN m ran, and p = 2.5 ran with p = 2 under 2.5's hash
    ("initial", "amplitude", float("nan"), "initial.amplitude must be a finite number, got nan"),
    ("model", "g", float("nan"), "model.g must be a finite number, got nan"),
    ("model", "k0", float("nan"), "model.k0 must be a finite number, got nan"),
    ("model", "m", float("inf"), "model.m must be a finite number, got inf"),
    ("model", "p", 2.5, "model.p must be an integer, got 2.5"),
    ("model", "p", float("nan"), "model.p must be an integer, got nan"),
    # a NaN length and a smoothness of -1 exited 1 with a traceback and a run
    # directory, and a smoothness of 2.5 ran with 2
    ("grid", "lengths", [float("nan")], "grid.lengths must be a list of finite numbers, got [nan]"),
    ("model", "smoothness", -1, _Reworded(
        "model: smoothness must be from 0 to 8, got -1",
        "model: smoothness must be an integer of at least 0, got -1")),
    ("model", "smoothness", 2.5, "model.smoothness must be null or an integer, got 2.5"),
    # these once ran: a string switched a feature on ("false" ran a noisy
    # simulation, "no" the failure hook), a fractional or string point count
    # was truncated and dim true ran as 1 under the bad value's hash, and an
    # infinite T exited 1 with an OverflowError traceback
    ("model", "dealias", "false", "model.dealias must be true or false, got 'false'"),
    ("model", "break_j_hook", "no", "model.break_j_hook must be true or false, got 'no'"),
    ("noise", "enabled", "false", "noise.enabled must be true or false, got 'false'"),
    ("noise", "enabled", 1, "noise.enabled must be true or false, got 1"),
    ("solver", "T", float("inf"), "solver.T must be a finite number, got inf"),
    ("grid", "points", [32.5], "grid.points must be a list of integers, got [32.5]"),
    ("grid", "points", ["32"], "grid.points must be a list of integers, got ['32']"),
    ("grid", "points", [True], "grid.points must be a list of integers, got [True]"),
    ("grid", "dim", True, "grid.dim must be an integer, got True"),
    ("grid", "lengths", ["6.28"], "grid.lengths must be a list of finite numbers, got ['6.28']"),
    # these once ran, reading true as 1, or failed with a message that did not
    # name the key, such as numpy's "ufunc 'isfinite' not supported"
    ("model", "sign", True, "model.sign must be an integer, got True"),
    ("initial", "seed", True, "initial.seed must be an integer, got True"),
    ("noise", "lambda0", True, "noise.lambda0 must be a finite number, got True"),
    ("initial", "amplitude", True, "initial.amplitude must be a finite number, got True"),
    ("model", "smoothness", True, "model.smoothness must be null or an integer, got True"),
    ("solver", "T", "1", "solver.T must be a finite number, got '1'"),
    ("noise", "gamma", "2", "noise.gamma must be a finite number, got '2'"),
    ("model", "k0", "1", "model.k0 must be a finite number, got '1'"),
    ("model", "name", None, "model.name must be a string, got None"),
    ("initial", "modes", [[0, 1, "1", 0]],
     "initial.modes must be a list of lists of finite numbers, got [[0, 1, '1', 0]]"),
    # these once failed with numpy's "expected non-negative integer", and
    # converge with a repeated rung printed "strong order nan" and exited 0
    ("initial", "seed", -3, _Reworded("initial: seed must be at least 0, got -3",
                                      "initial.seed must be an integer of at least 0, got -3")),
    ("mc", "dt_ladder", [0.1, 0.1, 0.05, 0.025],
     _Reworded("mc: dt_ladder entries must be distinct multiples of the finest dt, "
               "got [0.1, 0.1, 0.05, 0.025]",
               "mc.dt_ladder: ladder entries must be distinct multiples of the finest dt")),
], ids=_former_name)
def test_invalid_value_exits_2_before_output(tmp_path, capsys, recwarn, block, key, value,
                                             message):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad.setdefault(block, {})[key] = value
    if key == "modes":
        bad["initial"]["kind"] = "modes"
    out = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()
    assert not [str(w.message) for w in recwarn]


COMMANDS = ("simulate", "picard", "converge", "chaos", "ensemble", "verify")
NOISE_ON = {"noise": {"enabled": True}}


@pytest.mark.parametrize("command, changes, message", [
    *[(command, {"mc": {"n_paths": 1}}, _Reworded(
        "mc: n_paths must be from 2 to 1000000, got 1",
        "mc.n_paths: an ensemble needs an integer count of at least 2 paths, got 1"))
      for command in COMMANDS],
    ("simulate", {"model": {"name": "klein_gordon", "k0": 0}},
     _Reworded("model: k0 must be above 0, got 0.0", "model: wave blocks need k0 > 0")),
    ("simulate", {"model": {"name": "nls"},
                  "initial": {"kind": "modes", "modes": [[3, 1, 1.0, 0.0]]}},
     "initial: modes entry 0 must be [component, wavenumber, re, im] with a component in 0..0, "
     "got [3, 1, 1.0, 0.0]"),
    ("simulate", {"noise": {"enabled": True, "gamma": 1.0}},
     _Reworded("noise: gamma must be above 1, got 1.0",
               "noise: gamma must exceed 1 for a trace-class tail, got 1.0")),
    ("simulate", {"noise": {"enabled": True, "lambda0": -1}},
     _Reworded("noise: lambda0 must be above 0, got -1", "noise: lambda0 must be positive, got -1")),
    ("simulate", {"noise": {"enabled": True, "n_modes": 0}},
     _Reworded("noise: n_modes must be from 1 to 31, got 0", "noise: n_modes must be at least 1, got 0")),
    ("chaos", {**NOISE_ON, "chaos": {"max_degree": -1}},
     _Reworded("chaos: max_degree must be from 0 to 170, got -1",
               "chaos: max_degree must be at least 0, got -1")),
    ("chaos", {**NOISE_ON, "chaos": {"n_modes": 0}}, "chaos: n_modes must be at least 1, got 0"),
    ("verify", {"chaos": {"max_degree": -1}},
     _Reworded("chaos: max_degree must be from 0 to 170, got -1",
               "chaos: max_degree must be at least 0, got -1")),
    ("picard", {"solver": {"n_time_nodes": 1}},
     _Reworded("solver: n_time_nodes must be from 2 to 10000, got 1",
               "solver: n_time_nodes must be at least 2, got 1")),
    ("picard", {"solver": {"tol": 0}},
     _Reworded("solver: tol must be above 0, got 0", "solver: tol must be positive")),
    ("verify", {"verify": {"sample_count": 10}},
     _Reworded("verify: sample_count must be from 100 to 100000, got 10",
               "verify: estimate verification needs at least 100 samples")),
    # these once ran: max_iter <= 0 exited 3 with a full run directory, and one
    # orthogonality path gave NaN standard errors and "verification FAILED"
    ("picard", {"solver": {"max_iter": -1}},
     _Reworded("solver: max_iter must be from 1 to 10000, got -1",
               "solver.max_iter must be an integer of at least 1, got -1")),
    ("picard", {"solver": {"max_iter": 0}},
     _Reworded("solver: max_iter must be from 1 to 10000, got 0",
               "solver.max_iter must be an integer of at least 1, got 0")),
    ("verify", {"verify": {"orthogonality_paths": 1}},
     _Reworded("verify: orthogonality_paths must be from 1000 to 1000000, got 1",
               "verify.orthogonality_paths must be an integer of at least 1000, got 1")),
    # these once ran: every such radius printed "verification ok", a NaN
    # lambda0 or gamma exited 3 with a run directory, a NaN tol ran every
    # sweep, a NaN threshold never stopped a path, and an even p marched
    # every chaos path before it failed with a traceback
    *[("verify", {"verify": {"radius": radius}},
       _Reworded(f"verify: radius must be above 0 and below inf, got {radius!r}",
                 f"verify: estimate radius must be a finite number above 0, got {radius!r}")
       if np.isfinite(radius) else f"verify.radius must be a finite number, got {radius!r}")
      for radius in (float("nan"), 0, -1, float("inf"))],
    ("simulate", {"noise": {"enabled": True, "lambda0": float("nan")}},
     "noise.lambda0 must be a finite number, got nan"),
    ("simulate", {"noise": {"enabled": True, "gamma": float("nan")}},
     "noise.gamma must be a finite number, got nan"),
    ("picard", {"solver": {"tol": float("nan")}}, "solver.tol must be a finite number, got nan"),
    ("ensemble", {"solver": {"threshold": float("nan")}},
     "solver.threshold must be null or a finite number, got nan"),
    ("chaos", {**NOISE_ON, "model": {"name": "nls", "p": 2}},
     _Reworded("model: Wick quantization needs an odd power p, got 2",
               "chaos: Wick quantization needs an odd power p, got 2")),
    # these once crashed with a traceback after the run directory existed
    ("ensemble", {**NOISE_ON, "master_seed": -3},
     _Reworded("master_seed must be at least 0, got -3",
               "master_seed must be an integer of at least 0, got -3")),
    *[("ensemble", {**NOISE_ON, "master_seed": seed},
       f"master_seed must be an integer, got {seed!r}") for seed in (1.5, True)],
    ("ensemble", {**NOISE_ON, "--seed": "-3"},
     _Reworded("master_seed must be at least 0, got -3",
               "master_seed must be an integer of at least 0, got -3")),
    *[(command, {"solver": {"T": float("inf")}}, "solver.T must be a finite number, got inf")
      for command in ("converge", "ensemble")],
    # these once ran: Strang with noise on marched exponential Euler, and a
    # node count of 9.5 or "9" ran picard on 9 nodes under the bad value's hash
    ("simulate", {**NOISE_ON, "solver": {"scheme": "strang"}},
     _Reworded("solver: the Strang scheme has no noise term; set scheme to exp_euler or "
               "disable the noise", "solver.scheme: the Strang scheme has no noise term")),
    *[("picard", {"solver": {"n_time_nodes": nodes}},
       f"solver.n_time_nodes must be an integer, got {nodes!r}")
      for nodes in (9.5, "9", True)],
    # these once ran, reading true as 1 or a string letter by letter, or failed
    # with a message that did not name the key; and an initial state too large
    # to square printed numpy's overflow warning and blamed solver.threshold
    ("chaos", {**NOISE_ON, "noise": {"enabled": True, "n_modes": True}},
     "noise.n_modes must be an integer, got True"),
    ("picard", {"solver": {"tol": True}}, "solver.tol must be a finite number, got True"),
    ("verify", {"verify": {"radius": True}}, "verify.radius must be a finite number, got True"),
    ("ensemble", {**NOISE_ON, "mc": {"observables": "norm_sq"}},
     "mc.observables must be a list of strings, got 'norm_sq'"),
    ("verify", {"chaos": {"max_degree": 2.5}}, "chaos.max_degree must be an integer, got 2.5"),
    ("verify", {"verify": {"sample_count": 150.5}},
     "verify.sample_count must be an integer, got 150.5"),
    ("simulate", {"model": {"name": "nls"}, "grid": {"points": [16]},
                  "initial": {"amplitude": 1e300}},
     "initial.amplitude must keep the graph norms up to model.smoothness finite, got 1e+300"),
    # these once read "eigenfields not orthonormal": the basis's next mode on
    # 4 points is the Nyquist pair, and picard builds its potential from the
    # noise block with the noise off too
    ("simulate", {"grid": {"points": [4]}, "noise": {"enabled": True, "n_modes": 4}},
     _Reworded("noise: n_modes must be from 1 to 3, got 4",
               "noise: n_modes must be below grid.points[0] = 4, got 4")),
    ("picard", {"grid": {"points": [4]}},
     _Reworded("noise: n_modes must be from 1 to 3, got 4",
               "noise: n_modes must be below grid.points[0] = 4, got 4")),
    # this once ran, though below 1,000 paths verify's 3-standard-error checks
    # fail by chance far above their nominal rate
    ("verify", {"verify": {"orthogonality_paths": 999}},
     _Reworded("verify: orthogonality_paths must be from 1000 to 1000000, got 999",
               "verify.orthogonality_paths must be an integer of at least 1000, got 999")),
    # these once named the grid builder's parameters and no value, or put the
    # modes entry before its rule
    ("simulate", {"grid": {"points": [32, 32]}}, "grid: points and lengths must each have "
     "dim = 1 entries, got [32, 32] and [6.283185307179586]"),
    ("simulate", {"model": {"name": "nls"},
                  "initial": {"kind": "modes", "modes": [[0, 1, 1.0, 0.0], [0, 2, 1.0]]}},
     "initial: modes entry 1 must be [component, wavenumber, re, im] with a component in 0..0, "
     "got [0, 2, 1.0]"),
    # these once ran as graph_norm_j1 or graph_norm_j10 under a hash and a
    # report key of their own, or failed with int()'s message for 'x'
    *[("ensemble", {**NOISE_ON, "mc": {"observables": ["norm_sq", name]}},
       _Reworded(f"mc: unknown observable '{name}'",
                 f"mc.observables: unknown observable '{name}'"))
      for name in ("graph_norm_j+1", "graph_norm_j 1", "graph_norm_j01", "graph_norm_jx",
                   "graph_norm_j1_0", "graph_norm_j\u0661", "graph_norm_j", "graph_norm_j-0")],
    # these once printed an OverflowError traceback and exited 4: 171! is no float
    *[(command, {**NOISE_ON, "chaos": {"n_modes": 1, "max_degree": 171}},
       _Reworded("chaos: max_degree must be from 0 to 170, got 171",
                 "chaos: max_degree must be at most 170, got 171"))
      for command in ("verify", "chaos")],
    # these once ran: on 8 points wavenumber 9 built the wavenumber-1 state, and
    # 0.5 spread over every Fourier mode
    *[("simulate", {"model": {"name": "nls"}, "grid": {"points": [8]},
                    "initial": {"kind": "modes", "modes": [[0, 1, 1.0, 0.0], [0, k, 1.0, 0.0]]}},
       f"initial: modes entry 1 wavenumber must be an integer from -4 to 4 "
       f"(grid.points[0] / 2), got {k!r}") for k in (9, 0.5)],
    # these once passed the config check and asked for work that would not
    # finish: 1e302 steps, 1e12 paths, 1.9e9 chaos indices built in a Python
    # loop, a 4e10-point grid, 1e9 Picard nodes, 1e12 estimate samples, and
    # 1e9 path steps of one ensemble
    ("simulate", {"solver": {"T": 1e300}},
     _Reworded("solver: T / dt must be at most 10000000, got 1e+302",
               "solver: T / dt must be at most 10000000 steps, got 1e+302")),
    ("ensemble", {**NOISE_ON, "mc": {"n_paths": 1e12}},
     _Reworded("mc: n_paths must be from 2 to 1000000, got 1000000000000",
               "mc.n_paths: n_paths must be at most 1000000, got 1000000000000")),
    ("chaos", {**NOISE_ON, "chaos": {"n_modes": 50, "max_degree": 8}},
     "chaos: the index count C(n_modes + max_degree, max_degree) must be at most 100000, "
     "got 1916797311"),
    ("simulate", {"grid": {"dim": 2, "points": [200000, 200000], "lengths": [1.0, 1.0]}},
     _Reworded("grid: points in all must be at most 4194304, got 40000000000",
               "grid: points must number at most 4194304 in all, got 40000000000")),
    ("picard", {"solver": {"n_time_nodes": 1e9}},
     _Reworded("solver: n_time_nodes must be from 2 to 10000, got 1000000000",
               "solver: n_time_nodes must be at most 10000, got 1000000000")),
    ("verify", {"verify": {"sample_count": 1e12}},
     _Reworded("verify: sample_count must be from 100 to 100000, got 1000000000000",
               "verify: sample_count must be at most 100000, got 1000000000000")),
    ("ensemble", {**NOISE_ON, "solver": {"T": 10.0}, "mc": {"n_paths": 1000000}},
     "mc: n_paths x steps must be at most 100000000, got 1000000000"),
    # one value just past each end of each bound, each message with its value
    ("simulate", {"model": {"p": 1}}, "model: p must be at least 2, got 1"),
    *[("simulate", {"model": {"sign": sign}}, f"model: sign must be from -1 to 1, got {sign}")
      for sign in (-2, 2)],
    ("simulate", {"model": {"smoothness": -1}},
     _Reworded("model: smoothness must be from 0 to 8, got -1",
               "model: smoothness must be at least 0, got -1")),
    ("simulate", {"model": {"name": "maxwell_dirac", "m": -1}},
     "model: m must be at least 0, got -1.0"),
    *[("simulate", {"grid": {"dim": dim}}, f"grid: dim must be from 1 to 3, got {dim}")
      for dim in (0, 4)],
    ("simulate", {"grid": {"points": [2]}}, "grid: points per axis must be at least 4, got 2"),
    ("simulate", {"grid": {"lengths": [0.0]}},
     "grid: axis lengths must be above 0 and below inf, got 0.0"),
    ("simulate", {"noise": {"enabled": True, "lambda0": 0}},
     "noise: lambda0 must be above 0, got 0"),
    ("simulate", {"noise": {"enabled": True, "gamma": 1}}, "noise: gamma must be above 1, got 1"),
    ("ensemble", {**NOISE_ON, "mc": {"n_paths": 1000001}},
     "mc: n_paths must be from 2 to 1000000, got 1000001"),
    ("picard", {"solver": {"n_time_nodes": 10001}},
     "solver: n_time_nodes must be from 2 to 10000, got 10001"),
    ("picard", {"solver": {"tol": -1e-10}}, "solver: tol must be above 0, got -1e-10"),
    ("simulate", {"solver": {"dt": -0.01}}, "solver: dt must be above 0, got -0.01"),
    ("simulate", {"solver": {"T": 10000001.0, "dt": 1.0}},
     "solver: T / dt must be at most 10000000, got 10000001.0"),
    *[("verify", {"verify": {"sample_count": count}},
       f"verify: sample_count must be from 100 to 100000, got {count}") for count in (99, 100001)],
    # the rules that are not bounds name their value too
    ("simulate", {"solver": {"dt": 0.03}}, "solver: dt must divide T = 0.2, got 0.03"),
    ("simulate", {"model": {"name": "maxwell_dirac"},
                  "grid": {"dim": 2, "points": [8, 8], "lengths": [1.0, 1.0]}},
     "model: maxwell_dirac uses the 1+1-dimensional reduction, got dim 2"),
    ("simulate", {"model": {"name": "nls"},
                  "grid": {"dim": 3, "points": [4, 4, 4], "lengths": [1.0, 1.0, 1.0]}},
     "model: nls is a 1d/2d (transverse-plane) model, got dim 3"),
    # this once drew every asked-for path: 10^8 ran for most of an hour
    ("verify", {"verify": {"orthogonality_paths": 1_000_001}},
     "verify: orthogonality_paths must be from 1000 to 1000000, got 1000001"),
    # these once ran past any timeout: a ladder of 1e7 graph norms, 1e8 sweeps
    # of a Picard solve, and 500,000 Wick products per nonlinearity
    ("simulate", {"model": {"name": "nls", "smoothness": 10_000_000}, "grid": {"points": [8]}},
     "model: smoothness must be from 0 to 8, got 10000000"),
    ("picard", {"solver": {"max_iter": 100_000_000}},
     "solver: max_iter must be from 1 to 10000, got 100000000"),
    ("chaos", {**NOISE_ON, "model": {"name": "klein_gordon", "p": 1_000_001}},
     "model: p must be at most 99, got 1000001"),
    # 91,881 indices, within their bound, once built 4.7e8 Wick pairs in a
    # Python loop: about 40 minutes and 47 GB
    *[(command, {**NOISE_ON, "chaos": {"n_modes": 3, "max_degree": 80}},
       "chaos: the pair count C(2 n_modes + max_degree, max_degree) must be at most 1000000, "
       "got 470155077") for command in ("verify", "chaos")],
], ids=_former_name)
def test_command_invalid_value_exits_2_before_output(tmp_path, capsys, recwarn, command,
                                                     changes, message):
    bad = json.loads(json.dumps(BASE_CONFIG))
    flags = []  # a "--flag" key is a command-line flag, a scalar a top-level key
    for block, values in changes.items():
        if block.startswith("--"):
            flags += [block, values]
        elif isinstance(values, dict):
            bad.setdefault(block, {}).update(values)
        else:
            bad[block] = values
    out = tmp_path / "run"
    code = main([command, "--config", _write(tmp_path, bad), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not out.exists()
    assert not [str(w.message) for w in recwarn]


NLS_8 = {"model": {"name": "nls"}, "grid": {"dim": 1, "points": [8], "lengths": [6.283185307179586]},
         "solver": {"T": 0.02, "dt": 0.01}, "mc": {"n_paths": 4}}


@pytest.mark.parametrize("command, changes, code", [
    # the march blows up and stops, the state at t = 0 already too large to square
    ("simulate", {"initial": {"amplitude": 1e100}}, 3),
    # every path blows up, and the observables reduce the values it ends with
    ("ensemble", {"initial": {"amplitude": 1e100}}, 0),
    # every sample leaves the finite numbers and counts as a violation
    ("verify", {"verify": {"sample_count": 100, "radius": 1e300}}, 1),
])
def test_non_finite_values_taken_as_data_print_no_numpy_warning(tmp_path, capsys, recwarn,
                                                               command, changes, code):
    doc = json.loads(json.dumps(NLS_8))
    for block, values in changes.items():
        doc.setdefault(block, {}).update(values)
    assert main([command, "--config", _write(tmp_path, doc), "--out", str(tmp_path / "run")]) == code
    assert "Warning" not in capsys.readouterr().err
    assert not [str(w.message) for w in recwarn]


@pytest.mark.parametrize("command", ["picard", "chaos", "converge"])
def test_blow_up_prints_its_one_line_and_no_numpy_warning(tmp_path, capsys, recwarn, command):
    # the state at t = 0 is too large to square: the one blow-up line is all of
    # stderr, and no run directory is made
    doc = {**NLS_8, "initial": {"amplitude": 1e100}, "noise": {"enabled": True}}
    out = tmp_path / "run"
    assert main([command, "--config", _write(tmp_path, doc), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("blow-up: ") and err.count("\n") == 1
    assert not [str(w.message) for w in recwarn]
    assert not out.exists()


def _verify_report(tmp_path):
    """verify's exit code and report on the linear example."""
    out = tmp_path / "v"
    code = main(["verify", "--config", str(LINEAR_CONFIG), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def test_verify_rejects_a_sampler_variance_excess(tmp_path, monkeypatch):
    # verify's Wiener rows pair the increments that every march draws, so a
    # sampler whose variance is 20% too large fails the Ito isometry row
    drawn = QWienerSampler.increments
    monkeypatch.setattr(QWienerSampler, "increments",
                        lambda self, dt, n_steps: np.sqrt(1.2) * drawn(self, dt, n_steps))
    code, report = _verify_report(tmp_path)
    assert code == 1 and report["ito_isometry"]["ok"] is False
    assert not report["estimate_violations"] and report["wick_multiplicativity"]["ok"]


def test_verify_rejects_a_lowering_without_its_count_factor(tmp_path, monkeypatch):
    # a_y without its (beta_m + 1) factor: the CCR row fails, the other Wick rows hold
    def lowering(self, weights, data):
        table, out = self._shifts(+1), np.zeros_like(data)
        for m, y in enumerate(weights):
            ok = table[:, m] >= 0
            out[ok] += y * data[table[ok, m]]
        return out

    monkeypatch.setattr(ChaosSpace, "lowering", lowering)
    code, report = _verify_report(tmp_path)
    assert code == 1 and report["ok"] is False and report["ccr"]["ok"] is False
    assert report["wick_multiplicativity"]["ok"] and report["exp_vector_pairing"]["ok"]


def test_verify_rejects_an_exp_vector_off_at_degree_2(tmp_path, monkeypatch):
    # phi_zeta 1% off at degree 2: the pairing row fails, the other Wick rows hold
    exact = ChaosSpace.exp_vector
    monkeypatch.setattr(ChaosSpace, "exp_vector", lambda self, zeta: exact(self, zeta)
                        * np.where(self.degrees == 2, 1.01, 1.0))
    code, report = _verify_report(tmp_path)
    assert code == 1 and report["ok"] is False
    assert report["exp_vector_pairing"]["ok"] is False
    assert report["wick_multiplicativity"]["ok"] and report["ccr"]["ok"]


def test_paths_override_below_2_exits_2_before_output(tmp_path, capsys):
    # --paths 1 once ran 2 paths while config.resolved.json said 1
    out = tmp_path / "run"
    code = main(["ensemble", "--config", str(TAIL_CONFIG), "--paths", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: mc: n_paths must be from 2 to 1000000, got 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("converge", ["--dt", "0.001"]),
    ("picard", ["--paths", "9"]),
    ("ensemble", ["--json"]),
    ("verify", ["--allow-stop"]),
])
def test_command_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", _write(tmp_path, dict(BASE_CONFIG)),
              "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_threshold_at_or_below_the_initial_norms_exits_2(tmp_path, capsys):
    noisy = dict(BASE_CONFIG, noise={"enabled": True, "n_modes": 1, "lambda0": 0.5})
    for threshold, message in ((1e-9, "solver: stopping threshold "), ("high", "solver.threshold must "
                               "be null or a finite number, got 'high'")):
        out = tmp_path / "run"
        bad = dict(noisy, solver=dict(BASE_CONFIG["solver"], threshold=threshold))
        code = main(["simulate", "--config", _write(tmp_path, bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not out.exists()
    # a threshold above the initial norms runs, and the resolved config keeps its hash
    good = dict(noisy, solver=dict(BASE_CONFIG["solver"], threshold=1e6, scheme="exp_euler"))
    out = tmp_path / "run"
    assert main(["simulate", "--config", _write(tmp_path, good), "--out", str(out)]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["config_hash"] == ExperimentConfig.from_dict(good).hash
    assert resolved["solver"]["threshold"] == 1e6


def test_threshold_without_noise_stops_the_march(tmp_path, capsys):
    # the noise-free march takes the stopping rule of the noisy one: the
    # sine-Gordon example (Strang, noise off, H-norm 0.3 at t = 0) stops at
    # its first step whose H-norm passes 0.3003, at t = 0.148; a threshold at
    # or below the initial norms is still a config error
    doc = json.loads(TAIL_CONFIG.with_name("example_sine_gordon.json").read_text())
    assert not doc["noise"]["enabled"] and doc["solver"]["scheme"] == "strang"
    doc["solver"]["threshold"] = 0.3003
    config = _write(tmp_path, doc)
    for flags, want in (([], 3), (["--allow-stop"], 0)):
        out = tmp_path / f"run{want}"
        assert main(["simulate", "--config", config, "--out", str(out), *flags]) == want
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "stopped" and report["blown_up"] is False
        assert report["stop_time"] == pytest.approx(0.148, abs=1e-12)
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 150  # the header and the steps 0 to 148
        norms = [float(r.split(",")[1]) for r in rows[1:]]
        assert max(norms[:-1]) <= 0.3003 < norms[-1] == report["final_norms"][0]
    # the stopped table is the first rows of the unstopped one, bit for bit
    free = dict(doc, solver=dict(doc["solver"], threshold=None))
    assert main(["simulate", "--config", _write(tmp_path, free, "free.json"),
                 "--out", str(tmp_path / "free")]) == 0
    assert (tmp_path / "free" / "trajectory.csv").read_text().splitlines()[:150] == rows
    out = tmp_path / "low"
    low = dict(doc, solver=dict(doc["solver"], threshold=1e-9))
    assert main(["simulate", "--config", _write(tmp_path, low, "low.json"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solver: stopping threshold ") and err.count("\n") == 1
    assert not out.exists()


def test_dt_override_that_does_not_divide_T_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, dict(BASE_CONFIG)),
                 "--out", str(out), "--dt", "0.03"])
    assert code == 2
    assert "dt must divide T" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_holds_its_table_in_8_byte_columns(tmp_path):
    # 4-point NLS: time, 3 graph norms, mass and energy, 48 bytes a step; the
    # traced peak of 4,000 steps exceeds 500 steps' by under 150 bytes a step
    # (about 540 when the rows were Python lists and the CSV one string). The
    # first, untraced run makes what a process makes once.
    peaks = []
    for n_steps in (500, 500, 4000):
        config = _write(tmp_path, {
            "model": {"name": "nls", "sign": 0},
            "grid": {"dim": 1, "points": [4], "lengths": [6.283185307179586]},
            "solver": {"T": n_steps * 1e-3, "dt": 1e-3}}, f"{n_steps}.json")
        out = tmp_path / f"{n_steps}-{len(peaks)}"
        if peaks:
            tracemalloc.start()
        try:
            assert main(["simulate", "--config", config, "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == n_steps + 2 and rows[0].count(",") == 5
    assert peaks[2] - peaks[1] < 150 * 3500


def test_report_write_failing_midway_keeps_previous_report(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(BASE_CONFIG)))
    _write_run(tmp_path, cfg, {"status": "first"}, {})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["config.resolved.json", "report.json"]

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

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    with pytest.raises(OSError):
        _write_run(tmp_path, cfg, {"status": "second"}, {})
    # the previous files stay whole, and no temporary file is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_csv_writes_a_header_then_floats_at_17_digits_and_the_rest_by_str():
    text = "".join(_csv({"label": ["(0 1)", "(2 0)", "x"], "n": np.arange(3),
                         "value": [-0.0, float("inf"), float("nan")],
                         "f64": np.array([0.1, 1e300, -2.5]),
                         "scalars": [np.float64(1 / 3), 7, "s"]}))
    assert text == ("label,n,value,f64,scalars\n"
                    "(0 1),0,-0,0.10000000000000001,0.33333333333333331\n"
                    "(2 0),1,inf,1.0000000000000001e+300,7\n"
                    "x,2,nan,-2.5,s\n")
    # a float column reads back bit for bit
    values = np.random.default_rng(3).standard_normal(50) * 10.0 ** np.arange(-25, 25)
    rows = "".join(_csv({"v": values})).splitlines()
    assert rows[0] == "v" and np.array_equal([float(r) for r in rows[1:]], values)
    assert "".join(_csv({"a": [], "b": []})) == "a,b\n"


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


# converge and chaos on 4 paths of the noisy linear model
NOISY_LINEAR = {
    "model": {"name": "nls", "sign": 0, "smoothness": 1},
    "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
    "initial": {"kind": "modes", "amplitude": 1.0, "modes": [[0, 1, 1.0, 0.0]]},
    "solver": {"T": 0.2, "dt": 0.0125},
    "noise": {"enabled": True, "n_modes": 1, "lambda0": 0.5},
    "chaos": {"n_modes": 1, "max_degree": 2},
    "mc": {"n_paths": 4, "dt_ladder": [0.1, 0.05, 0.025, 0.0125]},
}


def _blow_up(*args, **kwargs):
    raise BlowUpError("a path left the finite-norm region")


@pytest.mark.parametrize("command", ["converge", "chaos"])
def test_a_blow_up_mid_run_exits_3_without_a_run_dir(tmp_path, capsys, monkeypatch,
                                                     command):
    # converge once exited 3 and left an empty run directory
    monkeypatch.setattr(ensemble, "step_exp_euler", _blow_up)
    out = tmp_path / "run"
    code = main([command, "--config", _write(tmp_path, NOISY_LINEAR), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "blow-up: a path left the finite-norm region\n"
    assert not out.exists()


@pytest.mark.parametrize("failure", ["blow-up", "another config"])
def test_a_failing_rerun_leaves_the_run_dir_byte_identical(tmp_path, monkeypatch, failure):
    out = tmp_path / "run"
    assert main(["converge", "--config", _write(tmp_path, NOISY_LINEAR),
                 "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    doc = json.loads(json.dumps(NOISY_LINEAR))
    if failure == "blow-up":
        monkeypatch.setattr(ensemble, "step_exp_euler", _blow_up)
    else:
        doc["master_seed"] = 777
    code = main(["converge", "--config", _write(tmp_path, doc, "c2.json"), "--out", str(out)])
    assert code == (3 if failure == "blow-up" else 2)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_out_that_is_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # the run directory is made only after the work, so a file in its place
    # must be refused before it; a run file that is not a JSON object is
    # overwritten like an unreadable one
    out = tmp_path / "run"
    out.write_text("")
    monkeypatch.setattr(ensemble, "step_exp_euler", _blow_up)
    code = main(["converge", "--config", _write(tmp_path, NOISY_LINEAR), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: output dir {out} is not a directory\n"
    out.unlink()
    out.mkdir()
    (out / "config.resolved.json").write_text("[]")
    assert main(["simulate", "--config", _write(tmp_path, dict(BASE_CONFIG)),
                 "--out", str(out)]) == 0


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


@pytest.mark.parametrize("scheme", ("strang", "exp_euler"))
def test_noise_free_blow_up_stops_at_the_last_finite_state(tmp_path, scheme):
    # focusing Klein-Gordon from amplitude 30: once Strang wrote NaN norms and
    # "ran_to_T" with exit 0, and exponential Euler wrote no trajectory
    cfg = {
        "model": {"name": "klein_gordon", "p": 3, "sign": 1},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "initial": {"kind": "smooth_random", "amplitude": 30.0, "seed": 7},
        "solver": {"T": 1.0, "dt": 0.01, "scheme": scheme},
        "master_seed": 1,
    }
    for flags, code in (([], 3), (["--allow-stop"], 0)):
        out = tmp_path / f"run{code}"
        assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                     *flags]) == code
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "stopped" and report["blown_up"] is True
        assert 0 < report["stop_time"] < 1.0
        assert np.all(np.isfinite(report["final_norms"]))
        assert np.isfinite(report["conserved_final"]["energy"])
        last = [float(v) for v in
                (out / "trajectory.csv").read_text().splitlines()[-1].split(",")]
        assert np.all(np.isfinite(last))
        assert last[0] == report["stop_time"] and last[1:3] == report["final_norms"]


def _strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_a_non_finite_report_value_is_written_as_null(tmp_path):
    # NLS p = 31 from amplitude 2.5 stops at a state whose energy overflows:
    # report.json once held a bare -Infinity, which strict parsers reject
    cfg = {
        "model": {"name": "nls", "p": 31, "sign": 1},
        "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
        "initial": {"kind": "modes", "amplitude": 1.0, "modes": [[0, 0, 2.5, 0.0]]},
        "solver": {"T": 1.0, "dt": 0.01},
        "master_seed": 1,
    }
    out = tmp_path / "run"
    # the march ends the path at its last finite state, and says so without
    # numpy's overflow warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out),
                     "--allow-stop"]) == 0
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
    report = _strict_json((out / "report.json").read_text())
    assert report["status"] == "stopped"
    assert report["conserved_final"]["energy"] is None


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 8.00 GiB"), "out of memory: Unable to allocate 8.00 GiB\n"),
    (MemoryError(), "out of memory\n"),
    (RuntimeError("an unforeseen fault"), "RuntimeError: an unforeseen fault\n"),
])
def test_a_run_that_cannot_be_carried_out_exits_4_without_a_run_dir(
        tmp_path, capsys, monkeypatch, error, message):
    # such a run once exited 1, the code of a failed verification
    import stochwave.cli as cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "_setup", fail)
    out = tmp_path / "run"
    code = main(["simulate", "--config", _write(tmp_path, dict(BASE_CONFIG)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert not out.exists()
    if isinstance(error, MemoryError):
        assert err == message
    else:
        assert err.startswith("Traceback (most recent call last):\n") and err.endswith(message)


def test_verify_ok_and_json(tmp_path, capsys):
    cfg = {
        "model": {"name": "sine_gordon", "g": 1.0, "k0": 1.0},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "verify": {"sample_count": 100, "orthogonality_paths": 1000},
        "master_seed": 5,
    }
    code = main(["verify", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "v"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["estimate_violations"] == {}


@pytest.mark.parametrize("max_degree", range(6))
def test_verify_wick_check_stays_inside_the_truncation(tmp_path, max_degree):
    # the spot-check vectors once kept degrees <= 2 at every truncation, so at
    # max_degree 1, 2 and 3 their product left the space and verify exited 1
    cfg = {
        "model": {"name": "nls"},
        "grid": {"dim": 1, "points": [8], "lengths": [6.283185307179586]},
        "chaos": {"n_modes": 2, "max_degree": max_degree},
        "verify": {"sample_count": 100, "orthogonality_paths": 1000},
        "master_seed": 5,
    }
    out = tmp_path / "v"
    assert main(["verify", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for row in ("wick_multiplicativity", "ccr", "exp_vector_pairing"):
        assert report[row]["ok"] is True and report[row]["max_deviation"] < 1e-10
    # at degree 0 no degree lies below the top one, and the CCR holds on none
    assert max_degree > 0 or report["ccr"]["max_deviation"] == 0


def test_verify_broken_j_exits_1(tmp_path, capsys):
    cfg = {
        "model": {"name": "sine_gordon", "g": 1.0, "k0": 1.0, "break_j_hook": True},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "verify": {"sample_count": 100, "orthogonality_paths": 1000},
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


def test_picard_builds_one_free_path_per_run(tmp_path, monkeypatch):
    # the main solve and the holomorphy stencil share one free path
    # e^{-iAt_i} phi0: n_time_nodes - 1 propagates for it per run; every
    # other propagate is one of a sweep's n_time_nodes - 1
    import stochwave.cli as cli
    import stochwave.solver as solver
    from stochwave.operators import SpectralOperator

    calls, sweeps = [], []
    propagate, solve = SpectralOperator.propagate, solver.picard_solve

    def counted_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        sweeps.append(len(res.residuals) + 1)
        return res

    monkeypatch.setattr(SpectralOperator, "propagate",
                        lambda op, t, state: calls.append(t) or propagate(op, t, state))
    monkeypatch.setattr(solver, "picard_solve", counted_solve)
    monkeypatch.setattr(cli, "picard_solve", counted_solve)
    cfg = {
        "model": {"name": "nls", "p": 3, "sign": 1},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "initial": {"kind": "smooth_random", "amplitude": 0.3, "seed": 3},
        "solver": {"T": 0.2, "n_time_nodes": 9, "tol": 1e-10},
        "master_seed": 5,
    }
    out = tmp_path / "p"
    assert main(["picard", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(sweeps) == 9  # the main solve and the 8 stencil solves
    free_path_propagates = len(calls) - 8 * sum(sweeps)
    assert free_path_propagates == 8  # one path, not one per solve or two


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


def test_chaos_without_noise_exits_2_before_output(tmp_path, capsys):
    out = tmp_path / "ch"
    code = main(["chaos", "--config", _write(tmp_path, dict(BASE_CONFIG)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "config error: the chaos command needs noise.enabled = true\n"
    assert not out.exists()


# a tiny Klein-Gordon chaos run of T / dt = 5 Wick steps
KG_CHAOS = {
    "model": {"name": "klein_gordon", "p": 3, "sign": 1},
    "grid": {"dim": 1, "points": [8], "lengths": [6.283185307179586]},
    "initial": {"kind": "modes", "amplitude": 0.3, "modes": [[0, 1, 1.0, 0.0]]},
    "solver": {"T": 0.1, "dt": 0.02},
    "noise": {"enabled": True, "n_modes": 2, "lambda0": 0.2, "gamma": 2.0},
    "chaos": {"n_modes": 2, "max_degree": 2},
    "mc": {"n_paths": 4},
    "master_seed": 3,
}


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
    out = tmp_path / "once"
    assert main(["chaos", "--config", _write(tmp_path, KG_CHAOS), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert (out / "chaos_coefficients.csv").exists()


def test_chaos_command_evaluates_the_degree_energy_once_per_wick_step(tmp_path, monkeypatch):
    # the report's chaos energy sums the solve's last step energy, not a second evaluation
    calls = []
    energy = ChaosSpace.degree_energy

    def counted(*args):
        calls.append(1)
        return energy(*args)

    monkeypatch.setattr(ChaosSpace, "degree_energy", counted)
    out = tmp_path / "energy"
    assert main(["chaos", "--config", _write(tmp_path, KG_CHAOS), "--out", str(out)]) == 0
    assert len(calls) == 5  # T / dt Wick steps


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


def test_picard_stencil_non_convergence_exits_3_with_a_full_run_dir(tmp_path, capsys):
    # the main solve converges, but a holomorphy stencil solve does not within
    # its max_iter: the run is reported like a main solve that does not converge
    cfg = {
        "model": {"name": "nls", "p": 3, "sign": 1},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "initial": {"kind": "smooth_random", "amplitude": 2.0, "seed": 7},
        "solver": {"T": 1.0, "n_time_nodes": 33, "max_iter": 200},
    }
    out = tmp_path / "p"
    code = main(["picard", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True and report["holomorphy_residual"] is None
    assert (out / "picard_residuals.csv").exists()
    assert (out / "config.resolved.json").exists()


def test_picard_stencil_solves_run_to_solver_max_iter(tmp_path, monkeypatch):
    # a strong Theta potential on a linear model: the main solve takes 94
    # sweeps and the stencil's solves 101 to 103, all within max_iter 120;
    # the stencil once stopped at holomorphy_check's default of 80 sweeps and
    # reported a null residual with exit 3
    import stochwave.solver as solver

    sweeps, solve = [], solver.picard_solve

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        sweeps.append(len(res.residuals))
        return res

    cfg = {
        "model": {"name": "nls", "sign": 0, "smoothness": 1},
        "grid": {"dim": 1, "points": [16], "lengths": [6.283185307179586]},
        "initial": {"kind": "smooth_random", "amplitude": 1e-10, "seed": 7},
        "noise": {"n_modes": 2, "lambda0": 9000.0},
        "solver": {"T": 1.0, "n_time_nodes": 33, "max_iter": 120},
    }
    monkeypatch.setattr(solver, "picard_solve", counted)
    monkeypatch.setattr(cli, "picard_solve", counted)
    out = tmp_path / "p"
    assert main(["picard", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(sweeps) == 9 and min(sweeps[1:]) > 80 and max(sweeps) <= 120
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True and report["iterations"] == sweeps[0]
    assert np.isfinite(report["holomorphy_residual"])


# ladder steps 2, 8, 10, 20 and 40: each path takes 2 x 80 steps over both
# fits, so 625,000 paths take MAX_PATH_STEPS = 1e8 steps and one more path
# takes 160 too many; the finest rung alone, the bound that the ensemble
# checks, counts 2.5e7
WORK_CONFIG = {
    "model": {"name": "nls", "sign": 0, "smoothness": 1},
    "grid": {"dim": 1, "points": [8], "lengths": [1.0]},
    "solver": {"T": 1.0, "dt": 0.025},
    "noise": {"enabled": True, "n_modes": 1},
    "mc": {"dt_ladder": [0.5, 0.125, 0.1, 0.05, 0.025]},
}


@pytest.mark.parametrize("n_paths", [625_000, 625_001])
def test_converge_bounds_the_steps_of_both_fits_over_every_rung(tmp_path, capsys,
                                                                monkeypatch, n_paths):
    # the bound once counted n_paths x the finest rung's steps; the fits are
    # stubbed, so a config under the bound runs without marching
    fits = []

    def fit(config, dt_ladder, **kwargs):
        fits.append(config.n_paths)
        dts = np.asarray(dt_ladder[:-1])
        return ensemble.OrderFit(dts, dts, dts, 1.0, 0.0, True)

    monkeypatch.setattr(cli, "strong_order", fit)
    monkeypatch.setattr(cli, "weak_order", fit)
    cfg = json.loads(json.dumps(WORK_CONFIG))
    cfg["mc"]["n_paths"] = n_paths
    out = tmp_path / "c"
    code = main(["converge", "--config", _write(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if n_paths == 625_000:
        assert code == 0 and fits == [n_paths, n_paths] and err == ""
        assert (out / "report.json").exists()
    else:
        assert code == 2 and fits == []
        assert err == ("config error: mc: n_paths x steps must be at most 100000000, "
                       "got 100000160\n")
        assert not out.exists()


# One path's increments (steps x grid points) and a Wick stack (indices x
# components x grid points) are each one array, allocated whole. On a 512 x 512
# grid (262,144 points) 128 steps or indices fill MAX_ARRAY_ELEMENTS = 2**25,
# and the 129th is past it. The command runs with 200 MiB of address space
# above what the interpreter holds when it starts, less than the refused
# array's 258 or 516 MiB: a command that allocated it would exit 4.
CAP_RUNS = {
    "simulate": ({"model": {"name": "nls", "smoothness": 1}, "solver": {"T": 1.29, "dt": 0.01},
                  "noise": {"enabled": True, "n_modes": 2}, "initial": {"amplitude": 0.1}},
                 "solver: steps x grid points must be at most 33554432, got 33816576"),
    "chaos": ({"model": {"name": "nls", "sign": 0}, "solver": {"T": 0.02, "dt": 0.01},
               "noise": {"enabled": True, "n_modes": 2}, "chaos": {"n_modes": 128, "max_degree": 1},
               "mc": {"n_paths": 2}},
              "chaos: indices x components x grid points (the Wick stack) must be at most "
              "33554432, got 33816576"),
}
_LIMITED_MAIN = """import os, resource, sys
import stochwave.cli as cli
held = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (held + 200 * 2**20, hard))
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_limited(tmp_path, command, cfg):
    """Run ``command`` on ``cfg`` in a subprocess under _LIMITED_MAIN's bound."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", _LIMITED_MAIN, command, "--config",
                           _write(tmp_path, cfg), "--out", str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
@pytest.mark.parametrize("command", sorted(CAP_RUNS))
def test_an_array_past_the_element_cap_exits_2_before_it_is_allocated(tmp_path, command):
    # these once exited 4, out of memory, or ran on where the host let them
    changes, message = CAP_RUNS[command]
    cfg = {"grid": {"dim": 2, "points": [512, 512], "lengths": [1.0, 1.0]}, **changes}
    res = _run_limited(tmp_path, command, cfg)
    assert (res.returncode, res.stderr) == (2, f"config error: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="reads /proc/self/statm")
@pytest.mark.parametrize("command", ("chaos", "ensemble"))
def test_an_ensemble_holds_one_stack_of_final_states(tmp_path, command):
    # 1,000 paths' final states on a 128 x 128 grid are 250 MiB, more than the
    # 200 MiB that _LIMITED_MAIN leaves: a command that held them all at once
    # would exit 4, out of memory
    cfg = {"model": {"name": "nls", "sign": 0},
           "grid": {"dim": 2, "points": [128, 128], "lengths": [1.0, 1.0]},
           "solver": {"T": 0.01, "dt": 0.01}, "noise": {"enabled": True, "n_modes": 2},
           "chaos": {"n_modes": 2, "max_degree": 1}, "mc": {"n_paths": 1000}}
    res = _run_limited(tmp_path, command, cfg)
    assert (res.returncode, res.stderr) == (0, "")
    assert (tmp_path / "run" / "report.json").exists()


def test_ensemble_writes_outputs_and_reruns_bit_identical(tmp_path):
    runs = [tmp_path / "e1", tmp_path / "e2"]
    for out in runs:
        # stopped paths are the study's data, so they do not change the exit code
        assert main(["ensemble", "--config", str(TAIL_CONFIG), "--paths", "60",
                     "--out", str(out)]) == 0
    names = ("report.json", "config.resolved.json", "tail_curve.csv")
    assert all((out / name).exists() for out in runs for name in names)
    for name in ("report.json", "tail_curve.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    report = json.loads((runs[0] / "report.json").read_text())
    ens, curve = report["ensemble"], report["tail_curve"]
    assert ens["n_paths"] == 60 and 0 < ens["n_stopped"] < 60
    assert sum(s is not None for s in ens["stop_times"]) == ens["n_stopped"]
    assert curve["n_paths"] == 60 and len(curve["survival"]) == 19
    rows = (runs[0] / "tail_curve.csv").read_text().splitlines()
    assert rows[0] == "rho,survival,band,fitted_lower_bound" and len(rows) == 20
    rho, survival, band, lower = map(float, rows[10].split(","))
    assert (rho, survival, band) == (curve["rhos"][9], curve["survival"][9], curve["band"][9])
    assert lower == 1 - curve["m_hat"] * rho * rho


def test_ensemble_marches_every_path_once(tmp_path, monkeypatch):
    # one noise stream per path, each drawn once, in index order
    streams = []
    drawn = QWienerSampler.increments

    def counted(self, dt, n_steps):
        streams.append(self.stream_id)
        return drawn(self, dt, n_steps)

    monkeypatch.setattr(QWienerSampler, "increments", counted)
    out = tmp_path / "once"
    assert main(["ensemble", "--config", str(TAIL_CONFIG), "--paths", "12",
                 "--out", str(out)]) == 0
    assert streams == list(range(12))
    assert json.loads((out / "report.json").read_text())["tail_curve"]["n_paths"] == 12


@pytest.mark.parametrize("block, key, value, message", [
    ("mc", "observables", ["norm_sq", "nope"],
     _Reworded("mc: unknown observable 'nope'", "mc.observables: unknown observable 'nope'")),
    ("mc", "observables", ["charge"], "mc.observables: 'charge' is not defined for model nls"),
    ("mc", "observables", ["graph_norm_j-1"],
     _Reworded("mc: graph_norm power j must be at least 0, got -1",
               "mc.observables: graph_norm power j must be")),
    ("mc", "rho_grid", [0.0, 0.5],
     _Reworded("mc: rho_grid must be a flat list of values in (0, 1), got [0.0, 0.5]",
               "mc.rho_grid: ")),
    ("mc", "rho_grid", [0.5, 1.0],
     _Reworded("mc: rho_grid must be a flat list of values in (0, 1), got [0.5, 1.0]",
               "mc.rho_grid: ")),
    ("solver", "threshold", 1e-9,
     _Reworded("solver: stopping threshold 1e-09 must exceed the initial ", "solver.threshold: ")),
    # a ladder shared by several names still refuses a negative power
    ("mc", "observables", ["norm_sq", "graph_norm_j-1"],
     "mc: graph_norm power j must be at least 0, got -1"),
    ("mc", "observables", ["graph_norm_j2", "graph_norm_j-1"],
     "mc: graph_norm power j must be at least 0, got -1"),
], ids=_former_name)
def test_ensemble_bad_value_exits_2_before_output(tmp_path, capsys, block, key, value,
                                                  message):
    bad = json.loads(TAIL_CONFIG.read_text())
    bad[block][key] = value
    out = tmp_path / "run"
    code = main(["ensemble", "--config", _write(tmp_path, bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_ensemble_without_observables_still_reports_its_stop_times(tmp_path):
    # an empty mc.observables is a valid study: the stop times, the sup ratio
    # and the survival curve are its output
    cfg = json.loads(TAIL_CONFIG.read_text())
    cfg["mc"]["observables"] = []
    out = tmp_path / "run"
    assert main(["ensemble", "--config", _write(tmp_path, cfg), "--paths", "20",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    ens = report["ensemble"]
    assert ens["observables"] == {} and len(ens["stop_times"]) == 20
    assert "sup_ratio" in ens and report["tail_curve"]["n_paths"] == 20
