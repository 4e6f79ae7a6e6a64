"""Property tests of the config boundary.

Tiny valid configs, one per command, are mutated: values of the wrong JSON
type, NaN and infinities, zero and negative sizes, empty or unsorted ladders,
unknown keys, blocks that are not objects, and flags. Every run must exit 0,
1, 2 or 3 and never with a traceback; a config error prints exactly one
``config error:`` line, raises no warning and leaves no run directory; and an
accepted config reloads to the same resolved document and config_hash.

Every generated size is small: a chaos space of 50 modes at degree 4 has
316,251 indices, which ``ChaosSpace`` pairs in Python, so mode counts, degrees,
grids, path counts and step counts stay in the ranges below.

A second mutation keeps every value inside its accepted range, with the noise
on and off, so every example runs its command to the end: it must exit 0, 1
or 3 with a ``report.json`` stamped with the run's config_hash, and raise no
warning.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from stochwave.cli import _COMMANDS, main
from stochwave.config import _SCHEMA, ConfigError, ExperimentConfig

GRID = {"dim": 1, "points": [8], "lengths": [6.283185307179586]}
NLS = {"name": "nls", "p": 3, "sign": 1}
TINY = {
    "simulate": {"model": NLS, "grid": GRID, "solver": {"T": 0.05, "dt": 0.01}},
    "picard": {"model": NLS, "grid": GRID,
               "solver": {"T": 0.1, "n_time_nodes": 5, "max_iter": 30}},
    "converge": {"model": {"name": "nls", "sign": 0, "smoothness": 1}, "grid": GRID,
                 "solver": {"T": 0.2, "dt": 0.0125}, "noise": {"enabled": True, "n_modes": 1},
                 "mc": {"n_paths": 4, "dt_ladder": [0.1, 0.05, 0.025, 0.0125]}},
    "chaos": {"model": {"name": "klein_gordon", "p": 3, "sign": 1}, "grid": GRID,
              "solver": {"T": 0.05, "dt": 0.01}, "noise": {"enabled": True, "n_modes": 2},
              "chaos": {"n_modes": 2, "max_degree": 2}, "mc": {"n_paths": 4}},
    "ensemble": {"model": NLS, "grid": GRID,
                 "solver": {"T": 0.05, "dt": 0.01, "threshold": 50.0},
                 "noise": {"enabled": True, "n_modes": 2},
                 "mc": {"n_paths": 4, "rho_grid": [0.5]}},
    "verify": {"model": NLS, "grid": GRID, "chaos": {"n_modes": 2, "max_degree": 2},
               "verify": {"sample_count": 100, "orthogonality_paths": 1000}},
}
KEYS = [f"{block}.{key}" for block, keys in _SCHEMA.items() if isinstance(keys, dict)
        for key in keys] + [key for key, value in _SCHEMA.items() if not isinstance(value, dict)]
NAN, INF = float("nan"), float("inf")
# a value of the wrong JSON type for most keys, or not finite
JUNK = st.sampled_from([None, True, False, "1", "norm_sq", [], [1.5], [[0]], {}, {"a": 1},
                        NAN, INF, -INF, 2.5, -0.5])
NUMBERS = st.floats() | st.integers(-3, 3)
# finite values that overflow a state or a noise path
EXTREME = st.sampled_from([1e300, 1e150, 1e100, 30.0, 1e-300, 0.0, -5.0])
LADDER_RUNGS = st.sampled_from([0.1, 0.05, 0.025, 0.0125, 0.2, 0.03, 0, -0.05])
# bounded values of the keys that size or lengthen a run; any other key draws
# from its default's type
BOUNDED = {
    "model.name": st.sampled_from(["nls", "klein_gordon", "sine_gordon", "zakharov",
                                   "maxwell_dirac", "airy"]),
    "model.p": st.integers(-1, 60) | st.just(3.0),
    "model.sign": st.integers(-2, 2),
    "model.smoothness": st.none() | st.integers(-2, 60),
    "grid.dim": st.integers(-1, 4),
    "grid.points": st.lists(st.integers(-2, 32) | st.just(8.0), max_size=3),
    "grid.lengths": st.lists(NUMBERS, max_size=3),
    "initial.kind": st.sampled_from(["smooth_random", "modes", "gaussian"]),
    "initial.seed": st.integers(-3, 2**130),
    "initial.amplitude": EXTREME | NUMBERS,
    "initial.modes": st.lists(st.lists(NUMBERS, max_size=5), max_size=3),
    "solver.T": st.sampled_from([0.05, 0.1, 0.2, 1.0, 0, -0.1, 0.03]),
    "solver.dt": st.sampled_from([0.01, 0.025, 0.05, 0.03, 0, -0.01]),
    "solver.scheme": st.sampled_from(["strang", "exp_euler", "rk4"]),
    "solver.threshold": st.none() | NUMBERS,
    "solver.n_time_nodes": st.integers(-2, 12),
    "solver.max_iter": st.integers(-2, 40),
    "noise.n_modes": st.integers(-2, 8),
    "noise.lambda0": EXTREME | NUMBERS,
    "chaos.n_modes": st.integers(-2, 5),
    "chaos.max_degree": st.integers(-2, 5),
    "mc.n_paths": st.integers(-2, 8),
    "mc.observables": st.lists(st.sampled_from(
        ["norm_sq", "norm", "log_norm_sq", "constant", "sup_sum_sq", "graph_norm_j1",
         "graph_norm_j-1", "graph_norm_jx", "graph_norm_j40", "pairing_re", "mass", "energy",
         "charge", "nope"]),
        max_size=4),
    "mc.dt_ladder": st.lists(LADDER_RUNGS, max_size=6),
    "mc.rho_grid": st.lists(st.sampled_from([0.1, 0.5, 0.9, 0, 1, -0.5, 1.5]), max_size=4),
    "mc.n_workers": st.integers(-1, 3),
    "verify.sample_count": st.integers(0, 150),
    "verify.orthogonality_paths": st.integers(-2, 2) | st.integers(998, 1002),
    "master_seed": st.integers(-3, 2**130),
    "output_dir": st.sampled_from(["runs/out", ""]),
}
# extra command-line flags, read by some commands and not by others
FLAGS = st.sampled_from([["--seed", "-1"], ["--seed", "5"], ["--dt", "0.025"], ["--dt", "nan"],
                         ["--dt", "0"], ["--paths", "1"], ["--paths", "3"], ["--json"],
                         ["--allow-stop"]])


def _value(key: str):
    block, _, sub = key.rpartition(".")
    default = _SCHEMA[block][sub] if block else _SCHEMA[sub]
    return BOUNDED.get(key, st.booleans() if isinstance(default, bool) else NUMBERS)


@st.composite
def mutated(draw):
    """(command, config document, extra flags): one to three values changed,
    now and then an unknown key or a block that is not an object, and now and
    then a flag."""
    command = draw(st.sampled_from(sorted(TINY)))
    doc = json.loads(json.dumps(TINY[command]))
    for key in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3)):
        block, _, sub = key.rpartition(".")
        holder = doc.setdefault(block, {}) if block else doc
        holder[sub] = draw(_value(key) if draw(st.integers(0, 4)) else JUNK)
        if key == "initial.modes":
            holder["kind"] = "modes"
    structure = draw(st.sampled_from(["none"] * 8 + ["unknown key", "block"]))
    block = draw(st.sampled_from([k for k, v in _SCHEMA.items() if isinstance(v, dict)]))
    if structure == "unknown key":
        doc.setdefault(block, {})["bogus"] = 1
    elif structure == "block":
        doc[block] = draw(st.sampled_from([[], 1, None, "x"]))
    return command, doc, draw(st.just([]) if draw(st.integers(0, 3)) else FLAGS)


def _run(command, doc, flags, tmp):
    """main's exit code (argparse's for a usage error), stderr and warnings."""
    config = Path(tmp, "config.json")
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main([command, "--config", str(config), "--out", str(Path(tmp, "run")),
                         *flags])
        except SystemExit as exc:  # a flag the command does not read
            reads = {name: read for name, _, read in _COMMANDS}[command]
            assert exc.code == 2 and flags[0] not in reads + ("--seed",)
            code = None
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(deadline=None)
@given(mutated())
def test_a_mutated_config_exits_cleanly(case):
    command, doc, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err, caught = _run(command, doc, flags, tmp)
        out = Path(tmp, "run")
        assert code in (None, 0, 1, 2, 3), (code, err)
        if code in (None, 2):
            assert not out.exists()
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert not caught, caught
        elif (out / "config.resolved.json").exists():
            written = json.loads((out / "config.resolved.json").read_text())
            again = ExperimentConfig.from_file(out / "config.resolved.json")
            assert again.hash == written.pop("config_hash")
            assert again.doc == written


@settings(deadline=None)
@given(mutated())
def test_an_accepted_config_reloads_to_the_same_document_and_hash(case):
    _, doc, _ = case
    try:
        cfg = ExperimentConfig.from_dict(doc)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.resolved.json")
        path.write_text(json.dumps({**cfg.doc, "config_hash": cfg.hash}))
        again = ExperimentConfig.from_file(path)
    assert again.doc == cfg.doc and again.hash == cfg.hash


# accepted values at tiny sizes; the models are the five with 1-D forms, the
# powers odd so the chaos command's Wick quantization takes them
IN_RANGE = {
    "model.name": st.sampled_from(["nls", "klein_gordon", "sine_gordon", "zakharov",
                                   "maxwell_dirac"]),
    "model.p": st.sampled_from([3, 5]),
    "model.sign": st.integers(-1, 1),
    "model.smoothness": st.none() | st.integers(0, 2),
    "model.dealias": st.booleans(),
    "grid.points": st.sampled_from([[4], [8], [16]]),
    "grid.lengths": st.sampled_from([[1.0], [6.283185307179586], [10.0]]),
    "initial.kind": st.sampled_from(["smooth_random", "modes"]),
    "initial.amplitude": st.floats(0.01, 0.5),
    "initial.seed": st.integers(0, 2**32),
    "initial.modes": st.lists(st.tuples(st.just(0), st.integers(-2, 2),
                                        st.floats(-1, 1), st.floats(-1, 1)).map(list),
                              min_size=1, max_size=3),
    "noise.n_modes": st.integers(1, 3),
    "noise.lambda0": st.floats(0.01, 1.0),
    "noise.gamma": st.floats(1.1, 3.0),
    "chaos.n_modes": st.integers(1, 3),
    "chaos.max_degree": st.integers(0, 3),
    "mc.n_paths": st.integers(2, 6),
    "mc.observables": st.lists(st.sampled_from(
        ["norm_sq", "norm", "log_norm_sq", "constant", "sup_sum_sq", "graph_norm_j1",
         "pairing_re", "pairing_im"]), max_size=3),
    "mc.rho_grid": st.lists(st.sampled_from([0.1, 0.5, 0.9]), max_size=3),
    "solver.threshold": st.sampled_from([None, 1e9]),
    "solver.n_time_nodes": st.integers(2, 9),
    "solver.max_iter": st.integers(1, 40),
    "solver.tol": st.sampled_from([1e-10, 1e-8, 1e-6]),
    "verify.sample_count": st.integers(100, 120),
    "verify.radius": st.floats(0.5, 1.5),
    "verify.orthogonality_paths": st.integers(1000, 1040),
    "master_seed": st.integers(0, 2**32),
}
# (T, dt) of the commands that march at solver.dt; dt also as a --dt flag
TIMES = {"simulate": [(0.05, 0.01), (0.1, 0.025), (0.2, 0.05)],
         "chaos": [(0.05, 0.01), (0.1, 0.05)], "ensemble": [(0.05, 0.01), (0.1, 0.025)]}


@st.composite
def in_range(draw):
    """(command, config document, flags), every value accepted: one to four
    keys changed, the noise on or off (on for chaos), and the flags the
    command reads."""
    command = draw(st.sampled_from(sorted(TINY)))
    doc = json.loads(json.dumps(TINY[command]))
    for key in draw(st.lists(st.sampled_from(sorted(IN_RANGE)), min_size=1, max_size=4)):
        block, _, sub = key.rpartition(".")
        holder = doc.setdefault(block, {}) if block else doc
        holder[sub] = draw(IN_RANGE[key])
        if key == "initial.modes":
            holder["kind"] = "modes"
    noise = doc.setdefault("noise", {})
    noise["enabled"] = command == "chaos" or draw(st.booleans())
    # the trigonometric basis holds fewer modes than the first axis has points
    # (picard builds its potential from the noise block with the noise off too)
    noise["n_modes"] = min(noise.get("n_modes", 4), doc["grid"]["points"][0] - 1)
    solver = doc.setdefault("solver", {})
    if command in TIMES:
        solver["T"], solver["dt"] = draw(st.sampled_from(TIMES[command]))
    if command == "simulate" and noise["enabled"]:
        solver["scheme"] = "exp_euler"
    elif command == "simulate":
        solver["threshold"] = None
        solver["scheme"] = draw(st.sampled_from(["exp_euler", "strang"]))
    flags = []
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(0, 1000)))]
    if command in TIMES and draw(st.booleans()):
        flags += ["--dt", repr(solver["dt"] / draw(st.sampled_from([1, 2])))]
    if command in ("converge", "chaos", "ensemble") and draw(st.booleans()):
        flags += ["--paths", str(draw(st.integers(2, 6)))]
    if command == "verify" and draw(st.booleans()):
        flags += ["--json"]
    if command == "simulate" and draw(st.booleans()):
        flags += ["--allow-stop"]
    return command, doc, flags


def _run_hash(doc, flags) -> str:
    """The config_hash of ``doc`` with the overrides of ``flags`` applied."""
    doc = json.loads(json.dumps(doc))
    for flag, value in zip(flags, flags[1:] + [None]):
        if flag == "--seed":
            doc["master_seed"] = int(value)
        elif flag == "--dt":
            doc["solver"]["dt"] = float(value)
        elif flag == "--paths":
            doc.setdefault("mc", {})["n_paths"] = int(value)
    return ExperimentConfig.from_dict(doc).hash


def _refuse_constant(constant):
    """A ``parse_constant`` for ``json.loads``: NaN and Infinity are not JSON."""
    raise ValueError(f"{constant} is not JSON")


@settings(deadline=None)
@given(in_range())
def test_an_in_range_config_runs_its_command(case):
    command, doc, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err, caught = _run(command, doc, flags, tmp)
        event(f"{command} exit {code}")
        assert code in (0, 1, 3), (code, err)
        report = json.loads(Path(tmp, "run", "report.json").read_text(),
                            parse_constant=_refuse_constant)
        assert report["config_hash"] == _run_hash(doc, flags)
        assert not caught, caught
        assert "Warning" not in err, err
