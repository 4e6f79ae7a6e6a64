"""Experiment configuration: schema validation, defaults, hashing, builders.

One JSON document drives every command. Unknown keys are rejected at every
level, defaults are filled in, and the fully resolved document is written
back next to the outputs together with its SHA-256 hash, so a run directory
always identifies the exact configuration that produced it and a resolved
config reproduces its run byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosSpace
from .ensemble import MAX_PATHS, _check_paths, _ladder, _rho_grid
from .grids import _bound, make_grid
from .models import Model, build_model
from .noise import CovarianceSpec, default_covariance
from .solver import MAX_ITER, ThetaPotential, _kernel, _step_count


class ConfigError(ValueError):
    """Schema violation: missing block, unknown key, or bad value."""


_SCHEMA = {
    "model": {
        "name": None,
        "p": 3,
        "sign": 1,
        "g": 1.0,
        "k0": 1.0,
        "m": 1.0,
        "smoothness": None,
        "dealias": True,
        "break_j_hook": False,
    },
    "grid": {
        "dim": 1,
        "points": [64],
        "lengths": [2 * np.pi],
    },
    "initial": {
        "kind": "smooth_random",
        "amplitude": 0.3,
        "seed": 7,
        "modes": [],
    },
    "solver": {
        "T": 1.0,
        "dt": 1e-2,
        "scheme": "exp_euler",
        "threshold": None,
        "n_time_nodes": 65,
        "tol": 1e-10,
        "max_iter": 60,
    },
    "noise": {
        "enabled": False,
        "n_modes": 4,
        "lambda0": 0.5,
        "gamma": 2.0,
    },
    "chaos": {
        "n_modes": 2,
        "max_degree": 4,
    },
    "mc": {
        "n_paths": 100,
        "observables": ["norm_sq"],
        "dt_ladder": [],
        "rho_grid": [],
        "n_workers": 1,
    },
    "verify": {
        "sample_count": 200,
        "radius": 1.0,
        "orthogonality_paths": 2000,
    },
    "output_dir": "runs/out",
    "master_seed": 12345,
}

_REQUIRED_BLOCKS = ("model", "grid")


def validate_and_resolve(raw: dict) -> dict:
    """Fill defaults and reject unknown keys; returns the resolved document."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown top-level config key '{key}'")
    for block in _REQUIRED_BLOCKS:
        if block not in raw:
            raise ConfigError(f"missing required config block '{block}'")
    resolved = {}
    for key, default in _SCHEMA.items():
        if isinstance(default, dict):
            given = raw.get(key, {})
            if not isinstance(given, dict):
                raise ConfigError(f"config block '{key}' must be an object")
            for sub in given:
                if sub not in default:
                    raise ConfigError(f"unknown key '{key}.{sub}'")
            merged = dict(default)
            merged.update(given)
            resolved[key] = merged
        else:
            resolved[key] = raw.get(key, default)
    _check_values(resolved)
    return resolved


_BAD = object()  # what _parse returns for a value of the wrong type
# stand-in defaults of the keys whose default, null or [], does not show the
# type they take; (None, x) is null or x's type
_EXPLICIT = {"model.name": "", "model.smoothness": (None, 0), "solver.threshold": (None, 0.0),
             "initial.modes": [[0.0]], "mc.dt_ladder": [0.0], "mc.rho_grid": [0.0]}
_RULES = {bool: ("true or false", None), int: ("an integer", "integers"),
          float: ("a finite number", "finite numbers"), str: ("a string", "strings")}


def _rule(proto, plural=False) -> str:
    """The type a key whose default is ``proto`` takes, in words."""
    if isinstance(proto, tuple):
        return "null or " + _rule(proto[1])
    if isinstance(proto, list):
        return ("lists" if plural else "a list") + " of " + _rule(proto[0], plural=True)
    return _RULES[type(proto)][plural]


def _parse(proto, v):
    """``v`` as the resolved document keeps it if it has ``proto``'s type, else _BAD."""
    if isinstance(proto, tuple):
        return None if v is None else _parse(proto[1], v)
    if isinstance(proto, list):
        items = [_parse(proto[0], x) for x in v] if isinstance(v, list) else [_BAD]
        return _BAD if any(x is _BAD for x in items) else items
    if isinstance(v, bool) or isinstance(proto, bool):
        return v if type(v) is type(proto) else _BAD
    if isinstance(proto, int):  # a whole float reads as its integer (32.0 is 32)
        return int(v) if isinstance(v, int) or isinstance(v, float) and v.is_integer() else _BAD
    if isinstance(proto, float):
        try:  # an int beyond the float range is not finite either
            return v if math.isfinite(v) else _BAD
        except (TypeError, OverflowError):
            return _BAD
    return v if isinstance(v, str) else _BAD


def _check_values(resolved: dict) -> None:
    """Reject a value no command can run with, before any output exists: first
    one not of its default's JSON type (or its ``_EXPLICIT`` stand-in's), then
    one out of the range of the code that builds the grid, counts the steps,
    picks the step kernel, builds an ensemble, fits the orders or reduces the
    stop times; each range is that code's own check, whose message names the block."""
    for block, default in _SCHEMA.items():
        holder, keys = ((resolved[block], default) if isinstance(default, dict)
                        else (resolved, {block: default}))
        for key, proto in keys.items():
            name = key if holder is resolved else f"{block}.{key}"
            proto = _EXPLICIT.get(name, proto)
            value = _parse(proto, holder[key])
            if value is _BAD:
                raise ConfigError(f"{name} must be {_rule(proto)}, got {holder[key]!r}")
            holder[key] = value
    g, sb, ib, mb = (resolved[k] for k in ("grid", "solver", "initial", "mc"))
    for block, key, *ends in (("", "master_seed", 0), ("initial", "seed", 0),
                              ("solver", "max_iter", 1, MAX_ITER),
                              # fewer paths fail verify's 3-standard-error checks
                              # by chance; the cap is that of an ensemble's paths
                              ("verify", "orthogonality_paths", 1000, MAX_PATHS)):
        _checked(block, _bound, key, resolved[block][key] if block else resolved[key], *ends)
    _checked("grid", make_grid, g["dim"], g["points"], g["lengths"])
    _checked("solver", _step_count, sb["T"], sb["dt"])
    _checked("solver", _kernel, sb["scheme"], False)
    if ib["kind"] not in ("smooth_random", "modes"):
        raise ConfigError(f"unknown initial.kind '{ib['kind']}'")
    _checked("mc", _check_paths, mb["n_paths"])
    if mb["n_workers"] != 1:
        raise ConfigError("mc.n_workers must be 1: every path runs in one thread "
                          "(the key stays so that every config_hash stays the same)")
    if mb["dt_ladder"]:
        _checked("mc", _ladder, sb["T"], mb["dt_ladder"])
    _checked("mc", _rho_grid, mb["rho_grid"])


def _checked(block: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; its ValueError or TypeError is a config error,
    "<block>: <message>", or the message alone for a top-level key (block "")."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{block}: {exc}" if block else str(exc)) from exc


def config_hash(resolved: dict) -> str:
    """Hash of the experiment identity; where outputs land is not part of it."""
    doc = {k: v for k, v in resolved.items() if k != "output_dir"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


@dataclass
class ExperimentConfig:
    """Resolved configuration plus builders for the runtime objects."""

    doc: dict

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if isinstance(raw, dict):
            raw.pop("config_hash", None)  # resolved configs reload cleanly
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return cls(validate_and_resolve(raw))

    @property
    def hash(self) -> str:
        return config_hash(self.doc)

    def build_model(self) -> Model:
        g, mb = self.doc["grid"], self.doc["model"]
        return build_model(
            mb["name"], make_grid(g["dim"], g["points"], g["lengths"]), p=mb["p"],
            sign=mb["sign"], g=mb["g"], k0=mb["k0"], m=mb["m"], smoothness=mb["smoothness"],
            dealias=mb["dealias"], break_j_hook=mb["break_j_hook"],
        )

    def build_covariance(self, model: Model) -> CovarianceSpec:
        """The noise block's covariance, whether or not the noise is on."""
        nb = self.doc["noise"]
        return default_covariance(model.grid, nb["n_modes"], nb["lambda0"], nb["gamma"])

    def build_initial(self, model: Model) -> np.ndarray:
        """The initial state's (s, *grid.shape) array; ValueError on an
        ``initial.modes`` entry that is not [component, wavenumber, re, im]
        with a component of the model and an integer wavenumber k with |k| <=
        grid.points[0] / 2 (any other k aliases to one of these on the grid,
        or is no Fourier mode)."""
        ib = self.doc["initial"]
        if ib["kind"] == "smooth_random":
            rng = np.random.default_rng(ib["seed"])
            data = model.random_smooth_state(rng, radius=1.0)
            n = model.generator.metric_norm(data)
            return data * (ib["amplitude"] / n) if n > 0 else data
        data = np.zeros((model.generator.n_components,) + model.grid.shape, dtype=complex)
        x = model.grid.x_mesh[0] * np.ones(model.grid.shape)
        L = model.grid.lengths[0]
        for i, entry in enumerate(ib["modes"]):
            if len(entry) != 4 or entry[0] not in range(len(data)):
                raise ValueError(f"modes entry {i} must be [component, wavenumber, re, im] with "
                                 f"a component in 0..{len(data) - 1}, got {entry!r}")
            comp, kidx, re, im = entry
            top = model.grid.npts[0] // 2
            if not (float(kidx).is_integer() and abs(kidx) <= top):
                raise ValueError(f"modes entry {i} wavenumber must be an integer from "
                                 f"{-top} to {top} (grid.points[0] / 2), got {kidx!r}")
            amp = complex(re, im)
            data[int(comp)] += amp * np.exp(2j * np.pi * kidx * x / L)
        return data * ib["amplitude"]

    def build_chaos_space(self) -> ChaosSpace:
        cb = self.doc["chaos"]
        return ChaosSpace(cb["n_modes"], cb["max_degree"])

    def build_theta(self, model: Model, covariance: CovarianceSpec | None) -> ThetaPotential:
        return ThetaPotential((covariance or self.build_covariance(model)).noise_fields())
