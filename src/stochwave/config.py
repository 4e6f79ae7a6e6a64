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
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosSpace
from .ensemble import _ladder
from .grids import Field, State, make_grid
from .models import Model, build_model
from .noise import CovarianceSpec, default_covariance
from .solver import ThetaPotential, _step_count


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
    if resolved["model"]["name"] is None:
        raise ConfigError("model.name is required")
    _check_values(resolved)
    return resolved


def _check_values(resolved: dict) -> None:
    """Reject a value no command can run with.

    The grid, the time step and the dt ladder are checked by the code that
    builds the grid, counts the steps and fits the orders; doing it here
    makes a bad value a config error, raised before any output directory
    exists.
    """
    g, sb, ib, mb = (resolved[k] for k in ("grid", "solver", "initial", "mc"))
    try:
        make_grid(g["dim"], g["points"], g["lengths"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc
    try:
        if not sb["dt"] > 0:
            raise ValueError("dt must be positive")
        _step_count(sb["T"], sb["dt"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc
    if sb["scheme"] not in ("strang", "exp_euler"):
        raise ConfigError(f"unknown solver.scheme '{sb['scheme']}'")
    if ib["kind"] not in ("smooth_random", "modes"):
        raise ConfigError(f"unknown initial.kind '{ib['kind']}'")
    if mb["n_workers"] != 1:
        raise ConfigError("mc.n_workers must be 1: every path runs in one thread")
    try:
        if mb["dt_ladder"]:
            _ladder(sb["T"], mb["dt_ladder"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mc.dt_ladder: {exc}") from exc


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw.pop("config_hash", None)  # resolved configs reload cleanly
    return validate_and_resolve(raw)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(resolved: dict) -> str:
    """Hash of the experiment identity; where outputs land is not part of it."""
    doc = {k: v for k, v in resolved.items() if k != "output_dir"}
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@dataclass
class ExperimentConfig:
    """Resolved configuration plus builders for the runtime objects."""

    doc: dict

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls(load_config(path))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return cls(validate_and_resolve(raw))

    @property
    def hash(self) -> str:
        return config_hash(self.doc)

    def build_grid(self):
        g = self.doc["grid"]
        return make_grid(g["dim"], g["points"], g["lengths"])

    def build_model(self) -> Model:
        grid = self.build_grid()
        mb = self.doc["model"]
        return build_model(
            mb["name"], grid, p=mb["p"], sign=mb["sign"], g=mb["g"], k0=mb["k0"],
            m=mb["m"], smoothness=mb["smoothness"], dealias=mb["dealias"],
            break_j_hook=mb["break_j_hook"],
        )

    def build_covariance(self, model: Model) -> CovarianceSpec | None:
        nb = self.doc["noise"]
        if not nb["enabled"]:
            return None
        return default_covariance(model.grid, nb["n_modes"], nb["lambda0"], nb["gamma"])

    def build_initial(self, model: Model) -> State:
        ib = self.doc["initial"]
        if ib["kind"] == "smooth_random":
            rng = np.random.default_rng(ib["seed"])
            st = model.random_smooth_state(rng, radius=1.0)
            n = model.norm(st)
            return st * (ib["amplitude"] / n) if n > 0 else st
        if ib["kind"] == "modes":
            st = model.zero_state()
            x = model.grid.x_mesh[0] * np.ones(model.grid.shape)
            L = model.grid.lengths[0]
            for comp, kidx, re, im in ib["modes"]:
                amp = complex(re, im)
                st.data[int(comp)] += amp * np.exp(2j * np.pi * kidx * x / L)
            return st * ib["amplitude"]
        raise ConfigError(f"unknown initial.kind '{ib['kind']}'")

    def build_chaos_space(self) -> ChaosSpace:
        cb = self.doc["chaos"]
        return ChaosSpace(cb["n_modes"], cb["max_degree"])

    def build_theta(self, model: Model, covariance: CovarianceSpec | None) -> ThetaPotential:
        cov = covariance or default_covariance(
            model.grid, self.doc["noise"]["n_modes"],
            self.doc["noise"]["lambda0"], self.doc["noise"]["gamma"],
        )
        modes = [Field(model.grid, np.sqrt(lam) * e.values)
                 for lam, e in zip(cov.eigenvalues, cov.eigenfields)]
        return ThetaPotential(modes)
