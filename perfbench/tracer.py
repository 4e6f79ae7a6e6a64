"""Layer tracing for the stochwave CLI, done from outside the package.

``Tracer.install`` wraps the public functions and public methods of every
stochwave module listed in ``LAYERS``, and rebinds each name that another
module imported (``ensemble`` and ``cli`` import ``step_exp_euler``,
``picard_solve`` and others by name, so a wrapper patched only where the
function is defined would miss those calls). Every call updates counters
for its name: calls, total time and self time, where self time is the
call's duration minus the time its traced children took. The first
``SPAN_LIMIT`` calls of each name are also kept as spans (name, start, end,
parent), so the high-frequency inner calls (about 150k FFTs per
``ito_ladder`` run) cost a counter update, not a stored span.

The methods of the value types ``State`` and ``Field`` are left unwrapped
(see ``VALUE_TYPES``); the FFTs they call are still traced in ``Grid``.

Run as a script, it traces one CLI command in this process and writes the
statistics as JSON:

    python3 perfbench/tracer.py STATS.json converge --config cfg.json --out DIR
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("grids", "operators", "models", "noise", "solver", "chaos",
          "ensemble", "config", "cli")
SPAN_LIMIT = 500
# value types whose methods are one-line array glue: their cost stays in the
# caller's self time instead of doubling the number of traced calls
VALUE_TYPES = frozenset({"grids.Field", "grids.State"})
# names whose every call duration is kept, for percentiles
SAMPLED = frozenset({"solver.step_exp_euler"})


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}      # name -> [calls, total_ns, self_ns]
        self.samples: dict[str, list[int]] = {n: [] for n in SAMPLED}
        self.spans: list[tuple] = []               # (id, parent, name, start_ns, end_ns)
        self.counters: collections.Counter = collections.Counter()
        self.picard_iterations: list[int] = []
        self.wick_solves: list[str] = []           # fingerprint per Wick solve
        self._stack: list[list] = []               # [child_ns, span_id]
        self._ensemble_depth = 0                   # open ensemble-layer calls
        self._t0 = time.perf_counter_ns()

    # ---- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        samples = self.samples.get(name)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = len(spans) if stats[0] < SPAN_LIMIT else -1
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span_id >= 0:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    spans.append((span_id, parent, name, start - self._t0, end - self._t0))
                if samples is not None:
                    samples.append(dur)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function and method of the stochwave layers."""
        wrapped = {}   # original function -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"stochwave.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    fn = self._mark_ensemble(obj) if layer == "ensemble" else obj
                    wrapped[obj] = self.wrap(name, fn, *self._hooks(name))
                    setattr(mod, attr, wrapped[obj])
                elif inspect.isclass(obj) and f"{layer}.{attr}" not in VALUE_TYPES:
                    self._wrap_class(layer, obj)
        # names imported from another module still point at the original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stochwave" or mod_name.startswith("stochwave.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _wrap_class(self, layer: str, cls):
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            # QWienerSampler.__init__ is traced to count the noise streams built
            if attr.startswith("_") and name != "noise.QWienerSampler.__init__":
                continue
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member, *self._hooks(name)))

    # ---- per-layer counters that need arguments or results ----------------

    def _mark_ensemble(self, fn):
        """Keep count of open ensemble calls, to attribute path steps."""
        @functools.wraps(fn)
        def inside(*args, **kwargs):
            self._ensemble_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._ensemble_depth -= 1
        return inside

    def _hooks(self, name: str):
        counters = self.counters
        if name in ("grids.Grid.to_spectral", "grids.Grid.to_physical"):
            def after(args, out):
                counters["grids.fft.bytes"] += args[1].nbytes + out.nbytes
            return None, after
        if name == "operators.SpectralOperator.propagate":
            def before(args, kwargs):
                op, t = args[0], float(args[1])
                counters["operators.prop_cache.lookups"] += 1
                if (t if op.n_components > 1 else ("phase", t)) in op._prop_cache:
                    counters["operators.prop_cache.hits"] += 1
            return before, None
        if name == "operators.SpectralOperator.propagate_blocks":
            def before(args, kwargs):
                counters["operators.prop_cache.lookups"] += 1  # never cached
            return before, None
        if name == "solver.step_exp_euler":
            def before(args, kwargs):
                if self._ensemble_depth:
                    counters["ensemble.path_steps"] += 1
            return before, None
        if name == "solver.picard_solve":
            return None, lambda args, res: self.picard_iterations.append(len(res.residuals))
        if name == "chaos.solve_wick_evolution":
            return lambda args, kwargs: self.wick_solves.append(_fingerprint(args, kwargs)), None
        return None, None

    # ---- output --------------------------------------------------------

    def dump(self, path, extra: dict):
        doc = {
            "stats": self.stats,
            "counters": self.counters,
            "samples": self.samples,
            "picard_iterations": self.picard_iterations,
            "wick_solves": self.wick_solves,
            "spans": self.spans,
            **extra,
        }
        Path(path).write_text(json.dumps(doc))


def _fingerprint(args, kwargs) -> str:
    """Identity of a Wick solve's inputs: model, phi0, noise fields, T, dt, space."""
    from stochwave.chaos import solve_wick_evolution

    bound = inspect.signature(solve_wick_evolution).bind(*args, **kwargs)
    a = bound.arguments
    h = hashlib.sha256()
    h.update(repr((a["model"].name, a["model"].params, a["model"].grid.shape,
                   float(a["T"]), float(a["dt"]), a["space"].n_modes,
                   a["space"].max_degree)).encode())
    h.update(a["phi0"].data.tobytes())
    for q in a["noise_fields"]:
        h.update(getattr(q, "values", q).tobytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    import stochwave.cli as cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    tracer.dump(stats_path, {"exit_code": code,
                             "main_wall_s": time.perf_counter() - start})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
