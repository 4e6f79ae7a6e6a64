"""Reach or delete: every public function and method of the library is called
by some command, or names the claim it carries and the test that checks it;
every defaulted parameter is set by some call in the library, or names who
sets it, and is left out by some call in the library, its tests or the
benchmark; and every error message is written in one place."""

import ast
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np

import stochwave
from stochwave import chaos, cli, config, ensemble, grids, models, noise, operators, solver
from stochwave.cli import main

MODULES = (chaos, cli, config, ensemble, grids, models, noise, operators, solver)

# The public entry points that no command reaches: each carries a claim of the
# paper or an oracle of a test, and names the test that checks it.
UNREACHED = {
    # a dense n_indices^2 matrix that no command builds
    "chaos.ChaosSpace.gamma_matrix": ("Gamma(AB) = Gamma(A) Gamma(B), Gamma(diag w) on "
                                      "coherent vectors",
                                      "test_chaos::test_second_quantization_properties"),
    # Gamma(B)'s index lookup
    "chaos.ChaosSpace.position": ("the index lookup that builds Gamma(B)'s columns",
                                  "test_chaos::test_second_quantization_properties"),
    # no command takes a graded norm
    "chaos.ChaosSpace.norm": ("graded norms: Gaussian quadrature and monotonicity in p and beta",
                              "test_chaos::test_norm_values_and_monotonicity"),
}

TINY = {"grid": {"dim": 1, "points": [8], "lengths": [2 * np.pi]},
        "solver": {"T": 0.02, "dt": 0.01}, "noise": {"enabled": True, "n_modes": 2},
        "chaos": {"n_modes": 2, "max_degree": 2}, "mc": {"n_paths": 2},
        "verify": {"sample_count": 100, "orthogonality_paths": 1000}}

# (command, model, changes to TINY): every command, the five models, both
# schemes, noise on and off, the Wick powers, sine and real part of chaos
RUNS = [
    ("simulate", "maxwell_dirac", {}),
    ("simulate", "nls", {"noise": {"enabled": False}, "solver": {"scheme": "strang"}}),
    ("picard", "zakharov", {"solver": {"n_time_nodes": 3}}),
    ("converge", "nls", {"mc": {"n_paths": 2, "dt_ladder": [0.01, 0.005, 0.0025, 0.00125]}}),
    ("ensemble", "klein_gordon", {"mc": {"n_paths": 2, "rho_grid": [0.5]}}),
    ("verify", "nls", {}),
    *[("chaos", name, {}) for name in ("klein_gordon", "sine_gordon", "maxwell_dirac")],
]


def _entry_points(module):
    """Code object of each public function of ``module`` and each public method
    of a class defined there, by qualified name."""
    out = {}
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            out[name] = obj.__code__
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # classmethods, staticmethods
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    out[f"{name}.{attr}"] = fn.__code__
    return out


def test_every_public_entry_point_is_reached_or_allowed(tmp_path):
    assert {m.__name__ for m in MODULES} == {
        f"stochwave.{p.stem}" for p in Path(stochwave.__file__).parent.glob("*.py")
        if not p.stem.startswith("_")}
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for i, (command, model, changes) in enumerate(RUNS):
        doc = {block: {**TINY.get(block, {}), **changes.get(block, {})}
               for block in {*TINY, *changes}}
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({**doc, "model": {"name": model}}))
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            code = main([command, "--config", str(path), "--out", str(tmp_path / f"run{i}")])
        finally:
            sys.setprofile(previous)
        assert code == 0, (command, model)
    missed = sorted(f"{module.__name__.split('.')[-1]}.{name}"
                    for module in MODULES
                    for name, code in _entry_points(module).items() if code not in reached)
    assert missed == sorted(UNREACHED)
    tests = Path(__file__).parent
    for name, (claim, test) in UNREACHED.items():
        module, function = test.split("::")
        assert f"def {function}(" in (tests / f"{module}.py").read_text(), (name, claim)


# Defaulted parameters that no call in the library sets, and who sets them.
SET_OUTSIDE = {
    "cli.main": {"argv": "perfbench's workload runs and the CLI tests"},
}


def _defaulted(module):
    """The defaulted parameters of each public function, public method and
    dataclass constructor of ``module``, by qualified name: (its callable
    name, its positional parameters in order, its defaulted parameters)."""
    out = {}
    prefix = module.__name__.split(".")[-1]
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        found = []
        if inspect.isfunction(obj) and not name.startswith("_"):
            found.append((name, name, obj, False))
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found.append((name, name, obj, False))
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # classmethods, staticmethods
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    found.append((f"{name}.{attr}", attr, fn,
                                  not isinstance(member, staticmethod)))
        for qualname, callee, fn, bound in found:
            params = list(inspect.signature(fn).parameters.values())[bound:]
            defaulted = {p.name for p in params if p.default is not inspect.Parameter.empty}
            if defaulted:
                positional = [p.name for p in params
                              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
                out[f"{prefix}.{qualname}"] = (callee, positional, defaulted)
    return out


LIBRARY = Path(stochwave.__file__).parent
REPO = Path(__file__).parents[1]


def _calls(*roots):
    """Each call in the Python files under ``roots`` as (callee name, the count
    of positional places it fills or None for all, its keywords, whether it
    has a ``**`` argument). A ``*f(...)`` argument fills as many as the tuple
    that every return of the scanned files' ``f`` gives, any other ``*``
    argument every positional place from its own on; ``cls(...)`` calls its
    class, and ``_checked(block, fn, *args, **kwargs)`` calls fn with the
    rest."""
    trees = [ast.parse(p.read_text()) for root in roots for p in sorted(root.rglob("*.py"))]
    returns = {}  # function name -> the set of its returns' tuple lengths (None: no tuple)
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.FunctionDef):
            returns.setdefault(node.name, set()).update(
                len(r.value.elts) if isinstance(r.value, ast.Tuple) else None
                for r in ast.walk(node) if isinstance(r, ast.Return))

    def name_of(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def filled(args):
        """The positional places the arguments fill: a count, or None for all."""
        count = 0
        for a in args:
            if isinstance(a, ast.Starred):
                sizes = returns.get(name_of(a.value.func)) if isinstance(a.value, ast.Call) \
                    else None
                if not sizes or len(sizes) != 1 or None in sizes:
                    return None
                count += next(iter(sizes))
            else:
                count += 1
        return count

    out, classes = [], []  # the calls, and the classes around the one visited

    class Visitor(ast.NodeVisitor):
        def visit_ClassDef(self, node):
            classes.append(node.name)
            self.generic_visit(node)
            classes.pop()

        def visit_Call(self, node):
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "_checked" and len(args) > 1:
                func, args = args[1], args[2:]
            name = name_of(func)
            if name == "cls" and classes:
                name = classes[-1]
            out.append((name, filled(args), {k.arg for k in node.keywords if k.arg},
                        any(k.arg is None for k in node.keywords)))
            self.generic_visit(node)

    for tree in trees:
        Visitor().visit(tree)
    return out


def test_every_default_is_set_by_a_program_path():
    entries = {q: e for module in MODULES for q, e in _defaulted(module).items()}
    calls = _calls(LIBRARY)
    unset = {}
    for qualname, (callee, positional, defaulted) in entries.items():
        if qualname in UNREACHED:
            continue
        left = defaulted - set(SET_OUTSIDE.get(qualname, ()))
        for name, n_filled, keywords, double_star in calls:
            if name == callee:
                left -= set(positional[:n_filled]) | keywords  # n_filled None: every one
                if double_star:
                    left = set()
        if left:
            unset[qualname] = sorted(left)
    assert unset == {}
    for qualname, setters in SET_OUTSIDE.items():
        assert set(setters) <= entries[qualname][2], qualname


def test_every_default_is_relied_on_by_a_caller():
    # a default that every call overrides states a value that no run takes:
    # each defaulted parameter is left out by some call in the library, its
    # tests or the benchmark (a call with a * or ** argument that may fill it
    # relies on nothing)
    entries = {q: e for module in MODULES for q, e in _defaulted(module).items()}
    calls = _calls(LIBRARY, REPO / "tests", REPO / "perfbench")
    dead = {}
    for qualname, (callee, positional, defaulted) in entries.items():
        left = set(defaulted)  # the defaults that every call seen so far fills
        for name, n_filled, keywords, double_star in calls:
            if name == callee and n_filled is not None and not double_star:
                left &= set(positional[:n_filled]) | keywords
        if left:
            dead[qualname] = sorted(left)
    assert dead == {}


# The samplers of normals that are not the Brownian noise, and what each draws.
NON_NOISE_NORMALS = {
    "models.Model.random_smooth_state": "the initial state and verify's estimate samples",
    "cli.cmd_picard": "the Theta potential's points zeta and eta",
    "chaos.wick_identity_deviations": "the Wick identity checks' chaos vectors and points",
}


def test_every_normal_draw_is_the_sampler_or_a_listed_non_noise_sampler():
    # QWienerSampler.normals is the one source of Brownian increments; any other
    # normal draw in the library is one of the listed samplers of something else,
    # each named by its module, class and outermost function
    drawers = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, prefix):
            self.scope, self.in_function = [prefix], False

        def visit_ClassDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_FunctionDef(self, node):
            if self.in_function:  # a nested function draws for its outer one
                return self.generic_visit(node)
            self.in_function = True
            self.visit_ClassDef(node)
            self.in_function = False

        def visit_Call(self, node):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("standard_normal", "normal", "randn", "multivariate_normal"):
                drawers.add(".".join(self.scope))
            self.generic_visit(node)

    for path in Path(stochwave.__file__).parent.glob("*.py"):
        Visitor(path.stem).visit(ast.parse(path.read_text()))
    assert drawers == {"noise.QWienerSampler.normals", *NON_NOISE_NORMALS}


def _message(node: ast.Raise) -> str | None:
    """The message text of ``raise E("...")`` or ``raise E(f"...")``, each
    placeholder written as {}; None for a message that starts with a
    placeholder (a format whose words are its arguments, such as the bound
    helper's "<name> must be <range>, got <value>") or is no string."""
    msg = node.exc.args[0] if isinstance(node.exc, ast.Call) and node.exc.args else None
    parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
    if not (parts and isinstance(parts[0], ast.Constant) and isinstance(parts[0].value, str)):
        return None
    return "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts)


def test_no_two_raises_share_a_message():
    # each rule is stated once: a bound through grids._bound, any other rule
    # by the one raise that owns it
    sites = {}
    for path in sorted(Path(stochwave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and _message(node):
                sites.setdefault(_message(node), []).append(f"{path.name}:{node.lineno}")
    assert len(sites) > 40  # the walk found the library's raises
    assert {m: s for m, s in sites.items() if len(s) > 1} == {}
