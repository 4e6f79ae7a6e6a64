"""Time integration of the unified evolution, deterministic and Ito.

Two integration routes share the exact free propagator exp(-i*A*t):

* ``picard_solve`` iterates the variation-of-constants map

      phi^{k+1}(t) = e^{-iAt} phi0
                     + int_0^t e^{-iA(t-s)} [J(phi^k(s)) + Theta * phi^k(s)] ds

  with trapezoidal quadrature between nodes and the propagator applied
  exactly, so the time-discretization error is O(dt^2) and the fixed-point
  contraction structure (ratio proportional to the horizon T) survives
  discretization. Each sweep runs node by node, so a solve holds the free
  path plus one iterate and a few nodes. A sweep adds, scales and
  accumulates in place on the raw arrays of the nodes it makes, in the order
  and roundings of the State algebra, and writes into no array it was handed:
  not phi0, the free path or an iterate.

* ``_ito_march`` is the one march of every trajectory, noisy or not: a stack
  of paths, each stopping when sup_{j<=N-1} ||A^j phi|| first exceeds the
  threshold or at a blow-up (a norm above BLOWUP_CAP, or a non-finite step:
  it ends at its last finite state); ``solve_ito`` is its one-path case,
  keeping each step's row and the final state. Its step is one of two kernels
  on raw arrays or stacks: ``_exp_euler``, the left-point (Ito) exponential
  Euler step phi_{n+1} = e^{-iA dt}(phi_n + dt J(phi_n) + phi_n dW), no
  Stratonovich correction, whose one-state call ``step_exp_euler`` checks its
  input once (``ensemble._path_finals`` hands it increments pre-cast to
  complex, the same bits), and ``_strang``, the noise-free symmetric splitting
  of the conservation studies, whose exact or midpoint-corrected nonlinear
  substeps give O(dt^2) drift of the invariants.

``holomorphy_check`` probes analyticity of z -> <phi(T, z), v> for the
Theta-perturbed deterministic flow with fourth-order Cauchy-Riemann
residuals, solving the Picard problem once per stencil point. The solves
differ only in z, so they share one free path e^{-iAt_i} phi0, built once
or handed in (``_free``), as ``stochwave picard`` hands its main solve's.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Field, State
from .models import Model
from .noise import QWienerSampler

BLOWUP_CAP = 1e12
# fixed bounds on the steps of one march and the nodes of one Picard solve
MAX_STEPS, MAX_TIME_NODES = 10_000_000, 10_000
_PLUS_ZERO = np.array(0j)  # "+ 0.0" as numpy adds it to complex arrays, pre-cast


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the finite-norm safety region."""


class ConvergenceError(RuntimeError):
    """Raised when a Picard solve that must converge does not."""


@dataclass
class ThetaPotential:
    """Affine multiplicative potential Theta(zeta) = sum_j zeta_j q_j.

    ``modes`` are the multiplication fields q_j, one per coordinate of zeta,
    matching the S-transform of a first-chaos noise built on the same
    fields. ``field_values`` evaluates Theta(zeta + z*eta), exactly affine
    in z.
    """

    modes: list[Field]

    @property
    def n_coords(self) -> int:
        return len(self.modes)

    def field_values(self, zeta, eta=None, z: complex = 0.0) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=complex)
        vec = zeta if eta is None else zeta + z * np.asarray(eta, dtype=complex)
        if vec.shape != (self.n_coords,):
            raise ValueError("need one coordinate per potential mode")
        out = np.zeros(self.modes[0].grid.shape, dtype=complex)
        for c, q in zip(vec, self.modes):
            out += c * q.values
        return out


@dataclass
class Trajectory:
    """A recorded path as its table, one row per step: times, graph norms and
    conserved quantities (name -> column); the one state kept, the final."""

    times: np.ndarray
    graph_norms: np.ndarray          # (n_times, N+1)
    conserved: dict[str, np.ndarray]
    final: State                     # the last finite state
    stop_time: float | None = None   # None means "ran to T"
    blown_up: bool = False
    seed_info: dict = dc_field(default_factory=dict)

    @property
    def stopped(self) -> bool:
        return self.stop_time is not None


@dataclass
class PicardResult:
    times: np.ndarray
    states: list[State]
    residuals: list[float]
    converged: bool
    fixed_point_residual: float
    contraction_ratio: float

    @property
    def final(self) -> State:
        return self.states[-1]


def picard_solve(model: Model, phi0: State, T: float,
                 theta: ThetaPotential | None = None,
                 zeta=None, eta=None, z: complex = 0.0,
                 n_time_nodes: int = 64, tol: float = 1e-10,
                 max_iter: int = 60, *, _free: list[State] | None = None) -> PicardResult:
    """Picard iteration for the Theta-perturbed deterministic mild equation.

    Residuals are sup-over-time graph-norm distances between successive
    iterates (the X_T metric with j <= N). On convergence the returned
    fixed-point residual is guaranteed <= 2*tol for contraction ratios
    below one. Every sweep, the final check too, raises BlowUpError on a
    non-finite node; an iterate also on a final node above the safety cap.
    ``max_iter`` 0 runs the final check alone, on the free path, which the
    solve builds unless the caller hands it in as ``_free`` (``_free_path``).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    n_nodes, dt = _time_nodes(T, n_time_nodes)
    times = np.linspace(0.0, T, n_nodes)
    gen, N = model.generator, model.smoothness
    theta_values = None if theta is None else theta.field_values(
        np.zeros(theta.n_coords) if zeta is None else zeta, eta, z)

    free = _free_path(gen, phi0, T, n_time_nodes) if _free is None else _free

    def sweep(states: list[State], keep: bool) -> float:
        """One trapezoid application of the integral map, node by node; returns
        the X_T distance from ``states``. J of node i is taken, and halved once
        for both trapezoid halves, just before node i comes out; with ``keep``,
        node i then replaces ``states[i]``, so a sweep holds one path. In place
        on arrays that the sweep owns (module doc): half = (0.5 dt)(J + theta
        phi), integral = e^{-iA dt}(integral + previous half) + half."""
        dist, integral, half = 0.0, State.zeros(model.grid, model.roles), None
        for i in range(n_nodes):
            prev, half = half, model.apply_J(states[i]).data
            if theta_values is not None:
                half += states[i].data * theta_values
            half *= 0.5 * dt
            node = free[0]
            if i:
                integral.data += prev
                integral = gen.propagate(dt, integral)
                integral.data += half
                node = free[i] + integral
            if not np.all(np.isfinite(node.data)) or \
               (keep and i == n_nodes - 1 and gen.metric_norm(node) > BLOWUP_CAP):
                raise BlowUpError("Picard iterate left the finite-norm region")
            dist = max(dist, float(np.sum(gen.graph_norm_ladder(node - states[i], N))))
            if keep:
                states[i] = node
        return dist

    current = list(free)
    residuals: list[float] = []
    converged = False
    for _ in range(max_iter):
        res = sweep(current, keep=True)
        residuals.append(res)
        if res <= tol:
            converged = True
            break

    fp_res = sweep(current, keep=False)
    floor = 1e3 * np.finfo(float).eps  # residuals at roundoff say nothing of the rate
    ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > floor and b > floor]
    ratio = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
    return PicardResult(times=times, states=current, residuals=residuals,
                        converged=converged, fixed_point_residual=fp_res,
                        contraction_ratio=ratio)


def _time_nodes(T: float, n_time_nodes: int) -> tuple[int, float]:
    """The node count of a Picard solve, at least 2, and its node spacing."""
    n_nodes = int(n_time_nodes)
    if n_nodes < 2:
        raise ValueError(f"n_time_nodes must be at least 2, got {n_time_nodes}")
    if n_nodes > MAX_TIME_NODES:
        raise ValueError(f"n_time_nodes must be at most {MAX_TIME_NODES}, got {n_time_nodes}")
    return n_nodes, T / (n_nodes - 1)


def _free_path(gen, phi0: State, T: float, n_time_nodes: int) -> list[State]:
    """Homogeneous part e^{-iA t_i} phi0 at the nodes t_i = i*dt of
    ``_time_nodes``, advanced stepwise (exact group law)."""
    n_nodes, dt = _time_nodes(T, n_time_nodes)
    free = [phi0.copy()]
    for _ in range(n_nodes - 1):
        free.append(gen.propagate(dt, free[-1]))
    return free


def step_exp_euler(model: Model, state: State, dt: float,
                   dW: np.ndarray | None = None) -> State:
    """One exponential Euler step with left-point multiplicative noise; ``dW``
    is the increment on the grid (an array of its shape) or None. The state is
    checked once, and ``_exp_euler`` works on the raw arrays, writing to
    neither; BlowUpError on a non-finite result."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    gen = model.generator
    gen._check_state(state)
    shape = None if dW is None else dW.shape if type(dW) is np.ndarray else np.shape(dW)
    if shape not in (None, gen.grid.shape):
        raise ValueError(f"increment shape {shape} != grid shape {gen.grid.shape}")
    out = _exp_euler(model, state.data, dt, dW)
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise BlowUpError("non-finite state after exponential Euler step")
    return State(gen.grid, out, state.roles)


def _exp_euler(model: Model, data: np.ndarray, dt: float, dW) -> np.ndarray:
    """The step, unchecked, of an (s, *grid.shape) array or a (B, s, *grid.shape)
    stack with dW (B, 1, *grid.shape): phi + dt*J(phi) + phi*dW in the order and
    roundings of the State algebra. A J that is identically zero (``Model._zero_J``)
    adds + 0.0, the bits of dt*J: it turns a -0 of phi into +0, as dt*J does."""
    inner = data + (_PLUS_ZERO if model._zero_J else model._J(data) * dt)
    if dW is not None:
        inner += data * dW
    return model.generator._propagate(dt, inner)


def _strang(model: Model, data: np.ndarray, dt: float, dW) -> np.ndarray:
    """The split step, unchecked, of an array or a stack as ``_exp_euler`` takes
    them: half free flow, ``Model.nonlinear_substep``, half free flow. It has no
    noise term, so dW is None."""
    prop = model.generator._propagate
    return prop(0.5 * dt, model.nonlinear_substep(prop(0.5 * dt, data), dt))


_SCHEMES = {"exp_euler": _exp_euler, "strang": _strang}


def _initial_norms(model: Model, phi0: State, threshold: float) -> np.ndarray:
    """Graph norms of phi0 up to N = model.smoothness; ValueError unless those
    below N stay under threshold."""
    N = model.smoothness
    norms0 = model.generator.graph_norm_ladder(phi0, N)
    top = float(np.max(norms0[:max(N, 1)]))
    if not threshold > top:
        raise ValueError(f"stopping threshold {threshold:g} must exceed the initial "
                         f"norms (largest {top:.6g})")
    return norms0


def solve_ito(model: Model, phi0: State, T: float, dt: float,
              sampler: QWienerSampler | None, threshold: float = np.inf,
              scheme: str = "exp_euler") -> Trajectory:
    """March one trajectory with the graph-norm stopping rule: the one-path
    case of ``_ito_march``, keeping each step's row and the final state, by
    exponential Euler or, with no sampler, by Strang splitting (``scheme``,
    the config's solver.scheme).

    Stops at the first time sup_{0 <= j <= N-1} ||A^j phi|| > threshold, N =
    model.smoothness, the order of the X_T norm, with stop_time set. A path
    that blows up is flagged, not raised, and ends at its last finite state.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "strang" and sampler is not None:
        raise ValueError("the Strang scheme has no noise term; march noise by exp_euler")
    n_steps = _step_count(T, dt)
    dW = None if sampler is None else sampler.increments(dt, n_steps)[:, None, None]
    times, norms, conserved = [], [], {}

    def record(t, data, ladders):
        times.extend([t] * len(data))
        norms.extend(ladders.tolist())  # rows of floats, not an array per step
        for name, column in model.conserved_blocks(data).items():
            conserved.setdefault(name, []).extend(column.tolist())

    record(0.0, phi0.data[None], model.generator.graph_norm_ladder(phi0, model.smoothness)[None])
    final, _, stop, blown = _ito_march(model, phi0, dt, n_steps, threshold, dW, 1, record,
                                       _SCHEMES[scheme])
    k = int(stop[0])
    seed_info = {} if sampler is None else {"master_seed": sampler.master_seed,
                                            "stream_id": sampler.stream_id}
    return Trajectory(np.asarray(times), np.asarray(norms),
                      {n: np.array(v) for n, v in conserved.items()},
                      State(model.grid, final[0], phi0.roles),
                      stop_time=k * dt if k else None,
                      blown_up=bool(blown[0]), seed_info=seed_info)


def _ito_march(model: Model, phi0: State, dt: float, n_steps: int, threshold: float,
               dW: np.ndarray | None, n_paths: int, record=None, kernel=_exp_euler):
    """March ``n_paths`` copies of phi0 by the step ``kernel`` (``_exp_euler``,
    or ``_strang`` with dW None), path b with increments ``dW[:, b]`` (dW:
    (n_steps, n_paths, 1, *grid.shape) or None).

    A path stops at a threshold hit, at a norm above BLOWUP_CAP or at a
    non-finite step (blown up, at its last finite state) and leaves the stack,
    with the bits of a march alone. ``record(t, data, norms)`` gets each step's
    finite states. Returns, per path, the final state, the sup of
    sum_j ||A^j phi||^2, the stop step (0: ran to T) and the blown-up flag.
    The steps, ``record`` included, run with numpy's overflow and invalid
    warnings off: a path that leaves the finite numbers ends as a flag.
    """
    N = model.smoothness
    norms0 = _initial_norms(model, phi0, threshold)
    final = np.repeat(phi0.data[None], n_paths, axis=0)
    sup = np.full(n_paths, np.sum(norms0**2))
    stop, blown = np.zeros(n_paths, dtype=int), np.zeros(n_paths, dtype=bool)
    live, data = np.arange(n_paths), final.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            step = kernel(model, data, dt, None if dW is None else dW[n, live])
            finite = np.isfinite(step.reshape(len(live), -1)).all(axis=1)
            step[~finite] = data[~finite]  # keep the last finite state, already checked
            data, norms = step, model.generator.graph_norm_ladder_blocks(step, N)
            sup[live] = np.fmax(sup[live], np.sum(norms**2, axis=1))  # like max(), NaN-blind
            hit = np.max(norms[:, :max(N, 1)], axis=1) > threshold
            capped = ~hit & (norms[:, 0] > BLOWUP_CAP)
            if record is not None:
                record((n + 1) * dt, data[finite], norms[finite])
            out = ~finite | hit | capped
            if out.any():
                ended = live[out]
                final[ended] = data[out]
                stop[ended] = n + 1
                blown[ended] = (~finite | capped)[out]
                live, data = live[~out], data[~out]
                if not len(live):
                    break
    final[live] = data
    return final, sup, stop, blown


def _step_count(T: float, dt: float) -> int:
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps = T / dt
    if steps > MAX_STEPS:
        raise ValueError(f"T / dt must be at most {MAX_STEPS} steps, got {steps:g}")
    n = round(steps) if np.isfinite(steps) else 0
    if n < 1 or not np.isclose(n * dt, T, rtol=1e-9, atol=0):
        raise ValueError("dt must divide T")
    return int(n)


def holomorphy_check(model: Model, phi0: State, T: float, theta: ThetaPotential,
                     zeta, eta, z_centers, probe: State, spacing: float = 1e-2,
                     n_time_nodes: int = 64, tol: float = 1e-12,
                     max_iter: int = 80, *, _free: list[State] | None = None) -> float:
    """Max fourth-order Cauchy-Riemann residual of z -> <phi(T, z), probe>.

    For each center the map is evaluated on the 8-point cross z + h*step,
    step in {+-1, +-2, +-i, +-2i}; the residual is |dF/dzbar| from
    fourth-order central differences. Each evaluation is one Picard solve,
    and one that does not converge raises ConvergenceError. The solves
    share one free path, built here unless handed in as ``_free``, and give
    the bits of separate solves.
    """
    z_centers = np.atleast_1d(np.asarray(z_centers, dtype=complex))
    if _free is None:
        _free = _free_path(model.generator, phi0, T, n_time_nodes)

    def F(zval: complex) -> complex:
        res = picard_solve(model, phi0, T, theta, zeta, eta, zval,
                           n_time_nodes=n_time_nodes, tol=tol, max_iter=max_iter,
                           _free=_free)
        if not res.converged:
            raise ConvergenceError("Picard solve failed to converge during stencil scan")
        return model.generator.metric_inner(res.final, probe)

    worst = 0.0
    for z0 in z_centers:
        worst = max(worst, _cr_residual(F, z0, spacing))
    return worst


def _cr_residual(F, z0, h: float):
    """|dF/dzbar| at z0 from fourth-order central differences on the 8-point
    cross z0 + h*step, step in {+-1, +-2, +-i, +-2i}."""
    fx = [F(z0 + s * h) for s in (-2, -1, 1, 2)]
    fy = [F(z0 + 1j * s * h) for s in (-2, -1, 1, 2)]
    dfdx = (fx[0] - 8 * fx[1] + 8 * fx[2] - fx[3]) / (12 * h)
    dfdy = (fy[0] - 8 * fy[1] + 8 * fy[2] - fy[3]) / (12 * h)
    return abs(0.5 * (dfdx + 1j * dfdy))
