"""The five concrete wave models behind the unified evolution dphi/dt = -i*A*phi + J(phi).

Each model's classical form is normalized to the abstract one, so the
generator A is always (metric-)self-adjoint and J is whatever is left on the
right-hand side after that normalization. ``build_model`` states each A once,
as a ``SpectralOperator`` of the symbol helpers of ``operators`` (symbol k^2
for -Lap, |k| for |grad|, the wave block with its energy metric, the Dirac
block). A generator owns every norm of its state space: the H-norm, the
energy pairing and the graph norms ||A^j phi|| of the X_T metric are
``model.generator``'s, and a ``Model`` forwards none of them. Concretely:

nls            i dpsi/dt + Lap psi + sign |psi|^{p-1} psi = 0 becomes
               A = -Lap, J = i*sign*|psi|^{p-1} psi  (paraxial beam equation;
               the transverse plane plays the role of space).
klein_gordon   psi_tt + B^2 psi = sign |psi|^{p-1} psi with B = sqrt(-Lap+k0^2),
               first-order form in (psi, v=psi_t): A = i[[0,I],[-B^2,0]],
               J = (0, sign |psi|^{p-1} psi), state space D(B) + L2.
sine_gordon    u_tt + B^2 u = g sin u, same wave block on (u, u_t), J = (0, g sin u).
zakharov       i psi_t + Lap psi = psi Re(v), i v_t + |grad| v = -|grad||psi|^2
               gives A = diag(-Lap, -|grad|) (symbol diag(k^2, -|k|)),
               J = (-i psi Re v, i |grad||psi|^2).
maxwell_dirac  1+1-dimensional reduction with 2-spinors (alpha = sigma1,
               beta = sigma3, same anticommutation algebra as the 3+1 case):
               state (psi1, psi2, A0, A0_t, A1, A1_t), generator
               diag(Dirac(m), wave(k0), wave(k0)), coupling
               J_psi = i (A0 + A1 sigma1) psi and wave sources
               (0, J_mu + k0^2 A_mu) with J_0 = |psi|^2, J_1 = 2 Re(psi1 conj psi2);
               the k0^2 term undoes the artificial mass shift that makes the
               wave block invertible. This sign/phase choice is the one that
               conserves the charge int |psi|^2 along the coupled flow.

Each J is written once, in ``Model.nonlinearity``, over an algebra that
supplies the products: ``apply_J`` evaluates it with pointwise arithmetic, and
``chaos.wick_nonlinearity`` evaluates the same expression with Wick products
on chaos coefficients, so the two agree on degree-0 inputs by construction.

Note the factors of i on the NLS, Zakharov and Dirac couplings: they are part
of the normalization and are exactly what makes mass/charge invariants of the
deterministic flow. The sine-Gordon estimate ||J(phi)|| <= ||phi|| holds on
the energy space for real u, g <= 1 and k0 >= 1 (|sin x| <= |x| pointwise plus
||u|| <= ||B u||); the estimate sampler therefore draws real states for this
model. ``verify_estimates`` takes J and the graph-norm ladders once per stack of
samples, and each inequality is then arithmetic on those columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Field, Grid, _bound
from .operators import (SpectralOperator, _abs_grad_symbol, _maxwell_dirac_symbol_metric,
                        _wave_symbol_metric, _zeroed_nyquist_k)

MODEL_NAMES = ("nls", "klein_gordon", "zakharov", "maxwell_dirac", "sine_gordon")

# Polynomial degree of J in the state, used for estimate envelopes; the power
# models (nls, klein_gordon) have degree p.
_J_DEGREE = {"sine_gordon": 1, "zakharov": 2, "maxwell_dirac": 2}

_DEFAULT_SMOOTHNESS = {
    "nls": 2,
    "klein_gordon": 1,
    "sine_gordon": 1,
    "zakharov": 1,
    "maxwell_dirac": 1,
}


@dataclass(frozen=True)
class ModelParams:
    p: int = 3
    sign: int = 1
    g: float = 1.0
    k0: float = 1.0
    m: float = 1.0


class _Pointwise:
    """Pointwise arithmetic on field values, the algebra in which J is J."""

    product = staticmethod(np.multiply)
    conj = staticmethod(np.conj)
    re = staticmethod(np.real)
    sin = staticmethod(np.sin)

    @staticmethod
    def modsq(a):
        return np.abs(a) ** 2

    @staticmethod
    def abs_pow(a, p):
        return np.abs(a) ** (p - 1) * a


@dataclass
class Model:
    """Named bundle: generator (which fixes the component count), nonlinearity, invariants."""

    name: str
    grid: Grid
    generator: SpectralOperator
    params: ModelParams
    smoothness: int
    dealias: bool = True
    break_j_hook: bool = False  # failure-injection hook for the verify command
    _absgrad: np.ndarray | None = dc_field(default=None, repr=False)
    # J is identically zero: a power model with sign 0 and no hook (with the
    # hook, J = 0 * (1 + ||phi||) can be NaN); derived here, not settable
    _zero_J: bool = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._zero_J = (self.name in ("nls", "klein_gordon")
                        and self.params.sign == 0 and not self.break_j_hook)

    # ---- spectral helpers ----------------------------------------------

    def _dealias(self, values: np.ndarray) -> np.ndarray:
        if not self.dealias:
            return values
        coeffs = self.grid.to_spectral(values)
        coeffs *= self.grid.dealias_mask
        return self.grid.to_physical(coeffs)

    def _apply_absgrad(self, values: np.ndarray) -> np.ndarray:
        coeffs = self.grid.to_spectral(values)
        return self.grid.to_physical(self._absgrad * coeffs)

    # ---- the nonlinearity ----------------------------------------------

    def apply_J(self, data: np.ndarray) -> np.ndarray:
        """J in the abstract normalization (see module doc) of an (..., s,
        *grid.shape) array, one state or a stack, as a new array; the hook
        scales each state by its own norm."""
        out = self.nonlinearity(_Pointwise, data)
        if self.break_j_hook:
            norms = self.generator.graph_norm_ladder(data, 0)[..., 0]
            out = out * (1.0 + norms).reshape(norms.shape + (1,) * (1 + self.grid.dim))
        return out

    def nonlinearity(self, alg, data: np.ndarray) -> np.ndarray:
        """J of a (..., s, *grid.shape) stack, with products taken in ``alg``.

        ``alg`` supplies product, conj, re, modsq (|a|^2), abs_pow
        (|a|^{p-1} a) and sin on (..., *grid.shape) field stacks. The
        pointwise algebra gives J itself; the Wick algebra of ``chaos`` gives
        its Wick quantization on chaos coefficient stacks.
        """
        name, pr = self.name, self.params
        out = np.zeros(data.shape, dtype=complex)
        axis = -1 - self.grid.dim  # component axis first in the views u, o
        u, o = data.swapaxes(0, axis), out.swapaxes(0, axis)
        if name == "nls":
            if pr.sign != 0:
                o[0] = 1j * pr.sign * self._dealias(alg.abs_pow(u[0], pr.p))
        elif name == "klein_gordon":
            if pr.sign != 0:
                o[1] = pr.sign * self._dealias(alg.abs_pow(u[0], pr.p))
        elif name == "sine_gordon":
            o[1] = pr.g * alg.sin(u[0])
        elif name == "zakharov":
            o[0] = -1j * self._dealias(alg.product(u[0], alg.re(u[1])))
            o[1] = 1j * self._apply_absgrad(self._dealias(alg.modsq(u[0])))
        elif name == "maxwell_dirac":
            psi1, psi2 = u[0], u[1]
            a0, a1 = alg.re(u[2]), alg.re(u[4])
            o[0] = 1j * self._dealias(alg.product(a0, psi1) + alg.product(a1, psi2))
            o[1] = 1j * self._dealias(alg.product(a0, psi2) + alg.product(a1, psi1))
            j0 = alg.modsq(psi1) + alg.modsq(psi2)
            j1 = 2.0 * alg.re(alg.product(psi1, alg.conj(psi2)))
            k2 = pr.k0**2
            o[3] = self._dealias(j0) + k2 * u[2]
            o[5] = self._dealias(j1) + k2 * u[4]
        else:  # pragma: no cover
            raise ValueError(f"unknown model {name}")
        return out

    # ---- conserved functionals -----------------------------------------

    def conserved_blocks(self, data: np.ndarray) -> dict[str, np.ndarray]:
        """Invariants of the deterministic flow (noise-free interpretation) of
        each state of a (B, s, *grid.shape) stack, one value per state. Each
        sum runs over one block's grid, as over the block alone."""
        name, pr, dv = self.name, self.params, self.grid.dv
        axes = tuple(range(1, self.grid.dim + 1))  # the grid axes of a field stack
        out: dict[str, np.ndarray] = {}
        if name == "nls":
            psi = data[:, 0]
            out["mass"] = (np.abs(psi) ** 2).sum(axis=axes) * dv
            coeffs = self.grid.to_spectral(psi)
            grad2 = (self.grid.k_squared * np.abs(coeffs) ** 2).sum(axis=axes)
            pot = (np.abs(psi) ** (pr.p + 1)).sum(axis=axes) * dv
            out["energy"] = grad2 - pr.sign * 2.0 / (pr.p + 1) * pot
        elif name in ("klein_gordon", "sine_gordon"):
            u, v = data[:, 0], data[:, 1]
            b2 = self.grid.k_squared + pr.k0**2
            coeffs = self.grid.to_spectral(u)
            bnorm2 = (b2 * np.abs(coeffs) ** 2).sum(axis=axes)
            kin = (np.abs(v) ** 2).sum(axis=axes) * dv
            if name == "klein_gordon":
                pot = -pr.sign / (pr.p + 1) * ((np.abs(u) ** (pr.p + 1)).sum(axis=axes) * dv)
            else:
                pot = pr.g * (np.real(np.cos(u)).sum(axis=axes) * dv)
            out["energy"] = 0.5 * kin + 0.5 * bnorm2 + pot
        elif name == "zakharov":
            out["mass"] = (np.abs(data[:, 0]) ** 2).sum(axis=axes) * dv
        elif name == "maxwell_dirac":
            out["charge"] = (np.abs(data[:, 0]) ** 2 + np.abs(data[:, 1]) ** 2).sum(axis=axes) * dv
        return out

    # ---- exact/midpoint nonlinear substep for the split-step scheme -----

    def nonlinear_substep(self, data: np.ndarray, dt: float) -> np.ndarray:
        """Flow of dphi/dt = J(phi) over dt, from the (s, *grid.shape) array of
        a state or a (B, s, *grid.shape) stack of them, written to a copy.

        Exact for nls (pointwise phase rotation), klein_gordon / sine_gordon
        (the forced component is frozen), and zakharov (|psi| and Re v are
        invariant along the substep). Maxwell-Dirac uses the exact pointwise
        spinor rotation with midpoint current evaluation, locally O(dt^3).
        """
        name, pr = self.name, self.params
        out = data.copy()
        axis = -1 - self.grid.dim  # component axis first in the views u, o
        u, o = data.swapaxes(0, axis), out.swapaxes(0, axis)
        if name == "nls":
            if pr.sign != 0:
                o[0] = u[0] * np.exp(1j * dt * pr.sign * np.abs(u[0]) ** (pr.p - 1))
        elif name == "klein_gordon":
            if pr.sign != 0:
                o[1] = u[1] + dt * pr.sign * np.abs(u[0]) ** (pr.p - 1) * u[0]
        elif name == "sine_gordon":
            o[1] = u[1] + dt * pr.g * np.sin(u[0])
        elif name == "zakharov":
            o[1] = u[1] + 1j * dt * self._apply_absgrad(np.abs(u[0]) ** 2)
            o[0] = u[0] * np.exp(-1j * dt * np.real(u[1]))
        elif name == "maxwell_dirac":
            a0, a1 = np.real(u[2]), np.real(u[4])
            k2 = pr.k0**2

            def rotate(p1, p2, tau):
                ph = np.exp(1j * tau * a0)
                c, s = np.cos(tau * a1), 1j * np.sin(tau * a1)
                return ph * (c * p1 + s * p2), ph * (s * p1 + c * p2)

            m1, m2 = rotate(u[0], u[1], 0.5 * dt)
            j0 = np.abs(m1) ** 2 + np.abs(m2) ** 2
            j1 = 2.0 * np.real(m1 * np.conj(m2))
            o[0], o[1] = rotate(u[0], u[1], dt)
            o[3] = u[3] + dt * (j0 + k2 * u[2])
            o[5] = u[5] + dt * (j1 + k2 * u[4])
        return out

    # ---- gauge diagnostics (Maxwell-Dirac) -------------------------------

    def gauge_residual(self, data: np.ndarray) -> float:
        """L2 size of d(A0)/dt - dx(A1) of one state, zero on the gauge slice."""
        if self.name != "maxwell_dirac":
            raise ValueError("gauge residual applies to maxwell_dirac only")
        return Field(self.grid, data[3] - self._spectral_dx(data[4])).norm()

    def _spectral_dx(self, values: np.ndarray) -> np.ndarray:
        # Nyquist-zeroed first derivative, so real fields stay real
        k = _zeroed_nyquist_k(self.grid, 0) * np.ones(self.grid.shape)
        return self.grid.to_physical(1j * k * self.grid.to_spectral(values))

    # ---- random smooth states for verification --------------------------

    def random_smooth_state(self, rng: np.random.Generator,
                            radius: float = 1.0) -> np.ndarray:
        """Draw a random state's array with spectral decay (1+|k|^2)^-(N+1).

        The decay keeps all graph norms up to order N finite and controlled;
        the state is rescaled to a uniform random H-norm in
        [0.2*radius, radius]. Sine-Gordon states are real-valued.
        """
        decay = (1.0 + self.grid.k_squared) ** (-(self.smoothness + 1))
        shape = (self.generator.n_components,) + self.grid.shape
        coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * decay
        data = self.grid.to_physical(coeffs)
        if self.name == "sine_gordon":
            data = np.real(data).astype(complex)
        n = self.generator.metric_norm(data)
        if n == 0:
            return data
        target = radius * rng.uniform(0.2, 1.0)
        return data * (target / n)


def build_model(name: str, grid: Grid, p: int = 3, sign: int = 1, g: float = 1.0,
                k0: float = 1.0, m: float = 1.0, smoothness: int | None = None,
                dealias: bool = True, break_j_hook: bool = False) -> Model:
    """Instantiate one of the five models on a grid.

    ``sign`` in {-1, 0, +1}: focusing/defocusing for power nonlinearities,
    0 disables J (linear model, used for harness calibration).
    """
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model '{name}', expected one of {MODEL_NAMES}")
    for key, value, least, most in (("p", p, 2, None), ("sign", sign, -1, 1)):
        if not float(_bound(key, value, least, most)).is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
    if smoothness is not None:
        _bound("smoothness", smoothness, least=0)
    if name == "maxwell_dirac" and grid.dim != 1:
        raise ValueError(f"maxwell_dirac uses the 1+1-dimensional reduction, got dim {grid.dim}")
    if name == "nls" and grid.dim > 2:
        raise ValueError(f"nls is a 1d/2d (transverse-plane) model, got dim {grid.dim}")

    params = ModelParams(p=int(p), sign=int(sign), g=float(g), k0=float(k0), m=float(m))
    # the generator A of each model (module doc), from the symbol helpers of
    # ``operators``; |grad| is also the multiplier of the Zakharov source
    absgrad = _abs_grad_symbol(grid)
    if name == "nls":
        gen = SpectralOperator(grid, grid.k_squared[None, None])
    elif name in ("klein_gordon", "sine_gordon"):
        gen = SpectralOperator(grid, *_wave_symbol_metric(grid, params.k0))
    elif name == "zakharov":
        sym = np.zeros((2, 2) + grid.shape, dtype=complex)
        sym[0, 0] = grid.k_squared
        sym[1, 1] = -absgrad
        gen = SpectralOperator(grid, sym)
    else:
        gen = SpectralOperator(grid, *_maxwell_dirac_symbol_metric(grid, params.k0, params.m))

    return Model(
        name=name, grid=grid, generator=gen, params=params,
        smoothness=_DEFAULT_SMOOTHNESS[name] if smoothness is None else int(smoothness),
        dealias=dealias, break_j_hook=break_j_hook, _absgrad=absgrad,
    )


# ---------------------------------------------------------------------------
# Empirical verification of the nonlinearity estimates
# ---------------------------------------------------------------------------

@dataclass
class EstimateReport:
    """Outcome of sampling one nonlinearity inequality.

    ``fitted_constant`` is the smallest constant making the inequality hold
    on the sample. ``declared_constant`` is set only where the inequality
    comes with a pinned constant (the sine contraction, constant 1); in that
    case violations are counted against it with 1e-10 relative slack.
    Otherwise violations are counted against the fitted constant.
    """

    inequality_id: str
    sample_count: int
    violations: int
    fitted_constant: float
    declared_constant: float | None = None


# Samples per stacked J and graph-norm ladder; the reports do not depend on it.
_CHUNK = 64
MAX_SAMPLES = 100_000  # a fixed bound on the samples of one estimate check


def _powers(base: np.ndarray, e: int) -> np.ndarray:
    """base ** e, taken per sample as a Python float ** int (whose rounding the
    reports keep: numpy's array ** 2, x * x, differs about once in a thousand
    squares), inf where it overflows."""
    out = []
    for x in base.tolist():
        try:
            out.append(x ** e)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def _ratios(lhs: np.ndarray, denom, floor: float = 1e-300) -> np.ndarray:
    """lhs / denom per sample; where denom <= 1e-300, 0 if lhs <= floor else inf."""
    tiny = denom <= 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = lhs / np.where(tiny, 1.0, denom)
    return np.where(tiny, np.where(lhs <= floor, 0.0, np.inf), out)


def _ladders(model: Model, sample_count: int, radius: float, seed: int):
    """Graph-norm ladders to max(N, 1) of the sampled states, drawn in a fixed
    order (every single, then every pair): of the singles s and their J, of
    the pair members a and b, of a - b and of J(a) - J(b), one (sample_count,
    max(N, 1) + 1) array each, evaluated _CHUNK samples at a time."""
    rng = np.random.default_rng(seed)
    ladder = lambda x: model.generator.graph_norm_ladder(x, max(model.smoothness, 1))
    draw = lambda n: np.stack([model.random_smooth_state(rng, radius) for _ in range(n)])
    sizes = [min(_CHUNK, sample_count - k) for k in range(0, sample_count, _CHUNK)]
    singles = [(ladder(x), ladder(model.apply_J(x))) for x in (draw(n) for n in sizes)]
    pairs = []
    for n in sizes:
        ab = draw(2 * n)
        a, b, jab = ab[0::2], ab[1::2], model.apply_J(ab)
        pairs.append((ladder(a), ladder(b), ladder(a - b), ladder(jab[0::2] - jab[1::2])))
    return [np.concatenate(c) for c in (*zip(*singles), *zip(*pairs))]


@np.errstate(over="ignore", invalid="ignore")
def verify_estimates(model: Model, sample_count: int = 1000, radius: float = 1.0,
                     seed: int = 0) -> list[EstimateReport]:
    """Sample the nonlinearity inequalities, graph orders up to N = model.smoothness.

    Every inequality reads the same samples: ``sample_count`` single states
    and as many pairs, each of H-norm in [0.2 * radius, radius]. J is taken
    once per stack of samples and one graph-norm ladder once per stack of
    states, J values and differences, so each inequality's ratio
    lhs / (envelope * core) is arithmetic on those columns. Reports
    violations rather than raising. A violation is a sample whose left-hand
    side, core or envelope is not finite, or whose left-hand side exceeds
    constant * envelope * core beyond 1e-10 relative slack, with the
    constant taken from the declared value when one exists and from the fit
    over the finite samples otherwise. ValueError below 100 samples, above
    MAX_SAMPLES or on a radius that is not a finite number above 0. The
    samples run with numpy's overflow and invalid warnings off: a sample
    that leaves the finite numbers counts as a violation.
    """
    _bound("sample_count", sample_count, 100, MAX_SAMPLES)
    _bound("radius", radius, above=0, below=math.inf)
    s, js, a, b, d, jd = _ladders(model, sample_count, radius, seed)
    name, N, e = model.name, model.smoothness, _J_DEGREE.get(model.name, model.params.p) - 1
    top = lambda L, j: np.max(L[:, :j + 1], axis=1)
    reports = []

    def row(iid, lhs, core, env, declared=None, ratios=None):
        ratios = _ratios(lhs, env * core) if ratios is None else ratios
        finite = np.isfinite(lhs) & np.isfinite(core) & np.isfinite(env)
        fitted = float(np.max(ratios[finite])) if finite.any() else math.nan
        bound = fitted if declared is None else declared
        reports.append(EstimateReport(
            inequality_id=iid, sample_count=sample_count, fitted_constant=fitted,
            violations=int(np.sum(~finite | (ratios > bound * (1.0 + 1e-10)))),
            declared_constant=declared,
        ))

    for j in range(N + 1):
        # ||A^j J(phi)|| <= C(||phi||, ..., ||A^j phi||) ||A^j phi||
        row(f"{name}:growth:j{j}", js[:, j], s[:, j], _powers(1.0 + top(s, j), e))
        # ||A^j (J(phi)-J(psi))|| <= C(norms of both) ||A^j(phi-psi)||
        row(f"{name}:lipschitz:j{j}", jd[:, j], d[:, j],
            _powers(1.0 + np.maximum(top(a, j), top(b, j)), e))
    for j in range(1, N + 1):
        # stronger form with the envelope depending only on norms below j
        row(f"{name}:growth-lower:j{j}", js[:, j], s[:, j], _powers(1.0 + top(s, j - 1), e))
    if name == "klein_gordon" and model.params.p == 3:
        row("cubic:power", js[:, 0], 1.0, _powers(s[:, 0], 3))
        row("cubic:lipschitz", jd[:, 0], d[:, 0], _powers(a[:, 0], 2) + _powers(b[:, 0], 2))
        row("cubic:grad-power", js[:, 1], s[:, 1], _powers(s[:, 0], 2))
        row("cubic:grad-lipschitz", jd[:, 1], d[:, 1],
            _powers(1.0 + np.maximum(top(a, 1), top(b, 1)), 2))
    if name == "sine_gordon":
        unit = model.params.g <= 1.0 and model.params.k0 >= 1.0
        row("sine:contraction", js[:, 0], s[:, 0], 1.0, 1.0 if unit else None)
        row("sine:grad-bound", js[:, 1], s[:, 0], 1.0)
        row("sine:lipschitz", jd[:, 0], d[:, 0], 1.0)
        # ||A(J(a)-J(b))|| <= K ||a-b|| ||A a|| + ||a-b||, fitted for K
        excess = jd[:, 1] - d[:, 0]
        row("sine:grad-lipschitz", jd[:, 1], d[:, 0], a[:, 1], ratios=_ratios(
            np.where(0.0 > excess, 0.0, excess), d[:, 0] * a[:, 1], floor=0.0))
    return reports
