"""Untraced timing probes, each run in a fresh interpreter by ``run.py``.

    python3 perfbench/probe.py setup CONFIG.json
        Set-up time: importing stochwave, resolving the config and building
        the model, initial state, covariance, chaos space and Theta
        potential, with the host-speed bursts timed during it
        (``hostspeed.py``). Prints one JSON line.

    python3 perfbench/probe.py units SEED
        Untraced cost of one unit of work of each workload, on its full-size
        config, at the reference host speed: an exponential-Euler step of
        ito_ladder, a Wick step of wick_chaos and a Picard sweep of
        picard_2d. Prints one JSON line.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

SETUP_INTERVAL_S = 0.01


def setup(config_path: str) -> dict:
    import numpy as np

    from hostspeed import Sampler

    # set-up is about 0.2 s, so the host speed is sampled more often
    sampler = Sampler(interval=SETUP_INTERVAL_S).start()
    from stochwave.config import ExperimentConfig

    cfg = ExperimentConfig.from_file(config_path)
    model = cfg.build_model()
    cfg.build_initial(model)
    cov = cfg.build_covariance(model)
    cfg.build_chaos_space()
    cfg.build_theta(model, cov)
    elapsed = time.perf_counter() - _T0
    return {"setup_s": elapsed, "bursts": sampler.stop(), "numpy": np.__version__}


def _timed(fn, repeats: int = 1) -> float:
    """Median time of FN at the reference host speed."""
    from hostspeed import Sampler, rescale

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        sampler = Sampler().start()
        fn()
        elapsed = time.perf_counter() - start
        times.append(rescale(elapsed, sampler.stop()))
    return statistics.median(times)


def units(seed: int) -> dict:
    import numpy as np

    from stochwave.chaos import solve_wick_evolution
    from stochwave.config import ExperimentConfig
    from stochwave.grids import Field
    from stochwave.noise import QWienerSampler
    from stochwave.solver import picard_solve, step_exp_euler
    from workloads import make_config

    # exponential-Euler steps of the finest ito_ladder rung, 16 paths at a time
    cfg = ExperimentConfig.from_dict(make_config("ito_ladder", seed))
    model = cfg.build_model()
    phi0 = cfg.build_initial(model)
    dt = min(cfg.doc["mc"]["dt_ladder"])
    n = round(cfg.doc["solver"]["T"] / dt)
    sampler = QWienerSampler(cfg.build_covariance(model), seed, stream_id=0)
    dW = sampler.increments(dt, n)

    def paths():
        for _ in range(16):
            state = phi0
            for k in range(n):
                state = step_exp_euler(model, state, dt, dW[k])

    step_us = 1e6 * _timed(paths, 5) / (16 * n)

    # Wick steps of wick_chaos, as the chaos command runs them
    cfg = ExperimentConfig.from_dict(make_config("wick_chaos", seed))
    model = cfg.build_model()
    phi0 = cfg.build_initial(model)
    cov = cfg.build_covariance(model)
    space = cfg.build_chaos_space()
    fields = [Field(cov.grid, np.sqrt(lam) * e.values)
              for lam, e in zip(cov.eigenvalues, cov.eigenfields[: space.n_modes])]
    dt = cfg.doc["solver"]["dt"]
    wick_steps = 20
    wick_ms = 1e3 * _timed(lambda: solve_wick_evolution(
        model, phi0, fields, wick_steps * dt, dt, space), 3) / wick_steps

    # one Picard solve of picard_2d, per sweep (each residual plus the final check)
    cfg = ExperimentConfig.from_dict(make_config("picard_2d", seed))
    model = cfg.build_model()
    phi0 = cfg.build_initial(model)
    sb = cfg.doc["solver"]
    theta = cfg.build_theta(model, cfg.build_covariance(model))
    rng = np.random.default_rng(cfg.doc["master_seed"])
    zeta = 0.3 * rng.standard_normal(theta.n_coords)
    eta = 0.3 * rng.standard_normal(theta.n_coords)
    results = []
    solve_s = _timed(lambda: results.append(picard_solve(
        model, phi0, sb["T"], theta, zeta, eta, 0.0, n_time_nodes=sb["n_time_nodes"],
        tol=sb["tol"], max_iter=sb["max_iter"])))
    sweep_ms = 1e3 * solve_s / (len(results[0].residuals) + 1)
    return {"untraced.exp_euler_step_us": step_us,
            "untraced.wick_step_ms": wick_ms,
            "untraced.picard_sweep_ms": sweep_ms}


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    probe = {"setup": setup, "units": lambda seed: units(int(seed))}[mode]
    print(json.dumps(probe(arg)))
