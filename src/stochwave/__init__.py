"""Pseudospectral simulation and verification engine for stochastic
semilinear wave models: exact free propagators on periodic grids, five
concrete model instantiations, Q-Wiener noise with deterministic seeding,
Picard and Ito mild solvers, truncated Fock-space Wick calculus, and a
Monte Carlo harness for convergence and consistency studies.
"""

from .chaos import (ChaosSpace, solve_wick_evolution, wick_identity_deviations,
                    wick_nonlinearity)
from .config import ConfigError, ExperimentConfig
from .ensemble import (ChaosMcReport, EnsembleConfig, EnsembleResult,
                       OrderFit, TailCurve, chaos_vs_mc, run_ensemble,
                       strong_order, weak_order)
from .grids import Field, Grid, make_grid
from .models import (EstimateReport, Model, ModelParams, build_model,
                     verify_estimates)
from .noise import (CovarianceSpec, QWienerSampler, default_covariance,
                    discrete_pairing, multiple_wiener, orthogonality_check,
                    path_samplers, unit_increments)
from .operators import SpectralOperator
from .solver import (BlowUpError, PicardResult, ThetaPotential, Trajectory,
                     holomorphy_check, picard_solve, solve_ito, step_exp_euler)

__version__ = "0.1.0"
