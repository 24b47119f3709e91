"""Desk-scale numerics for fractional stochastic p-Laplace dynamics.

The package provides:

* the kernel normalisation constant and discrete Poincare estimates
  (:mod:`fracsplap.domain`),
* a piecewise-linear Galerkin space with an L2-orthonormal basis
  (:mod:`fracsplap.space`),
* singular-kernel quadrature for the Gagliardo seminorm and the weak
  action of the fractional p-Laplacian (:mod:`fracsplap.fracop`),
* concrete drift / diffusion / transport-noise coefficient families
  (:mod:`fracsplap.coefficients`),
* the admissibility algebra for the growth and monotonicity hypotheses
  (:mod:`fracsplap.hypotheses`),
* a drift-tamed Euler-Maruyama integrator with reproducible per-path
  noise streams (:mod:`fracsplap.solver`),
* Monte Carlo studies of moment bounds, Galerkin stabilisation, strong
  convergence order and pathwise stability (:mod:`fracsplap.harness`),
* a flat key-value configuration format and a batch CLI
  (:mod:`fracsplap.config`, :mod:`fracsplap.cli`).
"""

from .domain import (
    DomainSpec,
    FracOperatorParams,
    PoincareEstimate,
    kernel_constant,
    poincare_constant,
)
from .space import GalerkinSpace, build_space, project
from .fracop import (
    apply_A1_weak,
    assemble_frac_stiffness,
    check_scalar_monotonicity,
    gagliardo_seminorm,
)
from .coefficients import (
    DriftSpec,
    LipschitzPerturbationSpec,
    SuperlinearNoiseSpec,
    TransportNoiseSpec,
    eval_B,
)
from .hypotheses import (
    AdmissibilityReport,
    HypothesisParams,
    admissibility_report,
    check_gap,
    check_theorem_1,
    check_theorem_2,
    check_theorem_3,
    compute_kappa,
    moment_exponent_range,
)
from .solver import (
    Path,
    SimulationSetup,
    SolverConfig,
    brownian_increments,
    reference_solution_p2_linear,
    simulate_path,
    stopping_functional,
)
from .harness import (
    ConvergenceReport,
    MomentReport,
    StabilityReport,
    estimate_moments,
    galerkin_convergence_study,
    pathwise_stability_study,
    slobodeckij_time_seminorm,
    strong_order_study,
    time_seminorm_sq,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    build_bundle,
    parse_config_file,
    parse_config_text,
    parse_resolved_header,
)

__version__ = "0.1.0"
