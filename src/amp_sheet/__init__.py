"""Pseudospectral tools for a nonlocal quadratic amplitude equation on the torus.

The equation is

    phi_tt - mu * phi_xx = d/dx( H[(H phi_x)^2] - [H phi; H](H phi)_xx )

with H the periodic Hilbert transform.  The package provides the spectral
primitives, the nonlinear and linearized right-hand sides, a Galerkin
solver stepped by a fourth-order Runge-Kutta-Nystrom scheme with a
stability monitor, weighted-norm estimate verification campaigns, and a
smoothed Newton iteration for the full nonlinear problem.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    TorusGrid,
    SpectralField,
    synthesize,
    hilbert,
    derivative,
    pointwise_product,
    sobolev_norm,
    inner_product,
)
from .operators import (  # noqa: F401
    CauchyData,
    FieldSeries,
    Trajectory,
    Lifting,
    LiftingError,
    quadratic_rhs,
    quadratic_rhs_derivative,
    second_derivative,
    nonlinear_operator,
    apply_linearized_operator,
    stability_coefficient,
    build_lifting,
    lifting_forcing,
)
from .solver import (  # noqa: F401
    SimConfig,
    CflError,
    solve_nonlinear,
    solve_linearized,
    measure_mode_growth,
    field_evaluator,
)
from .analysis import (  # noqa: F401
    WeightedNormSpec,
    EstimateReport,
    weighted_l2_norm,
    xm_norm,
    ym_norm,
    verify_energy_estimate,
    verify_energy_estimates,
    verify_tame_estimate,
    verify_tame_estimates,
    verify_phitt_estimate,
    verify_second_derivative_estimate,
    verify_hilbert_identities,
    verify_forcing_bound,
    estimate_commutator_constant,
    estimate_commutator_constants,
    kernel_commutator,
)
from .nash_moser import (  # noqa: F401
    IterationConfig,
    IterationReport,
    smooth_cutoff,
    iterate,
    iterate_auto,
)
