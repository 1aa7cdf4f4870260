"""Pseudospectral tools for a nonlocal quadratic amplitude equation on the torus.

The equation is

    phi_tt - mu * phi_xx = d/dx( H[(H phi_x)^2] - [H phi; H](H phi)_xx )

with H the periodic Hilbert transform.  The package provides the spectral
primitives, the nonlinear and linearized right-hand sides, a Galerkin
solver stepped by a fourth-order Runge-Kutta-Nystrom scheme with a
stability monitor, weighted-norm estimate verification campaigns, and a
smoothed Newton iteration for the full nonlinear problem.

Importing the package loads none of its modules: each public name below
is read, on every use, from the module that owns it, imported on first
use (PEP 562); so a command pays only for the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: {public name: owning module}
_OWNERS = {
    **dict.fromkeys((
        "TorusGrid", "SpectralField", "zeros", "cosine", "sine", "synthesize",
        "hilbert", "derivative", "pointwise_product", "sobolev_norm", "inner_product",
    ), "spectral"),
    **dict.fromkeys((
        "CauchyData", "FieldSeries", "Trajectory", "Lifting", "LiftingError",
        "quadratic_rhs", "quadratic_rhs_derivative", "second_derivative",
        "nonlinear_operator", "apply_linearized_operator", "stability_coefficient",
        "require_margin", "bump_window", "build_lifting", "lifting_forcing",
    ), "operators"),
    **dict.fromkeys((
        "SimConfig", "CflError", "solve_nonlinear", "solve_linearized",
        "measure_mode_growth", "field_evaluator",
    ), "solver"),
    **dict.fromkeys((
        "WeightedNormSpec", "EstimateReport", "random_trig_field", "weighted_l2_norm",
        "xm_norm", "ym_norm", "verify_energy_estimate", "verify_energy_estimates",
        "verify_tame_estimate", "verify_tame_estimates", "verify_phitt_estimate",
        "verify_second_derivative_estimate", "verify_hilbert_identities",
        "verify_forcing_bound", "estimate_commutator_constant",
        "estimate_commutator_constants", "kernel_commutator",
    ), "analysis"),
    **dict.fromkeys((
        "IterationConfig", "IterationReport", "smooth_cutoff", "iterate", "iterate_auto",
    ), "nash_moser"),
}

__all__ = sorted(_OWNERS)


def __getattr__(name):
    """The public `name` as its owning module binds it now."""
    try:
        owner = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{owner}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
