"""pinchlab: numerics for pinching degenerations of surfaces.

Subpackages cover the combinatorial fiber data (dualgraph), the warped chain
model and its densities (geometry), the Laplace spectrum and its collapsing
part (spectral), preferred potentials (potential), the height pairing and
its logarithmic slope (pairing), fiberwise translation dynamics (dynamics),
node integrals (nodeintegral), BLAS threads (blas), and the orchestration
layer (configfile, cli, acceptance).

The names in ``__all__`` are bound, and scipy is imported, on the first
access to any of them: a library caller pays scipy when it first reaches for
the API, never inside a solve.  ``import pinchlab.cli`` loads no scipy and
runs no module but ``errors`` and ``blas``; it registers the others lazily.
"""

import importlib

_API = {
    "dualgraph": "Component DualGraph build_intersection_matrix cycle_graph kodaira_catalog"
                 " pairing_constant pseudoinverse random_reduced_graph validate_zariski",
    "errors": "ConvergenceError StructureError ValidationError",
    "geometry": "DensityField DensitySpec FamilyConfig WarpedChain area_report build_chain"
                " cosine_bump_profile density_from_callable density_from_spec"
                " neck_wave_profile sine_bump_profile step_density_spec",
    "pairing": "FitResult PairingCurve base_change_consistency fit_log_asymptote"
               " holder_probe pairing_sweep pairing_value predicted_constant",
    "potential": "PreferredPotential estimate_report solve_direct solve_spectral split_low_high",
    "spectral": "EigenSystem correlation_matrix full_spectra full_spectrum graph_limit_eigs"
                " model_functions solve_modes truncated_green_min",
}
__all__ = [name for names in _API.values() for name in names.split()]
__version__ = "0.1.0"


def __getattr__(name):
    """Bind every name of ``__all__`` and load scipy, on the first access to one."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .spectral import load_scipy

    for module, names in _API.items():
        namespace = vars(importlib.import_module(f"{__name__}.{module}"))
        globals().update({attr: namespace[attr] for attr in names.split()})
    load_scipy()
    return globals()[name]
