"""pinchlab: numerics for pinching degenerations of surfaces.

Subpackages cover the combinatorial fiber data (dualgraph), the warped chain
model and its densities (geometry), the Laplace spectrum and its collapsing
part (spectral), preferred potentials (potential), the height pairing and
its logarithmic slope (pairing), fiberwise translation dynamics (dynamics),
node integrals (nodeintegral), and the orchestration layer (configfile,
cli, acceptance).
"""

from .dualgraph import (
    Component,
    DualGraph,
    build_intersection_matrix,
    cycle_graph,
    kodaira_catalog,
    pairing_constant,
    pseudoinverse,
    random_reduced_graph,
    validate_zariski,
)
from .errors import ConvergenceError, StructureError, ValidationError
from .geometry import (
    DensityField,
    DensitySpec,
    FamilyConfig,
    WarpedChain,
    area_report,
    build_chain,
    cosine_bump_profile,
    density_from_callable,
    density_from_spec,
    neck_wave_profile,
    sine_bump_profile,
    step_density_spec,
)
from .pairing import (
    FitResult,
    PairingCurve,
    base_change_consistency,
    fit_log_asymptote,
    holder_probe,
    pairing_sweep,
    pairing_value,
    predicted_constant,
)
from .potential import (
    PreferredPotential,
    estimate_report,
    solve_direct,
    solve_spectral,
    split_low_high,
)
from .spectral import (
    EigenSystem,
    correlation_matrix,
    full_spectra,
    full_spectrum,
    graph_limit_eigs,
    model_functions,
    solve_modes,
    truncated_green_min,
)

__version__ = "0.1.0"
