"""Finite-volume engine for multi-species nonlinear drift-diffusion in
periodically perforated domains, with periodic-cell homogenization and
desk-scale verification harnesses."""

__version__ = "0.1.0"

from .cell_problem import (
    CorrectorField,
    EffectiveTensor,
    compute_effective_tensor,
    corrector_residual,
    solve_cell_problem,
)
from .diagnostics import DiagnosticsRecord, energy_value, psi_eval
from .errors import ConfigError, GeometryError, PorodriftError, SolverError, TimeStepError
from .geometry import (
    FacetCharges,
    InclusionShape,
    MaskedGrid,
    balance_outer_charges,
    build_cell_geometry,
    build_masked_grid,
    surface_charge_on_facets,
    validate_compatibility,
)
from .macro import (
    MacroSimulation,
    build_macro_source,
    reconstruct_corrector_potential,
    run_macro,
)
from .micro import MicroSimulation, ScalingSpec, SpeciesSpec, run_micro
from .transport import RunResult, SimState, h_p_eval, h_p_prime
from .verification import (
    ConvergenceReport,
    run_convergence_study,
    run_eta_sweep,
    run_mms_verification,
)
