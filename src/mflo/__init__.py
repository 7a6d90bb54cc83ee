"""Molecular-orbital fitting on qubit grids with discrete Lorentzian bases.

The pipeline: sample a contracted-Gaussian molecular orbital on a uniform
grid of 2^n_qe points per direction, fit it with a product basis of
discrete Lorentzian functions by maximizing the metric-weighted overlap,
optionally rewrite the fitted core tensor as a sum of rank-one terms, and
report the ancilla/CNOT cost and post-selection success probability of the
matching amplitude-encoding circuits.
"""

from .lorentzian import (
    AXES,
    LorentzianBasisSpec,
    boundary_mass,
    lf_profile,
    lf_profile_da,
    lf_state,
)
from .basis import (
    DEFAULT_MAX_QUBITS,
    ContractedGaussianAO,
    DegenerateInputError,
    MolecularOrbital,
    ResourceLimitError,
    SimulationCell,
    ao_self_overlap,
    build_ideal_state,
    gaussian_ao,
    mo_norm_factor,
    renormalized,
)
from .fitting import (
    ConditioningError,
    FitProblem,
    OptimizeDiagnostics,
    OptimizeOptions,
    TuckerState,
    box_centers,
    optimize_widths,
    penalty,
)
from .cpd import (
    CanonicalState,
    CpdOptions,
    canonical_statevector,
    decompose_cores,
)
from .encoding import (
    CircuitCostReport,
    ancilla_counts,
    cnot_count_canonical,
    cnot_count_tucker,
    lcu_postselect_oracle,
    qft_cx_informational,
    rank_ancillae,
    success_prob_canonical,
    success_prob_tucker,
    tucker_success_from_core,
    two_center_analysis,
    two_center_csv_lines,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "CanonicalState",
    "CircuitCostReport",
    "ConditioningError",
    "ContractedGaussianAO",
    "CpdOptions",
    "DEFAULT_MAX_QUBITS",
    "DegenerateInputError",
    "FitProblem",
    "LorentzianBasisSpec",
    "MolecularOrbital",
    "OptimizeDiagnostics",
    "OptimizeOptions",
    "ResourceLimitError",
    "SimulationCell",
    "TuckerState",
    "ancilla_counts",
    "ao_self_overlap",
    "boundary_mass",
    "box_centers",
    "build_ideal_state",
    "canonical_statevector",
    "cnot_count_canonical",
    "cnot_count_tucker",
    "decompose_cores",
    "gaussian_ao",
    "lcu_postselect_oracle",
    "lf_profile",
    "lf_profile_da",
    "lf_state",
    "mo_norm_factor",
    "optimize_widths",
    "penalty",
    "qft_cx_informational",
    "rank_ancillae",
    "renormalized",
    "success_prob_canonical",
    "success_prob_tucker",
    "tucker_success_from_core",
    "two_center_analysis",
    "two_center_csv_lines",
    "__version__",
]
