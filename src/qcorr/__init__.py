"""Entropic measures of quantum correlations from local measurement disturbance."""

from .correlations import (
    CorrelationResult,
    OptimizerOptions,
    TriangleReport,
    bilocal_decomposition_check,
    contractivity_probe,
    entanglement_lower_bound,
    measure_correlations,
    qubit_oracle,
    triangle_analysis,
)
from .entropy import (
    EntropicIndices,
    Regime,
    check_schur_concavity,
    max_entropy,
    relative_entropy,
    unified_entropy,
    unified_entropy_spectrum,
)
from .families import (
    FamilySpec,
    build,
    isotropic_closed_form,
    isotropic_specializations,
    maximally_entangled,
    pseudopure_closed_form,
    swap_operator,
    werner_printed_form,
    werner_spectrum_form,
)
from .linalg import (
    DensityOperator,
    SchmidtDecomposition,
    eig_hermitian,
    haar_unitary,
    hs_norm_sq,
    majorizes,
    make_density,
    partial_trace,
    permute_subsystems,
    random_density,
    random_pure,
    regroup,
    schmidt,
    spectrum,
    tensor,
)
from .measurement import (
    ConditionalDecomposition,
    DisturbanceReport,
    LocalMeasurement,
    ProjectiveBasis,
    apply_local,
    conditional_decomposition,
    dephase,
    disturbance,
    disturbance_spectra,
    measured_spectrum,
    purity_ratio,
)

__version__ = "0.1.0"
