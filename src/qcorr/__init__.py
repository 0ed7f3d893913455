"""Entropic measures of quantum correlations from local measurement disturbance."""

from .correlations import (
    CorrelationResult,
    OptimizerOptions,
    TriangleReport,
    entanglement_lower_bound,
    measure_correlations,
    qubit_oracle,
    triangle_analysis,
)
from .entropy import (
    EntropicIndices,
    Regime,
    max_entropy,
    unified_entropy,
    unified_entropy_spectrum,
)
from .families import (
    FamilySpec,
    build,
    isotropic_closed_form,
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
    DisturbanceReport,
    LocalMeasurement,
    ProjectiveBasis,
    apply_local,
    disturbance,
    disturbance_spectra,
    measured_spectrum,
    purity_ratio,
)

__version__ = "0.1.0"
