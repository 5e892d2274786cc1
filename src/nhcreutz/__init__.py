"""Numerical toolkit for the non-Hermitian Creutz ladder.

Builds real-space and Bloch Hamiltonians with reciprocal and
non-reciprocal hoppings, evaluates analytic open- and periodic-boundary
spectra, classifies exceptional and diabolical degeneracies, applies the
imaginary gauge transformation, quantifies the skin effect, and evolves
wave packets under non-unitary dynamics.
"""

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EmptySpectrum,
    IllConditioned,
    ImbalancedParameters,
    MissingEigenvectors,
    NhcreutzError,
    OutOfRange,
    Overflow,
    SingularGauge,
    WrongClass,
    ZeroState,
)
from .model import (
    OBC,
    PBC,
    DerivedParams,
    ModelParams,
    build_bloch,
    build_nhssh,
    build_realspace,
    derive,
    nhssh_permutation,
    w_basis,
)
from .spectral import (
    COLLAPSED,
    COMPLEX,
    IMAGINARY,
    REAL,
    SpectralClass,
    SpectrumResult,
    classify,
    eig,
    enclosed_area,
    ladder_spectrum,
    obc_bulk_dispersion,
    obc_curve_distance,
    obc_eig_via_chains,
    obc_spectrum_via_chains,
    pbc_dispersion,
    spectral_density_M,
)
from .gauge import (
    CHAIN_ONE,
    CHAIN_TWO,
    DIPR_SIGN_OF_XI_INV,
    GaugeReport,
    SimilarityMatrix,
    gauge_report,
    hermitianize,
    igt_matrix,
)
from .degeneracy import (
    DegeneracyReport,
    classify_point,
    dp_spectrum_check,
    is_defective,
    jordan_structure,
    nilpotency_order,
)
from .localization import IprSplit, dipr, mean_dipr
from .dynamics import (
    WavepacketTrace,
    compacton_support,
    initial_state,
    mipr,
    propagate,
)
from .sweep import (
    GridRow,
    GridSpec,
    SpectrumOverlay,
    dipr_map,
    grid_axes,
    mipr_map,
    phase_diagram,
    spectrum_overlay,
)

__version__ = "0.1.0"

__all__ = [
    "OBC", "PBC", "ModelParams", "DerivedParams", "derive",
    "build_realspace", "build_bloch", "build_nhssh", "nhssh_permutation",
    "w_basis",
    "REAL", "IMAGINARY", "COMPLEX", "COLLAPSED",
    "SpectrumResult", "SpectralClass", "eig", "ladder_spectrum",
    "obc_bulk_dispersion", "obc_spectrum_via_chains", "obc_eig_via_chains",
    "obc_curve_distance", "pbc_dispersion",
    "enclosed_area", "spectral_density_M", "classify",
    "CHAIN_ONE", "CHAIN_TWO", "DIPR_SIGN_OF_XI_INV", "SimilarityMatrix",
    "GaugeReport", "igt_matrix", "hermitianize", "gauge_report",
    "DegeneracyReport", "classify_point", "jordan_structure",
    "is_defective", "nilpotency_order", "dp_spectrum_check",
    "IprSplit", "dipr", "mean_dipr",
    "WavepacketTrace", "initial_state", "mipr", "compacton_support",
    "propagate",
    "GridSpec", "GridRow", "SpectrumOverlay", "grid_axes",
    "phase_diagram", "dipr_map", "mipr_map", "spectrum_overlay",
    "NhcreutzError", "ImbalancedParameters", "SingularGauge",
    "DimensionMismatch", "ConvergenceFailure", "EmptySpectrum",
    "IllConditioned", "WrongClass", "ZeroState", "MissingEigenvectors",
    "OutOfRange", "Overflow",
]
