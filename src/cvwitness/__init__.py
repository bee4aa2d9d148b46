"""Entanglement criteria for Gaussian and photon-added/subtracted states."""

from .criteria import (
    BISEP_LARGE_C_BOUND,
    BISEP_THRESHOLD_C,
    Classification,
    GHZParams,
    SymmetricMultimodeParams,
    Verdict,
    WernerWolf2x2Params,
    biseparability_certificate,
    cauchy_schwarz_bound,
    ghz_full_sep,
    multimode_symmetric_full_sep,
    refined_ww_check,
    refined_ww_search,
    simon_criterion,
    squeezed_thermal,
    symmetric_two_mode,
    three_mode_biseparable,
    werner_wolf_2x2,
    ww_pair_exists,
)
from .errors import CVWitnessError, ValidationError
from .fock import (
    FockOperator,
    ProductStateVec,
    alternate_maximize,
    fock_elements,
    generating_coeffs,
    m0_eval,
    random_detect_operator,
    sweep_fig1,
)
from .kernelspec import KernelSpec, analytic_eigenvalue, nystrom_spectrum
from .nongaussian import (
    NGPASGSpec,
    fig2a_boundary,
    ngpasg_trace_finite,
    ngpasg_trace_limit,
    photon_added_criterion,
)
from .symplectic import (
    ComplexCM,
    CovarianceMatrix,
    ModePartition,
    StandardForm,
    gaussian_overlap,
    min_pt_symplectic_eigenvalue,
    partial_transpose,
    standard_form,
    symplectic_eigenvalues,
    symplectic_form,
    to_complex_cm,
    validate_cm,
)
from .witness import (
    PositivityMode,
    SixParamDetect,
    fixed_point_AB,
    lambda_product_vacuum,
    minimize_L,
    two_fold_kernel,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
