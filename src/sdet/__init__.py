"""Structured-matrix determinant identities and their asymptotics."""

__version__ = "0.1.0"

from .scalars import Field, hp_complex, hp_real, rational
from .quadrature import AccuracyError
from .symbols import (
    ArgDoubled,
    Chi,
    CoeffSeq,
    FHDescriptor,
    FHProduct,
    FourierSymbol,
    JumpError,
    JumpT,
    MomentSymbol,
    SpeciesError,
    SymbolProduct,
    descriptor_from_json,
    double_argument,
    evaluate,
    fourier_coeff,
    halve_argument,
    moment,
    moment_from_json,
    moment_to_halfangle,
    moment_to_skew_symbol,
    multiply_by_chi,
    symbol_from_json,
    th_to_moment_symbol,
)
from .transforms import (
    BinomialD,
    ScalarSeq,
    a_to_b,
    a_to_c,
    build_D,
    c_to_b,
    congruence_check,
    recover_even_from_c,
)
from .matrices import (
    StructuredMatrix,
    StructureError,
    checkerboard_split,
    flip,
    hankel,
    hankel_moment,
    toeplitz,
    toeplitz_plus_hankel,
)
from .determinants import (
    DetResult,
    PrecisionError,
    det_auto,
    det_bareiss,
    det_lu,
    leading_minors,
    pfaffian,
)
from .identities import (
    IdentityKind,
    IdentityRecord,
    IdentityReport,
    pfaffian_link,
    reports_to_csv,
    verify,
    verify_all,
)
from .asymptotics import (
    AsymptoticsReport,
    BarnesConstants,
    FHPrediction,
    FitResult,
    barnes_constants,
    extrapolate_limit,
    fit_asymptote,
    g_half_series,
    glaisher_constant,
    predict_cor53,
    predict_conjecture_constants,
    predict_half_jump_ratio,
    predict_szego_fh,
    study,
    wh_factors,
)
from .cli import run as cli_run

__all__ = [name for name in dir() if not name.startswith("_")]
