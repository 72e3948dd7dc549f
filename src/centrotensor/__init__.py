"""Centrosymmetric, skew-centrosymmetric and Cauchy tensor toolkit."""

from .core import (
    ConsistencyError,
    DenseTensor,
    DomainError,
    ResourceLimitError,
    add,
    apply,
    entry_scale,
    flip_vector,
    hadamard,
    poly_eval,
    reverse_tensor,
    row_sums,
    scale,
    sub,
)
from .structure import (
    BOTH,
    CENTRO,
    NEITHER,
    SKEW,
    Decomposition,
    StructureReport,
    check_commutation,
    check_structure,
    check_via_J,
    decompose,
    default_tolerance,
    palindromize,
    random_structured,
    verify_poly_reflection,
    verify_row_sum_symmetry,
)
from .product import exchange_matrix, product_parity, shao_product
from .cauchy import (
    CauchySpec,
    CauchySpecError,
    cauchy_check_JC,
    cauchy_is_centro,
    cauchy_is_skew,
    materialize,
)
from .inverse import (
    InverseResult,
    NoInverse,
    NoInverseError,
    diagonal_left_inverse,
    diagonal_right_inverse,
    recover_order2_left_inverse,
    recover_order2_right_inverse,
    verify_inverse,
)
from .eigen import (
    ABS_SYMMETRIC,
    NEITHER_CLASS,
    SKEW_SYMMETRIC,
    SYMMETRIC,
    EigenPair,
    EigenSet,
    SolverStats,
    classify_vector,
    closed_form_dim2,
    closed_form_dim3_even,
    normalize_eigenvector,
    reflect_pair,
    residual,
    solve_eigen,
)
from .suite import CHECK_NAMES, CheckResult, SuiteReport, verify_all

__version__ = "0.1.0"
