"""palinfrac: palindromic structure of periodic continued fractions, exactly.

The package models functions whose continued-fraction coefficient pairs
(a_n, b_n) are eventually periodic, decides by exact rational polynomial
arithmetic whether the period is doubly palindromic at a given first length
(equivalently, whether the function and the second root of its quadratic
relation satisfy the corresponding Moebius identity), and provides a numeric
layer for evaluating these functions and recovering coefficients from
their quadratic relations.
"""

from .errors import (
    BranchAmbiguity,
    DegenerateRelation,
    DivisionByZero,
    IndexOutOfRange,
    InsufficientOrder,
    NotAnMFunction,
    NotNormalized,
    PalinfracError,
    ParseError,
)
from .exactalg import (
    Mat2,
    Poly,
    mobius_apply,
    poly_gcd,
)
from .jacobi import (
    JacobiPair,
    JacobiSequence,
    double_period,
    find_palindrome_splits,
    load_sequence,
    normalize_kp,
    pair,
    sequence,
)
from .mfun import (
    RecoveredPair,
    ReverseObstructionReport,
    eval_m,
    eval_periodic_m,
    eval_truncated,
    fold_preperiodic,
    laurent_of_quadratic,
    recover_coefficients,
    reverse_asymptotics,
)
from .quadratic import (
    Prepared,
    QuadraticRelation,
    VerificationReport,
    periodic_quadratic,
    prepare,
    pullback_quadratic,
    second_solution_value,
    verify_main_identity,
    verify_splits,
)

__version__ = "0.1.0"

__all__ = [
    "BranchAmbiguity",
    "DegenerateRelation",
    "DivisionByZero",
    "IndexOutOfRange",
    "InsufficientOrder",
    "JacobiPair",
    "JacobiSequence",
    "Mat2",
    "NotAnMFunction",
    "NotNormalized",
    "PalinfracError",
    "ParseError",
    "Poly",
    "Prepared",
    "QuadraticRelation",
    "RecoveredPair",
    "ReverseObstructionReport",
    "VerificationReport",
    "double_period",
    "eval_m",
    "eval_periodic_m",
    "eval_truncated",
    "find_palindrome_splits",
    "fold_preperiodic",
    "laurent_of_quadratic",
    "load_sequence",
    "mobius_apply",
    "normalize_kp",
    "pair",
    "periodic_quadratic",
    "poly_gcd",
    "prepare",
    "pullback_quadratic",
    "recover_coefficients",
    "reverse_asymptotics",
    "second_solution_value",
    "sequence",
    "verify_main_identity",
    "verify_splits",
]
