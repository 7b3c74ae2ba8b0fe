"""Exact-arithmetic verification of alternating binomial power sums.

The package builds the power-sum linear system on arithmetic-progression
nodes, evaluates its determinants in closed form, and checks the resulting
identities with zero tolerance against independent oracles.
"""

from .boole_identity import (
    CaseResult,
    VerificationReport,
    boole_sum,
    boole_sums,
    closed_form_solution,
    cramer_gate,
    difference_rows,
    expected_value,
    forward_difference_at_zero,
    generalized_sum,
    generalized_sums,
    stirling2,
    stirling_case,
    stirling_grid,
    stirling_rows,
    verify_cramer,
    verify_generalized_boole,
)
from .rational_core import (
    binomial,
    factorial,
    format_rational,
    parse_rational,
    rat_pow,
    superfactorial,
)
from .vandermonde import (
    ArithmeticNodes,
    ExactMatrix,
    LinearSystem,
    SingularMatrixError,
    build_system,
    det_bareiss,
    det_cramer_numerator,
    det_vandermonde_closed,
    det_vandermonde_general,
    solve_exact,
)

__version__ = "0.1.0"

__all__ = [
    "parse_rational",
    "format_rational",
    "factorial",
    "binomial",
    "superfactorial",
    "rat_pow",
    "ArithmeticNodes",
    "ExactMatrix",
    "LinearSystem",
    "SingularMatrixError",
    "build_system",
    "det_vandermonde_general",
    "det_vandermonde_closed",
    "det_cramer_numerator",
    "det_bareiss",
    "solve_exact",
    "CaseResult",
    "VerificationReport",
    "closed_form_solution",
    "boole_sum",
    "boole_sums",
    "stirling2",
    "stirling_rows",
    "stirling_grid",
    "stirling_case",
    "forward_difference_at_zero",
    "difference_rows",
    "generalized_sum",
    "generalized_sums",
    "expected_value",
    "verify_generalized_boole",
    "verify_cramer",
    "cramer_gate",
    "__version__",
]
