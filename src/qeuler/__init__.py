"""Generalized higher-order q-Euler polynomials attached to Dirichlet
characters, the multiple q-l-function interpolating them, alternating
character power sums, and machine verification of the symmetry identities
relating all three on finite parameter grids with certified truncation error.
"""

from .characters import (
    CharacterGroup, DirichletCharacter, bounded_composition_sums, build_character_group,
    conv_power,
)
from .errors import (
    BudgetExceeded, DomainError, NegativeArgument, NotOdd, Overflow, ParityViolation,
    PlanInfeasible, QEulerError, UsageError,
)
from .identities import IDENTITY_IDS, SweepGrid, SymmetryInstance, check, power_sum, run_suite
from .lfun import LfunSpec, lfun_eval, lfun_value, lfun_values, power_weight_bound
from .polynomials import (
    QEulerSpec, qeuler_addition, qeuler_poly, qeuler_poly_naive, qeuler_table, qeuler_value,
)
from .qnum import (
    DEFAULT_EPSILON, DEFAULT_MAX_TERMS, QContext, TruncationPlan, plan_truncation,
    plan_truncation_weighted, q_bracket_two_pow, q_number,
)
from .report import IdentityReport, suite_passed

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CharacterGroup", "DEFAULT_EPSILON", "DEFAULT_MAX_TERMS",
    "DirichletCharacter", "DomainError", "IDENTITY_IDS", "IdentityReport", "LfunSpec",
    "NegativeArgument", "NotOdd", "Overflow", "ParityViolation", "PlanInfeasible", "QContext",
    "QEulerError", "QEulerSpec", "SweepGrid", "SymmetryInstance", "TruncationPlan",
    "UsageError", "bounded_composition_sums", "build_character_group", "check", "conv_power",
    "lfun_eval", "lfun_value", "lfun_values", "plan_truncation", "plan_truncation_weighted",
    "power_sum", "power_weight_bound", "q_bracket_two_pow", "q_number", "qeuler_addition",
    "qeuler_poly", "qeuler_poly_naive", "qeuler_table", "qeuler_value", "run_suite",
    "suite_passed",
]
