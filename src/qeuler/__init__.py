"""Generalized higher-order q-Euler polynomials attached to Dirichlet
characters, the multiple q-l-function interpolating them, alternating
character power sums, and machine verification of the symmetry identities
relating all three on finite parameter grids with certified truncation error.

A public name imports its home module on first use (PEP 562): building a
character group loads characters and errors, not the identity harness.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("CharacterGroup", "DirichletCharacter", "bounded_composition_sums",
                     "build_character_group", "conv_power"), "characters"),
    **dict.fromkeys(("BudgetExceeded", "DomainError", "NegativeArgument", "NotOdd", "Overflow",
                     "ParityViolation", "PlanInfeasible", "QEulerError", "UsageError"),
                    "errors"),
    **dict.fromkeys(("IDENTITY_IDS", "SweepGrid", "SymmetryInstance", "check", "power_sum",
                     "run_suite"), "identities"),
    **dict.fromkeys(("LfunSpec", "lfun_eval", "lfun_value", "lfun_values",
                     "power_weight_bound"), "lfun"),
    **dict.fromkeys(("QEulerSpec", "qeuler_addition", "qeuler_poly", "qeuler_poly_naive",
                     "qeuler_table", "qeuler_value"), "polynomials"),
    **dict.fromkeys(("DEFAULT_EPSILON", "DEFAULT_MAX_TERMS", "QContext", "TruncationPlan",
                     "plan_truncation", "plan_truncation_weighted", "q_bracket_two_pow",
                     "q_number"), "qnum"),
    **dict.fromkeys(("IdentityReport", "suite_passed"), "report"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the home module of a public name on first use and keep the value."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOMES.keys())
