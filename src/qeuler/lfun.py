"""Dirichlet-type multiple q-l-function and its interpolation property.

For complex s and real x > 0 the function is the alternating series

    l_r(s, x | chi) = [2]_q^r  sum_{m_1,...,m_r >= 0} (-q)^(m_1+...+m_r)
                      chi(m_1)...chi(m_r) / [m_1+...+m_r+x]_q^s,

grouped by the total into composition sums exactly like the polynomial
evaluator.  Because 0 < q < 1 and x > 0, the bracket [m+x]_q is pinned inside
[[x]_q, 1/(1-q)] and its real logarithm is bounded, so the geometric factor
q^m makes the series converge for every complex s; no analytic continuation
is involved.  At negative integers the function interpolates the q-Euler
polynomials: l_r(-n, x | chi) = E_n(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter
from .errors import DomainError, PlanInfeasible
from .polynomials import series_table
from .qnum import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_TERMS,
    QContext,
    TruncationPlan,
    plan_cutoffs,
    plan_truncation_weighted,
    q_number,
)
from .report import IdentityReport

DEFAULT_INTERPOLATION_TOL = 1e-8


def power_weight_bound(ctx: QContext, x: float, s: complex) -> float:
    """Uniform bound on |[m+x]_q^(-s)| over m >= 0 for x > 0.

    With L = ln [m+x]_q confined to [ln [x]_q, ln (1/(1-q))],

        |[m+x]_q^(-s)| = exp(-Re(s) L) <= exp(|Re s| max|L| + |Im s| pi).

    Raises PlanInfeasible when the bound is not a finite double: [x]_q
    underflows to zero, or the exponential overflows.
    """
    if x <= 0.0:
        raise DomainError(f"x must be strictly positive, got {x}")
    bracket = q_number(x, ctx)
    if bracket <= 0.0:
        raise PlanInfeasible(f"[x]_q underflows to zero at x={x:g} (q={ctx.q:g})")
    log_mag = max(abs(math.log(bracket)), abs(math.log(1.0 / (1.0 - ctx.q))))
    try:
        return math.exp(abs(s.real) * log_mag + abs(s.imag) * math.pi)
    except OverflowError:
        raise PlanInfeasible(
            f"weight bound overflows at s={s}, x={x:g} (q={ctx.q:g})"
        ) from None


@dataclass(frozen=True)
class LfunSpec:
    """One l-function evaluation with its certified truncation plan."""

    chi: DirichletCharacter
    r: int
    s: complex
    x: float
    ctx: QContext
    plan: TruncationPlan

    @classmethod
    def create(cls, chi: DirichletCharacter, r: int, s: complex, x: float, ctx: QContext,
               epsilon: float = DEFAULT_EPSILON,
               max_terms: int = DEFAULT_MAX_TERMS) -> LfunSpec:
        """Build the truncation plan, which validates r and x."""
        s = complex(s)
        weight = power_weight_bound(ctx, x, s)
        plan = plan_truncation_weighted(ctx, r, weight, epsilon, max_terms)
        return cls(chi, r, s, float(x), ctx, plan)


def _bracket_power(s: complex):
    return lambda brackets: np.exp(-s * np.log(brackets))


def lfun_values(chi: DirichletCharacter, r: int, s: complex, xs, ctx: QContext,
                epsilon: float = DEFAULT_EPSILON,
                max_terms: int = DEFAULT_MAX_TERMS) -> list[complex]:
    """l_r(s, x) for every x in xs, each truncated exactly where lfun_value
    would truncate it: one column of polynomials.series_table."""
    s = complex(s)
    cutoffs = plan_cutoffs(ctx, r, [[power_weight_bound(ctx, x, s)] for x in xs], epsilon,
                           max_terms)
    return [row[0] for row in series_table(chi, r, ctx, xs, [_bracket_power(s)], cutoffs)]


def lfun_eval(spec: LfunSpec) -> complex:
    """Evaluate the truncated grouped series, one cell of series_table; the
    error is below plan.tail_bound."""
    return series_table(spec.chi, spec.r, spec.ctx, [spec.x], [_bracket_power(spec.s)],
                        [spec.plan.cutoff_M])[0][0]


def lfun_value(chi: DirichletCharacter, r: int, s: complex, x: float, ctx: QContext,
               epsilon: float = DEFAULT_EPSILON,
               max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """Convenience wrapper: plan and evaluate in one call."""
    return lfun_eval(LfunSpec.create(chi, r, s, x, ctx, epsilon, max_terms))


def verify_interpolation(chi: DirichletCharacter, r: int, n: int, x: float, ctx: QContext,
                         epsilon: float = DEFAULT_INTERPOLATION_TOL,
                         max_terms: int = DEFAULT_MAX_TERMS) -> IdentityReport:
    """Check l_r(-n, x | chi) against E_n(x); passes when the gap is at most
    epsilon * max(|l|, |E|, 1).  Both sides use the series budget
    DEFAULT_EPSILON, as `qeuler verify --identity EQ4 --tolerance epsilon`
    does.  This is identity EQ4 of the identity table at one instance."""
    from .identities import SymmetryInstance, check  # identities imports this module

    inst = SymmetryInstance(chi=chi, r=r, ctx=ctx, n=n, x=x)
    return check("EQ4", inst, DEFAULT_EPSILON, max_terms, epsilon)
