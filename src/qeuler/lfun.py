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

from .characters import DirichletCharacter, conv_power
from .errors import DomainError
from .qnum import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_TERMS,
    QContext,
    TruncationPlan,
    alternating_weighted_sum,
    plan_truncation_weighted,
    q_bracket_two_pow,
    q_number,
)
from .report import IdentityReport

DEFAULT_INTERPOLATION_TOL = 1e-8


def power_weight_bound(ctx: QContext, x: float, s: complex) -> float:
    """Uniform bound on |[m+x]_q^(-s)| over m >= 0 for x > 0.

    With L = ln [m+x]_q confined to [ln [x]_q, ln (1/(1-q))],

        |[m+x]_q^(-s)| = exp(-Re(s) L) <= exp(|Re s| max|L| + |Im s| pi).
    """
    if x <= 0.0:
        raise DomainError(f"x must be strictly positive, got {x}")
    log_low = math.log(q_number(x, ctx))
    log_high = math.log(1.0 / (1.0 - ctx.q))
    log_mag = max(abs(log_low), abs(log_high))
    return math.exp(abs(s.real) * log_mag + abs(s.imag) * math.pi)


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
    def create(
        cls,
        chi: DirichletCharacter,
        r: int,
        s: complex,
        x: float,
        ctx: QContext,
        epsilon: float = DEFAULT_EPSILON,
        max_terms: int = DEFAULT_MAX_TERMS,
    ) -> LfunSpec:
        if r < 1:
            raise DomainError(f"order r must be a positive integer, got {r}")
        if x <= 0.0:
            raise DomainError(f"x must be strictly positive, got {x}")
        s = complex(s)
        weight = power_weight_bound(ctx, x, s)
        plan = plan_truncation_weighted(ctx, r, weight, epsilon, max_terms)
        return cls(chi, r, s, float(x), ctx, plan)


def lfun_eval(spec: LfunSpec) -> complex:
    """Evaluate the truncated grouped series; error is below plan.tail_bound."""
    M = spec.plan.cutoff_M
    if M == 0:
        return 0j
    coeffs = conv_power(spec.chi, spec.r, M)
    log_brackets = np.log(q_number(np.arange(M) + spec.x, spec.ctx))
    weights = np.exp(-spec.s * log_brackets)
    series = alternating_weighted_sum(coeffs, weights, spec.ctx)
    return q_bracket_two_pow(spec.r, spec.ctx) * series


def lfun_value(
    chi: DirichletCharacter,
    r: int,
    s: complex,
    x: float,
    ctx: QContext,
    epsilon: float = DEFAULT_EPSILON,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> complex:
    """Convenience wrapper: plan and evaluate in one call."""
    return lfun_eval(LfunSpec.create(chi, r, s, x, ctx, epsilon, max_terms))


def verify_interpolation(
    chi: DirichletCharacter,
    r: int,
    n: int,
    x: float,
    ctx: QContext,
    epsilon: float = DEFAULT_INTERPOLATION_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> IdentityReport:
    """Check l_r(-n, x | chi) against E_n(x); passes when the gap is at most
    epsilon * max(|l|, |E|, 1).  Both sides use series budgets well below
    epsilon.  This is identity EQ4 of the identity table at one instance."""
    from .identities import SymmetryInstance, check  # identities imports this module

    inst = SymmetryInstance(chi=chi, r=r, ctx=ctx, n=n, x=x)
    return check("EQ4", inst, min(DEFAULT_EPSILON, epsilon / 10.0), max_terms, epsilon)
