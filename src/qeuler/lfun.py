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

from typing import NamedTuple

import numpy as np

from .characters import DirichletCharacter
from .errors import DomainError, PlanInfeasible, as_double, is_real
from .polynomials import series_table
from .qnum import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_TERMS,
    QContext,
    TruncationPlan,
    plan_cells,
    plan_truncation_weighted,
    q_number,
    weight_sup,
)


def power_weight_bounds(ctx: QContext, xs, s: complex) -> list[float]:
    """The bound weight_sup(ctx, x, -s) on |[m+x]_q^(-s)| over m >= 0 at each x
    of the sequence xs, refused at its first x that is not strictly positive
    or is past the double range (DomainError), whose [x]_q underflows to zero
    (PlanInfeasible: the kernel takes log [m+x]_q), or whose bound overflows,
    checked in that order x by x.  One array power forms [x]_q at the x's
    before the first x refused as a DomainError."""
    positive = []
    for x in xs:
        if not (is_real(x) and x > 0.0):
            break
        try:
            float(x)
        except OverflowError:
            break
        positive.append(x)
    brackets = (q_number(np.array(positive, dtype=float), ctx).tolist() if s.real > 0
                else [None] * len(positive))
    bounds = []
    for x, bracket in zip(positive, brackets):
        if q_number(x, ctx) <= 0.0:  # the scalar power: some x give zero here, not in the array
            raise PlanInfeasible(f"[x]_q underflows to zero at x={float(x)!r} (q={ctx.q!r})")
        bounds.append(weight_sup(ctx, x, -s, bracket))
    if len(positive) < len(xs):
        x = xs[len(positive)]
        if is_real(x) and x > 0.0:
            as_double(x, "x")  # past the double range: refused
        raise DomainError(f"x must be strictly positive, got {x}")
    return bounds


def power_weight_bound(ctx: QContext, x: float, s: complex) -> float:
    """power_weight_bounds at the one argument x: [x]_q^(-Re s) when Re s > 0
    and (1-q)^(Re s) otherwise."""
    return power_weight_bounds(ctx, [x], s)[0]


class LfunSpec(NamedTuple):
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
    bounds = power_weight_bounds(ctx, xs, s)
    plans = plan_cells(ctx, r, bounds, len(bounds), epsilon, max_terms)
    [values] = series_table(chi, r, ctx, xs, [_bracket_power(s)], [[plans[w][0] for w in bounds]])
    return values


# l(-n, x) as the cell n of a polynomials.degree_table: its weight bound and weigher
INTERPOLATION = (lambda ctx, x, n: power_weight_bound(ctx, x, complex(-n)),
                 lambda n: _bracket_power(complex(-n)))


def lfun_eval(spec: LfunSpec) -> complex:
    """Evaluate the truncated grouped series, one cell of series_table; the
    error is below plan.tail_bound."""
    [[value]] = series_table(spec.chi, spec.r, spec.ctx, [spec.x], [_bracket_power(spec.s)],
                             [[spec.plan.cutoff_M]])
    return value


def lfun_value(chi: DirichletCharacter, r: int, s: complex, x: float, ctx: QContext,
               epsilon: float = DEFAULT_EPSILON,
               max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """Convenience wrapper: plan and evaluate in one call."""
    return lfun_eval(LfunSpec.create(chi, r, s, x, ctx, epsilon, max_terms))


# perfbench/tracer.py binds this name; it leaves with ROADMAP item 8.
def verify_interpolation(inst):
    from .identities import check  # identities imports this module

    return check("EQ4", inst)
