"""q-arithmetic kernel: q-numbers, bracket powers, and certified series truncation.

Every infinite series evaluated in this package has the shape

    sum_{m >= 0} (-1)^m q^m c_m w(m),

with 0 < q < 1, coefficients bounded by |c_m| <= binom(m+r-1, r-1) (triangle
inequality over r-part compositions, character values of modulus at most one),
and a weight w(m) whose magnitude never exceeds a known constant W.  The
planner below converts a target absolute error into a cutoff M plus a
certified bound on the omitted tail of the dominating positive series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DomainError, PlanInfeasible

DEFAULT_EPSILON = 1e-10
DEFAULT_MAX_TERMS = 20000
SERIES_BUDGET = 10 ** 7


@dataclass(frozen=True)
class QContext:
    """Deformation parameter q strictly inside (0,1).

    q is kept real: principal powers q^x are then unambiguous for every real x
    and the bracket [m+x]_q stays positive for m + x > 0, so no branch choices
    arise anywhere downstream.
    """

    q: float

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie strictly inside (0,1), got {self.q}")

    def power(self, a: int) -> QContext:
        """Derived context with q replaced by q^a (a positive integer)."""
        if a < 1:
            raise DomainError(f"deformation exponent must be a positive integer, got {a}")
        return QContext(self.q ** a)


def q_number(x, ctx: QContext):
    """The q-number [x]_q = (1 - q^x) / (1 - q).

    Accepts a scalar or a numpy array; q^x is the principal real power.  For
    integer x >= 0 this equals the geometric sum 1 + q + ... + q^(x-1), and
    [x]_q recovers x in the limit q -> 1.
    """
    return (1.0 - ctx.q ** x) / (1.0 - ctx.q)


def q_bracket_two_pow(r: int, ctx: QContext) -> float:
    """[2]_q^r = (1 + q)^r, the prefactor of every order-r alternating series."""
    if r < 1:
        raise DomainError(f"order r must be a positive integer, got {r}")
    return (1.0 + ctx.q) ** r


@dataclass(frozen=True)
class TruncationPlan:
    """Cutoff certificate: summing indices m < cutoff_M leaves a tail of at
    most tail_bound, which is at most epsilon whenever planning succeeded."""

    epsilon: float
    cutoff_M: int
    tail_bound: float
    max_terms: int


def plan_truncation_weighted(ctx: QContext, r: int, weight_bound: float, epsilon: float,
                             max_terms: int = DEFAULT_MAX_TERMS) -> TruncationPlan:
    """Smallest cutoff M <= max_terms whose certified tail bound meets epsilon.

    The dominating series has terms t(m) = (1+q)^r binom(m+r-1, r-1) q^m W.
    Consecutive ratios t(m+1)/t(m) = q (m+r)/(m+1) decrease monotonically, so
    with rho = q (M+r)/(M+1) < 1 the omitted tail obeys

        sum_{m >= M} t(m) <= t(M) / (1 - rho).

    The scan walks M upward, updating t(M) incrementally, and returns the
    first cutoff whose bound is small enough.
    """
    if r < 1:
        raise DomainError(f"order r must be a positive integer, got {r}")
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not weight_bound >= 0.0:
        raise DomainError(f"weight bound must be nonnegative, got {weight_bound}")
    if max_terms < 0:
        raise DomainError(f"max_terms must be nonnegative, got {max_terms}")

    q = ctx.q
    term = (1.0 + q) ** r * weight_bound  # m = 0: binom(r-1, r-1) = 1
    for cutoff in range(max_terms + 1):
        rho = q * (cutoff + r) / (cutoff + 1.0)
        if rho < 1.0:
            bound = term / (1.0 - rho)
            if bound <= epsilon:
                return TruncationPlan(epsilon, cutoff, bound, max_terms)
        term *= rho
    raise PlanInfeasible(
        f"no cutoff within {max_terms} terms certifies error {epsilon:g} "
        f"(q={q:g}, r={r}, weight bound {weight_bound:g})"
    )


def plan_cutoffs(ctx: QContext, r: int, weight_bounds, epsilon: float,
                 max_terms: int = DEFAULT_MAX_TERMS) -> np.ndarray:
    """Cutoffs of many cells at once: entry i is the cutoff_M that
    plan_truncation_weighted(ctx, r, weight_bounds[i], epsilon, max_terms)
    returns, for an array of bounds of any shape.

    One scalar scan at the largest bound gives K, which no cell exceeds (a
    smaller weight scales every term of the scan down).  Each cell's terms
    t(0..K) are then one cumulative product over [(1+q)^r W, rho_0, ...,
    rho_{K-1}]: the same left-to-right products as its own scan, so every
    cell stops exactly where that scan would.  Raises BudgetExceeded when
    the cells times K exceed SERIES_BUDGET, before anything is allocated.
    """
    bounds = np.asarray(weight_bounds, dtype=float)
    if not bounds.min(initial=0.0) >= 0.0:
        raise DomainError(f"weight bounds must be nonnegative, got {bounds.min()}")
    top = plan_truncation_weighted(ctx, r, float(bounds.max(initial=0.0)), epsilon,
                                   max_terms).cutoff_M
    check_series_budget(bounds.size, top)
    k = np.arange(top + 1)
    rho = ctx.q * (k + r) / (k + 1.0)
    steps = np.empty(bounds.shape + (top + 1,))
    steps[..., 0] = (1.0 + ctx.q) ** r * bounds
    steps[..., 1:] = rho[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tails = np.cumprod(steps, axis=-1) / (1.0 - rho)
    return np.argmax((rho < 1.0) & (tails <= epsilon), axis=-1)


def check_series_budget(rows: int, cutoff: int) -> None:
    """Refuse a bracket matrix of rows x cutoff entries above SERIES_BUDGET."""
    if rows * cutoff > SERIES_BUDGET:
        raise BudgetExceeded(
            f"a {rows} x {cutoff} bracket matrix exceeds the budget {SERIES_BUDGET:g}"
        )


def degree_weight_bound(ctx: QContext, x: float, n: int) -> float:
    """Bound ((1 + q^x) / (1 - q))^n on [m+x]_q^n over m >= 0, for x >= 0,
    from the uniform bound sup_m [m+x]_q <= (1 + q^x) / (1 - q).  Raises
    PlanInfeasible when the bound overflows a double."""
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if n < 0:
        raise DomainError(f"degree n must be nonnegative, got {n}")
    bracket_sup = (1.0 + ctx.q ** x) / (1.0 - ctx.q)
    try:
        return bracket_sup ** n
    except OverflowError:
        raise PlanInfeasible(
            f"weight bound {bracket_sup:g}^{n} overflows (q={ctx.q:g}, x={x:g})"
        ) from None


def plan_truncation(ctx: QContext, x: float, n: int, r: int, epsilon: float,
                    max_terms: int = DEFAULT_MAX_TERMS) -> TruncationPlan:
    """Truncation plan for series weighted by [m+x]_q^n with x >= 0, at the
    weight bound degree_weight_bound(ctx, x, n)."""
    return plan_truncation_weighted(ctx, r, degree_weight_bound(ctx, x, n), epsilon, max_terms)


def alternating_weighted_sum(coeffs: np.ndarray, weights: np.ndarray, ctx: QContext):
    """sum_m (-1)^m q^m coeffs[m] weights[..., m] for each row of weights,
    over the common prefix of coeffs and the row."""
    M = min(len(coeffs), weights.shape[-1])
    m = np.arange(M)
    signs = 1.0 - 2.0 * (m % 2)
    return np.sum(coeffs[:M] * signs * ctx.q ** m * weights[..., :M], axis=-1)
