"""Generalized higher-order q-Euler polynomials attached to a Dirichlet character.

The degree-n polynomial of order r at argument x is the value of the
alternating character-weighted series

    E_n(x) = [2]_q^r  sum_{m_1,...,m_r >= 0} (-q)^(m_1+...+m_r)
             chi(m_1)...chi(m_r) [m_1+...+m_r+x]_q^n.

Two independent evaluation routes are provided on purpose.  The fast route
groups tuples by their total m and uses the composition sums c_m, turning the
r-fold series into a single alternating sum.  The naive route enumerates
every index tuple below a cutoff and serves as the oracle for the fast one;
the two never share the grouping step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .characters import DirichletCharacter, conv_power
from .errors import BudgetExceeded, DomainError
from .qnum import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_TERMS,
    QContext,
    TruncationPlan,
    alternating_weighted_sum,
    plan_truncation,
    q_bracket_two_pow,
    q_number,
)

TUPLE_BUDGET = 10 ** 8


@dataclass(frozen=True)
class QEulerSpec:
    """One polynomial evaluation: character, order, degree, argument, context,
    and the truncation plan certified for exactly these parameters."""

    chi: DirichletCharacter
    r: int
    n: int
    x: float
    ctx: QContext
    plan: TruncationPlan

    @classmethod
    def create(
        cls,
        chi: DirichletCharacter,
        r: int,
        n: int,
        x: float,
        ctx: QContext,
        epsilon: float = DEFAULT_EPSILON,
        max_terms: int = DEFAULT_MAX_TERMS,
    ) -> QEulerSpec:
        """Validate parameters and build the matching truncation plan."""
        if r < 1:
            raise DomainError(f"order r must be a positive integer, got {r}")
        if n < 0:
            raise DomainError(f"degree n must be nonnegative, got {n}")
        if x < 0.0:
            raise DomainError(f"argument x must be nonnegative, got {x}")
        plan = plan_truncation(ctx, x, n, r, epsilon, max_terms)
        return cls(chi, r, n, float(x), ctx, plan)


def qeuler_poly(spec: QEulerSpec) -> complex:
    """Evaluate by the composition-grouped series.

    Truncation error is bounded by spec.plan.tail_bound.  The result is real
    (zero imaginary part) whenever the character is real-valued.
    """
    M = spec.plan.cutoff_M
    if M == 0:
        return 0j
    coeffs = conv_power(spec.chi, spec.r, M)
    brackets = q_number(np.arange(M) + spec.x, spec.ctx)
    series = alternating_weighted_sum(coeffs, brackets ** spec.n, spec.ctx)
    return q_bracket_two_pow(spec.r, spec.ctx) * series


def char_tuple_sum(chiv: np.ndarray, weights: np.ndarray, r: int) -> complex:
    """sum over all r-tuples (j_1,...,j_r) in [0, len(chiv))^r of
    chiv[j_1]...chiv[j_r] * weights[j_1+...+j_r].

    Every tuple contributes individually; nothing is grouped by total.  The
    slowest index advances in a Python loop while the remaining r-1 indices
    are materialized as a dense grid, keeping memory at O(len(chiv)^(r-1)).
    """
    width = len(chiv)
    if width < 1:
        raise DomainError("tuple enumeration needs a nonempty value range")
    if r < 1:
        raise DomainError(f"order r must be a positive integer, got {r}")
    if width ** r > TUPLE_BUDGET:
        raise BudgetExceeded(
            f"enumerating {width}^{r} index tuples exceeds the budget {TUPLE_BUDGET:g}"
        )
    if r == 1:
        return complex(np.sum(chiv * weights[:width]))

    rest_prod = np.ones((1,) * (r - 1), dtype=complex)
    rest_total = np.zeros((1,) * (r - 1), dtype=np.int64)
    for axis in range(r - 1):
        shape = [1] * (r - 1)
        shape[axis] = width
        rest_prod = rest_prod * chiv.reshape(shape)
        rest_total = rest_total + np.arange(width).reshape(shape)

    acc = 0j
    for j0 in range(width):
        acc += chiv[j0] * np.sum(rest_prod * weights[rest_total + j0])
    return acc


def qeuler_poly_naive(spec: QEulerSpec, M: int) -> complex:
    """Literal r-fold sum over index tuples (m_1, ..., m_r) in [0, M)^r.

    Independent oracle for qeuler_poly: no composition grouping is performed,
    so agreement with the fast route validates the grouping step.  Note the
    index sets differ beyond the cutoff (tuples here may have totals up to
    r*(M-1)), so both routes agree only up to the certified tail bound at M.
    """
    if M < 1:
        raise DomainError(f"cutoff M must be positive, got {M}")
    q = spec.ctx.q
    totals = np.arange(spec.r * (M - 1) + 1)
    signs = 1.0 - 2.0 * (totals % 2)
    weights = signs * q ** totals * q_number(totals + spec.x, spec.ctx) ** spec.n
    chiv = spec.chi.periodic_values(M)
    return q_bracket_two_pow(spec.r, spec.ctx) * char_tuple_sum(chiv, weights, spec.r)


def qeuler_value(
    chi: DirichletCharacter,
    r: int,
    n: int,
    x: float,
    ctx: QContext,
    epsilon: float = DEFAULT_EPSILON,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> complex:
    """Convenience wrapper: plan and evaluate in one call."""
    return qeuler_poly(QEulerSpec.create(chi, r, n, x, ctx, epsilon, max_terms))


def qeuler_addition(
    chi: DirichletCharacter,
    r: int,
    n: int,
    ctx: QContext,
    x: float,
    y: float,
    epsilon: float = DEFAULT_EPSILON,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> complex:
    """Shift expansion sum_{i<=n} binom(n,i) q^(x i) E_i(y) [x]_q^(n-i).

    Equals E_n(x+y) up to the combined truncation error; with y = 0 it is the
    expansion of E_n(x) through the q-Euler numbers E_i(0).  At x = 0 only
    the i = n term survives (with 0^0 = 1), collapsing to E_n(y) exactly.
    """
    if x < 0.0 or y < 0.0:
        raise DomainError(f"arguments must be nonnegative, got x={x}, y={y}")
    return binomial_shift_sum(chi, r, ctx, n, 0, x, y, epsilon, max_terms)


def binomial_shift_sum(chi: DirichletCharacter, r: int, ctx: QContext, top: int, base: int,
                       shift: float, arg: float, epsilon: float = DEFAULT_EPSILON,
                       max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """sum_{k<=top} binom(top,k) q^(k shift) E_{base+k}(arg) [shift]_q^(top-k),
    the sum behind the shift expansion and the two-index symmetry."""
    bracket = q_number(shift, ctx)
    total = 0j
    for k in range(top + 1):
        term = qeuler_value(chi, r, base + k, arg, ctx, epsilon, max_terms)
        total += comb(top, k) * ctx.q ** (k * shift) * term * bracket ** (top - k)
    return total
