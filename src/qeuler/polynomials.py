"""Generalized higher-order q-Euler polynomials attached to a Dirichlet character.

The degree-n polynomial of order r at argument x is the value of the
alternating character-weighted series

    E_n(x) = [2]_q^r  sum_{m_1,...,m_r >= 0} (-q)^(m_1+...+m_r)
             chi(m_1)...chi(m_r) [m_1+...+m_r+x]_q^n.

Two independent evaluation routes are provided on purpose.  The fast route
groups tuples by their total m and uses the composition sums c_m, turning the
r-fold series into a single alternating sum.  The naive route enumerates
every index tuple below a cutoff into a histogram of tuple totals and serves
as the oracle for the fast one; it never convolves, so the two routes never
share the grouping step.
"""

from __future__ import annotations

from math import comb, inf
from typing import NamedTuple

import numpy as np

from .characters import DirichletCharacter, conv_power
from .errors import POSITIVE, BudgetExceeded, DomainError, QEulerError, as_float, as_int
from .qnum import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_TERMS,
    QContext,
    TruncationPlan,
    alternating_weighted_sum,
    bracket_rows,
    degree_weight_bound,
    parse_budget,
    plan_cells,
    plan_truncation,
    q_bracket_two_pow,
    q_number,
)

TUPLE_BUDGET = 10 ** 8


class QEulerSpec(NamedTuple):
    """One polynomial evaluation: character, order, degree, argument, context,
    and the truncation plan certified for exactly these parameters."""

    chi: DirichletCharacter
    r: int
    n: int
    x: float
    ctx: QContext
    plan: TruncationPlan

    @classmethod
    def create(cls, chi: DirichletCharacter, r: int, n: int, x: float, ctx: QContext,
               epsilon: float = DEFAULT_EPSILON,
               max_terms: int = DEFAULT_MAX_TERMS) -> QEulerSpec:
        """Parse r, n and x, then build the truncation plan, which validates them."""
        r, n, x = as_int(r, "order r", rule=POSITIVE), as_int(n, "degree n"), as_float(x, "x")
        return cls(chi, r, n, x, ctx, plan_truncation(ctx, x, n, r, epsilon, max_terms))


def series_table(chi: DirichletCharacter, r: int, ctx: QContext, xs, weighers, columns):
    """The series kernel, one column per weigher: for each bracket weight
    weighers[j] (a map from rows of the bracket matrix [m + x]_q to their
    weights), in order, the list over the arguments xs[i] of

        [2]_q^r  sum_{m < columns[j][i]} (-q)^m c_m weighers[j]([m + xs[i]]_q),

    with c_m the order-r composition sums of chi and columns[j] the Python list
    of the column's cutoffs.  One conv_power at the largest cutoff serves every
    cell, since its prefixes are the shorter convolutions, and so does one
    bracket matrix of len(xs) x largest cutoff entries (plan_shared keeps it
    within SERIES_BUDGET).  The rows of a column that share a cutoff are
    weighed and summed in one kernel call over exactly that many terms, so
    each value equals the one a single-cell call gives, bit for bit, and no
    call holds more weights than the bracket matrix.
    """
    K = max(map(max, filter(None, columns)), default=0)
    coeffs = conv_power(chi, r, K) if K else np.zeros(0, dtype=complex)
    brackets = bracket_rows(ctx, xs, K)
    two = q_bracket_two_pow(r, ctx)
    for weigher, column in zip(weighers, columns):
        if len(ks := set(column)) == 1:  # every row, on a view of the brackets
            [k] = ks
            sums = alternating_weighted_sum(coeffs[:k], weigher(brackets[:, :k]), ctx)
        else:
            sums, cutoffs = np.empty(len(xs), dtype=complex), np.array(column)
            for k in ks:
                rows = np.flatnonzero(cutoffs == k)
                sums[rows] = alternating_weighted_sum(coeffs[:k], weigher(brackets[rows, :k]), ctx)
        yield [two * value for value in sums.tolist()]


def degree_weights(n: int):
    """The weigher of E_n for series_table: bracket rows to their n-th powers."""
    return lambda brackets: brackets ** n


def qeuler_table(chi: DirichletCharacter, r: int, xs, ns, ctx: QContext,
                 epsilon: float = DEFAULT_EPSILON,
                 max_terms: int = DEFAULT_MAX_TERMS) -> list[list[complex]]:
    """E_n(x) for every argument in xs (rows) and degree in ns (columns), each
    cell as qeuler_value gives it: the one-span degree_table of ns, once every
    (x, n) has its bound in that order; with no cell, every x, r, epsilon and
    max_terms are still checked."""
    r, (epsilon, max_terms) = as_int(r, "order r", rule=POSITIVE), parse_budget(epsilon, max_terms)
    xs, ns = [as_float(x, "x") for x in xs], [as_int(n, "degree n") for n in ns]
    if not [degree_weight_bound(ctx, x, n) for x in xs for n in ns]:
        for x in xs:  # no degree: each x is still checked
            degree_weight_bound(ctx, x, 0)
        plan_cells(ctx, r, [], 0, epsilon, max_terms)
        return [[] for _ in xs]
    [table] = degree_table(chi, r, ctx, xs, [ns], epsilon, max_terms)
    return [[table[n][i] for n in ns] for i in range(len(xs))]


def qeuler_poly(spec: QEulerSpec) -> complex:
    """Evaluate by the composition-grouped series: one cell of series_table.

    Truncation error is bounded by spec.plan.tail_bound.  The result is real
    (zero imaginary part) whenever the character is real-valued.
    """
    [[value]] = series_table(spec.chi, spec.r, spec.ctx, [spec.x], [degree_weights(spec.n)],
                             [[spec.plan.cutoff_M]])
    return value


def char_tuple_sum(chiv: np.ndarray, weights: np.ndarray, r: int) -> complex:
    """sum over all r-tuples (j_1,...,j_r) in [0, len(chiv))^r of
    chiv[j_1]...chiv[j_r] * weights[j_1+...+j_r].

    Every tuple is enumerated individually; none is grouped by convolution.
    The products and totals of the last r-1 indices are two flat arrays of
    len(chiv)^(r-1) entries, and one np.add.at per leading index (one in all
    when r == 1) adds its tuples' products into a histogram over the tuple
    totals, which is summed against the weights with np.sum, no BLAS call.
    """
    width = len(chiv)
    if width < 1:
        raise DomainError("tuple enumeration needs a nonempty value range")
    r = as_int(r, "order r", 1, POSITIVE)
    if width ** r > TUPLE_BUDGET:
        raise BudgetExceeded(
            f"enumerating {width}^{r} index tuples exceeds the budget {TUPLE_BUDGET:g}"
        )
    rest_prod = np.ones(1, dtype=complex)
    rest_total = np.zeros(1, dtype=np.int64)
    for _ in range(r - 1):
        rest_prod = np.multiply.outer(rest_prod, chiv).ravel()
        rest_total = np.add.outer(rest_total, np.arange(width)).ravel()
    hist = np.zeros(r * (width - 1) + 1, dtype=complex)
    # each call covers at least width tuples: one leading index, or all when r == 1
    for lead in np.arange(width).reshape(-1, -(-width // rest_prod.size)):
        np.add.at(hist, np.add.outer(lead, rest_total).ravel(),
                  np.multiply.outer(chiv[lead], rest_prod).ravel())
    return complex(np.sum(weights[:hist.size] * hist))


def qeuler_poly_naive(spec: QEulerSpec, M: int) -> complex:
    """Literal r-fold sum over index tuples (m_1, ..., m_r) in [0, M)^r.

    Independent oracle for qeuler_poly: no composition grouping is performed,
    so agreement with the fast route validates the grouping step.  Note the
    index sets differ beyond the cutoff (tuples here may have totals up to
    r*(M-1)), so both routes agree only up to the certified tail bound at M.
    """
    M = as_int(M, "cutoff M", 1)
    q = spec.ctx.q
    totals = np.arange(spec.r * (M - 1) + 1)
    signs = 1.0 - 2.0 * (totals % 2)
    weights = signs * q ** totals * q_number(totals + spec.x, spec.ctx) ** spec.n
    chiv = spec.chi.periodic_values(M)
    return q_bracket_two_pow(spec.r, spec.ctx) * char_tuple_sum(chiv, weights, spec.r)


def qeuler_value(chi: DirichletCharacter, r: int, n: int, x: float, ctx: QContext,
                 epsilon: float = DEFAULT_EPSILON,
                 max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """Convenience wrapper: plan and evaluate in one call."""
    return qeuler_poly(QEulerSpec.create(chi, r, n, x, ctx, epsilon, max_terms))


def qeuler_addition(chi: DirichletCharacter, r: int, n: int, ctx: QContext, x: float,
                    y: float, epsilon: float = DEFAULT_EPSILON,
                    max_terms: int = DEFAULT_MAX_TERMS) -> complex:
    """Shift expansion sum_{i<=n} binom(n,i) q^(x i) E_i(y) [x]_q^(n-i).

    Equals E_n(x+y) up to the combined truncation error; with y = 0 it is the
    expansion of E_n(x) through the q-Euler numbers E_i(0).  At x = 0 only
    the i = n term survives (with 0^0 = 1), collapsing to E_n(y) exactly.
    """
    x, y = as_float(x, "x"), as_float(y, "y")
    if not (x >= 0.0 and y >= 0.0):
        raise DomainError(f"arguments must be nonnegative, got x={x}, y={y}")
    if inf in (x, y):
        raise DomainError(f"arguments must be finite, got x={x}, y={y}")
    pairs = [(as_int(n, "degree n", 0), 0)]
    return next(shift_sums(chi, as_int(r, "order r", rule=POSITIVE), ctx, pairs, x, y,
                           *parse_budget(epsilon, max_terms)))


def degree_table(chi: DirichletCharacter, r: int, ctx: QContext, xs, spans,
                 epsilon: float = DEFAULT_EPSILON, max_terms: int = DEFAULT_MAX_TERMS,
                 bound=degree_weight_bound, weigher=degree_weights):
    """A dict from cells j to their columns over the arguments xs: E_j(x) by
    default, or the series of weigher(j) under the weight bound
    bound(ctx, xs[0], j), which must hold at every x and grow with j.  It is
    yielded once for each span, a nonempty sequence of degrees, in order,
    holding at least the span's cells.  Each span is checked in its order:
    the bound of every cell not met before, then one plan_cells of its widest
    cell, its largest degree, and of each cell not planned before, among its
    len(xs) len(span) cells.  The spans before the first refusal share one
    series_table, in which each cell keeps its own plan, so every value is
    bit for bit its single-cell value; the refusal is raised after them."""
    bounds, cutoffs, refusal = {}, {}, None
    try:
        for k, span in enumerate(spans):
            for j in span:
                if j not in bounds:
                    bounds[j] = bound(ctx, xs[0], j)
            high = max(span)  # the widest cell, and each cell not planned before
            plans = plan_cells(ctx, r, [bounds[j] for j in span if j == high or j not in cutoffs],
                               len(xs) * len(span), epsilon, max_terms)
            cutoffs |= {j: plans[bounds[j]][0] for j in span if j not in cutoffs}
    except QEulerError as exc:
        spans, refusal = spans[:k], exc
    if spans:
        table = dict(zip(cutoffs, series_table(chi, r, ctx, xs, [weigher(j) for j in cutoffs],
                                               [[c] * len(xs) for c in cutoffs.values()])))
        for _ in spans:
            yield table
    if refusal is not None:
        raise refusal


def ordered_sum(terms) -> complex:
    """The sum of terms, Python scalars, added one at a time in their order
    from 0j: a side sums its terms so, since a numpy reduction may round
    differently.  An overflow gives a value that is not finite, refused by
    the side's reader."""
    total = 0j
    for term in terms:
        total += term
    return total


def shift_sums(chi: DirichletCharacter, r: int, ctx: QContext, pairs, shift: float, arg: float,
               epsilon: float = DEFAULT_EPSILON, max_terms: int = DEFAULT_MAX_TERMS):
    """sum_{k<=top} binom(top,k) q^(k shift) E_{base+k}(arg) [shift]_q^(top-k)
    for each (top, base) of pairs, yielded in order: the sums behind the shift
    expansion (base 0) and the two-index symmetry.  [shift]_q is formed
    first, then one degree_table of the spans base, ..., base + top serves
    every pair, and each sum is an ordered_sum over k, so every value is bit
    for bit its one-pair value."""
    bracket = q_number(shift, ctx)
    spans = [range(base, base + top + 1) for top, base in pairs]
    for (top, base), table in zip(pairs, degree_table(chi, r, ctx, [arg], spans, epsilon,
                                                      max_terms)):
        yield ordered_sum(comb(top, k) * ctx.q ** (k * shift) * table[base + k][0]
                          * bracket ** (top - k) for k in range(top + 1))
