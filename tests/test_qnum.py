import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import (
    DEFAULT_MAX_TERMS,
    BudgetExceeded,
    DomainError,
    PlanInfeasible,
    QContext,
    QEulerSpec,
    TruncationPlan,
    bounded_composition_sums,
    build_character_group,
    conv_power,
    lfun_value,
    lfun_values,
    plan_truncation,
    plan_truncation_weighted,
    power_weight_bound,
    q_bracket_two_pow,
    q_number,
    qeuler_poly,
    qeuler_table,
    qeuler_value,
)
from qeuler import lfun, polynomials, qnum
from qeuler.errors import is_real
from qeuler.qnum import SERIES_BUDGET, degree_weight_bound, plan_cells, plan_shared


def test_qcontext_rejects_bad_parameters():
    with pytest.raises(DomainError):
        QContext(1.0)
    with pytest.raises(DomainError):
        QContext(0.0)
    with pytest.raises(DomainError, match=re.escape("q must lie strictly inside (0,1), got 1.5")):
        QContext(1.5)


@pytest.mark.parametrize("q", ["0.5", 0.5j, None])
def test_a_q_that_is_not_a_real_number_is_a_domain_error(q):
    # comparing it with 0.0 raised a raw TypeError
    with pytest.raises(DomainError, match=re.escape(f"q must be a real number, got {q!r}")):
        QContext(q)


def test_the_real_number_rule():
    assert all(is_real(v) for v in (0, 0.5, True, math.nan, np.float32(1), np.int64(2),
                                    Fraction(1, 3)))
    assert not any(is_real(v) for v in (1j, np.complex128(1), "0.5", None))


@pytest.mark.parametrize("x", [math.nan, 1j, "1"])
def test_a_weight_bound_refuses_an_x_that_is_not_a_real_number_at_least_zero(x):
    with pytest.raises(DomainError, match=re.escape(f"x must be nonnegative, got {x}")):
        degree_weight_bound(QContext(0.5), x, 2)


@pytest.mark.parametrize("n, message", [(2.5, "must be an integer, got 2.5"),
                                        (2.0, "must be an integer, got 2.0"),
                                        (-1, "must be nonnegative, got -1")])
def test_a_weight_bound_refuses_a_degree_that_is_not_a_nonnegative_integer(n, message):
    with pytest.raises(DomainError, match=re.escape(f"degree n {message}")):
        degree_weight_bound(QContext(0.5), 0.5, n)
    assert degree_weight_bound(QContext(0.5), 0.5, np.int64(3)) == 8.0


def test_equal_contexts_are_one_plan_key_that_cannot_change():
    # plan_shared memoizes on QContext: contexts equal in q are one cache entry
    qnum.plan_shared.cache_clear()
    plan = qnum.plan_shared(QContext(0.37), 2, 1.0, 1, 1e-10, DEFAULT_MAX_TERMS)
    assert qnum.plan_shared(QContext(0.37), 2, 1.0, 1, 1e-10, DEFAULT_MAX_TERMS) is plan
    assert qnum.plan_shared.cache_info().currsize == 1
    assert QContext(0.37) == QContext(0.37) != QContext(0.38)
    assert hash(QContext(0.37)) == hash(QContext(0.37))
    ctx = QContext(0.37)
    with pytest.raises(AttributeError):
        ctx.q = 0.5
    assert ctx.q == 0.37


def test_a_context_keeps_a_fraction_as_a_float():
    # a cold plan took the Fraction into numpy's log1p, a raw TypeError
    chi = build_character_group(3)[1]
    qnum.plan_shared.cache_clear()
    exact = QContext(Fraction(1, 2))
    value = qeuler_value(chi, 1, 2, 0.5, exact)
    assert type(exact.q) is float and exact == QContext(0.5)
    qnum.plan_shared.cache_clear()
    assert value == qeuler_value(chi, 1, 2, 0.5, QContext(0.5))


def test_q_number_small_values():
    ctx = QContext(0.5)
    assert q_number(0, ctx) == 0.0
    assert q_number(1, ctx) == 1.0
    assert q_number(2, ctx) == 1.5


def test_q_bracket_two_pow():
    assert q_bracket_two_pow(1, QContext(0.5)) == 1.5
    assert q_bracket_two_pow(2, QContext(0.5)) == 2.25
    # direct multiplication oracle for (1 + 0.9)^3
    expected = 1.9 * 1.9 * 1.9
    assert q_bracket_two_pow(3, QContext(0.9)) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DomainError):
        q_bracket_two_pow(0, QContext(0.5))


@given(
    x=st.integers(min_value=0, max_value=60),
    q=st.floats(min_value=0.01, max_value=0.95),
)
def test_q_number_matches_geometric_sum(x, q):
    ctx = QContext(q)
    expected = sum(q ** k for k in range(x))
    assert abs(q_number(x, ctx) - expected) <= 1e-9


@given(
    x1=st.floats(min_value=0.0, max_value=20.0),
    gap=st.floats(min_value=1e-6, max_value=10.0),
    q=st.floats(min_value=0.05, max_value=0.95),
)
def test_q_number_monotone(x1, gap, q):
    ctx = QContext(q)
    low, high = q_number(x1, ctx), q_number(x1 + gap, ctx)
    assert low <= high
    # strict growth whenever the increment is representable in doubles
    if q ** x1 * (1.0 - q ** gap) / (1.0 - q) > 1e-13:
        assert low < high


def test_q_number_accepts_arrays():
    ctx = QContext(0.5)
    vals = q_number(np.arange(4), ctx)
    assert np.allclose(vals, [0.0, 1.0, 1.5, 1.75])


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("a", [1, 3, 5])
@pytest.mark.parametrize("b", [1, 3, 5])
def test_bracket_scaling_law(q, a, b):
    # [b*m]_q / [a]_q = ([b]_q / [a]_q) * [m]_{q^b}
    ctx = QContext(q)
    ctx_b = ctx.power(b)
    for m in range(11):
        lhs = q_number(b * m, ctx) / q_number(a, ctx)
        rhs = q_number(b, ctx) / q_number(a, ctx) * q_number(m, ctx_b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_power_context():
    ctx = QContext(0.5)
    assert ctx.power(3).q == 0.125
    with pytest.raises(DomainError):
        ctx.power(0)


_ORDER_R = "order r must be a positive integer"


@pytest.mark.parametrize("call,message", [
    (lambda r, chi, ctx: q_bracket_two_pow(r, ctx), _ORDER_R),
    (lambda r, chi, ctx: plan_truncation(ctx, 0.5, 2, r, 1e-10), _ORDER_R),
    (lambda r, chi, ctx: conv_power(chi, r, 5), _ORDER_R),
    (lambda r, chi, ctx: bounded_composition_sums(chi, r, 3), _ORDER_R),
    (lambda r, chi, ctx: polynomials.char_tuple_sum(chi.periodic_values(3), np.ones(9), r),
     _ORDER_R),
    (lambda r, chi, ctx: qeuler_value(chi, r, 2, 0.5, ctx), _ORDER_R),
    (lambda r, chi, ctx: lfun_value(chi, r, 1.5, 0.5, ctx), _ORDER_R),
    (lambda a, chi, ctx: ctx.power(a), "deformation exponent must be a positive integer"),
])
def test_the_positive_integer_rule_refuses_every_other_number(call, message):
    # 2.5 and 3.0 reached range() or bin() as a raw TypeError, or were used
    # as real exponents; an integer keeps its message, a numpy one its value
    chi, ctx = build_character_group(3)[1], QContext(0.5)
    for value in (2.5, 3.0, 0, -1):
        with pytest.raises(DomainError, match=f"^{message}, got {value}$"):
            call(value, chi, ctx)
    assert np.array_equal(np.asarray(call(np.int64(2), chi, ctx), dtype=object),
                          np.asarray(call(2, chi, ctx), dtype=object))


def _dominating_term(q, r, weight, m):
    return (1.0 + q) ** r * math.comb(m + r - 1, r - 1) * q ** m * weight


def _reference_scan(q, r, weight, epsilon, max_terms=DEFAULT_MAX_TERMS):
    """(cutoff, tail bound) of the planner, found independently: walk M upward,
    updating t(M) = (1+q)^r binom(M+r-1, r-1) q^M W by the ratio
    rho = q (M+r)/(M+1), and stop at the first M with rho < 1 and
    t(M) / (1 - rho) <= epsilon; None when no M <= max_terms qualifies."""
    term = (1.0 + q) ** r * weight
    for cutoff in range(max_terms + 1):
        rho = q * (cutoff + r) / (cutoff + 1.0)
        if rho < 1.0:
            bound = term / (1.0 - rho)
            if bound <= epsilon:
                return cutoff, bound
        term *= rho
    return None


def test_plan_bound_is_certified_and_minimal():
    ctx = QContext(0.5)
    plan = plan_truncation(ctx, x=0.0, n=0, r=1, epsilon=1e-12)
    assert plan.tail_bound <= 1e-12
    assert plan.cutoff_M <= DEFAULT_MAX_TERMS
    # independent recomputation of the ratio-test bound at the cutoff
    M = plan.cutoff_M
    rho = 0.5 * (M + 1) / (M + 1)
    bound = _dominating_term(0.5, 1, 1.0, M) / (1 - rho)
    assert bound == pytest.approx(plan.tail_bound, rel=1e-12)
    # minimality: one index earlier the same bound misses epsilon
    bound_prev = _dominating_term(0.5, 1, 1.0, M - 1) / (1 - rho)
    assert bound_prev > 1e-12
    # geometric tail at q=1/2 needs a cutoff in the low forties for 1e-12
    assert 38 <= M <= 48


def test_plan_loose_epsilon_allows_tiny_cutoff():
    ctx = QContext(0.5)
    plan = plan_truncation(ctx, x=0.0, n=0, r=1, epsilon=2.0)
    assert plan.cutoff_M <= 1
    assert plan.tail_bound <= 2.0


def test_plan_infeasible_near_one():
    ctx = QContext(0.999)
    with pytest.raises(PlanInfeasible):
        plan_truncation(ctx, x=0.0, n=0, r=1, epsilon=1e-12, max_terms=10 ** 4)


def test_plan_validation():
    ctx = QContext(0.5)
    with pytest.raises(DomainError):
        plan_truncation(ctx, x=-1.0, n=0, r=1, epsilon=1e-10)
    with pytest.raises(DomainError):
        plan_truncation(ctx, x=0.0, n=-1, r=1, epsilon=1e-10)
    with pytest.raises(DomainError):
        plan_truncation(ctx, x=0.0, n=0, r=0, epsilon=1e-10)
    with pytest.raises(DomainError):
        plan_truncation(ctx, x=0.0, n=0, r=1, epsilon=0.0)
    with pytest.raises(DomainError):
        plan_truncation_weighted(ctx, 1, -1.0, 1e-10)


@settings(deadline=None, max_examples=40)
@given(
    q=st.sampled_from([0.3, 0.5, 0.7]),
    d=st.sampled_from([1, 3]),
    r=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=0, max_value=4),
    x=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_plan_tail_bound_is_empirically_sound(q, d, r, n, x):
    # doubling the cutoff moves the truncated series by at most the bound
    ctx = QContext(q)
    chi = build_character_group(d)[d // 2]
    plan = plan_truncation(ctx, x, n, r, epsilon=1e-8)
    spec = QEulerSpec(chi, r, n, x, ctx, plan)
    wide = TruncationPlan(2 * max(plan.cutoff_M, 1), plan.tail_bound)
    spec_wide = QEulerSpec(chi, r, n, x, ctx, wide)
    assert abs(qeuler_poly(spec) - qeuler_poly(spec_wide)) <= plan.tail_bound


@settings(deadline=None, max_examples=60)
@given(
    q=st.floats(min_value=0.05, max_value=0.97),
    r=st.integers(min_value=1, max_value=4),
    xs=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=6),
    ns=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
    epsilon=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
def test_every_cell_keeps_its_own_cutoff(q, r, xs, ns, epsilon):
    ctx = QContext(q)
    bounds = [[degree_weight_bound(ctx, x, n) for n in ns] for x in xs]
    plans = plan_cells(ctx, r, [w for row in bounds for w in row], len(xs) * len(ns), epsilon,
                       DEFAULT_MAX_TERMS)
    assert set(plans) == {w for row in bounds for w in row}
    for i, x in enumerate(xs):
        for j, n in enumerate(ns):
            cutoff, bound = _reference_scan(q, r, bounds[i][j], epsilon)
            plan = plan_truncation(ctx, x, n, r, epsilon)
            assert plans[bounds[i][j]] == plan == (cutoff, plan.tail_bound)
            assert plan.tail_bound == pytest.approx(bound, rel=1e-12)


@settings(deadline=None, max_examples=150)
@given(
    q=st.floats(min_value=0.01, max_value=0.99),
    r=st.integers(min_value=1, max_value=8),
    weight=st.one_of(st.just(0.0), st.floats(min_value=1e-10, max_value=1e250)),
    epsilon=st.sampled_from([1e-3, 1e-6, 1e-10, 1e-13, 1e-30, 1e-300]),
    max_terms=st.sampled_from([0, 7, 100, DEFAULT_MAX_TERMS]),
)
# the fixed-point guess lands two terms past the cutoff: the walk goes down from it
@example(q=0.97, r=7, weight=3.1866355453248725e+33, epsilon=8.343799067647704e-109,
         max_terms=DEFAULT_MAX_TERMS)
def test_plan_matches_the_reference_scan(q, r, weight, epsilon, max_terms):
    ctx = QContext(q)
    expected = _reference_scan(q, r, weight, epsilon, max_terms)
    if expected is None:
        with pytest.raises(PlanInfeasible):
            plan_truncation_weighted(ctx, r, weight, epsilon, max_terms)
        return
    plan = plan_truncation_weighted(ctx, r, weight, epsilon, max_terms)
    assert plan.cutoff_M == expected[0]
    assert plan.tail_bound == pytest.approx(expected[1], rel=1e-12)
    assert plan.tail_bound <= epsilon


# pools of bounds drawn with repeats: duplicates, zeros and spreads of up to 600
# decades, or bounds within a factor of four of each other, as [x]_q^(-s) over x
_SPREAD_BOUNDS = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300)),
             min_size=1, max_size=6),
    st.floats(min_value=1e-5, max_value=1e20).flatmap(
        lambda w: st.lists(st.floats(min_value=w, max_value=4.0 * w), min_size=1, max_size=30)),
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(deadline=None, max_examples=80)
@given(
    q=st.floats(min_value=0.05, max_value=0.97),
    r=st.integers(min_value=1, max_value=4),
    bounds=_SPREAD_BOUNDS,
    epsilon=st.sampled_from([1e-6, 1e-10, 1e-13]),
)
@example(q=0.9, r=3, bounds=[0.0, 1e-300, 1e300, 1.0, 1.0], epsilon=1e-10)
# cutoffs from 27 to 7123: each is descended to from the one above it
@example(q=0.9, r=4, bounds=[10.0 ** k for k in range(-300, 301, 25)] + [0.0], epsilon=1e-13)
def test_plan_cells_of_spread_bounds_match_the_reference_scan(q, r, bounds, epsilon):
    ctx = QContext(q)
    expected = [_reference_scan(q, r, w, epsilon) for w in bounds]
    if None in expected:  # the widest cell refuses, and with it every cell
        with pytest.raises(PlanInfeasible) as cells:
            plan_cells(ctx, r, bounds, len(bounds), epsilon, DEFAULT_MAX_TERMS)
        with pytest.raises(PlanInfeasible) as widest:  # as the widest among as many cells
            qnum.plan_shared(ctx, r, max(bounds), len(bounds), epsilon, DEFAULT_MAX_TERMS)
        assert (type(widest.value), str(widest.value)) == (type(cells.value), str(cells.value))
        return
    plans = plan_cells(ctx, r, np.array(bounds), len(bounds), epsilon, DEFAULT_MAX_TERMS)
    assert set(plans) == set(bounds)
    assert [plans[w][0] for w in bounds] == [c for c, _ in expected]
    # each cell's plan is the one its own bound gets among as many cells, made
    # afresh, its tail bit for bit
    fresh = [qnum.plan_shared.__wrapped__(ctx, r, w, len(bounds), epsilon, DEFAULT_MAX_TERMS)
             for w in bounds]
    assert [(c, t.hex()) for c, t in map(plans.get, bounds)] == [(c, t.hex()) for c, t in fresh]
    assert [t for _, t in fresh] == pytest.approx([t for _, t in expected], rel=1e-12)


def test_plan_cells_memoizes_only_the_plan_that_checks_its_cells():
    # a plan per distinct bound filled the memo: 1000 x evicted every other plan
    qnum.plan_shared.cache_clear()
    ctx, s = QContext(0.9), 1.5
    bounds = [power_weight_bound(ctx, x, s) for x in np.linspace(0.01, 5.0, 1000)]
    plans = plan_cells(ctx, 2, bounds, 1000, 1e-10, DEFAULT_MAX_TERMS)
    assert qnum.plan_shared.cache_info().currsize == 1
    assert len(set(bounds)) == 1000 and len({plans[w][0] for w in bounds}) == 72
    assert [plans[w] for w in bounds] == [
        qnum.plan_shared.__wrapped__(ctx, 2, w, 1000, 1e-10, DEFAULT_MAX_TERMS) for w in bounds]


@pytest.mark.parametrize("bounds, refusal", [
    ([-1.0, 1e308 / 0.75], "got -1.0"),
    ([1.0, math.nan, 1e300], "got nan"),
    ([-2.0] + [1.0] * (SERIES_BUDGET // 2000), "got -2.0"),  # an array over budget
    ([-1.0, math.nan, 1e308 / 0.75], "got nan"),  # a nan before the least
])
def test_a_negative_bound_is_refused_before_the_widest_cell(bounds, refusal):
    ctx, valid = QContext(0.99), np.array([w for w in bounds if w >= 0.0])
    with pytest.raises((PlanInfeasible, BudgetExceeded)):  # the valid cells alone are refused
        plan_cells(ctx, 1, valid, valid.size, 1e-10, DEFAULT_MAX_TERMS)
    with pytest.raises(DomainError, match=f"weight bound must be nonnegative, {refusal}"):
        plan_cells(ctx, 1, bounds, len(bounds), 1e-10, DEFAULT_MAX_TERMS)


def test_a_one_cell_plan_evaluates_g_only_around_its_cutoff(monkeypatch):
    # from the first cutoff with rho_M < 1 out to this one lie 3696 cutoffs
    qnum.plan_shared.cache_clear()
    points = []

    def recorded(q, r, M):
        points.append(M)
        return log_bound(q, r, M)

    log_bound = qnum._log_bound
    monkeypatch.setattr(qnum, "_log_bound", recorded)
    ctx = QContext(0.97)
    plan = plan_truncation(ctx, 0.5, 20, 3, 1e-10)
    assert plan.cutoff_M == _reference_scan(0.97, 3, degree_weight_bound(ctx, 0.5, 20), 1e-10)[0]
    assert 0 < len(points) <= 8


def test_memoized_plans_keep_refusals_and_their_own_inputs():
    qnum.plan_shared.cache_clear()
    ctx, refusals = QContext(0.99), []
    # the same bound over other cells, or at another epsilon or term cap, is its own plan
    plans = {(cells, epsilon, max_terms): qnum.plan_shared(ctx, 1, 1.0, cells, epsilon, max_terms)
             for cells in (1, 2) for epsilon in (1e-10, 1e-6) for max_terms in (3000, 20000)}
    for (cells, epsilon, max_terms), plan in plans.items():
        assert plan[0] == _reference_scan(0.99, 1, 1.0, epsilon, max_terms)[0]
        # the memoized plan is the plan made afresh, and the array's plan of each cell
        assert plan == qnum.plan_shared.__wrapped__(ctx, 1, 1.0, cells, epsilon, max_terms)
        assert plan_cells(ctx, 1, np.ones(cells), cells, epsilon, max_terms) == {1.0: plan}
    cached = qnum.plan_shared.cache_info().currsize
    for _ in range(2):  # a refusal is not cached: the second call raises it again
        with pytest.raises(BudgetExceeded) as refused:
            qnum.plan_shared(ctx, 1, 1.0, SERIES_BUDGET // 2000, 1e-10, DEFAULT_MAX_TERMS)
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1]
    with pytest.raises(PlanInfeasible, match="no cutoff within 1000 terms"):
        plan_truncation_weighted(ctx, 1, 1.0, 1e-10, 1000)
    assert qnum.plan_shared.cache_info().currsize == cached == 8
    assert plan_truncation_weighted(ctx, 1, 1.0, 1e-10, 3000) == TruncationPlan(
        *plans[(1, 1e-10, 3000)])


@pytest.mark.parametrize("d", [1, 3, 15, 45])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_conv_power_prefixes_are_the_shorter_convolutions(d, r):
    for chi in build_character_group(d):
        longest = conv_power(chi, r, 600)
        cutoffs = {1, 2, 7, 8, 9, 63, 64, 65, 128, 129, 599, d - 1, d, d + 1, 2 * d} - {0}
        for k in sorted(cutoffs):
            assert longest[:k].tobytes() == conv_power(chi, r, k).tobytes()
            if d < 45 or k <= d:
                # values in {0, +-1, +-i} sum exactly in any order, and below
                # d both routes are the same fold
                assert (conv_power(chi, r, k).tobytes()
                        == bounded_composition_sums(chi, r, k)[:k].tobytes())
            else:
                # inexact roots: running sums per residue class, not one
                # convolution, so the last bits may differ
                direct = bounded_composition_sums(chi, r, k)[:k]
                assert np.all(np.abs(conv_power(chi, r, k) - direct)
                              <= 1e-12 * np.maximum(1.0, np.abs(direct)))


@pytest.mark.parametrize("q", [0.3, 0.7, 0.95])
def test_batched_values_equal_single_values_bit_for_bit(q):
    ctx = QContext(q)
    chi = build_character_group(15)[5]
    xs = [0.0, 0.25, 1.0, 2.5, 7.0]
    ns = [0, 1, 2, 5, 11]
    table = qeuler_table(chi, 2, xs, ns, ctx)
    assert table == [[qeuler_value(chi, 2, n, x, ctx) for n in ns] for x in xs]
    s = -1.5 + 0.5j
    assert lfun_values(chi, 2, s, xs[1:], ctx) == [lfun_value(chi, 2, s, x, ctx) for x in xs[1:]]


_KERNEL_GROUPS = {d: build_character_group(d) for d in (1, 3, 5, 15, 45)}
_degree = st.integers(min_value=0, max_value=14)


@settings(deadline=None, max_examples=80)
@example(d=1, label=0, r=1, q=0.999, xs=[0.5], ns=list(range(38)), epsilon=1e-10,
         max_terms=400_000)  # 38 cells of more than 263157 terms
@example(d=3, label=1, r=3, q=0.9, xs=[], ns=[2], epsilon=1e-10, max_terms=0)
@example(d=3, label=1, r=2, q=0.7, xs=[0.5, 0.5], ns=[], epsilon=1e-10, max_terms=0)
@given(
    d=st.sampled_from([1, 3, 15]),
    label=st.integers(min_value=0, max_value=7),
    r=st.integers(min_value=1, max_value=3),
    q=st.floats(min_value=0.1, max_value=0.95),
    xs=st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=3),
    ns=st.lists(st.one_of(_degree, _degree.map(np.int64)), max_size=5),
    epsilon=st.sampled_from([1e-6, 1e-10, 1e-13]),
    max_terms=st.sampled_from([0, 3, 20, 60, 300, DEFAULT_MAX_TERMS]),
)
def test_qeuler_table_is_its_cells_or_the_refusal_of_its_widest(d, label, r, q, xs, ns, epsilon,
                                                                 max_terms):
    # unsorted and repeated degrees, numpy degrees, empty rows and columns: the
    # table is refused as its widest cell among all of its cells, else each
    # cell is its one-cell value
    chi, ctx = _KERNEL_GROUPS[d][label % len(_KERNEL_GROUPS[d])], QContext(q)
    widest = max((degree_weight_bound(ctx, x, n) for x in xs for n in ns), default=0.0)
    try:
        plan_shared(ctx, r, widest, len(xs) * len(ns), epsilon, max_terms)
    except (PlanInfeasible, BudgetExceeded) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            qeuler_table(chi, r, xs, ns, ctx, epsilon, max_terms)
        return
    assert qeuler_table(chi, r, xs, ns, ctx, epsilon, max_terms) == [
        [qeuler_value(chi, r, n, x, ctx, epsilon, max_terms) for n in ns] for x in xs]


def test_qeuler_table_refuses_its_first_bad_cell_in_row_major_order():
    # (0.5, 5000) overflows its weight bound before the negative x is met
    chi, ctx = build_character_group(3)[1], QContext(0.5)
    with pytest.raises(PlanInfeasible, match="overflows"):
        qeuler_table(chi, 1, [0.5, -1.0], [2, 5000], ctx)
    with pytest.raises(DomainError, match="x must be nonnegative"):
        qeuler_table(chi, 1, [-1.0, 0.5], [2, 5000], ctx)


def test_qeuler_table_with_no_degree_still_checks_every_x():
    # with no cell, no x was checked: [[]] came back for a negative x
    chi, ctx = build_character_group(3)[1], QContext(0.5)
    with pytest.raises(DomainError, match=re.escape("x must be nonnegative, got -1.0")):
        qeuler_table(chi, 1, [0.5, -1.0], [], ctx)
    with pytest.raises(DomainError, match="max_terms must be nonnegative"):
        qeuler_table(chi, 1, [0.5], [], ctx, max_terms=-1)
    assert qeuler_table(chi, 1, [0.5, 2.0], [], ctx) == [[], []]


def _one_x_bound(ctx, x, s):
    """power_weight_bound as one x alone forms it: the scalar underflow check,
    then [x]_q from a one-entry array."""
    if not (is_real(x) and x > 0.0):
        raise DomainError(f"x must be strictly positive, got {x}")
    if q_number(x, ctx) <= 0.0:
        raise PlanInfeasible(f"[x]_q underflows to zero at x={float(x)!r} (q={ctx.q!r})")
    base = float(q_number(np.array([x]), ctx)[0]) if s.real > 0 else 1.0 / (1.0 - ctx.q)
    try:
        return max(base ** -s.real, sys.float_info.min)
    except OverflowError:
        raise PlanInfeasible(f"weight bound sup |[m+x]_q^w| overflows at w={-s} "
                             f"(q={ctx.q!r}, x={float(x)!r})") from None


def _refusal_or_bounds(bounds):
    try:
        return [w.hex() for w in bounds()]
    except (DomainError, PlanInfeasible) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(
    q=st.floats(min_value=0.05, max_value=0.99),
    s=st.complex_numbers(max_magnitude=60.0),
    xs=st.lists(st.one_of(st.floats(min_value=1e-19, max_value=1e-13),
                          st.floats(min_value=1e-5, max_value=30.0),
                          st.sampled_from([0.0, -1.0, math.nan, 3])), max_size=30),
)
# [x]_q is zero by the scalar power, 2.2e-16 by the array's, at 1e-17
@example(q=0.5, s=1.5 + 0j, xs=[1.0, 3e-17, 1e-17, -1.0])
@example(q=0.5, s=40 + 0j, xs=[1.0, 1e-15, -1.0])  # the bound overflows before the bad x
def test_the_bounds_of_many_x_are_each_x_bound_alone(q, s, xs):
    # one array forms [x]_q for every x: the bounds keep each x's bits, and the
    # first refusal is the first x's that refuses alone
    ctx = QContext(q)
    expected = _refusal_or_bounds(lambda: [_one_x_bound(ctx, x, s) for x in xs])
    assert _refusal_or_bounds(lambda: lfun.power_weight_bounds(ctx, xs, s)) == expected
    assert _refusal_or_bounds(lambda: [power_weight_bound(ctx, x, s) for x in xs]) == expected


def _three_factor_sum(coeffs, weights, q):
    """The kernel's sum over the float rows (-1)^m and q^m, in the order
    ((c_m (-1)^m) q^m) w_m."""
    M = min(len(coeffs), weights.shape[-1])
    signs = np.ones(M)
    signs[1::2] = -1.0
    return (((coeffs[:M] * signs) * q ** np.arange(M)) * weights[..., :M]).sum(axis=-1)


@settings(deadline=None, max_examples=120)
@given(
    d=st.sampled_from(sorted(_KERNEL_GROUPS)),
    label=st.integers(0, 23),
    r=st.integers(1, 4),
    M=st.integers(1, 3000),
    q=st.floats(min_value=0.05, max_value=0.97),
    x=st.floats(min_value=0.01, max_value=5.0),
    weight=st.integers(0, 25) | st.floats(-4.0, 4.0) | st.complex_numbers(max_magnitude=4.0),
    rows=st.integers(0, 3),
)
# real characters, whose imaginary sums are signed zeros
@example(d=1, label=0, r=2, M=2800, q=0.97, x=1.0, weight=10, rows=0)
@example(d=5, label=2, r=3, M=1, q=0.5, x=0.5, weight=3, rows=1)
@example(d=5, label=2, r=1, M=640, q=0.9, x=0.25, weight=1.5, rows=2)
@example(d=45, label=14, r=3, M=2900, q=0.97, x=0.5, weight=20, rows=3)
@example(d=45, label=14, r=2, M=900, q=0.95, x=0.25, weight=0.5 - 1j, rows=0)
def test_the_kernel_keeps_the_bits_of_its_three_factor_order(d, label, r, M, q, x, weight,
                                                              rows):
    # one stored complex row (-1)^m q^m in place of two float rows: a sign is
    # exact, so every sum keeps its bits, signed zeros included
    ctx, chi = QContext(q), _KERNEL_GROUPS[d][label % len(_KERNEL_GROUPS[d])]
    coeffs = conv_power(chi, r, M)
    brackets = q_number(np.arange(M) + (x + np.arange(max(rows, 1)))[:, None], ctx)
    if isinstance(weight, int):  # E_n
        weights = brackets ** weight
    else:  # l(s, x) at s = -weight
        weights = np.exp(complex(weight) * np.log(brackets))
    if rows == 0:  # one row, as a one-cell call passes it
        weights = weights[0]
    got = np.atleast_1d(qnum.alternating_weighted_sum(coeffs, weights, ctx))
    want = np.atleast_1d(_three_factor_sum(coeffs, weights, q))
    assert ([(v.real.hex(), v.imag.hex()) for v in got.tolist()]
            == [(v.real.hex(), v.imag.hex()) for v in want.tolist()])
    if not np.any(chi.values.imag) and isinstance(weight, (int, float)):
        assert not np.any(got.imag)


_STORE_GROUPS = {d: build_character_group(d) for d in (1, 3, 15, 45)}


@settings(deadline=None, max_examples=40)
@given(
    q=st.sampled_from([0.3, 0.7, 0.9, 0.97]) | st.floats(min_value=0.05, max_value=0.97),
    x=st.sampled_from([0.25, 0.5, 1.0]) | st.floats(min_value=0.01, max_value=3.0),
    other=st.sampled_from([(0.5, 0.0), (1.0, 0.25)]),  # q scaled, x shifted
    cells=st.lists(st.tuples(st.booleans(), st.sampled_from([1, 3, 15, 45]),
                             st.integers(0, 23), st.integers(1, 3),
                             st.integers(0, 20) | st.complex_numbers(max_magnitude=3.0)),
                   min_size=2, max_size=8),
    order=st.randoms(use_true_random=False),
)
def test_values_do_not_depend_on_what_the_prefix_store_holds(q, x, other, cells, order):
    # cells at one q and x share their bracket row and q^m, formed at the
    # longest cutoff any of them reached so far; the other cells differ from
    # them in q alone or in x alone, so they must not share them
    contexts = {False: (QContext(q), x),
                True: (QContext(q * other[0]), x + other[1])}

    def value(cell):
        shifted, d, label, r, arg = cell
        ctx, at = contexts[shifted]
        chi = _STORE_GROUPS[d][label % len(_STORE_GROUPS[d])]
        try:
            if isinstance(arg, int):
                v = qeuler_value(chi, r, arg, at, ctx)
            else:
                v = lfun_value(chi, r, arg, at, ctx)
        except (PlanInfeasible, BudgetExceeded) as exc:
            return str(exc)
        return v.real.hex(), v.imag.hex()

    qnum.prefixes.clear()
    in_order = [value(cell) for cell in cells]
    qnum.prefixes.clear()
    shuffled = list(range(len(cells)))
    order.shuffle(shuffled)
    reordered = {i: value(cells[i]) for i in shuffled}
    alone = []
    for cell in cells:
        qnum.prefixes.clear()
        alone.append(value(cell))
    assert in_order == [reordered[i] for i in range(len(cells))] == alone


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 80)), max_size=60))
def test_the_prefix_store_stays_within_its_bound(requests):
    # 512 bytes hold 64 doubles, so a request past 64 is formed and not kept
    store = qnum.PrefixStore(512)
    for key, length in requests:
        got = store.prefix(key, length, lambda size: np.arange(float(size)) + key)
        assert got.tolist() == (np.arange(float(length)) + key).tolist()
        held = [a.nbytes for a in store._arrays.values()]
        assert sum(held) == store._bytes <= 512
        if length > 64:
            assert key not in store._arrays or store._arrays[key].size < length


def test_the_prefix_store_evicts_its_oldest_and_hands_out_read_only_arrays():
    store, formed = qnum.PrefixStore(1000), []

    def form(size):
        formed.append(size)
        return np.arange(float(size))

    whole = store.prefix("a", 50, form)
    part = store.prefix("a", 20, form)  # a hit: a view, nothing formed
    assert formed == [50] and part.base is whole
    store.prefix("b", 60, form)  # 400 + 480 bytes
    store.prefix("a", 70, form)  # 560 replaces 400, and b, the oldest, goes
    assert formed == [50, 60, 70] and list(store._arrays) == ["a"]
    big = store.prefix("c", 200, form)  # 1600 bytes: formed, not kept
    assert big.size == 200 and list(store._arrays) == ["a"]
    for array in (whole, part, store.prefix("a", 10, form), big):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # the kernel's store after cells at several q: within its bound
    qnum.prefixes.clear()
    for q in (0.9, 0.95, 0.97, 0.98):
        qeuler_value(_STORE_GROUPS[45][7], 3, 20, 0.5, QContext(q))
    assert sum(a.nbytes for a in qnum.prefixes._arrays.values()) <= qnum.PREFIX_BYTES
    # its signs and powers are one read-only complex row (-1)^m q^m per q, 16 bytes a term
    rows = {key[1]: a for key, a in qnum.prefixes._arrays.items() if key[0] == "powers"}
    assert sorted(rows) == [0.9, 0.95, 0.97, 0.98]
    for q, row in rows.items():
        assert row.shape == (row.size,) and row.dtype == complex and row.nbytes == 16 * row.size
        assert not row.flags.writeable
        for k in (1, 2, 3, row.size // 2, row.size - 1, row.size):
            shorter = qnum.prefixes.prefix(("powers", q), k, None)  # a hit: nothing formed
            assert shorter.tobytes() == qnum._alternating_powers(q, k).tobytes()


def test_plan_cells_refuses_an_oversized_matrix():
    # about 2700 terms for each of 5000 cells: over budget, refused before allocation
    cells = SERIES_BUDGET // 2000
    with pytest.raises(BudgetExceeded):
        plan_cells(QContext(0.99), 1, np.ones(cells), cells, 1e-10, DEFAULT_MAX_TERMS)


def test_plan_cells_ignores_an_overflowing_tail():
    # the tail of the 1e307 cell overflows to +inf at some steps: never selected
    ctx = QContext(0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plans = plan_cells(ctx, 1, [1e307, 1.0], 2, 1e-10, DEFAULT_MAX_TERMS)
    expected = [_reference_scan(0.9, 1, w, 1e-10)[0] for w in (1e307, 1.0)]
    assert [plans[w][0] for w in (1e307, 1.0)] == expected
    assert all(tail <= 1e-10 for _, tail in plans.values())


@pytest.mark.parametrize("max_terms", [10 ** 7, 10 ** 8, 10 ** 12])
def test_plan_refuses_q_near_one_without_scanning(max_terms):
    # about 7e9 terms are needed: a scan of max_terms steps takes seconds to hours
    with pytest.raises(PlanInfeasible, match=r"q=0\.9999999,"):
        plan_truncation_weighted(QContext(0.9999999), 1, 1.0, 1e-300, max_terms)


def test_plan_refuses_a_dominating_term_past_the_double_range():
    # the running product of the scan overflows at t(0) = 2e308
    assert _reference_scan(0.5, 1, 1e308 / 0.75, 1e-10) is None
    with pytest.raises(PlanInfeasible, match="overflows a double"):
        plan_truncation_weighted(QContext(0.5), 1, 1e308 / 0.75, 1e-10)


def _no_g(*args):
    raise AssertionError("a refused plan evaluated g")


@pytest.mark.parametrize("plan,refusal,needle", [
    # about 7e9 terms are needed, past max_terms
    (lambda: plan_truncation_weighted(QContext(0.9999999), 1, 1.0, 1e-300, 10 ** 7),
     PlanInfeasible, "no cutoff within 10000000 terms"),
    # t(0) = 2e308
    (lambda: plan_truncation_weighted(QContext(0.5), 1, 1e308 / 0.75, 1e-10),
     PlanInfeasible, "overflows a double"),
    # about 2700 terms for each of 5000 cells
    (lambda: plan_cells(QContext(0.99), 1, np.ones(SERIES_BUDGET // 2000), SERIES_BUDGET // 2000,
                        1e-10, DEFAULT_MAX_TERMS),
     BudgetExceeded, "5000 cells of more than 2000 terms"),
    # t(first) = 1.01^r binom(M+r-1, r-1) 0.01^M: one g_M alone would take r-1 log1p calls
    (lambda: plan_truncation_weighted(QContext(0.01), 10 ** 7, 1.0, 1e-10, 10 ** 7),
     PlanInfeasible, "overflows a double"),
], ids=["past-max-terms", "past-the-double-range", "past-the-matrix-budget", "huge-r"])
def test_plan_refuses_without_evaluating_g(monkeypatch, plan, refusal, needle):
    qnum.plan_shared.cache_clear()  # a plan cached by an earlier test would evaluate no g
    monkeypatch.setattr(qnum, "_log_bound", _no_g)
    with pytest.raises(refusal, match=needle):
        plan()


def test_underflowing_deformation_is_infeasible():
    # 0.5^1075 is below the smallest subnormal double
    assert QContext(0.5).power(1074).q > 0.0
    with pytest.raises(PlanInfeasible, match=r"q\^a underflows to zero \(q=0\.5, a=1075\)"):
        QContext(0.5).power(1075)


def test_weight_bound_messages_name_the_given_q():
    ctx = QContext(0.9999999)
    with pytest.raises(PlanInfeasible, match=r"q=0\.9999999, x=0\.5\)"):
        degree_weight_bound(ctx, 0.5, 10 ** 5)
    with pytest.raises(PlanInfeasible, match=r"q=0\.9999999, x=0\.5\)"):
        power_weight_bound(ctx, 0.5, complex(1e5, 0.0))


def _loose_weight_bounds(q, x, n, s):
    """Logs of the looser bounds ((1+q^x)/(1-q))^n and exp(|Re s| max|ln [m+x]_q|
    + pi |Im s|): the exact supremum never exceeds them, so no cutoff grows.
    [x]_q is formed by the array power, as the bounds form it: at small x the
    scalar power rounds it apart, by 1e-12 in the log at s = 15."""
    bracket = float(q_number(np.array([x]), QContext(q))[0])
    log_sup = max(abs(math.log(bracket)), -math.log1p(-q))
    return (n * math.log((1.0 + q ** x) / (1.0 - q)),
            abs(s.real) * log_sup + math.pi * abs(s.imag))


@settings(deadline=None, max_examples=200)
@given(
    q=st.floats(min_value=0.05, max_value=0.99),
    x=st.floats(min_value=1e-3, max_value=30.0),
    n=st.integers(min_value=0, max_value=60),
    s=st.complex_numbers(max_magnitude=60.0),
)
# 1 - q^x cancels here: the scalar and the array power round [x]_q 1.5e-12 apart
@example(q=0.796875, x=0.001, n=0, s=3 + 0j)
@example(q=0.19663346536972165, x=0.001, n=0, s=15 + 0j)
def test_weight_bounds_are_the_supremum_of_the_kernel_weights(q, x, n, s):
    # the brackets [m+x]_q the kernel forms, out past the m where q^(m+x)
    # drops below the last bit of one and the bracket reaches 1/(1-q)
    ctx = QContext(q)
    brackets = q_number(np.append(np.arange(4000.0), 1e6) + x, ctx)
    loose_degree, loose_power = _loose_weight_bounds(q, x, n, s)
    for bound, weights, loose in (
        (degree_weight_bound(ctx, x, n), polynomials.degree_weights(n)(brackets), loose_degree),
        (power_weight_bound(ctx, x, s), np.abs(lfun._bracket_power(s)(brackets)), loose_power),
    ):
        peak = float(weights.max())
        # up to the kernel's own rounding of b^w, about |Re w ln b| ulps (<= 5e-14 here)
        assert peak <= bound * (1.0 + 1e-12)
        assert bound <= peak * (1.0 + 1e-12)
        assert math.log(bound) <= loose + 1e-12


def test_weight_bound_below_the_double_range_is_the_smallest_normal():
    # [100]_0.9^(-400) is about 1e-400: planned as a bound, never as zero
    assert power_weight_bound(QContext(0.9), 100.0, 400.0) == sys.float_info.min


def test_a_context_reads_as_its_q():
    assert repr(QContext(0.5)) == "QContext(q=0.5)"


def test_a_negative_max_terms_is_a_domain_error():
    chi = build_character_group(3)[1]
    with pytest.raises(DomainError, match=re.escape("max_terms must be nonnegative, got -1")):
        qeuler_value(chi, 1, 2, 0.5, QContext(0.5), max_terms=-1)
