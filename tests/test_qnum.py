import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
    BudgetExceeded,
    DomainError,
    PlanInfeasible,
    QContext,
    QEulerSpec,
    TruncationPlan,
    build_character_group,
    conv_power,
    lfun_value,
    lfun_values,
    plan_truncation,
    plan_truncation_weighted,
    q_bracket_two_pow,
    q_number,
    qeuler_poly,
    qeuler_table,
    qeuler_value,
)
from qeuler.qnum import SERIES_BUDGET, degree_weight_bound, plan_cutoffs


def test_qcontext_rejects_bad_parameters():
    with pytest.raises(DomainError):
        QContext(1.0)
    with pytest.raises(DomainError):
        QContext(0.0)
    with pytest.raises(DomainError):
        QContext(1.5)


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


def _dominating_term(q, r, weight, m):
    return (1.0 + q) ** r * math.comb(m + r - 1, r - 1) * q ** m * weight


def test_plan_bound_is_certified_and_minimal():
    ctx = QContext(0.5)
    plan = plan_truncation(ctx, x=0.0, n=0, r=1, epsilon=1e-12)
    assert plan.tail_bound <= plan.epsilon
    assert plan.cutoff_M <= plan.max_terms
    # independent recomputation of the ratio-test bound at the cutoff
    M = plan.cutoff_M
    rho = 0.5 * (M + 1) / (M + 1)
    bound = _dominating_term(0.5, 1, 1.0, M) / (1 - rho)
    assert bound == pytest.approx(plan.tail_bound, rel=1e-12)
    # minimality: one index earlier the same bound misses epsilon
    bound_prev = _dominating_term(0.5, 1, 1.0, M - 1) / (1 - rho)
    assert bound_prev > plan.epsilon
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
    wide = TruncationPlan(plan.epsilon, 2 * max(plan.cutoff_M, 1),
                          plan.tail_bound, plan.max_terms)
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
    cutoffs = plan_cutoffs(ctx, r, bounds, epsilon)
    assert cutoffs.shape == (len(xs), len(ns))
    for i, x in enumerate(xs):
        for j, n in enumerate(ns):
            assert cutoffs[i, j] == plan_truncation(ctx, x, n, r, epsilon).cutoff_M


@pytest.mark.parametrize("d", [1, 3, 15])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_conv_power_prefixes_are_the_shorter_convolutions(d, r):
    for chi in build_character_group(d):
        longest = conv_power(chi, r, 600)
        for k in (1, 2, 7, 8, 9, 63, 64, 65, 128, 129, 599):
            assert np.array_equal(longest[:k], conv_power(chi, r, k))


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


def test_plan_cutoffs_refuses_an_oversized_matrix():
    # about 2700 terms for each of 5000 cells: over budget, refused before allocation
    cells = SERIES_BUDGET // 2000
    with pytest.raises(BudgetExceeded):
        plan_cutoffs(QContext(0.99), 1, np.ones(cells), 1e-10)


def test_plan_cutoffs_ignores_an_overflowing_tail():
    # the tail of the 1e307 cell overflows to +inf at some steps: never selected
    ctx = QContext(0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cutoffs = plan_cutoffs(ctx, 1, [[1e307, 1.0]], 1e-10)
    expected = [plan_truncation_weighted(ctx, 1, w, 1e-10).cutoff_M for w in (1e307, 1.0)]
    assert cutoffs.tolist() == [expected]
