import cmath
import math
import re

import numpy as np
import pytest

from qeuler import (
    BudgetExceeded,
    DomainError,
    QContext,
    QEulerSpec,
    build_character_group,
    qeuler_addition,
    qeuler_poly,
    qeuler_poly_naive,
    qeuler_table,
    qeuler_value,
)
from qeuler.polynomials import char_tuple_sum


def closed_form_degree_zero(q):
    # [2]_q sum_m (-q)^m = (1+q)/(1+q) = 1
    return 1.0


def closed_form_degree_one(q):
    # [2]_q sum_m (-q)^m [m]_q = (1+q)/(1-q) * (1/(1+q) - 1/(1+q^2))
    return (1 + q) / (1 - q) * (1 / (1 + q) - 1 / (1 + q * q))


@pytest.fixture(scope="module")
def groups():
    return {d: build_character_group(d) for d in (1, 3, 5)}


def test_degree_zero_closed_form(groups):
    ctx = QContext(0.5)
    value = qeuler_value(groups[1][0], 1, 0, 0.0, ctx, epsilon=1e-12)
    assert value.imag == 0.0
    assert abs(value.real - closed_form_degree_zero(0.5)) <= 1e-11


def test_degree_one_closed_form(groups):
    ctx = QContext(0.5)
    value = qeuler_value(groups[1][0], 1, 1, 0.0, ctx, epsilon=1e-12)
    assert closed_form_degree_one(0.5) == pytest.approx(-0.4, abs=1e-15)
    assert abs(value.real - (-0.4)) <= 1e-11


def test_naive_matches_fast_at_order_one(groups):
    ctx = QContext(0.5)
    spec = QEulerSpec.create(groups[3][1], 1, 2, 0.5, ctx, epsilon=1e-12)
    fast = qeuler_poly(spec)
    naive = qeuler_poly_naive(spec, spec.plan.cutoff_M)
    # identical index set at order one, so only roundoff separates them
    assert abs(fast - naive) <= 1e-13


def test_naive_order_two_differentiated_geometric_series(groups):
    # (1+q)^2 sum_m (m+1)(-q)^m = (1+q)^2 / (1+q)^2 = 1
    ctx = QContext(0.5)
    spec = QEulerSpec.create(groups[1][0], 2, 0, 0.0, ctx, epsilon=1e-10)
    value = qeuler_poly_naive(spec, 60)
    assert abs(value - 1.0) <= 1e-9


@pytest.mark.parametrize("q", [0.3, 0.5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_oracle_equivalence_sample(groups, q, r):
    ctx = QContext(q)
    for d in (1, 3):
        for chi in groups[d]:
            for n in (0, 2, 4):
                for x in (0.0, 1.0):
                    spec = QEulerSpec.create(chi, r, n, x, ctx, epsilon=1e-12)
                    fast = qeuler_poly(spec)
                    naive = qeuler_poly_naive(spec, spec.plan.cutoff_M)
                    assert abs(fast - naive) <= 1e-10


def test_convergence_between_budgets(groups):
    ctx = QContext(0.7)
    for chi in groups[5]:
        coarse = qeuler_value(chi, 2, 3, 0.5, ctx, epsilon=1e-8)
        fine = qeuler_value(chi, 2, 3, 0.5, ctx, epsilon=1e-12)
        assert abs(coarse - fine) <= 1e-8 + 1e-12


def test_addition_formula_reduces_to_shift(groups):
    ctx = QContext(0.5)
    chi = groups[3][1]
    # x = 0 collapses to E_n(y) exactly
    direct = qeuler_value(chi, 1, 3, 0.25, ctx)
    via_addition = qeuler_addition(chi, 1, 3, ctx, 0.0, 0.25)
    assert via_addition == direct


def test_addition_formula_numeric(groups):
    ctx = QContext(0.5)
    chi = groups[3][1]
    lhs = qeuler_addition(chi, 1, 3, ctx, 0.5, 0.25, epsilon=1e-10)
    rhs = qeuler_value(chi, 1, 3, 0.75, ctx, epsilon=1e-10)
    assert abs(lhs - rhs) <= 1e-8


def test_expansion_through_euler_numbers(groups):
    # y = 0: E_n(x) = sum_l binom(n,l) q^(lx) E_l(0) [x]_q^(n-l)
    ctx = QContext(0.5)
    for chi in groups[3]:
        lhs = qeuler_addition(chi, 2, 4, ctx, 1.0, 0.0, epsilon=1e-10)
        rhs = qeuler_value(chi, 2, 4, 1.0, ctx, epsilon=1e-10)
        assert abs(lhs - rhs) <= 1e-8


def test_real_character_gives_real_values(groups):
    ctx = QContext(0.5)
    for chi in (groups[1][0], groups[3][0], groups[3][1]):
        for n in range(5):
            value = qeuler_value(chi, 2, n, 0.5, ctx)
            assert abs(value.imag) <= 1e-12


def test_conjugate_character_gives_conjugate_values(groups):
    ctx = QContext(0.5)
    group = groups[5]
    for chi in group:
        conj = next(
            other for other in group
            if np.allclose(other.values, np.conj(chi.values), atol=0)
        )
        for n in range(4):
            lhs = qeuler_value(conj, 2, n, 0.5, ctx)
            rhs = qeuler_value(chi, 2, n, 0.5, ctx).conjugate()
            assert abs(lhs - rhs) <= 1e-12


def test_values_vary_continuously_in_q(groups):
    # the deformation family is smooth in q on (0,1); a small step in q
    # moves the value by no more than a slope estimate allows
    chi = groups[3][1]
    h = 1e-6
    for q in (0.3, 0.5, 0.7):
        at_q = qeuler_value(chi, 2, 3, 0.5, QContext(q), epsilon=1e-12)
        stepped = qeuler_value(chi, 2, 3, 0.5, QContext(q + h), epsilon=1e-12)
        slope = abs(
            qeuler_value(chi, 2, 3, 0.5, QContext(q + 1e-3), epsilon=1e-12)
            - qeuler_value(chi, 2, 3, 0.5, QContext(q - 1e-3), epsilon=1e-12)
        ) / 2e-3
        assert abs(stepped - at_q) <= 2.0 * (slope + 1.0) * h


def test_spec_validation(groups):
    ctx = QContext(0.5)
    chi = groups[1][0]
    with pytest.raises(DomainError):
        QEulerSpec.create(chi, 0, 0, 0.0, ctx)
    with pytest.raises(DomainError):
        QEulerSpec.create(chi, 1, -1, 0.0, ctx)
    with pytest.raises(DomainError):
        QEulerSpec.create(chi, 1, 0, -0.5, ctx)


@pytest.mark.parametrize("x, message, addition", [
    (math.nan, "x must be nonnegative, got nan", "arguments must be nonnegative, got x="),
    (1j, "x must be a real number, got 1j", "must be a real number, got 1j"),
])
def test_an_argument_that_is_not_a_real_number_at_least_zero_is_refused(groups, x, message,
                                                                         addition):
    # nan reached the kernel and gave (nan+nanj); 1j raised a raw TypeError
    chi, ctx = groups[3][1], QContext(0.5)
    with pytest.raises(DomainError, match=re.escape(message)):
        qeuler_value(chi, 1, 2, x, ctx)
    with pytest.raises(DomainError, match=re.escape(message)):
        qeuler_table(chi, 1, [0.5, x], [2], ctx)
    for args in ((x, 0.5), (0.5, x)):
        with pytest.raises(DomainError, match=re.escape(addition)):
            qeuler_addition(chi, 1, 2, ctx, *args)


def test_an_int_x_past_the_double_range_is_refused_by_name(groups):
    # float(10**400) raises OverflowError; each entry refuses it as x
    ctx, chi = QContext(0.5), groups[3][1]
    message = re.escape("x must lie within the double range, got a value of type int past")
    with pytest.raises(DomainError, match=message):
        qeuler_value(chi, 1, 2, 10 ** 400, ctx)
    with pytest.raises(DomainError, match=message):
        qeuler_table(chi, 1, [1.0, 10 ** 400], [2], ctx)
    with pytest.raises(DomainError, match=message):
        qeuler_addition(chi, 1, 2, ctx, 10 ** 400, 1.0)


@pytest.mark.parametrize("args", [(math.inf, 0.0), (0.5, math.inf), (3000.0, math.inf)])
def test_an_infinite_argument_of_the_shift_expansion_is_refused(groups, args):
    # (inf, 0) gave (nan+nanj) and (3000, inf) a finite number
    chi, ctx = groups[3][1], QContext(0.5)
    with pytest.raises(DomainError, match=re.escape(f"arguments must be finite, got x={args[0]}, "
                                                    f"y={args[1]}")):
        qeuler_addition(chi, 1, 2, ctx, *args)
    # E_n at x = inf is its finite limit, and stays
    assert cmath.isfinite(qeuler_value(chi, 1, 2, math.inf, ctx))


@pytest.mark.parametrize("n", [2.5, 2.0])
def test_a_degree_that_is_not_an_integer_is_refused(groups, n):
    # check refuses n = 2.0 too; qeuler_value evaluated both
    with pytest.raises(DomainError, match=re.escape(f"degree n must be an integer, got {n!r}")):
        qeuler_value(groups[3][1], 1, n, 0.5, QContext(0.5))
    assert qeuler_value(groups[3][1], 1, np.int64(2), 0.5, QContext(0.5)) == qeuler_value(
        groups[3][1], 1, 2, 0.5, QContext(0.5))


@pytest.mark.parametrize("n, message", [(2.5, "must be an integer, got 2.5"),
                                        (-1, "must be nonnegative, got -1")])
def test_the_shift_expansion_refuses_a_degree_that_is_not_a_count(groups, n, message):
    # a raw KeyError (n = -1) or TypeError (n = 2.5) from the span of degrees
    with pytest.raises(DomainError, match=re.escape(f"degree n {message}")):
        qeuler_addition(groups[3][1], 1, n, QContext(0.5), 0.5, 0.25)


def test_a_naive_cutoff_that_is_not_an_integer_is_refused(groups):
    spec = QEulerSpec.create(groups[1][0], 1, 2, 1.0, QContext(0.5))
    with pytest.raises(DomainError, match=re.escape("cutoff M must be an integer, got 2.5")):
        qeuler_poly_naive(spec, 2.5)
    with pytest.raises(DomainError, match=re.escape("cutoff M must be positive, got 0")):
        qeuler_poly_naive(spec, 0)


def test_naive_enumerates_orders_past_the_array_dimension_limit(groups):
    # M = 1 leaves the one tuple (0, ..., 0), so the value is [2]_q^r [x]_q^n
    spec = QEulerSpec.create(groups[1][0], 100, 2, 1.0, QContext(0.5))
    assert qeuler_poly_naive(spec, 1) == pytest.approx(1.5 ** 100)


def test_naive_budget_guard(groups):
    ctx = QContext(0.5)
    spec = QEulerSpec.create(groups[1][0], 3, 0, 0.0, ctx)
    with pytest.raises(BudgetExceeded):
        qeuler_poly_naive(spec, 10 ** 4)


def test_a_tuple_sum_over_no_values_is_refused():
    with pytest.raises(DomainError, match="tuple enumeration needs a nonempty value range"):
        char_tuple_sum(np.zeros(0, dtype=complex), np.ones(1), 1)
