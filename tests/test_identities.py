import cmath
import contextlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import (
    DEFAULT_MAX_TERMS,
    BudgetExceeded,
    DomainError,
    LfunSpec,
    ParityViolation,
    PlanInfeasible,
    QContext,
    QEulerSpec,
    SweepGrid,
    SymmetryInstance,
    build_character_group,
    check,
    lfun_eval,
    power_sum,
    q_bracket_two_pow,
    q_number,
    qeuler_poly,
    qeuler_table,
    qeuler_value,
    run_suite,
    suite_passed,
)
from qeuler import identities, lfun, polynomials, sides
from qeuler.characters import bounded_composition_sums
from qeuler.cli import main
from qeuler.identities import IDENTITIES, IDENTITY_IDS, _grid_instances, _record
from qeuler.polynomials import char_tuple_sum, series_table
from qeuler.qnum import alternating_weighted_sum
from qeuler.report import make_error_report
from qeuler.sides import PowerSums, role_argument, tuple_totals


@pytest.fixture(scope="module")
def groups():
    return {d: build_character_group(d) for d in (1, 3, 5)}


@pytest.fixture(scope="module")
def ctx():
    return QContext(0.5)


def grouped_power_sum(chi, r, n, i, upper, ctx):
    """Independent oracle: group tuples by their total via the coefficients
    of (sum_{j<upper} chi(j) z^j)^r, then weight each total once."""
    weights = bounded_composition_sums(chi, r, upper)
    total = 0j
    for t, w_t in enumerate(weights):
        bracket = q_number(t, ctx)
        power = 1.0 if (t == 0 and i == 0) else bracket ** i
        total += w_t * (-1) ** t * ctx.q ** ((n - i + 1) * t) * power
    return total


def enumerated_power_sum(chi, r, n, i, upper, ctx):
    """Second oracle, one that shares no histogram with the library: every
    r-tuple below upper enumerated one by one into its total."""
    totals = np.arange(r * (upper - 1) + 1)
    weights = (-1.0) ** totals * ctx.q ** ((n - i + 1) * totals) * q_number(totals, ctx) ** i
    return char_tuple_sum(chi.periodic_values(upper), weights, r)


def test_power_sum_single_zero_term(groups, ctx):
    assert power_sum(groups[3][1], 2, 1, 0, 1, ctx) == 0


def test_power_sum_hand_enumerated(groups, ctx):
    # j=0: chi(0) = 0; j=1: -q; j=2: chi(2) q^2 [2]_q = -q^2 (1+q)
    value = power_sum(groups[3][1], 1, 1, 1, 3, ctx)
    assert value == pytest.approx(-0.875, abs=1e-15)


def test_power_sum_trivial_character(groups, ctx):
    assert power_sum(groups[1][0], 1, 0, 0, 1, ctx) == 1


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_power_sum_matches_grouped_oracle(groups, ctx, d, r):
    for chi in groups[d]:
        for upper in (1, 4, 15):
            for n, i in ((0, 0), (3, 0), (3, 2), (5, 5)):
                direct = power_sum(chi, r, n, i, upper, ctx)
                for oracle in (grouped_power_sum(chi, r, n, i, upper, ctx),
                               enumerated_power_sum(chi, r, n, i, upper, ctx)):
                    assert abs(direct - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_power_sum_validation(groups, ctx):
    chi = groups[3][1]
    with pytest.raises(DomainError):
        power_sum(chi, 1, 2, 3, 3, ctx)  # i > n
    with pytest.raises(DomainError):
        power_sum(chi, 1, 2, -1, 3, ctx)
    with pytest.raises(DomainError):
        power_sum(chi, 1, 2, 1, 0, ctx)
    with pytest.raises(BudgetExceeded):
        power_sum(chi, 3, 2, 1, 10 ** 4, ctx)


def test_power_sum_refuses_what_is_not_an_integer(groups, ctx):
    # numpy raised a raw TypeError on the limit; the degrees were evaluated
    chi = groups[3][1]
    with pytest.raises(DomainError, match=re.escape("upper limit must be an integer, got 2.5")):
        power_sum(chi, 1, 2, 1, 2.5, ctx)
    with pytest.raises(DomainError, match=re.escape("degree n must be an integer, got 2.5")):
        power_sum(chi, 1, 2.5, 1.5, 3, ctx)
    with pytest.raises(DomainError, match=re.escape(
            "bracket power i must be an integer, got 1.5")):
        power_sum(chi, 1, 2, 1.5, 3, ctx)
    with pytest.raises(DomainError, match=re.escape("need 0 <= i <= n, got i=0, n=-1")):
        power_sum(chi, 1, -1, 0, 3, ctx)


@pytest.mark.parametrize("identity_id, axis", [("T2", "x"), ("EQ9", "y"), ("T2", "n"),
                                               ("EQ15", "m")])
def test_a_complex_axis_value_is_a_domain_error_recorded_in_place(groups, ctx, identity_id,
                                                                  axis):
    # comparing it with 0 raised a raw TypeError out of check and run_suite
    fields = dict(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3, n=1, m=1, x=0.5, y=0.25)
    with pytest.raises(DomainError, match=f"{identity_id} needs a finite nonnegative {axis}, "
                                          r"got 1j"):
        check(identity_id, SymmetryInstance(**{**fields, axis: 1j}))
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), chi_labels=(1,), ab_pairs=((1, 3),),
                     **{f"{axis}_values": (0.5 if axis in "xy" else 1, 1j)})
    reports = run_suite(identity_id, grid)
    assert [r.error is not None for r in reports] == [False, True]
    assert "needs a finite nonnegative" in reports[1].error


@pytest.mark.parametrize("identity_id, axis", [("T2", "x"), ("EQ9", "y")])
def test_an_int_axis_value_past_the_double_range_is_a_domain_error(groups, ctx, identity_id,
                                                                   axis):
    # float(10**400) raised a raw OverflowError out of check
    fields = dict(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3, n=1, x=0.5, y=0.25)
    with pytest.raises(DomainError, match=f"{axis} must lie within the double range"):
        check(identity_id, SymmetryInstance(**{**fields, axis: 10 ** 400}))


def test_power_sum_budget_refuses_before_allocating(groups, ctx):
    # 10^12 totals would be a 16 TB weight row; the refusal comes first
    with pytest.raises(BudgetExceeded, match="a 1000000000000 x 1 bracket matrix"):
        power_sum(groups[3][1], 1, 1, 1, 10 ** 12, ctx)
    # totals times weight rows: 2*10^6 - 1 totals fit alone but not six times,
    # and the refusal precedes the fold's own multiply-add budget
    with pytest.raises(BudgetExceeded, match="a 1999999 x 6 bracket matrix"):
        tuple_totals(groups[3][1], 2, 10 ** 6, 6)


def test_non_finite_power_sum_is_infeasible(groups):
    # [8]_q^100000 overflows a double; the sum would be nan
    with pytest.raises(PlanInfeasible, match="not a finite double"):
        power_sum(groups[5][1], 2, 100000, 100000, 5, QContext(0.9))
    # degrees past the double range
    with pytest.raises(PlanInfeasible, match="not a finite double"):
        power_sum(groups[3][1], 1, 10 ** 400, 1, 3, QContext(0.5))


def test_power_sum_at_a_huge_degree_is_its_limit(groups, ctx):
    # q^((n+1)t) underflows to 0 for every t >= 1, leaving the t = 0 tuple;
    # an exponent that wrapped in 64-bit integers would not
    assert power_sum(groups[1][0], 2, 2 ** 62, 0, 3, ctx) == 1


@given(
    x=st.floats(min_value=0.0, max_value=1e6),
    a=st.integers(min_value=0, max_value=7).map(lambda k: 2 * k + 1),
    b=st.integers(min_value=0, max_value=7).map(lambda k: 2 * k + 1),
    t=st.integers(min_value=0, max_value=500),
)
def test_role_argument_is_the_correctly_rounded_rational(x, a, b, t):
    # b*x + (b/a)*t computed exactly, then rounded once
    assert role_argument(b, x, a, t) == float(Fraction(x) * b + Fraction(b * t, a))


def test_equal_parameters_are_bitwise_exact(groups, ctx):
    inst = SymmetryInstance(chi=groups[3][1], r=2, ctx=ctx, a=3, b=3, n=4,
                            s=1.5 + 0.5j, x=0.5)
    for identity_id in ("T1", "T2", "T3"):
        report = check(identity_id, inst)
        assert report.lhs == report.rhs
        assert report.residual == 0.0
        assert report.passed


def test_theorem2_mirror_swaps_sides_bitwise(groups, ctx):
    forward = check("T2", SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3, n=3,
                                           x=1.0))
    backward = check("T2", SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=3, b=1, n=3,
                                            x=1.0))
    assert forward.lhs == backward.rhs
    assert forward.rhs == backward.lhs


@pytest.mark.parametrize("a,b", [(1, 3), (3, 5), (1, 5)])
def test_theorem2_small_grid(groups, ctx, a, b):
    for d in (1, 3):
        for chi in groups[d]:
            for n in (0, 3, 6):
                for x in (0.0, 1.0):
                    inst = SymmetryInstance(chi=chi, r=1, ctx=ctx, a=a, b=b, n=n, x=x)
                    report = check("T2", inst)
                    assert report.passed, (d, chi.label, n, x, report.residual)


def test_theorem1_small_grid(groups, ctx):
    for s in (-3 + 0j, 0.5 + 0j, 2.5 + 0j, 1 + 1j):
        for chi in groups[3]:
            inst = SymmetryInstance(chi=chi, r=1, ctx=ctx, a=1, b=3, s=s, x=1.0)
            report = check("T1", inst)
            assert report.identity_id == "T1"
            assert report.passed, (s, chi.label, report.residual)


def test_theorem3_small_grid(groups, ctx):
    for chi in groups[3]:
        for n in (0, 2, 5):
            inst = SymmetryInstance(chi=chi, r=2, ctx=ctx, a=1, b=3, n=n, x=1.0)
            report = check("T3", inst)
            assert report.identity_id == "T3"
            assert report.passed, (chi.label, n, report.residual)


def test_theorem3_degree_zero_reduces_to_single_product(groups, ctx):
    # n = 0: each side is [2]^r E_0(bx) S_{0,0}(ad)
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=3, b=5, n=0, x=0.5)
    report = check("T3", inst)
    assert report.passed


def test_bridge_small_grid(groups, ctx):
    for chi in groups[3]:
        for n in (0, 3, 6):
            inst = SymmetryInstance(chi=chi, r=1, ctx=ctx, a=1, b=3, n=n, x=1.0)
            forward = check("EQ12", inst)
            mirrored = check("EQ13", inst)
            assert forward.identity_id == "EQ12"
            assert mirrored.identity_id == "EQ13"
            assert forward.passed, (chi.label, n, forward.residual)
            assert mirrored.passed, (chi.label, n, mirrored.residual)


def test_bridge_collapses_when_everything_is_one(groups, ctx):
    # d = 1, a = b = 1, r = 1: both forms reduce to [2]_q E_n(x) exactly
    inst = SymmetryInstance(chi=groups[1][0], r=1, ctx=ctx, a=1, b=1, n=3, x=0.5)
    report = check("EQ12", inst)
    assert report.residual == 0.0
    assert report.passed


def test_theorem1_at_negative_integers_matches_theorem2(groups, ctx):
    # T2 sides equal ([a]_q [b]_q)^n times the T1 sides at s = -n
    for chi in groups[3]:
        for a, b, n in ((1, 3, 2), (3, 5, 3)):
            t1 = check("T1", SymmetryInstance(chi=chi, r=1, ctx=ctx, a=a, b=b, s=complex(-n),
                                              x=1.0))
            t2 = check("T2", SymmetryInstance(chi=chi, r=1, ctx=ctx, a=a, b=b, n=n, x=1.0))
            scale = (q_number(a, ctx) * q_number(b, ctx)) ** n
            assert abs(scale * t1.lhs - t2.lhs) <= 1e-8 * max(1.0, abs(t2.lhs))
            assert abs(scale * t1.rhs - t2.rhs) <= 1e-8 * max(1.0, abs(t2.rhs))


def test_eq15_degenerate_x_is_exact(groups, ctx):
    report = check("EQ15", SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, m=3, n=2, x=0.0,
                                            y=0.25))
    assert report.lhs == report.rhs
    assert report.residual == 0.0


def test_eq15_small_grid(groups, ctx):
    for chi in groups[3]:
        for m, n in ((0, 3), (3, 3), (5, 2)):
            report = check("EQ15", SymmetryInstance(chi=chi, r=1, ctx=ctx, m=m, n=n, x=0.5,
                                                    y=0.25))
            assert report.passed, (chi.label, m, n, report.residual)


def test_parity_violations_are_rejected(groups, ctx):
    even_a = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=2, b=3, n=1, x=1.0)
    with pytest.raises(ParityViolation, match="a must be a positive odd integer, got 2"):
        check("T2", even_a)
    even_b = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=4, n=1, x=1.0)
    with pytest.raises(ParityViolation, match="b must be a positive odd integer, got 4"):
        check("T3", even_b)


def test_run_suite_empty_grid_passes_vacuously():
    grid = SweepGrid(d_values=(), q_values=())
    reports = run_suite("T2", grid)
    assert reports == []
    assert suite_passed(reports)


def test_run_suite_records_parity_errors_without_aborting(groups):
    grid = SweepGrid(
        d_values=(3,),
        q_values=(0.5,),
        r_values=(1,),
        ab_pairs=((2, 3), (1, 3)),
        n_values=(1,),
        x_values=(1.0,),
    )
    reports = run_suite("T2", grid)
    assert len(reports) == 4  # two characters x two (a, b) pairs
    errored = [r for r in reports if r.error is not None]
    passed = [r for r in reports if r.passed]
    assert len(errored) == 2
    assert all("ParityViolation" in r.error for r in errored)
    assert len(passed) == 2
    assert not suite_passed(reports)


def test_run_suite_deterministic_order(groups):
    grid = SweepGrid(
        d_values=(3,),
        q_values=(0.5,),
        r_values=(1, 2),
        ab_pairs=((1, 3),),
        n_values=(0, 1, 2),
        x_values=(0.5, 1.0),
    )
    first = run_suite("T2", grid)
    again = run_suite("T2", grid)
    assert len(first) == 24
    # d, chi, r, q, then the row's axes (ab, n, x) in grid order
    assert [(r.instance["chi"], r.instance["r"], r.instance["n"], r.instance["x"])
            for r in first] == [(chi, r, n, x) for chi in (0, 1) for r in (1, 2)
                                for n in (0, 1, 2) for x in (0.5, 1.0)]
    assert [r.lhs for r in first] == [r.lhs for r in again]
    assert [r.to_json_line() for r in first] == [r.to_json_line() for r in again]


def test_run_suite_dispatches_every_identity(groups):
    base = dict(d_values=(3,), q_values=(0.5,), r_values=(1,), x_values=(0.5,))
    cases = {
        "T1": SweepGrid(**base, ab_pairs=((1, 3),), s_values=(1.5 + 0j,)),
        "T2": SweepGrid(**base, ab_pairs=((1, 3),), n_values=(2,)),
        "T3": SweepGrid(**base, ab_pairs=((1, 3),), n_values=(2,)),
        "EQ12": SweepGrid(**base, ab_pairs=((1, 3),), n_values=(2,)),
        "EQ13": SweepGrid(**base, ab_pairs=((1, 3),), n_values=(2,)),
        "EQ4": SweepGrid(**base, n_values=(3,)),
        "EQ5": SweepGrid(**base, n_values=(3,)),
        "EQ9": SweepGrid(**base, n_values=(3,), y_values=(0.25,)),
        "EQ15": SweepGrid(**base, m_values=(2,), n_values=(2,), y_values=(0.25,)),
    }
    for identity_id, grid in cases.items():
        reports = run_suite(identity_id, grid)
        assert len(reports) == 2, identity_id
        assert suite_passed(reports), (identity_id, [r.residual for r in reports])
        assert all(r.identity_id == identity_id for r in reports)
    # an unknown id is refused before the grid is enumerated (d = 4 would
    # raise NotOdd, whose message does not match)
    with pytest.raises(DomainError, match="unknown identity"):
        run_suite("EQ99", SweepGrid(d_values=(4,), q_values=(0.5,)))


def test_residuals_do_not_degrade_with_tighter_budgets(groups, ctx):
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3, n=4, x=1.0)
    loose = check("T2", inst, epsilon=1e-8)
    tight = check("T2", inst, epsilon=5e-9)
    assert tight.residual <= loose.residual + 1e-8


def test_report_json_lines_round_trip(groups, ctx):
    grid = SweepGrid(
        d_values=(3,),
        q_values=(0.5,),
        r_values=(1,),
        ab_pairs=((1, 3),),
        n_values=(0, 1),
        x_values=(1.0,),
    )
    reports = run_suite("T2", grid)
    lines = [r.to_json_line() for r in reports]
    assert len(lines) == len(reports)
    for line, report in zip(lines, reports):
        parsed = json.loads(line)
        assert parsed["identity_id"] == "T2"
        assert parsed["pass"] is True
        assert json.dumps(parsed) == line
        assert parsed["lhs"] == [report.lhs.real, report.lhs.imag]
        assert math.isclose(parsed["residual"], report.residual, abs_tol=0.0)


def test_instance_records_are_json_types(groups, ctx):
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3,
                            s=1 + 1j, x=1.0)
    report = check("T1", inst)
    blob = json.dumps(report.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["instance"]["s"] == [1.0, 1.0]
    assert parsed["instance"]["d"] == 3


def test_a_fraction_x_is_checked_and_recorded_as_a_float(groups, ctx):
    # the record kept the Fraction, which json cannot write
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3, n=2, x=0.5)
    assert (check("T2", inst._replace(x=Fraction(1, 2))).to_json_line()
            == check("T2", inst).to_json_line())


def _reference_side(inst, first, second, prefactor, term):
    """One T1/T2 side as a scalar loop over the totals t: a plan and a series
    per t, the evaluation the batched kernel replaces."""
    chi, r, ctx = inst.chi, inst.r, inst.ctx
    ctx_first = ctx.power(first)
    total = 0j
    for t, w_t in enumerate(bounded_composition_sums(chi, r, chi.modulus_d * first)):
        arg = role_argument(second, inst.x, first, t)
        total += w_t * (-1.0) ** t * ctx.q ** (second * t) * term(arg, ctx_first)
    return q_bracket_two_pow(r, ctx.power(second)) * prefactor * total


def _reference_poly_side(inst, first, second):
    return _reference_side(inst, first, second, q_number(first, inst.ctx) ** inst.n,
                           lambda arg, c: qeuler_poly(QEulerSpec.create(
                               inst.chi, inst.r, inst.n, arg, c)))


def _reference_lfun_side(inst, first, second):
    prefactor = cmath.exp(complex(inst.s) * math.log(q_number(second, inst.ctx)))
    return _reference_side(inst, first, second, prefactor,
                           lambda arg, c: lfun_eval(LfunSpec.create(
                               inst.chi, inst.r, inst.s, arg, c)))


_SIDE_GROUPS = {d: build_character_group(d) for d in (1, 3, 5, 15)}
_odd = st.integers(min_value=0, max_value=2).map(lambda k: 2 * k + 1)


@settings(deadline=None, max_examples=60)
@given(
    d=st.sampled_from([1, 3, 5, 15]),
    label=st.integers(min_value=0, max_value=7),
    r=st.integers(min_value=1, max_value=3),
    q=st.floats(min_value=0.2, max_value=0.8),
    x=st.floats(min_value=0.0, max_value=3.0),
    a=_odd,
    b=_odd,
    n=st.integers(min_value=0, max_value=8),
    s=st.complex_numbers(max_magnitude=3.0),
)
def test_symmetry_sides_equal_the_per_total_loop_bit_for_bit(d, label, r, q, x, a, b, n, s):
    chi = _SIDE_GROUPS[d][label % len(_SIDE_GROUPS[d])]
    inst = SymmetryInstance(chi=chi, r=r, ctx=QContext(q), a=a, b=b, n=n, s=s, x=x)
    t2 = check("T2", inst)
    assert t2.lhs == _reference_poly_side(inst, a, b)
    assert t2.rhs == _reference_poly_side(inst, b, a)
    if x >= 0.01:  # [x]_q of a tiny x underflows; its plan is infeasible
        t1 = check("T1", inst)
        assert t1.lhs == _reference_lfun_side(inst, a, b)
        assert t1.rhs == _reference_lfun_side(inst, b, a)


def _reference_power_sum_side(inst, first, second):
    """One power-sum side as a scalar loop over i with a running binomial: a
    plan and a series per E_{n-i}, and one PowerSums row of every S_{n,i}."""
    chi, r, ctx, n = inst.chi, inst.r, inst.ctx, inst.n
    upper = first * chi.modulus_d
    s_vals = PowerSums(tuple_totals(chi, r, upper, n + 1), upper, ctx.power(second))(
        n, range(n + 1))
    total, binomial = 0j, 1
    for i, s_val in enumerate(s_vals):
        total += (binomial * q_number(first, ctx) ** (n - i) * q_number(second, ctx) ** i
                  * qeuler_value(chi, r, n - i, second * inst.x, ctx.power(first)) * s_val)
        binomial = binomial * (n - i) // (i + 1)
    return q_bracket_two_pow(r, ctx.power(second)) * total


def _reference_shift_sum(inst, top, base, shift, arg):
    """sum_{k<=top} binom(top,k) q^(k shift) E_{base+k}(arg) [shift]_q^(top-k)
    as a scalar loop over k, a plan and a series per E_{base+k}."""
    total, bracket = 0j, q_number(shift, inst.ctx)
    for k in range(top + 1):
        total += (math.comb(top, k) * inst.ctx.q ** (k * shift)
                  * qeuler_value(inst.chi, inst.r, base + k, arg, inst.ctx)
                  * bracket ** (top - k))
    return total


@settings(deadline=None, max_examples=40)
@given(
    d=st.sampled_from([1, 3, 5, 15]),
    label=st.integers(min_value=0, max_value=7),
    r=st.integers(min_value=1, max_value=3),
    q=st.floats(min_value=0.2, max_value=0.8),
    x=st.floats(min_value=0.0, max_value=3.0),
    a=_odd,
    b=_odd,
    n=st.integers(min_value=0, max_value=8),
)
def test_power_sum_sides_equal_the_per_cell_loop_bit_for_bit(d, label, r, q, x, a, b, n):
    chi = _SIDE_GROUPS[d][label % len(_SIDE_GROUPS[d])]
    inst = SymmetryInstance(chi=chi, r=r, ctx=QContext(q), a=a, b=b, n=n, x=x)
    t3, eq12, eq13 = (check(identity_id, inst) for identity_id in ("T3", "EQ12", "EQ13"))
    assert t3.lhs == eq12.rhs == _reference_power_sum_side(inst, a, b)
    assert t3.rhs == eq13.rhs == _reference_power_sum_side(inst, b, a)
    assert eq12.lhs == _reference_poly_side(inst, a, b)
    assert eq13.lhs == _reference_poly_side(inst, b, a)


@settings(deadline=None, max_examples=40)
@given(
    d=st.sampled_from([1, 3, 5, 15]),
    label=st.integers(min_value=0, max_value=7),
    r=st.integers(min_value=1, max_value=3),
    q=st.floats(min_value=0.2, max_value=0.8),
    x=st.floats(min_value=0.0, max_value=3.0),
    y=st.floats(min_value=0.0, max_value=3.0),
    m=st.integers(min_value=0, max_value=4),
    n=st.integers(min_value=0, max_value=8),
)
def test_shift_expansions_equal_the_per_cell_loop_bit_for_bit(d, label, r, q, x, y, m, n):
    chi = _SIDE_GROUPS[d][label % len(_SIDE_GROUPS[d])]
    inst = SymmetryInstance(chi=chi, r=r, ctx=QContext(q), m=m, n=n, x=x, y=y)
    assert check("EQ5", inst).lhs == _reference_shift_sum(inst, n, 0, x, 0.0)
    assert check("EQ9", inst).lhs == _reference_shift_sum(inst, n, 0, x, y)
    eq15 = check("EQ15", inst)
    assert eq15.lhs == _reference_shift_sum(inst, m, n, x, y)
    assert eq15.rhs == _reference_shift_sum(inst, n, m, -x, x + y)


def test_a_power_sum_side_takes_exact_binomials_at_numpy_integer_degrees():
    # the running binomial of a numpy degree wrapped past int64, so at n = 70
    # T3's rhs read 7.35e18 against 6.09e17 and the instance failed
    grid = SweepGrid(d_values=(1,), q_values=(0.5,), ab_pairs=((1, 3),),
                     n_values=(np.int64(70),), x_values=(0.5,))
    [report] = run_suite("T3", grid)
    assert report.passed
    assert report.to_json_line() == check("T3", SymmetryInstance(
        chi=build_character_group(1)[0], r=1, ctx=QContext(0.5), a=1, b=3, n=70,
        x=0.5)).to_json_line()


@pytest.mark.parametrize("d", [1, 3, 15])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_batched_power_sums_equal_single_ones(groups, ctx, d, r):
    chi = build_character_group(d)[-1]
    for upper in (1, 4, 15):
        batch = PowerSums(tuple_totals(chi, r, upper, 6), upper, ctx)(5, range(6))
        assert batch == [power_sum(chi, r, 5, i, upper, ctx) for i in range(6)]


def test_a_line_forms_each_power_sum_factor_row_once(monkeypatch):
    # N degrees take N(N+1)/2 weight rows, but only N rows (-1)^t q^(k t),
    # k = 1..N, and N rows [t]_q^i, i < N, each formed once per side
    made = []

    class Recorded(PowerSums):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sides, "PowerSums", Recorded)
    degrees = 40
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), r_values=(2,), chi_labels=(1,),
                     ab_pairs=((1, 3),), n_values=tuple(range(degrees)), x_values=(0.5,))
    reports = [r.to_json_line() for r in run_suite("T3", grid)]
    assert len(made) == 2  # one histogram per side of the line
    for power_sums in made:
        assert sorted(power_sums.geometric) == list(range(1, degrees + 1))
        assert sorted(power_sums.powers) == list(range(degrees))
    assert reports == [check("T3", inst).to_json_line()
                       for inst in _grid_instances(IDENTITIES["T3"], grid)]


def test_side_budget_counts_the_work_done(groups, ctx):
    # (45*5)^4 tuples were refused, but the side enumerates none of them
    chi = build_character_group(45)[3]
    inst = SymmetryInstance(chi=chi, r=4, ctx=ctx, a=5, b=3, n=0, x=1.0)
    assert check("T2", inst).passed
    # the convolution behind the composition sums, and the rows of the batch
    with pytest.raises(BudgetExceeded, match="multiply-adds"):
        check("T2", SymmetryInstance(chi=chi, r=2, ctx=ctx, a=2001, b=3, n=0))
    with pytest.raises(BudgetExceeded, match="bracket matrix"):
        check("T2", SymmetryInstance(chi=chi, r=1, ctx=ctx, a=300001, b=3, n=0))


def test_overflowing_side_is_infeasible():
    # [a]_q^n overflows in the side's prefactor, once its degree is planned
    inst = SymmetryInstance(chi=build_character_group(1)[0], r=1, ctx=QContext(0.9), a=5, b=1,
                            n=600, x=5.0)
    with pytest.raises(PlanInfeasible):
        check("T2", inst)


@pytest.mark.parametrize("field,value", [
    ("x", math.nan), ("x", math.inf), ("y", math.nan), ("y", math.inf), ("m", math.inf),
    ("n", math.nan),
])
def test_check_rejects_non_finite_arguments(groups, ctx, field, value):
    fields = {"m": 1, "n": 1, "x": 0.5, "y": 0.25} | {field: value}
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, **fields)
    with pytest.raises(DomainError, match="finite"):
        check("EQ15" if field == "m" else "EQ9", inst)


@pytest.mark.parametrize("identity_id,field,value", [
    ("T2", "n", 2.5), ("T3", "n", 2.0), ("EQ5", "n", 2.0), ("EQ9", "n", 2.0),
    ("EQ15", "n", 2.0), ("EQ15", "m", 1.0),
])
def test_a_degree_that_is_not_an_integer_is_a_domain_error(groups, ctx, identity_id, field,
                                                           value):
    # a float degree reached range() as a raw TypeError, and T2 evaluated n = 2.5
    fields = {"m": 1, "n": 2, "x": 0.5, "y": 0.25, "a": 1, "b": 3}
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, **fields)
    with pytest.raises(DomainError, match=f"needs an integer degree {field}, got {value!r}"):
        check(identity_id, inst._replace(**{field: value}))
    numpy_degree = check(identity_id, inst._replace(**{field: np.int64(fields[field])}))
    expected = check(identity_id, inst)
    assert (numpy_degree.lhs, numpy_degree.rhs) == (expected.lhs, expected.rhs)


def test_a_sweep_records_a_degree_that_is_not_an_integer():
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), chi_labels=(1,), ab_pairs=((1, 3),),
                     n_values=(1, 1.5, 2))
    for identity_id in ("T2", "T3", "EQ12", "EQ13", "EQ5"):
        reports = run_suite(identity_id, grid)
        assert [r.error is not None for r in reports] == [False, True, False]
        assert f"{identity_id} needs an integer degree n, got 1.5" in reports[1].error
        assert [r.to_json_line() for r in reports] == _per_instance(identity_id, grid)


@pytest.mark.parametrize("identity_id,max_terms", [
    ("T2", 100), ("T3", 100), ("EQ12", 100), ("EQ13", 30), ("EQ5", 100),
])
def test_a_line_with_a_degree_that_is_not_an_integer_refuses_where_check_does(identity_id,
                                                                              max_terms):
    # the line is checked one instance at a time: 1.5 is recorded, and
    # n = 20 then refuses for its term cap
    grid = SweepGrid(d_values=(3,), q_values=(0.7,), r_values=(2,), chi_labels=(1,),
                     ab_pairs=((1, 3),), n_values=(1, 1.5, 2, 20, 40), x_values=(0.5,))
    refusal = _batched(identity_id, grid, max_terms=max_terms)
    assert refusal == _per_instance(identity_id, grid, max_terms=max_terms)
    assert refusal[0] is PlanInfeasible


@pytest.mark.parametrize("identity_id,field", [
    ("T2", "r"), ("T2", "a"), ("T2", "b"), ("T2", "n"), ("EQ15", "m"), ("EQ15", "n"),
])
def test_a_numpy_integer_field_is_written_as_an_int(groups, ctx, identity_id, field):
    # json.dumps raised "Object of type int64 is not JSON serializable"
    inst = SymmetryInstance(chi=groups[3][1], r=2, ctx=ctx, a=1, b=3, m=1, n=2, x=0.5, y=0.25)
    numpy_report = check(identity_id, inst._replace(**{field: np.int64(getattr(inst, field))}))
    assert numpy_report.to_json_line() == check(identity_id, inst).to_json_line()


def test_a_numpy_degree_is_refused_as_its_int(groups):
    # np.int64(600) made [a]_q^n a numpy power: two RuntimeWarnings, and a
    # value that is not finite in place of the overflow
    inst = SymmetryInstance(chi=groups[1][0], r=1, ctx=QContext(0.9), a=5, b=1, n=600, x=5.0)
    with pytest.raises(PlanInfeasible) as as_int:
        check("T2", inst)
    assert str(as_int.value) == ("a side of T2 overflows a double: "
                                 "(34, 'Numerical result out of range')")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PlanInfeasible) as as_numpy:
            check("T2", inst._replace(n=np.int64(600)))
    assert str(as_numpy.value) == str(as_int.value)


def test_a_sweep_of_numpy_integers_is_written_as_ints():
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), ab_pairs=((1, 3),), n_values=(0, 1, 2))
    numpy_grid = grid._replace(d_values=(np.int64(3),), r_values=(np.int64(1),),
                               ab_pairs=((np.int64(1), np.int64(3)),),
                               n_values=tuple(np.arange(3)))
    assert [r.to_json_line() for r in run_suite("T2", numpy_grid)] == [
        r.to_json_line() for r in run_suite("T2", grid)]


@pytest.mark.parametrize("identity_id", ["T2", "EQ5"])
def test_an_order_that_is_not_an_integer_is_a_domain_error(groups, ctx, identity_id):
    inst = SymmetryInstance(chi=groups[3][1], r=2.5, ctx=ctx, a=1, b=3, n=2, x=0.5)
    with pytest.raises(DomainError, match="^order r must be a positive integer, got 2.5$"):
        check(identity_id, inst)


@pytest.mark.parametrize("value", [2.5, 3.0])
def test_a_role_that_is_not_an_integer_is_a_parity_violation(groups, ctx, value):
    # both passed the parity rule and ended in a raw TypeError
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=value, b=3, n=2, x=0.5)
    with pytest.raises(ParityViolation, match=f"^a must be a positive odd integer, got {value}$"):
        check("T2", inst)
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), ab_pairs=((1, value),), n_values=(0, 1))
    reports = run_suite("T2", grid)
    assert [r.error for r in reports] == [
        f"ParityViolation: b must be a positive odd integer, got {value}"] * 4


@pytest.mark.parametrize("identity_id,bad", [
    ("EQ4", {"x_values": (0.0,)}),  # l(s, x) needs x > 0
    ("EQ9", {"y_values": (-0.5,)}),
    ("EQ15", {"x_values": (-0.5,)}),
])
def test_error_records_list_the_fields_of_a_successful_record(identity_id, bad):
    base = dict(d_values=(3,), q_values=(0.5,), n_values=(2,), m_values=(1,),
                x_values=(0.5,), y_values=(0.25,))
    good = run_suite(identity_id, SweepGrid(**base))
    errored = run_suite(identity_id, SweepGrid(**(base | bad)))
    assert all(r.error is None for r in good)
    assert all(r.error is not None for r in errored)
    assert [list(r.instance) for r in errored] == [list(r.instance) for r in good]
    assert list(good[0].instance) == ["d", "chi", "r", "q", *IDENTITIES[identity_id].axes]


# the rows with an odd pair and a degree
_PAIRED_IDS = ("T2", "T3", "EQ12", "EQ13")


def _per_instance(identity_id, grid, **kwargs):
    """run_suite's contract, one instance at a time through check: the reports,
    or the (type, message) of the refusal met first in enumeration order."""
    row = IDENTITIES[identity_id]
    reports = []
    for inst in _grid_instances(row, grid):
        try:
            reports.append(check(identity_id, inst, **kwargs).to_json_line())
        except DomainError as exc:
            reports.append(make_error_report(identity_id, _record(row, inst), exc).to_json_line())
        except (PlanInfeasible, BudgetExceeded) as exc:
            return type(exc), str(exc)
    return reports


def _batched(identity_id, grid, **kwargs):
    try:
        return [r.to_json_line() for r in run_suite(identity_id, grid, **kwargs)]
    except (PlanInfeasible, BudgetExceeded) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=40)
# a repeated grid value puts equal instances on one line: T1's has no
# degree, and its side yields once for each of them
@example(identity_id="T1", d=3, r=1, q=0.5, a=1, b=3, n_max=0, xs=[1.0, 1.0], m_max=0, y=0.0,
         s=1.5, max_terms=DEFAULT_MAX_TERMS)
@given(
    identity_id=st.sampled_from(IDENTITY_IDS),
    d=st.sampled_from([1, 3, 5, 15]),
    r=st.integers(min_value=1, max_value=3),
    q=st.floats(min_value=0.2, max_value=0.8),
    a=_odd,
    b=_odd,
    n_max=st.integers(min_value=0, max_value=20),
    xs=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=2, max_size=2),
    m_max=st.integers(min_value=0, max_value=3),
    y=st.floats(min_value=0.0, max_value=1.0),
    s=st.sampled_from([1.5, -2.0, complex(-0.5, 0.5), complex(0.0, 2.0)]),
    max_terms=st.sampled_from([DEFAULT_MAX_TERMS, 200, 40]),
)
def test_a_batched_line_equals_per_instance_check(identity_id, d, r, q, a, b, n_max, xs,
                                                  m_max, y, s, max_terms):
    # two x values: the lines of the grid interleave in enumeration order; at the
    # smaller term caps lines refuse in their middle, the power-sum side's too
    grid = SweepGrid(d_values=(d,), q_values=(q,), r_values=(r,), ab_pairs=((a, b),),
                     n_values=tuple(range(n_max + 1)), x_values=tuple(xs),
                     m_values=tuple(range(m_max + 1)), y_values=(y,), s_values=(s,))
    assert _batched(identity_id, grid, max_terms=max_terms) == _per_instance(
        identity_id, grid, max_terms=max_terms)


@pytest.mark.parametrize("identity_id", _PAIRED_IDS)
def test_error_records_of_a_line_stay_in_place(identity_id):
    # the even a of the middle pair is recorded at each of its instances
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), r_values=(2,), chi_labels=(1,),
                     ab_pairs=((1, 3), (2, 3), (3, 1)), n_values=(0, 3, 1, 3, 5),
                     x_values=(0.5, 1.0))
    reports = run_suite(identity_id, grid)
    assert [r.to_json_line() for r in reports] == _per_instance(identity_id, grid)
    assert [r.error is not None for r in reports] == [a == 2 for a in (1, 2, 3)
                                                      for _ in range(10)]
    assert all("ParityViolation" in r.error for r in reports if r.error is not None)


@settings(deadline=None, max_examples=60)
@given(
    identity_id=st.sampled_from(IDENTITY_IDS),
    d=st.sampled_from([1, 3, 15]),
    r=st.integers(min_value=1, max_value=3),
    q=st.sampled_from([0.3, 0.6, 0.9]),
    pairs=st.lists(st.tuples(_odd, _odd), min_size=1, max_size=2),
    ns=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
    ms=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=2),
    xs=st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=1, max_size=2),
    ys=st.lists(st.sampled_from([0.0, 0.25, 1.5]), min_size=1, max_size=2),
    max_terms=st.integers(min_value=20, max_value=400),
)
def test_a_sweep_refuses_at_the_instance_check_meets_first(identity_id, d, r, q, pairs, ns, ms,
                                                           xs, ys, max_terms):
    # unsorted degrees and small term caps: some degrees refuse, and run_suite
    # raises the refusal of the first of them in enumeration order, or none
    grid = SweepGrid(d_values=(d,), q_values=(q,), r_values=(r,), ab_pairs=tuple(pairs),
                     n_values=tuple(ns), s_values=(1.5, -2.0), m_values=tuple(ms),
                     x_values=tuple(xs), y_values=tuple(ys))
    assert _batched(identity_id, grid, max_terms=max_terms) == _per_instance(
        identity_id, grid, max_terms=max_terms)


@pytest.mark.parametrize("identity_id", ["T1", "EQ4"])
def test_a_side_domain_error_is_recorded_at_every_instance(identity_id):
    # x = 0 passes the axis rules, and an l-function side refuses it, before
    # its first value, at every degree of the line: T1's sides and EQ4's lhs
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), r_values=(2,), ab_pairs=((1, 3),),
                     n_values=(0, 1, 2), s_values=(1.5,), x_values=(0.0, 0.5))
    reports = run_suite(identity_id, grid)
    assert [r.to_json_line() for r in reports] == _per_instance(identity_id, grid)
    assert [r.error is not None for r in reports] == [r.instance["x"] == 0.0 for r in reports]
    assert all(r.error == "DomainError: x must be strictly positive, got 0.0"
               for r in reports if r.error is not None)
    assert sum(r.error is not None for r in reports) == (2 if identity_id == "T1" else 6)


@pytest.mark.parametrize("identity_id", IDENTITY_IDS)
def test_an_order_below_one_is_an_axis_rule_recorded_at_every_instance(identity_id):
    # r = 0 was refused inside the sides, and a line was then checked one
    # instance at a time; now it is refused where r is parsed
    grid = SweepGrid(d_values=(3,), q_values=(0.5,), r_values=(0,), ab_pairs=((1, 3),),
                     n_values=(0, 1, 2), s_values=(1.5,), m_values=(0, 2), y_values=(0.25,))
    reports = run_suite(identity_id, grid)
    assert [r.to_json_line() for r in reports] == _per_instance(identity_id, grid)
    assert all(r.error == "DomainError: order r must be a positive integer, got 0"
               for r in reports)


def test_a_line_recorded_one_instance_at_a_time_still_refuses_where_check_does():
    # one pass over the line: the lhs in roles (3, 1) evaluates up to its
    # first value that is not finite, at n = 315, and the rhs over those
    # degrees refuses first, at n = 308, where the weight bound (1-q)^-n of
    # its cells at q = 0.9 makes the dominating series overflow a double
    grid = SweepGrid(d_values=(3,), q_values=(0.9,), r_values=(1,), ab_pairs=((3, 1),),
                     n_values=tuple(range(800)), x_values=(1.0, 0.5))
    refusal = _batched("T2", grid)
    assert refusal == _per_instance("T2", grid)
    assert refusal[0] is PlanInfeasible
    assert refusal[1].startswith("the dominating series overflows a double (q=0.9, r=1")


def test_a_refusal_of_the_shared_work_precedes_a_refusal_of_the_degree():
    # the lhs in roles (1, 99999) cannot plan E_n within 0 terms, and its
    # [2]^r needs q^99999, which underflows: the line's shared work refuses
    # first, at every degree, in check and in a sweep alike
    chi = build_character_group(1)[0]
    message = "q^a underflows to zero (q=0.5, a=99999)"
    for n in (0, 5):
        inst = SymmetryInstance(chi=chi, r=1, ctx=QContext(0.5), a=1, b=99999, n=n)
        with pytest.raises(PlanInfeasible, match=f"^{re.escape(message)}$"):
            check("T2", inst, max_terms=0)
    grid = SweepGrid(d_values=(1,), q_values=(0.5,), ab_pairs=((1, 99999),), n_values=(0, 5))
    assert _batched("T2", grid, max_terms=0) == (PlanInfeasible, message)


@pytest.mark.parametrize("budget", [{"epsilon": 0.0}, {"epsilon": -1e-10},
                                    {"epsilon": math.nan}, {"max_terms": -1}])
def test_a_bad_budget_is_refused_before_anything_is_enumerated(monkeypatch, budget):
    # a nonpositive epsilon or a negative max_terms was refused by the planner,
    # so a sweep recorded it at each instance, or refused at a later degree
    builds = []
    build = identities.build_character_group
    monkeypatch.setattr(identities, "build_character_group",
                        lambda d: builds.append(d) or build(d))
    [(name, value)] = budget.items()
    message = (f"epsilon must be positive, got {value!r}" if name == "epsilon"
               else "max_terms must be nonnegative, got -1")
    grid = SweepGrid(d_values=(1,), q_values=(0.6,), n_values=(0, 800), x_values=(0.0,))
    for identity_id in IDENTITY_IDS:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            run_suite(identity_id, grid, **budget)
    assert builds == []
    inst = SymmetryInstance(chi=build(1)[0], r=1, ctx=QContext(0.6), n=800, s=1.5, m=0, x=0.0)
    for identity_id in IDENTITY_IDS:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check(identity_id, inst, **budget)


@settings(deadline=None, max_examples=400)
@given(
    identity_id=st.sampled_from(IDENTITY_IDS),
    d=st.sampled_from([1, 3]),
    r=st.integers(min_value=0, max_value=2),
    q=st.sampled_from([0.3, 0.6, 0.9]),
    pairs=st.lists(st.tuples(st.integers(min_value=-1, max_value=5),
                             st.integers(min_value=-1, max_value=5)), min_size=1, max_size=2),
    ns=st.lists(st.integers(min_value=-2, max_value=800), min_size=1, max_size=4),
    ms=st.lists(st.integers(min_value=-1, max_value=4), min_size=1, max_size=2),
    xs=st.lists(st.sampled_from([-0.5, 0.0, 0.5, 2.0]), min_size=1, max_size=2),
    ys=st.lists(st.sampled_from([0.0, 0.25]), min_size=1, max_size=2),
    max_terms=st.sampled_from([0, 40]),
)
def test_one_pass_per_line_records_and_refuses_as_check_does(identity_id, d, r, q, pairs, ns,
                                                              ms, xs, ys, max_terms):
    # orders below one, even and negative roles, negative degrees and
    # arguments, x = 0 and degrees up to 800 at term caps that refuse: each
    # line is evaluated once, and every report or refusal is check's
    grid = SweepGrid(d_values=(d,), q_values=(q,), r_values=(r,), ab_pairs=tuple(pairs),
                     n_values=tuple(ns), s_values=(1.5, -2.0), m_values=tuple(ms),
                     x_values=tuple(xs), y_values=tuple(ys))
    assert _batched(identity_id, grid, max_terms=max_terms) == _per_instance(
        identity_id, grid, max_terms=max_terms)


def test_a_wide_line_plans_each_degree_on_its_own():
    # 6001 totals: the four degrees together would be 6001 x 4 cells of about
    # 841 terms, past SERIES_BUDGET, while each degree alone fits
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--identity", "T2", "--d", "3001", "--chi", "1", "--r", "2",
                     "--q", "0.95", "--a", "1", "--b", "1", "--n-max", "3", "--output", "json"])
    chi = build_character_group(3001)[1]
    assert code == 0
    assert out.getvalue().splitlines() == [
        check("T2", SymmetryInstance(chi=chi, r=2, ctx=QContext(0.95), n=n)).to_json_line()
        for n in range(4)]


def test_a_shared_table_plans_each_degree_on_its_own():
    # at q = 0.999 the 38 one-cell degrees of an EQ4 line reach cutoffs of
    # 286,071 terms: one degree alone fits, while 38 cells of that many terms
    # are past SERIES_BUDGET, so a table planned over the union would refuse
    ctx, max_terms = QContext(0.999), 400_000
    with pytest.raises(BudgetExceeded, match="38 cells of more than 263157 terms"):
        qeuler_table(build_character_group(1)[0], 1, [0.5], range(38), ctx, max_terms=max_terms)
    grid = SweepGrid(d_values=(1,), q_values=(0.999,), n_values=tuple(range(38)),
                     x_values=(0.5,))
    assert _batched("EQ4", grid, max_terms=max_terms) == _per_instance("EQ4", grid,
                                                                       max_terms=max_terms)


@pytest.mark.parametrize("identity_id", ["EQ4", "EQ5", "EQ9", "EQ15"])
def test_a_line_tables_each_side_once(monkeypatch, identity_id):
    # one series_table serves every degree of a side's line, not one per degree
    calls = []

    def table(*args):
        calls.append(args)
        yield from series_table(*args)

    monkeypatch.setattr(polynomials, "series_table", table)
    grid = SweepGrid(d_values=(3,), q_values=(0.7,), r_values=(2,), chi_labels=(1,),
                     n_values=tuple(range(8)), m_values=(3,), x_values=(0.5,),
                     y_values=(0.25,))
    reports = [r.to_json_line() for r in run_suite(identity_id, grid)]
    assert len(calls) == 2
    monkeypatch.undo()
    assert reports == _per_instance(identity_id, grid)


@pytest.mark.parametrize("identity_id", ["T2", "EQ12"])
@pytest.mark.parametrize("degrees", [1, 200])
def test_a_line_tabled_in_blocks_of_degrees_equals_per_instance_check(monkeypatch, identity_id,
                                                                      degrees):
    # a line is tabled one degree's column at a time: at q^3 = 0.027 many of
    # its degrees share a cutoff, yet every kernel call weighs one weigher's
    # column, at most len(args) rows of len(coeffs) terms
    widths, blocks = [], []

    def table(chi, r, ctx, xs, weighers, cutoffs):
        widths.append(len(xs))
        yield from series_table(chi, r, ctx, xs, weighers, cutoffs)

    def kernel(coeffs, weights, ctx):
        blocks.append((widths[-1], len(coeffs), weights.shape))
        return alternating_weighted_sum(coeffs, weights, ctx)

    # both sides table their cells through polynomials.degree_table
    monkeypatch.setattr(polynomials, "series_table", table)
    monkeypatch.setattr(polynomials, "alternating_weighted_sum", kernel)
    grid = SweepGrid(d_values=(15,), q_values=(0.3,), r_values=(2,), chi_labels=(1,),
                     ab_pairs=((3, 1),), n_values=tuple(range(degrees)), x_values=(0.5,))
    reports = [r.to_json_line() for r in run_suite(identity_id, grid)]
    assert {rows for rows, _, _ in blocks} == ({89, 1} if identity_id == "EQ12" else {89, 29})
    for rows, terms, shape in blocks:
        assert len(shape) == 2 and shape[0] <= rows and shape[1] == terms
    assert reports == [check(identity_id, inst).to_json_line()
                       for inst in _grid_instances(IDENTITIES[identity_id], grid)]


def test_a_line_refuses_at_its_first_side_that_is_not_finite():
    # T2's sides first overflow to -inf at n = 1030; the prefactor [3]_q^n
    # overflows only at n = 1269, after the degrees before it are summed
    chi = build_character_group(1)[0]
    grid = SweepGrid(d_values=(1,), q_values=(0.5,), ab_pairs=((3, 3),),
                     n_values=tuple(range(1501)))
    assert all(r.passed for r in run_suite("T2", grid._replace(n_values=tuple(range(1030)))))
    with pytest.raises(PlanInfeasible) as batched:
        run_suite("T2", grid)
    with pytest.raises(PlanInfeasible) as single:
        check("T2", SymmetryInstance(chi=chi, r=1, ctx=QContext(0.5), a=3, b=3, n=1030))
    assert str(batched.value) == str(single.value)
    assert "n=1030 is not a finite double" in str(single.value)


_ROOT = Path(__file__).resolve().parent.parent
# installs the benchmark's tracer and prints how many of its LAYERS it wrapped
_INSTALL_TRACER = """
import sys
sys.path[:0] = sys.argv[1:]
from tracer import LAYERS, Tracer
Tracer().install()
bound = 0
for module_name, path in (entry for layer in LAYERS.values() for entry in layer):
    owner = sys.modules["qeuler." + module_name]
    *cls, attr = path.split(".")
    owner = getattr(owner, cls[0]) if cls else owner
    bound += hasattr(getattr(owner, attr), "__wrapped__")
print(bound)
"""


def test_the_benchmark_tracer_binds_every_name_it_wraps():
    # perfbench/tracer.py looks each of its LAYERS up by name: renaming or
    # deleting one of them makes install() raise
    done = subprocess.run([sys.executable, "-c", _INSTALL_TRACER, str(_ROOT / "src"),
                           str(_ROOT / "perfbench")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["26"]


@pytest.mark.parametrize("module,name,identity_id", [
    (identities, "theorem1_sides", "T1"), (identities, "theorem2_sides", "T2"),
    (identities, "theorem3_sides", "T3"), (identities, "eq12_bridge", "EQ12"),
    (identities, "eq15_sides", "EQ15"), (lfun, "verify_interpolation", "EQ4"),
])
def test_each_tracer_stub_is_check_with_its_id(module, name, identity_id):
    stub = getattr(module, name)
    assert list(inspect.signature(stub).parameters) == ["inst"]
    inst = SymmetryInstance(chi=build_character_group(5)[1], r=2, ctx=QContext(0.6), a=1, b=3,
                            n=3, s=1.5 + 0.5j, m=2, x=0.75, y=0.25)
    assert stub(inst).to_json_line() == check(identity_id, inst).to_json_line()


def test_the_spec_constructors_stay_classmethods():
    # perfbench/tracer.py finds create in each class's __dict__ and rewraps it
    chi, ctx = build_character_group(3)[1], QContext(0.5)
    for cls, weigher in ((QEulerSpec, 3), (LfunSpec, 1.5 + 0.5j)):
        assert isinstance(cls.__dict__["create"], classmethod)
        spec = cls.create(chi, 2, weigher, 0.75, ctx)
        assert type(spec) is cls and spec.chi is chi and spec.plan.cutoff_M > 0
        with pytest.raises(AttributeError):
            spec.r = 3


def test_a_sweep_line_is_every_field_but_the_degree():
    # run_suite groups instances by inst._replace(n=None): characters compare by
    # identity, contexts by q, every other field by value
    grid = SweepGrid(d_values=(3, 15), q_values=(0.5, 0.7), chi_labels=(0, 1),
                     ab_pairs=((1, 3), (3, 1)), n_values=(0, 1, 2), x_values=(0.5, 1.0))
    by_key, by_fields = {}, {}
    for k, inst in enumerate(_grid_instances(IDENTITIES["T2"], grid)):
        by_key.setdefault(inst._replace(n=None), []).append(k)
        by_fields.setdefault((id(inst.chi), inst.r, inst.ctx.q, inst.a, inst.b, inst.s,
                              inst.m, inst.x, inst.y), []).append(k)
    assert list(by_key.values()) == list(by_fields.values())
    assert len(by_key) == 32 and all(len(line) == 3 for line in by_key.values())
    chi = build_character_group(3)[1]
    line = SymmetryInstance(chi=chi, r=2, ctx=QContext(0.5), a=3, n=4)._replace(n=None)
    assert line == SymmetryInstance(chi=chi, r=2, ctx=QContext(0.5), a=3)
    assert hash(line) == hash(SymmetryInstance(chi=chi, r=2, ctx=QContext(0.5), a=3))
    assert line != SymmetryInstance(chi=build_character_group(3)[1], r=2, ctx=QContext(0.5),
                                    a=3)


@pytest.mark.parametrize("labels", [(5,), (-1,), (0, 2)])
def test_a_chi_label_outside_the_group_is_refused_before_any_build(monkeypatch, labels):
    builds = []
    build = identities.build_character_group
    monkeypatch.setattr(identities, "build_character_group",
                        lambda d: builds.append(d) or build(d))
    with pytest.raises(DomainError, match="below the group size 2 of d=3, got"):
        run_suite("T2", SweepGrid(d_values=(3,), q_values=(0.5,), chi_labels=labels))
    assert builds == []


@pytest.mark.parametrize("identity_id,grid", [
    ("T2", SweepGrid(d_values=(1,), q_values=(0.5,), n_values=tuple(range(7)))),
    ("T2", SweepGrid(d_values=(3, 5), q_values=(0.5, 0.7), ab_pairs=((1, 3), (3, 5)),
                     n_values=(0, 1, 2))),
    ("T1", SweepGrid(d_values=(15,), q_values=(0.5,), chi_labels=(1, 4), r_values=(1, 2),
                     ab_pairs=((1, 3),), s_values=(1.5, 2 + 1j), x_values=(0.5, 1.0))),
    ("EQ15", SweepGrid(d_values=(3,), q_values=(0.5,), m_values=(0, 1, 2), n_values=(0, 1),
                       x_values=(0.5,), y_values=(0.0, 0.25))),
])
def test_the_sweep_budget_counts_a_grid_before_listing_it(monkeypatch, identity_id, grid):
    builds = []
    build = identities.build_character_group
    monkeypatch.setattr(identities, "build_character_group",
                        lambda d: builds.append(d) or build(d))
    size = len(list(_grid_instances(IDENTITIES[identity_id], grid)))
    builds.clear()
    monkeypatch.setattr(identities, "SWEEP_BUDGET", size)
    assert len(run_suite(identity_id, grid)) == size
    assert builds == list(grid.d_values)
    builds.clear()
    monkeypatch.setattr(identities, "SWEEP_BUDGET", size - 1)
    with pytest.raises(BudgetExceeded, match=f"the sweep has {size} instances"):
        run_suite(identity_id, grid)
    assert builds == []


def test_t1_without_an_exponent_is_a_domain_error(groups, ctx):
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3, x=1.0)
    with pytest.raises(DomainError, match="^T1 needs the exponent s$"):
        check("T1", inst)
