import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
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
    eq12_bridge,
    eq15_sides,
    lfun_eval,
    power_sum,
    q_bracket_two_pow,
    q_number,
    qeuler_poly,
    run_suite,
    suite_passed,
    theorem1_sides,
    theorem2_sides,
    theorem3_sides,
)
from qeuler.characters import bounded_composition_sums
from qeuler.identities import IDENTITIES, _power_sums, _role_argument, check
from qeuler.report import reports_to_json_lines


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
                oracle = grouped_power_sum(chi, r, n, i, upper, ctx)
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


@given(
    x=st.floats(min_value=0.0, max_value=1e6),
    a=st.integers(min_value=0, max_value=7).map(lambda k: 2 * k + 1),
    b=st.integers(min_value=0, max_value=7).map(lambda k: 2 * k + 1),
    t=st.integers(min_value=0, max_value=500),
)
def test_role_argument_is_the_correctly_rounded_rational(x, a, b, t):
    # b*x + (b/a)*t computed exactly, then rounded once
    assert _role_argument(b, x, a, t) == float(Fraction(x) * b + Fraction(b * t, a))


def test_equal_parameters_are_bitwise_exact(groups, ctx):
    inst = SymmetryInstance(chi=groups[3][1], r=2, ctx=ctx, a=3, b=3, n=4,
                            s=1.5 + 0.5j, x=0.5)
    for sides in (theorem1_sides, theorem2_sides, theorem3_sides):
        report = sides(inst)
        assert report.lhs == report.rhs
        assert report.residual == 0.0
        assert report.passed


def test_theorem2_mirror_swaps_sides_bitwise(groups, ctx):
    forward = theorem2_sides(
        SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=3, n=3, x=1.0)
    )
    backward = theorem2_sides(
        SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=3, b=1, n=3, x=1.0)
    )
    assert forward.lhs == backward.rhs
    assert forward.rhs == backward.lhs


@pytest.mark.parametrize("a,b", [(1, 3), (3, 5), (1, 5)])
def test_theorem2_small_grid(groups, ctx, a, b):
    for d in (1, 3):
        for chi in groups[d]:
            for n in (0, 3, 6):
                for x in (0.0, 1.0):
                    inst = SymmetryInstance(chi=chi, r=1, ctx=ctx, a=a, b=b, n=n, x=x)
                    report = theorem2_sides(inst)
                    assert report.passed, (d, chi.label, n, x, report.residual)


def test_theorem1_small_grid(groups, ctx):
    for s in (-3 + 0j, 0.5 + 0j, 2.5 + 0j, 1 + 1j):
        for chi in groups[3]:
            inst = SymmetryInstance(chi=chi, r=1, ctx=ctx, a=1, b=3, s=s, x=1.0)
            report = theorem1_sides(inst)
            assert report.identity_id == "T1"
            assert report.passed, (s, chi.label, report.residual)


def test_theorem3_small_grid(groups, ctx):
    for chi in groups[3]:
        for n in (0, 2, 5):
            inst = SymmetryInstance(chi=chi, r=2, ctx=ctx, a=1, b=3, n=n, x=1.0)
            report = theorem3_sides(inst)
            assert report.identity_id == "T3"
            assert report.passed, (chi.label, n, report.residual)


def test_theorem3_degree_zero_reduces_to_single_product(groups, ctx):
    # n = 0: each side is [2]^r E_0(bx) S_{0,0}(ad)
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=3, b=5, n=0, x=0.5)
    report = theorem3_sides(inst)
    assert report.passed


def test_bridge_small_grid(groups, ctx):
    for chi in groups[3]:
        for n in (0, 3, 6):
            inst = SymmetryInstance(chi=chi, r=1, ctx=ctx, a=1, b=3, n=n, x=1.0)
            forward = eq12_bridge(inst)
            mirrored = eq12_bridge(inst, mirrored=True)
            assert forward.identity_id == "EQ12"
            assert mirrored.identity_id == "EQ13"
            assert forward.passed, (chi.label, n, forward.residual)
            assert mirrored.passed, (chi.label, n, mirrored.residual)


def test_bridge_collapses_when_everything_is_one(groups, ctx):
    # d = 1, a = b = 1, r = 1: both forms reduce to [2]_q E_n(x) exactly
    inst = SymmetryInstance(chi=groups[1][0], r=1, ctx=ctx, a=1, b=1, n=3, x=0.5)
    report = eq12_bridge(inst)
    assert report.residual == 0.0
    assert report.passed


def test_theorem1_at_negative_integers_matches_theorem2(groups, ctx):
    # T2 sides equal ([a]_q [b]_q)^n times the T1 sides at s = -n
    for chi in groups[3]:
        for a, b, n in ((1, 3, 2), (3, 5, 3)):
            t1 = theorem1_sides(
                SymmetryInstance(chi=chi, r=1, ctx=ctx, a=a, b=b, s=complex(-n), x=1.0)
            )
            t2 = theorem2_sides(
                SymmetryInstance(chi=chi, r=1, ctx=ctx, a=a, b=b, n=n, x=1.0)
            )
            scale = (q_number(a, ctx) * q_number(b, ctx)) ** n
            assert abs(scale * t1.lhs - t2.lhs) <= 1e-8 * max(1.0, abs(t2.lhs))
            assert abs(scale * t1.rhs - t2.rhs) <= 1e-8 * max(1.0, abs(t2.rhs))


def test_eq15_degenerate_x_is_exact(groups, ctx):
    report = eq15_sides(groups[3][1], 1, 3, 2, 0.0, 0.25, ctx)
    assert report.lhs == report.rhs
    assert report.residual == 0.0


def test_eq15_small_grid(groups, ctx):
    for chi in groups[3]:
        for m, n in ((0, 3), (3, 3), (5, 2)):
            report = eq15_sides(chi, 1, m, n, 0.5, 0.25, ctx)
            assert report.passed, (chi.label, m, n, report.residual)


def test_parity_violations_are_rejected(groups, ctx):
    even_a = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=2, b=3, n=1, x=1.0)
    with pytest.raises(ParityViolation):
        theorem2_sides(even_a)
    even_b = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, a=1, b=4, n=1, x=1.0)
    with pytest.raises(ParityViolation):
        theorem3_sides(even_b)


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
    assert reports_to_json_lines(first) == reports_to_json_lines(again)


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
    loose = theorem2_sides(inst, epsilon=1e-8)
    tight = theorem2_sides(inst, epsilon=5e-9)
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
    lines = reports_to_json_lines(reports).splitlines()
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
    report = theorem1_sides(inst)
    blob = json.dumps(report.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["instance"]["s"] == [1.0, 1.0]
    assert parsed["instance"]["d"] == 3


def _reference_side(inst, first, second, prefactor, term):
    """One T1/T2 side as a scalar loop over the totals t: a plan and a series
    per t, the evaluation the batched kernel replaces."""
    chi, r, ctx = inst.chi, inst.r, inst.ctx
    ctx_first = ctx.power(first)
    total = 0j
    for t, w_t in enumerate(bounded_composition_sums(chi, r, chi.modulus_d * first)):
        arg = _role_argument(second, inst.x, first, t)
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
    t2 = theorem2_sides(inst)
    assert t2.lhs == _reference_poly_side(inst, a, b)
    assert t2.rhs == _reference_poly_side(inst, b, a)
    if x >= 0.01:  # [x]_q of a tiny x underflows; its plan is infeasible
        t1 = theorem1_sides(inst)
        assert t1.lhs == _reference_lfun_side(inst, a, b)
        assert t1.rhs == _reference_lfun_side(inst, b, a)


@pytest.mark.parametrize("d", [1, 3, 15])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_batched_power_sums_equal_single_ones(groups, ctx, d, r):
    chi = build_character_group(d)[-1]
    for upper in (1, 4, 15):
        batch = _power_sums(chi, r, 5, range(6), upper, ctx)
        assert batch == [power_sum(chi, r, 5, i, upper, ctx) for i in range(6)]


def test_side_budget_counts_the_work_done(groups, ctx):
    # (45*5)^4 tuples were refused, but the side enumerates none of them
    chi = build_character_group(45)[3]
    inst = SymmetryInstance(chi=chi, r=4, ctx=ctx, a=5, b=3, n=0, x=1.0)
    assert theorem2_sides(inst).passed
    # the convolution behind the composition sums, and the rows of the batch
    with pytest.raises(BudgetExceeded, match="multiply-adds"):
        theorem2_sides(SymmetryInstance(chi=chi, r=2, ctx=ctx, a=2001, b=3, n=0))
    with pytest.raises(BudgetExceeded, match="bracket matrix"):
        theorem2_sides(SymmetryInstance(chi=chi, r=1, ctx=ctx, a=300001, b=3, n=0))


def test_overflowing_side_is_infeasible():
    # [a]_q^n overflows in the side's prefactor before its planner runs
    inst = SymmetryInstance(chi=build_character_group(1)[0], r=1, ctx=QContext(0.9), a=5, b=1,
                            n=600, x=5.0)
    with pytest.raises(PlanInfeasible):
        theorem2_sides(inst)


@pytest.mark.parametrize("field,value", [
    ("x", math.nan), ("x", math.inf), ("y", math.nan), ("y", math.inf), ("m", math.inf),
    ("n", math.nan),
])
def test_check_rejects_non_finite_arguments(groups, ctx, field, value):
    fields = {"m": 1, "n": 1, "x": 0.5, "y": 0.25} | {field: value}
    inst = SymmetryInstance(chi=groups[3][1], r=1, ctx=ctx, **fields)
    with pytest.raises(DomainError, match="finite"):
        check("EQ15" if field == "m" else "EQ9", inst)


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
