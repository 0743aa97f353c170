"""The argument boundary: every public entry parses each scalar argument once,
as an int (operator.index), a float (a numbers.Real) or a complex (a
numbers.Number), and refuses anything else as a QEulerError.

The property below substitutes one drawn value for one argument of one entry
and compares the call with the call at the value's canonical form, parsed here
by an oracle of its own: equal in every bit and type, or both refused with
one exception type.
A value with no canonical form must be refused (run_suite records it at its
instance).  No call raises another exception or warns."""

import json
import math
import numbers
import operator
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import (
    BudgetExceeded,
    DomainError,
    LfunSpec,
    NegativeArgument,
    PlanInfeasible,
    QContext,
    QEulerError,
    QEulerSpec,
    SweepGrid,
    SymmetryInstance,
    bounded_composition_sums,
    build_character_group,
    check,
    conv_power,
    lfun_value,
    lfun_values,
    plan_truncation,
    plan_truncation_weighted,
    power_sum,
    power_weight_bound,
    q_bracket_two_pow,
    q_number,
    qeuler_addition,
    qeuler_poly_naive,
    qeuler_table,
    qeuler_value,
    run_suite,
)
from qeuler.characters import group_order
from qeuler.polynomials import char_tuple_sum

_CHI = build_character_group(3)[1]
_CTX = QContext(0.5)
_SPEC = QEulerSpec.create(_CHI, 2, 1, 0.5, _CTX)
_INST = SymmetryInstance(chi=_CHI, r=1, ctx=_CTX, a=1, b=3, n=1, s=1.5, m=1, x=0.5, y=0.25)
_GRID = dict(d_values=3, q_values=0.5, r_values=1, chi_labels=1, n_values=1, x_values=0.5,
             s_values=1.5, m_values=1, y_values=0.25)


def _grid(field, value):
    """A one-instance SweepGrid with value on the axis field, "a" or "b" the pair's."""
    axes = {k: (value if k == field else v,) for k, v in _GRID.items()}
    pair = (value if field == "a" else 1, value if field == "b" else 3)
    return SweepGrid(**axes, ab_pairs=(pair,))


def _identity(field):
    """The identity whose row reads the instance field or grid axis field."""
    return {"s": "T1", "y": "EQ9", "m": "EQ15"}.get(field.removesuffix("_values"), "T2")


# entry.argument -> (kind, canonical value the draws stand in for, the call at a
# value); a kind is "int", "float", "float?" (a float or None) or "complex"
CASES = {
    "QContext.q": ("float", 0.5, lambda v: QContext(v)),
    "QContext.power.a": ("int", 2, lambda v: _CTX.power(v)),
    "build_character_group.d": ("int", 5, lambda v: [c.values for c in build_character_group(v)]),
    "group_order.d": ("int", 5, group_order),
    "chi.m": ("int", 2, _CHI),
    "periodic_values.length": ("int", 4, _CHI.periodic_values),
    "conv_power.r": ("int", 2, lambda v: conv_power(_CHI, v, 7)),
    "conv_power.M": ("int", 7, lambda v: conv_power(_CHI, 2, v)),
    "bounded_composition_sums.r": ("int", 2, lambda v: bounded_composition_sums(_CHI, v, 4)),
    "bounded_composition_sums.upper": ("int", 4,
                                       lambda v: bounded_composition_sums(_CHI, 2, v)),
    "plan_truncation.x": ("float", 0.5, lambda v: plan_truncation(_CTX, v, 2, 1, 1e-10)),
    "plan_truncation.n": ("int", 2, lambda v: plan_truncation(_CTX, 0.5, v, 1, 1e-10)),
    "plan_truncation.r": ("int", 2, lambda v: plan_truncation(_CTX, 0.5, 2, v, 1e-10)),
    "plan_truncation.epsilon": ("float", 1e-10, lambda v: plan_truncation(_CTX, 0.5, 2, 1, v)),
    "plan_truncation.max_terms": ("int", 200,
                                  lambda v: plan_truncation(_CTX, 0.5, 2, 1, 1e-10, v)),
    "plan_truncation_weighted.r": ("int", 2,
                                   lambda v: plan_truncation_weighted(_CTX, v, 4.0, 1e-10)),
    "plan_truncation_weighted.weight_bound": (
        "float", 4.0, lambda v: plan_truncation_weighted(_CTX, 2, v, 1e-10)),
    "plan_truncation_weighted.epsilon": ("float", 1e-10,
                                         lambda v: plan_truncation_weighted(_CTX, 2, 4.0, v)),
    "plan_truncation_weighted.max_terms": (
        "int", 200, lambda v: plan_truncation_weighted(_CTX, 2, 4.0, 1e-10, v)),
    "q_number.x": ("float", 1.5, lambda v: q_number(v, _CTX)),
    "q_bracket_two_pow.r": ("int", 2, lambda v: q_bracket_two_pow(v, _CTX)),
    "QEulerSpec.create.r": ("int", 2, lambda v: QEulerSpec.create(_CHI, v, 1, 0.5, _CTX)),
    "QEulerSpec.create.n": ("int", 1, lambda v: QEulerSpec.create(_CHI, 2, v, 0.5, _CTX)),
    "QEulerSpec.create.x": ("float", 0.5, lambda v: QEulerSpec.create(_CHI, 2, 1, v, _CTX)),
    "qeuler_value.r": ("int", 2, lambda v: qeuler_value(_CHI, v, 2, 0.5, _CTX)),
    "qeuler_value.n": ("int", 2, lambda v: qeuler_value(_CHI, 2, v, 0.5, _CTX)),
    "qeuler_value.x": ("float", 0.5, lambda v: qeuler_value(_CHI, 2, 2, v, _CTX)),
    "qeuler_value.epsilon": ("float", 1e-10,
                             lambda v: qeuler_value(_CHI, 2, 2, 0.5, _CTX, epsilon=v)),
    "qeuler_value.max_terms": ("int", 200,
                               lambda v: qeuler_value(_CHI, 2, 2, 0.5, _CTX, max_terms=v)),
    "qeuler_table.r": ("int", 2, lambda v: qeuler_table(_CHI, v, [0.5, 1.0], [0, 2], _CTX)),
    "qeuler_table.x": ("float", 0.5, lambda v: qeuler_table(_CHI, 2, [1.0, v], [0, 2], _CTX)),
    "qeuler_table.n": ("int", 2, lambda v: qeuler_table(_CHI, 2, [0.5, 1.0], [0, v], _CTX)),
    "qeuler_table.epsilon": ("float", 1e-10,
                             lambda v: qeuler_table(_CHI, 2, [0.5], [2], _CTX, v)),
    "qeuler_table.max_terms": ("int", 200,
                               lambda v: qeuler_table(_CHI, 2, [0.5], [2], _CTX, 1e-10, v)),
    "qeuler_addition.r": ("int", 2, lambda v: qeuler_addition(_CHI, v, 2, _CTX, 0.5, 0.25)),
    "qeuler_addition.n": ("int", 2, lambda v: qeuler_addition(_CHI, 2, v, _CTX, 0.5, 0.25)),
    "qeuler_addition.x": ("float", 0.5, lambda v: qeuler_addition(_CHI, 2, 2, _CTX, v, 0.25)),
    "qeuler_addition.y": ("float", 0.25, lambda v: qeuler_addition(_CHI, 2, 2, _CTX, 0.5, v)),
    "qeuler_addition.epsilon": (
        "float", 1e-10, lambda v: qeuler_addition(_CHI, 2, 2, _CTX, 0.5, 0.25, v)),
    "qeuler_addition.max_terms": (
        "int", 200, lambda v: qeuler_addition(_CHI, 2, 2, _CTX, 0.5, 0.25, 1e-10, v)),
    "qeuler_poly_naive.M": ("int", 3, lambda v: qeuler_poly_naive(_SPEC, v)),
    "char_tuple_sum.r": ("int", 2, lambda v: char_tuple_sum(_CHI.periodic_values(3),
                                                            np.ones(9), v)),
    "LfunSpec.create.r": ("int", 2, lambda v: LfunSpec.create(_CHI, v, 1.5, 0.5, _CTX)),
    "LfunSpec.create.s": ("complex", 1.5, lambda v: LfunSpec.create(_CHI, 2, v, 0.5, _CTX)),
    "LfunSpec.create.x": ("float", 0.5, lambda v: LfunSpec.create(_CHI, 2, 1.5, v, _CTX)),
    "lfun_value.r": ("int", 2, lambda v: lfun_value(_CHI, v, 1.5, 0.5, _CTX)),
    "lfun_value.s": ("complex", 1.5, lambda v: lfun_value(_CHI, 2, v, 0.5, _CTX)),
    "lfun_value.x": ("float", 0.5, lambda v: lfun_value(_CHI, 2, 1.5, v, _CTX)),
    "lfun_value.epsilon": ("float", 1e-10,
                           lambda v: lfun_value(_CHI, 2, 1.5, 0.5, _CTX, epsilon=v)),
    "lfun_value.max_terms": ("int", 200,
                             lambda v: lfun_value(_CHI, 2, 1.5, 0.5, _CTX, max_terms=v)),
    "lfun_values.r": ("int", 2, lambda v: lfun_values(_CHI, v, 1.5, [0.5, 1.0], _CTX)),
    "lfun_values.s": ("complex", 1.5, lambda v: lfun_values(_CHI, 2, v, [0.5, 1.0], _CTX)),
    "lfun_values.x": ("float", 0.5, lambda v: lfun_values(_CHI, 2, 1.5, [1.0, v], _CTX)),
    "lfun_values.epsilon": ("float", 1e-10,
                            lambda v: lfun_values(_CHI, 2, 1.5, [0.5], _CTX, v)),
    "lfun_values.max_terms": ("int", 200,
                              lambda v: lfun_values(_CHI, 2, 1.5, [0.5], _CTX, 1e-10, v)),
    "power_weight_bound.x": ("float", 0.5, lambda v: power_weight_bound(_CTX, v, 1.5)),
    "power_weight_bound.s": ("complex", 1.5, lambda v: power_weight_bound(_CTX, 0.5, v)),
    "power_sum.r": ("int", 2, lambda v: power_sum(_CHI, v, 2, 1, 3, _CTX)),
    "power_sum.n": ("int", 2, lambda v: power_sum(_CHI, 1, v, 1, 3, _CTX)),
    "power_sum.i": ("int", 1, lambda v: power_sum(_CHI, 1, 2, v, 3, _CTX)),
    "power_sum.upper_a": ("int", 3, lambda v: power_sum(_CHI, 1, 2, 1, v, _CTX)),
    **{f"check.{field}": (kind, getattr(_INST, field),
                          lambda v, field=field: check(_identity(field),
                                                       _INST._replace(**{field: v})))
       for field, kind in (("r", "int"), ("a", "int"), ("b", "int"), ("m", "int"),
                           ("n", "int"), ("s", "complex"), ("x", "float"), ("y", "float"))},
    "check.epsilon": ("float", 1e-10, lambda v: check("T2", _INST, epsilon=v)),
    "check.max_terms": ("int", 200, lambda v: check("T2", _INST, max_terms=v)),
    "check.rel_tol": ("float?", 1e-7, lambda v: check("T2", _INST, rel_tol=v)),
    **{f"run_suite.{field}": (kind, base,
                              lambda v, field=field: run_suite(_identity(field), _grid(field, v)))
       for field, kind, base in (
           ("d_values", "int", 3), ("q_values", "float", 0.5), ("r_values", "int", 1),
           ("chi_labels", "int", 1), ("a", "int", 1), ("b", "int", 3), ("m_values", "int", 1),
           ("n_values", "int", 1), ("s_values", "complex", 1.5), ("x_values", "float", 0.5),
           ("y_values", "float", 0.25))},
    "run_suite.epsilon": ("float", 1e-10, lambda v: run_suite("T2", _grid(None, 0), epsilon=v)),
    "run_suite.max_terms": ("int", 200, lambda v: run_suite("T2", _grid(None, 0), max_terms=v)),
    "run_suite.rel_tol": ("float?", 1e-7, lambda v: run_suite("T2", _grid(None, 0), rel_tol=v)),
}
_NO_FORM = object()


def _canonical(kind, value):
    """value in the canonical type of its kind, or _NO_FORM where it has none;
    a kind "float?" takes None as it is (rel_tol: the row's own)."""
    if kind == "float?":
        kind = "float"
        if value is None:
            return None
    try:
        if kind == "int":
            return operator.index(value)
        if not isinstance(value, numbers.Real if kind == "float" else numbers.Number):
            return _NO_FORM
        return float(value) if kind == "float" else complex(value)
    except (TypeError, OverflowError):
        return _NO_FORM


def _bits(value):
    """Every bit and type of a result: arrays by dtype and bytes, containers
    member by member, anything else by its type and repr."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(map(_bits, value))
    if isinstance(value, dict):
        return "dict", tuple((key, _bits(v)) for key, v in value.items())
    return type(value).__name__, repr(value)


def _outcome(call, value):
    """('value', bits) or ('refused', type): a refusal may quote the value as it
    was given.  Anything else that is raised, and every warning, fails the
    test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(value)
        except QEulerError as exc:
            return "refused", type(exc)
        if isinstance(result, list) and result and hasattr(result[0], "to_json_line"):
            [report.to_json_line() for report in result]  # every report serializes
        return "value", _bits(result)


@st.composite
def _stand_ins(draw, case):
    """A value standing in for the case's canonical one, in one of the drawn
    types, or a value of no use to any argument."""
    base = CASES[case][1]
    real = base.real if isinstance(base, complex) else float(base)
    whole = int(real)
    return draw(st.sampled_from([
        whole, bool(whole), np.int64(whole), np.uint8(abs(whole)), float(real),
        np.float32(real), Fraction(real), Decimal(repr(real)), complex(real),
        complex(real, 0.5), str(real), None, math.nan, math.inf, -math.inf, -1, 0, 2.5,
        10 ** 400,  # past the double range
    ]))


_SUBSTITUTIONS = st.sampled_from(sorted(CASES)).flatmap(
    lambda case: st.tuples(st.just(case), _stand_ins(case)))


@settings(deadline=None, max_examples=2000)
@given(substitution=_SUBSTITUTIONS)
# epsilon=None, epsilon="1e-10" and max_terms=None raised TypeError; 2.5 was a float cap
@example(substitution=("qeuler_value.epsilon", None))
@example(substitution=("qeuler_value.epsilon", "1e-10"))
@example(substitution=("qeuler_value.max_terms", None))
@example(substitution=("qeuler_value.max_terms", 2.5))
@example(substitution=("lfun_value.s", None))  # TypeError
@example(substitution=("lfun_value.s", "1.5"))  # evaluated
@example(substitution=("power_weight_bound.s", None))  # AttributeError
@example(substitution=("check.rel_tol", "x"))  # TypeError
@example(substitution=("chi.m", 2.5))  # IndexError
@example(substitution=("chi.m", None))  # TypeError
@example(substitution=("q_number.x", Decimal("0.5")))  # TypeError
@example(substitution=("plan_truncation_weighted.weight_bound", None))  # TypeError
@example(substitution=("run_suite.epsilon", None))  # TypeError
@example(substitution=("run_suite.chi_labels", 1.0))  # TypeError
# np.complex128 and np.float64 results
@example(substitution=("qeuler_value.r", np.int64(2)))
@example(substitution=("lfun_value.r", np.int64(2)))
@example(substitution=("q_bracket_two_pow.r", np.int64(2)))
@example(substitution=("qeuler_value.x", Decimal("0.5")))  # "x must be nonnegative, got 0.5"
@example(substitution=("run_suite.x_values", np.float32(0.5)))  # an error record's float32
# ints past the double range: a raw OverflowError, a RuntimeWarning or no return
@example(substitution=("q_bracket_two_pow.r", 10 ** 400))
@example(substitution=("qeuler_value.r", 10 ** 400))
@example(substitution=("QContext.power.a", 10 ** 400))
@example(substitution=("conv_power.r", 10 ** 400))
@example(substitution=("char_tuple_sum.r", 10 ** 400))
@example(substitution=("qeuler_poly_naive.M", 10 ** 400))
@example(substitution=("periodic_values.length", 10 ** 400))
def test_a_call_equals_its_call_at_canonical_arguments_or_is_refused(substitution):
    case, value = substitution
    kind, _, call = CASES[case]
    canonical = _canonical(kind, value)
    outcome = _outcome(call, value)
    if canonical is not _NO_FORM:
        assert outcome == _outcome(call, canonical)
    elif outcome[0] == "value":  # only a sweep records the refusal at its instance
        assert case.startswith("run_suite.")
        assert all(report.error.startswith(("DomainError", "ParityViolation"))
                   for report in call(value))


@pytest.mark.parametrize("call, error, message", [
    (lambda: qeuler_value(_CHI, 1, 2, 0.5, _CTX, epsilon=None), DomainError,
     "epsilon must be a real number, got None"),
    (lambda: qeuler_value(_CHI, 1, 2, 0.5, _CTX, epsilon="1e-10"), DomainError,
     "epsilon must be a real number, got '1e-10'"),
    (lambda: qeuler_value(_CHI, 1, 2, 0.5, _CTX, max_terms=None), DomainError,
     "max_terms must be an integer, got None"),
    (lambda: qeuler_value(_CHI, 1, 2, 0.5, _CTX, max_terms=2.5), DomainError,
     "max_terms must be an integer, got 2.5"),
    (lambda: lfun_value(_CHI, 1, None, 0.5, _CTX), DomainError, "s must be a number, got None"),
    (lambda: lfun_value(_CHI, 1, "1.5", 0.5, _CTX), DomainError, "s must be a number, got '1.5'"),
    (lambda: power_weight_bound(_CTX, 0.5, None), DomainError, "s must be a number, got None"),
    (lambda: check("T2", _INST, rel_tol="x"), DomainError,
     "rel_tol must be a real number, got 'x'"),
    (lambda: _CHI(2.5), NegativeArgument, "character argument must be an integer, got 2.5"),
    (lambda: _CHI(None), NegativeArgument, "character argument must be an integer, got None"),
    (lambda: q_number(Decimal("0.5"), _CTX), DomainError,
     "x must be a real number, got Decimal('0.5')"),
    (lambda: plan_truncation_weighted(_CTX, 2, None, 1e-10), DomainError,
     "weight bound must be a real number, got None"),
    (lambda: run_suite("T2", _grid(None, 0), epsilon=None), DomainError,
     "epsilon must be a real number, got None"),
    (lambda: run_suite("T2", _grid("chi_labels", 1.0)), DomainError,
     "chi label must be an integer, got 1.0"),
    (lambda: qeuler_value(_CHI, 1, 2, Decimal("0.5"), _CTX), DomainError,
     "x must be a real number, got Decimal('0.5')"),
    (lambda: check("EQ9", _INST._replace(x=Decimal("0.5"))), DomainError,
     "EQ9 needs a finite nonnegative x, got Decimal('0.5')"),
])
def test_a_probe_that_raised_or_blamed_the_value_is_refused_by_its_type(call, error, message):
    # each raised a raw TypeError, AttributeError or IndexError, evaluated a
    # string or a float cap, or refused a Decimal 0.5 as negative
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


_HUGE = 10 ** 400


@pytest.mark.parametrize("call, error, message", [
    (lambda: q_bracket_two_pow(2000, _CTX), PlanInfeasible,
     "[2]_q^r overflows a double (q=0.5, r=2000)"),
    (lambda: q_bracket_two_pow(_HUGE, _CTX), PlanInfeasible,
     "[2]_q^r overflows a double (q=0.5, r=1.00000e+400)"),
    (lambda: _CTX.power(_HUGE), PlanInfeasible, "q^a underflows to zero (q=0.5, a=1.00000e+400)"),
    (lambda: qeuler_value(_CHI, _HUGE, 2, 0.5, _CTX), PlanInfeasible,
     "no cutoff within 20000 terms certifies error 1e-10 (q=0.5, r=1.00000e+400, "
     "weight bound 4.0)"),
    (lambda: qeuler_table(_CHI, _HUGE, [0.5], [2], _CTX), PlanInfeasible, "no cutoff"),
    (lambda: qeuler_addition(_CHI, _HUGE, 2, _CTX, 0.5, 0.25), PlanInfeasible, "no cutoff"),
    (lambda: lfun_value(_CHI, _HUGE, 1.5, 0.5, _CTX), PlanInfeasible, "no cutoff"),
    (lambda: lfun_values(_CHI, _HUGE, 1.5, [0.5], _CTX), PlanInfeasible, "no cutoff"),
    (lambda: plan_truncation(_CTX, 0.5, 2, _HUGE, 1e-10), PlanInfeasible, "no cutoff"),
    (lambda: bounded_composition_sums(_CHI, _HUGE, 3), BudgetExceeded,
     "1.00000e+400-part composition sums below 3 take 1.33333e+800 multiply-adds, "
     "over the budget 1e+08"),
    (lambda: bounded_composition_sums(_CHI, 2, _HUGE), BudgetExceeded,
     "2-part composition sums below 1.00000e+400 take 1.00000e+800 multiply-adds, "
     "over the budget 1e+08"),
    (lambda: conv_power(_CHI, _HUGE, 7), BudgetExceeded,
     "1.00000e+400-part composition sums over 3 periods take binomials past the double range"),
    (lambda: char_tuple_sum(_CHI.periodic_values(3), np.ones(9), _HUGE), BudgetExceeded,
     "enumerating 3^1.00000e+400 index tuples in 1.00000e+400 passes exceeds the budget 1e+08"),
    (lambda: char_tuple_sum(build_character_group(1)[0].periodic_values(1), np.ones(3), 10 ** 7),
     BudgetExceeded, "enumerating 1^1e+07 index tuples in 1e+07 passes exceeds the budget 1e+08"),
    (lambda: qeuler_poly_naive(_SPEC, _HUGE), BudgetExceeded,
     "enumerating 1.00000e+400^2 index tuples in 1 passes exceeds the budget 1e+08"),
    (lambda: _CHI.periodic_values(_HUGE), BudgetExceeded,
     "1.00000e+400 periodic values exceed the budget 1e+08"),
])
def test_an_int_past_the_double_range_is_refused_by_a_type_its_entry_has(call, error, message):
    # each raised a raw OverflowError or ValueError, warned "invalid value
    # encountered in matmul", or did not return; every refusal comes at once
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as refused:
            call()
    assert str(refused.value).startswith(message)


def test_a_numpy_order_gives_the_result_types_of_an_int_order():
    assert type(qeuler_value(_CHI, np.int64(2), 2, 0.5, _CTX)) is complex
    assert type(lfun_value(_CHI, np.int64(2), 1.5, 0.5, _CTX)) is complex
    assert type(q_bracket_two_pow(np.int64(2), _CTX)) is float


@pytest.mark.parametrize("x", [np.float32(0.5), Fraction(1, 2)])
def test_an_error_report_records_its_instance_in_canonical_types(x):
    # to_json_line raised "Object of type float32 is not JSON serializable"
    grid = SweepGrid((3,), (0.5,), (1,), (1,), ((2, 3),), (1,), x_values=(x,))
    [report] = run_suite("T2", grid)
    assert report.error == "ParityViolation: a must be a positive odd integer, got 2"
    assert type(report.instance["x"]) is float
    [expected] = run_suite("T2", grid._replace(x_values=(0.5,)))
    assert report.to_json_line() == expected.to_json_line()
    assert json.loads(report.to_json_line())["instance"]["x"] == 0.5


def test_an_error_report_writes_a_field_that_does_not_parse_as_its_repr():
    grid = SweepGrid((3,), (0.5,), (1,), (1,), ((1, 3),), (1,), x_values=(Decimal("0.5"),))
    [report] = run_suite("T2", grid)
    assert report.error == "DomainError: T2 needs a finite nonnegative x, got Decimal('0.5')"
    assert json.loads(report.to_json_line())["instance"]["x"] == "Decimal('0.5')"


def test_a_role_past_the_double_range_overflows_as_a_side_does():
    # the parsed bracket of a role refused it by the name x as a DomainError,
    # which a sweep records; the side's overflow ends the sweep as before
    inst = _INST._replace(a=10 ** 400 + 1)
    message = "a side of T2 overflows a double: int too large to convert to float"
    with pytest.raises(PlanInfeasible, match=f"^{re.escape(message)}$"):
        check("T2", inst)
    with pytest.raises(PlanInfeasible, match=f"^{re.escape(message)}$"):
        run_suite("T2", _grid("a", 10 ** 400 + 1))
