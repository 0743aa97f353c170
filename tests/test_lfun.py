import json
import math
import re

import numpy as np
import pytest

from qeuler import (
    DomainError,
    LfunSpec,
    PlanInfeasible,
    QContext,
    SymmetryInstance,
    TruncationPlan,
    build_character_group,
    check,
    lfun_eval,
    lfun_value,
    lfun_values,
    qeuler_value,
)
from qeuler.cli import main


@pytest.fixture(scope="module")
def groups():
    return {d: build_character_group(d) for d in (1, 3, 5)}


def test_exponent_zero_is_degree_zero_euler_number(groups):
    # s = 0 removes the bracket weight entirely, independent of x
    ctx = QContext(0.5)
    for x in (0.25, 1.0, 2.0):
        value = lfun_value(groups[1][0], 1, 0j, x, ctx, epsilon=1e-12)
        assert abs(value - 1.0) <= 1e-11
    chi = groups[3][1]
    at_half = lfun_value(chi, 2, 0j, 0.5, ctx, epsilon=1e-12)
    at_one = lfun_value(chi, 2, 0j, 1.0, ctx, epsilon=1e-12)
    assert abs(at_half - at_one) <= 1e-11


def test_negative_one_interpolates_degree_one(groups):
    ctx = QContext(0.5)
    lhs = lfun_value(groups[1][0], 1, -1 + 0j, 1.0, ctx, epsilon=1e-12)
    rhs = qeuler_value(groups[1][0], 1, 1, 1.0, ctx, epsilon=1e-12)
    assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_interpolation_reports(groups, d, r):
    ctx = QContext(0.5)
    for chi in groups[d]:
        for n in (0, 3, 8):
            report = check("EQ4", SymmetryInstance(chi=chi, r=r, ctx=ctx, n=n, x=1.0),
                           rel_tol=1e-8)
            assert report.identity_id == "EQ4"
            assert report.passed, report.residual
            assert report.residual <= 1e-8


def test_truncation_self_oracle(groups):
    # a tenfold longer truncation moves the value by at most the tail bound
    ctx = QContext(0.5)
    chi = groups[3][1]
    spec = LfunSpec.create(chi, 1, 2 + 0j, 1.0, ctx, epsilon=1e-8)
    wide_plan = TruncationPlan(10 * spec.plan.cutoff_M, spec.plan.tail_bound)
    wide = LfunSpec(chi, 1, 2 + 0j, 1.0, ctx, wide_plan)
    assert abs(lfun_eval(spec) - lfun_eval(wide)) <= spec.plan.tail_bound


def test_continuity_in_x(groups):
    ctx = QContext(0.5)
    chi = groups[3][0]
    s = 1.5 + 0j
    for x in (0.5, 1.0, 2.0):
        h = 1e-5
        step = abs(lfun_value(chi, 1, s, x + h, ctx) - lfun_value(chi, 1, s, x, ctx))
        slope = abs(
            lfun_value(chi, 1, s, x + 1e-2, ctx) - lfun_value(chi, 1, s, x - 1e-2, ctx)
        ) / 2e-2
        assert step <= 2.0 * (slope + 1.0) * h


def test_conjugate_symmetry(groups):
    ctx = QContext(0.5)
    group = groups[5]
    s = 1.25 + 0.75j
    for chi in group:
        conj = next(
            other for other in group
            if np.allclose(other.values, np.conj(chi.values), atol=0)
        )
        lhs = lfun_value(conj, 2, s.conjugate(), 1.0, ctx)
        rhs = lfun_value(chi, 2, s, 1.0, ctx).conjugate()
        assert abs(lhs - rhs) <= 1e-12


def test_complex_exponent_is_finite(groups):
    ctx = QContext(0.5)
    value = lfun_value(groups[3][1], 2, 1 + 1j, 1.0, ctx)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_domain_validation(groups):
    ctx = QContext(0.5)
    chi = groups[3][0]
    with pytest.raises(DomainError):
        LfunSpec.create(chi, 1, 1 + 0j, 0.0, ctx)
    with pytest.raises(DomainError):
        LfunSpec.create(chi, 1, 1 + 0j, -1.0, ctx)
    with pytest.raises(DomainError):
        LfunSpec.create(chi, 0, 1 + 0j, 1.0, ctx)
    with pytest.raises(DomainError):
        check("EQ4", SymmetryInstance(chi=chi, r=1, ctx=ctx, n=-1, x=1.0))


@pytest.mark.parametrize("s", [-2.0, 1.5])
@pytest.mark.parametrize("x", [math.nan, 1j])
def test_an_argument_that_is_not_a_positive_real_is_refused(groups, s, x):
    # at s = -2 nan gave (nan+nanj); at s = 1.5 only the planner refused it
    with pytest.raises(DomainError, match=re.escape(f"x must be strictly positive, got {x}")):
        lfun_value(groups[3][1], 1, s, x, QContext(0.5))


_PAST_DOUBLE = "x must lie within the double range, got a value of type int past"


@pytest.mark.parametrize("s", [1.5, -1.5])
def test_an_int_x_past_the_double_range_is_refused_by_name(groups, s):
    # float(10**400) raises OverflowError; the refusal names x instead
    with pytest.raises(DomainError, match=re.escape(_PAST_DOUBLE)):
        lfun_value(groups[3][1], 1, s, 10 ** 400, QContext(0.5))


def test_a_column_refuses_its_x_past_the_double_range_after_the_x_before_it(groups):
    ctx = QContext(0.5)
    with pytest.raises(DomainError, match=re.escape(_PAST_DOUBLE)):
        lfun_values(groups[3][1], 1, 1.5, [1.0, 10 ** 400], ctx)
    # the arguments are checked in order: an underflowing [x]_q comes first
    with pytest.raises(PlanInfeasible, match="underflows"):
        lfun_values(groups[3][1], 1, 1.5, [1e-300, 10 ** 400], ctx)


def test_underflowing_bracket_is_infeasible(groups):
    # [x]_q rounds to zero at x = 1e-300, so |[m+x]_q^(-s)| has no finite bound
    with pytest.raises(PlanInfeasible):
        lfun_value(groups[3][1], 1, -300, 1e-300, QContext(0.5))


def test_verify_interpolation_matches_the_cli(groups, capsys):
    # rel_tol is the relative tolerance only; the series budget is the default
    ctx = QContext(0.5)
    library = [check("EQ4", SymmetryInstance(chi=chi, r=2, ctx=ctx, n=n, x=1.0),
                     rel_tol=1e-12).to_json_line()
               for chi in groups[3] for n in range(4)]
    code = main(["verify", "--identity", "EQ4", "--d", "3", "--r", "2", "--q", "0.5",
                 "--n-max", "3", "--tolerance", "1e-12", "--output", "json"])
    cli = capsys.readouterr().out.splitlines()
    assert library == cli
    assert code == (0 if all(json.loads(line)["pass"] for line in cli) else 1)
