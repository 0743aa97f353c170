"""Symmetry identities of the q-Euler polynomials and their sweep harness.

Each theorem equates two mirror-image expressions in a pair of odd integers
(a, b).  One side, in roles (first, second) = (a, b), reads

  l-function form:   [2]_{q^b}^r [b]_q^s  sum over j-tuples below d*a of
                     (-1)^|j| chi(j_1)...chi(j_r) q^(b|j|)
                     l_r(s, b x + (b/a)|j| | chi)  at deformation q^a,

  polynomial form:   the same combination with [a]_q^n and E_n at q^a,

  power-sum form:    [2]_{q^b}^r sum_{i<=n} binom(n,i) [a]_q^(n-i) [b]_q^i
                     E_{n-i}(b x) at q^a  *  S_{n,i}(a d | chi) at q^b,

and the mirror side swaps the roles of a and b.  Every side evaluator below
takes the roles explicitly and the mirror is produced by literally swapping
the arguments, so instances with a = b agree bit for bit.

The bridge check compares the polynomial form against the power-sum form in
the same orientation; it isolates the shift-expansion rearrangement that
turns the j-sum of polynomial values into power sums.

Every identity is one row of the table IDENTITIES: the grid axes it reads,
its two sides, and its default relative tolerance.  check() validates an
instance against the row, evaluates both sides and builds the report;
run_suite() sweeps a row's axes over a SweepGrid.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from math import comb

import numpy as np

from .characters import (
    DirichletCharacter,
    bounded_composition_sums,
    build_character_group,
)
from .errors import BudgetExceeded, DomainError, ParityViolation, PlanInfeasible
from .lfun import DEFAULT_INTERPOLATION_TOL, lfun_value, lfun_values
from .polynomials import (
    binomial_shift_sum,
    char_tuple_sum,
    qeuler_addition,
    qeuler_table,
    qeuler_value,
)
from .qnum import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_TERMS,
    QContext,
    check_series_budget,
    q_bracket_two_pow,
    q_number,
)
from .report import IdentityReport, make_error_report, make_report

DEFAULT_REL_TOL = 1e-7
BRIDGE_REL_TOL = 1e-8


def power_sum(chi: DirichletCharacter, r: int, n: int, i: int, upper_a: int,
              ctx: QContext) -> complex:
    """Alternating character power sum

        S_{n,i}(upper_a | chi) = sum over r-tuples j in [0, upper_a)^r of
        (-1)^|j| chi(j_1)...chi(j_r) q^((n-i+1)|j|) [|j|]_q^i,

    an exact finite sum evaluated by enumerating every tuple, with 0^0 = 1
    at |j| = 0, i = 0.  Requires 0 <= i <= n."""
    if not 0 <= i <= n:
        raise DomainError(f"need 0 <= i <= n, got i={i}, n={n}")
    return _power_sums(chi, r, n, [i], upper_a, ctx)[0]


def _power_sums(chi: DirichletCharacter, r: int, n: int, indices, upper_a: int,
                ctx: QContext) -> list[complex]:
    """S_{n,i}(upper_a | chi) for every i in indices, one enumeration for all."""
    if upper_a < 1:
        raise DomainError(f"upper limit must be positive, got {upper_a}")
    totals = np.arange(r * (upper_a - 1) + 1)
    signs = 1.0 - 2.0 * (totals % 2)
    brackets = q_number(totals, ctx)
    weights = np.array([signs * ctx.q ** ((n - i + 1) * totals) * brackets ** i
                        for i in indices])
    return char_tuple_sum(chi.periodic_values(upper_a), weights, r)


@dataclass(frozen=True)
class SymmetryInstance:
    """Parameter point for one symmetry check.  a and b must be odd for the
    theorems to apply; validation happens at evaluation time so sweeps can
    record the violation instead of aborting."""

    chi: DirichletCharacter
    r: int
    ctx: QContext
    a: int = 1
    b: int = 1
    n: int | None = None
    s: complex | None = None
    m: int | None = None
    x: float = 1.0
    y: float = 0.0

    def require_odd_pair(self) -> None:
        if self.a < 1 or self.a % 2 == 0:
            raise ParityViolation(f"a must be a positive odd integer, got {self.a}")
        if self.b < 1 or self.b % 2 == 0:
            raise ParityViolation(f"b must be a positive odd integer, got {self.b}")


def _role_argument(second: int, x: float, first: int, t: int) -> float:
    # b*x + (b/a)*t as one exact integer ratio; int true division rounds once
    num, den = x.as_integer_ratio()
    return second * (num * first + t * den) / (first * den)


def _shifted_sum(inst: SymmetryInstance, first: int, second: int, prefactor: complex,
                 terms: Callable[[list[float], QContext], list[complex]]) -> complex:
    """[2]_{q^second}^r * prefactor * sum over totals t of the j-tuples below
    d*first of w_t (-1)^t q^(second t) T_t, where terms evaluates every
    T_t = term(second x + (second/first) t) at q^first in one batch."""
    chi, r, ctx = inst.chi, inst.r, inst.ctx
    upper = chi.modulus_d * first
    check_series_budget(r * (upper - 1) + 1, 1)  # each total t is a row of the batch
    weights = bounded_composition_sums(chi, r, upper)
    args = [_role_argument(second, inst.x, first, t) for t in range(len(weights))]
    total = 0j
    for t, (w_t, term) in enumerate(zip(weights, terms(args, ctx.power(first)))):
        total += w_t * (-1.0) ** t * ctx.q ** (second * t) * term
    return q_bracket_two_pow(r, ctx.power(second)) * prefactor * total


def _lfun_side(inst: SymmetryInstance, first: int, second: int, epsilon: float,
               max_terms: int) -> complex:
    """One side of the l-function symmetry in roles (first, second)."""
    bracket_pow = cmath.exp(complex(inst.s) * math.log(q_number(second, inst.ctx)))
    return _shifted_sum(inst, first, second, bracket_pow, lambda args, ctx_first: lfun_values(
        inst.chi, inst.r, inst.s, args, ctx_first, epsilon, max_terms))


def _poly_side(inst: SymmetryInstance, first: int, second: int, epsilon: float,
               max_terms: int) -> complex:
    """One side of the polynomial symmetry in roles (first, second)."""
    bracket_pow = q_number(first, inst.ctx) ** inst.n
    return _shifted_sum(inst, first, second, bracket_pow, lambda args, ctx_first: [
        row[0] for row in qeuler_table(inst.chi, inst.r, args, [inst.n], ctx_first, epsilon,
                                       max_terms)])


def _power_sum_side(inst: SymmetryInstance, first: int, second: int, epsilon: float,
                    max_terms: int) -> complex:
    """One side of the power-sum expansion in roles (first, second)."""
    chi, r, n, ctx = inst.chi, inst.r, inst.n, inst.ctx
    ctx_second = ctx.power(second)
    bracket_first = q_number(first, ctx)
    bracket_second = q_number(second, ctx)
    e_vals = qeuler_table(chi, r, [second * inst.x], range(n, -1, -1), ctx.power(first),
                          epsilon, max_terms)[0]
    s_vals = _power_sums(chi, r, n, range(n + 1), first * chi.modulus_d, ctx_second)
    total = 0j
    for i, (e_val, s_val) in enumerate(zip(e_vals, s_vals)):
        total += (
            comb(n, i)
            * bracket_first ** (n - i)
            * bracket_second ** i
            * e_val
            * s_val
        )
    return q_bracket_two_pow(r, ctx_second) * total


def _roles(side, mirrored: bool = False) -> Callable:
    """A role-taking side evaluator in roles (a, b), or (b, a) when mirrored."""
    if mirrored:
        return lambda inst, epsilon, max_terms: side(inst, inst.b, inst.a, epsilon, max_terms)
    return lambda inst, epsilon, max_terms: side(inst, inst.a, inst.b, epsilon, max_terms)


@dataclass(frozen=True)
class Identity:
    """One row of the identity table: the grid axes read after d, chi, r, q in
    enumeration order ("ab" is the odd pair, the rest name SymmetryInstance
    fields), the two sides as (inst, epsilon, max_terms) -> complex, and the
    default relative tolerance."""

    axes: tuple[str, ...]
    lhs: Callable[[SymmetryInstance, float, int], complex]
    rhs: Callable[[SymmetryInstance, float, int], complex]
    rel_tol: float


IDENTITIES = {
    # l-function symmetry, x > 0 and complex exponent s
    "T1": Identity(("ab", "s", "x"), _roles(_lfun_side), _roles(_lfun_side, True),
                   DEFAULT_REL_TOL),
    # polynomial symmetry at integer degree n
    "T2": Identity(("ab", "n", "x"), _roles(_poly_side), _roles(_poly_side, True),
                   DEFAULT_REL_TOL),
    # power-sum symmetry: both orientations of the binomial expansion
    "T3": Identity(("ab", "n", "x"), _roles(_power_sum_side),
                   _roles(_power_sum_side, True), DEFAULT_REL_TOL),
    # interpolation l(-n, x) = E_n(x)
    "EQ4": Identity(("n", "x"),
                    lambda i, eps, M: lfun_value(i.chi, i.r, complex(-i.n), i.x, i.ctx, eps, M),
                    lambda i, eps, M: qeuler_value(i.chi, i.r, i.n, i.x, i.ctx, eps, M),
                    DEFAULT_INTERPOLATION_TOL),
    # expansion of E_n(x) through the q-Euler numbers E_i(0)
    "EQ5": Identity(("n", "x"),
                    lambda i, eps, M: qeuler_addition(i.chi, i.r, i.n, i.ctx, i.x, 0.0, eps, M),
                    lambda i, eps, M: qeuler_value(i.chi, i.r, i.n, i.x, i.ctx, eps, M),
                    DEFAULT_REL_TOL),
    # shift expansion of E_n(x + y)
    "EQ9": Identity(("n", "x", "y"),
                    lambda i, eps, M: qeuler_addition(i.chi, i.r, i.n, i.ctx, i.x, i.y, eps, M),
                    lambda i, eps, M: qeuler_value(i.chi, i.r, i.n, i.x + i.y, i.ctx, eps, M),
                    DEFAULT_REL_TOL),
    # bridge: polynomial form against power-sum form, roles (a, b) then (b, a)
    "EQ12": Identity(("ab", "n", "x"), _roles(_poly_side), _roles(_power_sum_side),
                     BRIDGE_REL_TOL),
    "EQ13": Identity(("ab", "n", "x"), _roles(_poly_side, True),
                     _roles(_power_sum_side, True), BRIDGE_REL_TOL),
    # two-index shift symmetry between degrees m and n
    "EQ15": Identity(("m", "n", "x", "y"),
                     lambda i, eps, M: binomial_shift_sum(i.chi, i.r, i.ctx, i.m, i.n, i.x,
                                                          i.y, eps, M),
                     lambda i, eps, M: binomial_shift_sum(i.chi, i.r, i.ctx, i.n, i.m, -i.x,
                                                          i.x + i.y, eps, M),
                     DEFAULT_REL_TOL),
}

IDENTITY_IDS = tuple(IDENTITIES)


def _row(identity_id: str) -> Identity:
    try:
        return IDENTITIES[identity_id]
    except KeyError:
        raise DomainError(f"unknown identity id {identity_id!r}") from None


def _record(row: Identity, inst: SymmetryInstance) -> dict:
    """The instance fields of a report, successful or not: d, chi, r, q, then
    the row's axes in order."""
    record = {"d": inst.chi.modulus_d, "chi": inst.chi.label, "r": inst.r, "q": inst.ctx.q}
    for axis in row.axes:
        if axis == "ab":
            record |= {"a": inst.a, "b": inst.b}
        elif axis == "s":
            record["s"] = None if inst.s is None else complex(inst.s)
        else:
            record[axis] = getattr(inst, axis)
    return record


def check(identity_id: str, inst: SymmetryInstance, epsilon: float = DEFAULT_EPSILON,
          max_terms: int = DEFAULT_MAX_TERMS, rel_tol: float | None = None) -> IdentityReport:
    """Check one identity at one instance: validate the axes its row reads,
    evaluate both sides with series budget epsilon, and report them against
    rel_tol (the row's default when None).  A side that overflows a double
    raises PlanInfeasible."""
    row = _row(identity_id)
    if "ab" in row.axes:
        inst.require_odd_pair()
    if "s" in row.axes and inst.s is None:
        raise DomainError(f"{identity_id} needs the exponent s")
    for name in ("m", "n", "x", "y"):
        value = getattr(inst, name)
        if name in row.axes and (value is None or not 0 <= value < math.inf):
            raise DomainError(f"{identity_id} needs a finite nonnegative {name}, got {value}")
    try:
        lhs = row.lhs(inst, epsilon, max_terms)
        rhs = row.rhs(inst, epsilon, max_terms)
    except OverflowError as exc:
        raise PlanInfeasible(f"a side of {identity_id} overflows a double: {exc}") from None
    rel = row.rel_tol if rel_tol is None else rel_tol
    return make_report(identity_id, _record(row, inst), lhs, rhs, rel)


def theorem1_sides(inst: SymmetryInstance, epsilon: float = DEFAULT_EPSILON,
                   max_terms: int = DEFAULT_MAX_TERMS,
                   rel_tol: float = DEFAULT_REL_TOL) -> IdentityReport:
    """l-function symmetry: both sides at complex exponent inst.s, x > 0."""
    return check("T1", inst, epsilon, max_terms, rel_tol)


def theorem2_sides(inst: SymmetryInstance, epsilon: float = DEFAULT_EPSILON,
                   max_terms: int = DEFAULT_MAX_TERMS,
                   rel_tol: float = DEFAULT_REL_TOL) -> IdentityReport:
    """Polynomial symmetry at integer degree inst.n, x >= 0."""
    return check("T2", inst, epsilon, max_terms, rel_tol)


def theorem3_sides(inst: SymmetryInstance, epsilon: float = DEFAULT_EPSILON,
                   max_terms: int = DEFAULT_MAX_TERMS,
                   rel_tol: float = DEFAULT_REL_TOL) -> IdentityReport:
    """Power-sum symmetry: both orientations of the binomial expansion."""
    return check("T3", inst, epsilon, max_terms, rel_tol)


def eq12_bridge(inst: SymmetryInstance, epsilon: float = DEFAULT_EPSILON,
                max_terms: int = DEFAULT_MAX_TERMS, rel_tol: float = BRIDGE_REL_TOL,
                mirrored: bool = False) -> IdentityReport:
    """Polynomial form against power-sum form in one orientation.

    This validates the rearrangement that converts the j-sum of shifted
    polynomial values into binomially weighted power sums.  With
    mirrored=True the roles of a and b are exchanged first, giving the
    mirror-orientation check."""
    return check("EQ13" if mirrored else "EQ12", inst, epsilon, max_terms, rel_tol)


def eq15_sides(chi: DirichletCharacter, r: int, m: int, n: int, x: float, y: float,
               ctx: QContext, epsilon: float = DEFAULT_EPSILON,
               max_terms: int = DEFAULT_MAX_TERMS,
               rel_tol: float = DEFAULT_REL_TOL) -> IdentityReport:
    """Two-index shift symmetry between degrees m and n:

        sum_{k<=m} binom(m,k) q^(kx) E_{n+k}(y) [x]_q^(m-k)
      = sum_{k<=n} binom(n,k) q^(-kx) E_{m+k}(x+y) [-x]_q^(n-k).

    At x = 0 both sides collapse to E_{m+n}(y) through the same evaluation,
    so the residual vanishes identically."""
    inst = SymmetryInstance(chi=chi, r=r, ctx=ctx, m=m, n=n, x=x, y=y)
    return check("EQ15", inst, epsilon, max_terms, rel_tol)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid for run_suite; axes irrelevant to an identity
    are ignored.  chi_labels=None selects every character of each modulus."""

    d_values: tuple[int, ...]
    q_values: tuple[float, ...]
    r_values: tuple[int, ...] = (1,)
    chi_labels: tuple[int, ...] | None = None
    ab_pairs: tuple[tuple[int, int], ...] = ((1, 1),)
    n_values: tuple[int, ...] = (0,)
    s_values: tuple[complex, ...] = ()
    m_values: tuple[int, ...] = (0,)
    x_values: tuple[float, ...] = (1.0,)
    y_values: tuple[float, ...] = (0.0,)


def _grid_instances(row: Identity, grid: SweepGrid):
    """Deterministic enumeration: d, chi, r, q, then the row's axes in order."""
    values = {"ab": grid.ab_pairs, "s": grid.s_values, "m": grid.m_values,
              "n": grid.n_values, "x": grid.x_values, "y": grid.y_values}
    for d in grid.d_values:
        group = build_character_group(d)
        labels = grid.chi_labels if grid.chi_labels is not None else range(len(group))
        contexts = [QContext(q) for q in grid.q_values]
        for label, r, ctx, *point in itertools.product(
            labels, grid.r_values, contexts, *(values[axis] for axis in row.axes)
        ):
            fields = dict(zip(row.axes, point))
            if "ab" in fields:
                fields["a"], fields["b"] = fields.pop("ab")
            yield SymmetryInstance(chi=group[label], r=r, ctx=ctx, **fields)


def _evaluate_instance(identity_id: str, inst: SymmetryInstance, epsilon: float,
                       max_terms: int, rel_tol: float | None) -> IdentityReport:
    try:
        return check(identity_id, inst, epsilon, max_terms, rel_tol)
    except (DomainError, BudgetExceeded) as exc:
        return make_error_report(identity_id, _record(IDENTITIES[identity_id], inst), exc)


def run_suite(identity_id: str, grid: SweepGrid, epsilon: float = DEFAULT_EPSILON,
              max_terms: int = DEFAULT_MAX_TERMS,
              rel_tol: float | None = None) -> list[IdentityReport]:
    """Evaluate one identity over the whole grid, one instance after another.

    Reports come back in enumeration order and per-instance errors are
    recorded in place rather than aborting the sweep.  An unknown identity id
    raises DomainError before anything is enumerated."""
    row = _row(identity_id)
    return [_evaluate_instance(identity_id, inst, epsilon, max_terms, rel_tol)
            for inst in _grid_instances(row, grid)]
