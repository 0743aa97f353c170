"""Symmetry identities of the q-Euler polynomials and their sweep harness.

The theorems equate two mirror-image expressions in a pair of odd integers
(a, b), the sides that qeuler.sides evaluates.  The bridge check compares the
polynomial form against the power-sum form in the same orientation; it
isolates the shift-expansion rearrangement that turns the j-sum of
polynomial values into power sums.

Every identity is one row of the table IDENTITIES: the grid axes it reads,
its two sides, and its default relative tolerance.  Every side evaluates a
sweep line, the instances of a row equal in every field but the degree n (a
repeated grid value repeats an instance), by the protocol stated at Side;
its E_j and l(-j) come from one polynomials.degree_table.  One line checker,
_line(), validates a line's instances, evaluates both sides and reports
them: check() calls it on one instance, run_suite() once per sweep line of a
SweepGrid, so a line refuses where check() would first refuse.  A line with
a DomainError is checked one instance at a time, recording it in place.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .characters import DirichletCharacter, build_character_group, group_order
from .errors import (BudgetExceeded, DomainError, ParityViolation, PlanInfeasible, QEulerError,
                     as_double, is_integer, is_real)
from .lfun import INTERPOLATION
from .polynomials import degree_table, shift_sums
from .qnum import DEFAULT_EPSILON, DEFAULT_MAX_TERMS, QContext
from .report import IdentityReport, make_error_report, make_report
from .sides import PowerSums, lfun_side, poly_side, power_sum_side, tuple_totals

DEFAULT_REL_TOL = 1e-7
BRIDGE_REL_TOL = 1e-8
INTERPOLATION_REL_TOL = 1e-8
# instances one sweep may list, about 0.2 GB of them: a grid's size is the
# product of its axes, so no per-axis ceiling bounds it
SWEEP_BUDGET = 10 ** 6


def power_sum(chi: DirichletCharacter, r: int, n: int, i: int, upper_a: int,
              ctx: QContext) -> complex:
    """Alternating character power sum

        S_{n,i}(upper_a | chi) = sum over r-tuples j in [0, upper_a)^r of
        (-1)^|j| chi(j_1)...chi(j_r) q^((n-i+1)|j|) [|j|]_q^i,

    an exact finite sum over the tuples grouped by their total |j|, with
    0^0 = 1 at |j| = 0, i = 0.  Requires 0 <= i <= n; a sum that is not a
    finite double raises PlanInfeasible."""
    if not (is_integer(n) and is_integer(i)):
        raise DomainError(f"n and i must be integers, got n={n!r}, i={i!r}")
    if not 0 <= i <= n:
        raise DomainError(f"need 0 <= i <= n, got i={i}, n={n}")
    return PowerSums(tuple_totals(chi, r, upper_a, 1), upper_a, ctx)(n, [i])[0]


class SymmetryInstance(NamedTuple):
    """Parameter point for one symmetry check.  a and b must be odd for the
    theorems to apply; check() validates them, so sweeps can record the
    violation instead of aborting."""

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


# A side maps (the line's instance, its degrees, epsilon, max_terms) to an
# iterator that yields one raw value per entry of the degrees (None in a row
# without n), each bit for bit its one-instance value.  At the first degree whose one-degree evaluation refuses,
# it raises that refusal (a QEulerError, or the OverflowError of a float
# power) once it has yielded the degrees before it.  _values() collects a side
# and owns both side rules: a value that is not a finite double, and a float
# overflow, are refused as PlanInfeasible.
Side = Callable[[SymmetryInstance, list, float, int], Iterator[complex]]


def _roles(side, mirrored: bool = False) -> Side:
    """A role-taking side in roles (a, b), or (b, a) when mirrored."""
    if mirrored:
        return lambda inst, ns, epsilon, max_terms: side(inst, ns, inst.b, inst.a, epsilon,
                                                         max_terms)
    return lambda inst, ns, epsilon, max_terms: side(inst, ns, inst.a, inst.b, epsilon,
                                                     max_terms)


def _cells(arg, *weighing) -> Side:
    """The cell n of one degree_table at the argument arg(inst), at every degree
    n of a line: E_n, or l(-n) with weighing lfun.INTERPOLATION."""
    return lambda inst, ns, epsilon, max_terms: (table[n][0] for n, table in zip(ns, degree_table(
        inst.chi, inst.r, inst.ctx, [arg(inst)], [(n,) for n in ns], epsilon, max_terms,
        *weighing)))


class Identity(NamedTuple):
    """One row of the identity table: the grid axes read after d, chi, r, q in
    enumeration order ("ab" is the odd pair, the rest name SymmetryInstance
    fields), the two sides, and the default relative tolerance."""

    axes: tuple[str, ...]
    lhs: Side
    rhs: Side
    rel_tol: float


IDENTITIES = {
    # l-function symmetry, x > 0 and complex exponent s
    "T1": Identity(("ab", "s", "x"), _roles(lfun_side), _roles(lfun_side, True),
                   DEFAULT_REL_TOL),
    # polynomial symmetry at integer degree n
    "T2": Identity(("ab", "n", "x"), _roles(poly_side), _roles(poly_side, True),
                   DEFAULT_REL_TOL),
    # power-sum symmetry: both orientations of the binomial expansion
    "T3": Identity(("ab", "n", "x"), _roles(power_sum_side),
                   _roles(power_sum_side, True), DEFAULT_REL_TOL),
    # interpolation l(-n, x) = E_n(x)
    "EQ4": Identity(("n", "x"), _cells(lambda i: i.x, *INTERPOLATION), _cells(lambda i: i.x),
                    INTERPOLATION_REL_TOL),
    # expansion of E_n(x) through the q-Euler numbers E_i(0)
    "EQ5": Identity(("n", "x"),
                    lambda i, ns, eps, M: shift_sums(i.chi, i.r, i.ctx, [(n, 0) for n in ns], i.x,
                                                     0.0, eps, M),
                    _cells(lambda i: i.x), DEFAULT_REL_TOL),
    # shift expansion of E_n(x + y)
    "EQ9": Identity(("n", "x", "y"),
                    lambda i, ns, eps, M: shift_sums(i.chi, i.r, i.ctx, [(n, 0) for n in ns], i.x,
                                                     i.y, eps, M),
                    _cells(lambda i: i.x + i.y), DEFAULT_REL_TOL),
    # bridge: polynomial form against power-sum form, roles (a, b) then (b, a)
    "EQ12": Identity(("ab", "n", "x"), _roles(poly_side), _roles(power_sum_side),
                     BRIDGE_REL_TOL),
    "EQ13": Identity(("ab", "n", "x"), _roles(poly_side, True),
                     _roles(power_sum_side, True), BRIDGE_REL_TOL),
    # two-index shift symmetry between degrees m and n
    "EQ15": Identity(("m", "n", "x", "y"),
                     lambda i, ns, eps, M: shift_sums(i.chi, i.r, i.ctx, [(i.m, n) for n in ns],
                                                      i.x, i.y, eps, M),
                     lambda i, ns, eps, M: shift_sums(i.chi, i.r, i.ctx, [(n, i.m) for n in ns],
                                                      -i.x, i.x + i.y, eps, M),
                     DEFAULT_REL_TOL),
}

IDENTITY_IDS = tuple(IDENTITIES)


def _row(identity_id: str) -> Identity:
    try:
        return IDENTITIES[identity_id]
    except KeyError:
        raise DomainError(f"unknown identity id {identity_id!r}") from None


def _int(value):
    """An integer, numpy's too, as an int; any other value as it is."""
    return int(value) if type(value) is not int and is_integer(value) else value


def _record(row: Identity, inst: SymmetryInstance) -> dict:
    """The instance fields of a report, successful or not: d, chi, r, q, then
    the row's axes in order, with r, a, b, m and n as an int when integers."""
    record = {"d": inst.chi.modulus_d, "chi": inst.chi.label, "r": _int(inst.r), "q": inst.ctx.q}
    for axis in row.axes:
        if axis == "ab":
            record |= {"a": _int(inst.a), "b": _int(inst.b)}
        elif axis == "s":
            record["s"] = None if inst.s is None else complex(inst.s)
        else:
            record[axis] = _int(getattr(inst, axis)) if axis in ("m", "n") else getattr(inst, axis)
    return record


def _validate(identity_id: str, row: Identity, inst: SymmetryInstance) -> SymmetryInstance:
    """Every axis rule of the row, checked before any side is evaluated; the
    instance is returned with its m and n as ints and its x and y as floats."""
    for name in ("a", "b") if "ab" in row.axes else ():
        value = getattr(inst, name)
        if not is_integer(value) or value < 1 or value % 2 == 0:
            raise ParityViolation(f"{name} must be a positive odd integer, got {value}")
    if "s" in row.axes and inst.s is None:
        raise DomainError(f"{identity_id} needs the exponent s")
    for name in (axis for axis in ("m", "n", "x", "y") if axis in row.axes):
        value = getattr(inst, name)
        if value is None or not (is_real(value) and 0 <= value < math.inf):
            raise DomainError(f"{identity_id} needs a finite nonnegative {name}, got {value}")
        if name in ("m", "n") and not is_integer(value):
            raise DomainError(f"{identity_id} needs an integer degree {name}, got {value!r}")
        canonical = int(value) if name in ("m", "n") else as_double(value, name)
        if type(value) is not type(canonical):
            inst = inst._replace(**{name: canonical})
    return inst


def _values(identity_id: str, side: Side, inst: SymmetryInstance, ns: list, epsilon: float,
            max_terms: int) -> tuple[list[complex], QEulerError | None]:
    """The values a side yields over the degrees ns, up to its first refusal,
    and that refusal or None.  A value that is not a finite double, and a
    float overflow, are refused as PlanInfeasible."""
    values = []
    try:
        for n, value in zip(ns, side(inst, ns, epsilon, max_terms)):
            if not cmath.isfinite(value):
                at = "" if n is None else f" at n={n}"
                return values, PlanInfeasible(f"a side value{at} is not a finite double: "
                                              f"{value!r}")
            values.append(value)
    except OverflowError as exc:
        return values, PlanInfeasible(f"a side of {identity_id} overflows a double: {exc}")
    except QEulerError as exc:
        return values, exc
    return values, None


def _line(identity_id: str, row: Identity, insts: list, epsilon: float, max_terms: int,
          rel_tol: float | None) -> tuple[list[IdentityReport], QEulerError | None]:
    """(reports, refusal) of a sweep line: every instance's axis rules, then the
    lhs over the line's degrees and the rhs over the degrees the lhs evaluated.
    The refusal is the one check meets first, the rhs's if it has one, else
    the lhs's, or None; the reports are those of the instances before it."""
    try:
        insts = [_validate(identity_id, row, inst) for inst in insts]
    except DomainError as exc:
        return [], exc
    ns = [inst.n for inst in insts]
    lhs, lhs_refusal = _values(identity_id, row.lhs, insts[0], ns, epsilon, max_terms)
    rhs, refusal = _values(identity_id, row.rhs, insts[0], ns[:len(lhs)], epsilon, max_terms)
    rel = row.rel_tol if rel_tol is None else rel_tol
    return [make_report(identity_id, _record(row, inst), lhs_k, rhs_k, rel)
            for inst, lhs_k, rhs_k in zip(insts, lhs, rhs)], refusal or lhs_refusal


def check(identity_id: str, inst: SymmetryInstance, epsilon: float = DEFAULT_EPSILON,
          max_terms: int = DEFAULT_MAX_TERMS, rel_tol: float | None = None) -> IdentityReport:
    """Check one identity at one instance, the one-instance line: validate the
    axes its row reads, evaluate both sides with series budget epsilon, and
    report them against rel_tol (the row's default when None).  A side that
    overflows a double, or whose value is not a finite double, raises
    PlanInfeasible."""
    reports, refusal = _line(identity_id, _row(identity_id), [inst], epsilon, max_terms, rel_tol)
    if refusal is not None:
        raise refusal
    return reports[0]


# perfbench/tracer.py times the identities layer by binding these names;
# they leave with ROADMAP item 8, once the library emits its own spans.
def theorem1_sides(inst: SymmetryInstance) -> IdentityReport:
    return check("T1", inst)


def theorem2_sides(inst: SymmetryInstance) -> IdentityReport:
    return check("T2", inst)


def theorem3_sides(inst: SymmetryInstance) -> IdentityReport:
    return check("T3", inst)


def eq12_bridge(inst: SymmetryInstance) -> IdentityReport:
    return check("EQ12", inst)


def eq15_sides(inst: SymmetryInstance) -> IdentityReport:
    return check("EQ15", inst)


class SweepGrid(NamedTuple):
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
    """Deterministic enumeration: d, chi, r, q, then the row's axes in order.
    Before any table is built, a chi label outside [0, phi(d)) raises
    DomainError and a grid of more than SWEEP_BUDGET instances BudgetExceeded,
    both read from group_order and the axis lengths."""
    values = {"ab": grid.ab_pairs, "s": grid.s_values, "m": grid.m_values,
              "n": grid.n_values, "x": grid.x_values, "y": grid.y_values}
    axes = [values[axis] for axis in row.axes]
    orders = [group_order(d) for d in grid.d_values]
    for d, order in zip(grid.d_values, orders):
        for label in grid.chi_labels or ():
            if not 0 <= label < order:
                raise DomainError(f"chi label must be nonnegative and below the group size "
                                  f"{order} of d={d}, got {label}")
    size = math.prod(map(len, (grid.r_values, grid.q_values, *axes))) * sum(
        order if grid.chi_labels is None else len(grid.chi_labels) for order in orders)
    if size > SWEEP_BUDGET:
        raise BudgetExceeded(f"the sweep has {size} instances, over the budget "
                             f"{SWEEP_BUDGET:g}")
    for d in grid.d_values:
        group = build_character_group(d)
        labels = grid.chi_labels if grid.chi_labels is not None else range(len(group))
        contexts = [QContext(q) for q in grid.q_values]
        for label, r, ctx, *point in itertools.product(labels, grid.r_values, contexts, *axes):
            fields = dict(zip(row.axes, point))
            if "ab" in fields:
                fields["a"], fields["b"] = fields.pop("ab")
            yield SymmetryInstance(chi=group[label], r=r, ctx=ctx, **fields)


def run_suite(identity_id: str, grid: SweepGrid, epsilon: float = DEFAULT_EPSILON,
              max_terms: int = DEFAULT_MAX_TERMS,
              rel_tol: float | None = None) -> list[IdentityReport]:
    """Evaluate one identity over the whole grid, one sweep line at a time: the
    instances equal in every field but n share each side's evaluation.

    Reports come back in enumeration order, each equal to check's at its
    instance.  An instance outside its identity's domain (DomainError) is
    recorded in place as an error report, while a PlanInfeasible or
    BudgetExceeded ends the sweep, as in every other command: the one check
    meets first in enumeration order is raised.  An unknown identity id raises
    DomainError, and a grid of more than SWEEP_BUDGET instances BudgetExceeded,
    before anything is enumerated."""
    row = _row(identity_id)
    instances = list(_grid_instances(row, grid))
    lines = {}
    for position, inst in enumerate(instances):
        lines.setdefault(inst._replace(n=None), []).append(position)
    reports, refusal = [None] * len(instances), None
    for positions in lines.values():  # in the order of their first instances
        if refusal is not None:  # only an earlier instance can refuse first
            positions = [p for p in positions if p < refusal[0]]
            if not positions:
                break
        insts = [instances[p] for p in positions]
        line, stop = _line(identity_id, row, insts, epsilon, max_terms, rel_tol)
        if isinstance(stop, DomainError):  # check each instance, recording DomainErrors
            line, stop = [], None
            for inst in insts:
                one, stop = _line(identity_id, row, [inst], epsilon, max_terms, rel_tol)
                if isinstance(stop, DomainError):
                    one, stop = [make_error_report(identity_id, _record(row, inst), stop)], None
                line += one
                if stop is not None:
                    break
        for position, report in zip(positions, line):
            reports[position] = report
        if stop is not None:
            refusal = positions[len(line)], stop
    if refusal is not None:
        raise refusal[1]
    return reports
