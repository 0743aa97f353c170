"""The two sides of the symmetry identities, evaluated along a sweep line.

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

A sweep line is a set of instances equal in every field but the degree n.
Each form yields one value per degree of its line; the l-function form,
with no degree, yields its value once per repeat of its one instance.  The
tuple totals, shifted arguments and one polynomials.degree_table of the E_j
a side needs depend on the line, not on n, so they are formed once, and so
is each factor row of the power sums.  Each degree keeps its own plan and
budget, and every t-sum and i-sum is a polynomials.ordered_sum, so every
value is bit for bit the one-degree value.  The forms are generators that
follow the protocol stated at identities.Side: a line that cannot be planned
at some degree yields the degrees before it and then raises that degree's
refusal.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .characters import DirichletCharacter, bounded_composition_sums
from .errors import BudgetExceeded, PlanInfeasible
from .lfun import lfun_values
from .polynomials import degree_table, ordered_sum
from .qnum import SERIES_BUDGET, QContext, q_bracket_two_pow, q_number


def _check_rows(rows: int, weight_rows: int) -> None:
    if rows * weight_rows > SERIES_BUDGET:
        raise BudgetExceeded(f"a {rows} x {weight_rows} bracket matrix exceeds the budget "
                             f"{SERIES_BUDGET:g}")


def tuple_totals(chi: DirichletCharacter, r: int, upper: int, weight_rows: int) -> np.ndarray:
    """bounded_composition_sums(chi, r, upper), once its totals x weight_rows fit SERIES_BUDGET."""
    _check_rows(r * (upper - 1) + 1, weight_rows)
    return bounded_composition_sums(chi, r, upper)


class PowerSums:
    """S_{n,i}(upper | chi) at any degree n from hist, the tuple-total histogram
    tuple_totals(chi, r, upper, ...).  The weight of total t is the product
    ((-1)^t q^(k t)) [t]_q^i with k = n - i + 1; each factor row is formed
    once, by k and by i, and kept, so the N degrees of a line form O(N) rows,
    not O(N^2), and multiply them in the order of one degree alone."""

    def __init__(self, hist: np.ndarray, upper: int, ctx: QContext):
        self.hist, self.upper, self.ctx = hist, upper, ctx
        self.totals = np.arange(hist.size, dtype=float)  # float exponents never wrap
        self.signs, self.brackets = (-1.0) ** self.totals, q_number(self.totals, ctx)
        self.geometric, self.powers = {}, {}  # (-1)^t q^(k t) by k, [t]_q^i by i

    def _weights(self, n: int, i: int) -> np.ndarray:
        k = n - i + 1
        if k not in self.geometric:
            self.geometric[k] = self.signs * self.ctx.q ** (k * self.totals)
        if i not in self.powers:
            self.powers[i] = self.brackets ** i
        return self.geometric[k] * self.powers[i]

    def __call__(self, n: int, indices) -> list[complex]:
        """S_{n,i} for every i in indices, within the budget of len(indices)
        weight rows; a sum that is not a finite double raises PlanInfeasible."""
        _check_rows(self.hist.size, len(indices))
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                weights = np.array([self._weights(n, i) for i in indices])
                sums = np.sum(weights * self.hist, axis=-1)
        except OverflowError:  # an exponent past the double range
            sums = np.array([math.nan])
        if not np.isfinite(sums).all():
            raise PlanInfeasible(f"a power sum S_{{{n},i}}({self.upper}) at q={self.ctx.q!r} "
                                 "is not a finite double")
        return sums.tolist()


def role_argument(second: int, x: float, first: int, t: int) -> float:
    # b*x + (b/a)*t as one exact integer ratio; int true division rounds once
    num, den = x.as_integer_ratio()
    return second * (num * first + t * den) / (first * den)


def _shift_weights(inst, first: int, second: int):
    """The j-tuples below d*first by their total t, each total a row of the
    batch: the weights w_t (-1)^t q^(second t), w_t the tuple-total
    histogram, and the arguments second x + (second/first) t."""
    chi, r, ctx = inst.chi, inst.r, inst.ctx
    totals = tuple_totals(chi, r, chi.modulus_d * first, 1)
    weights = [w_t * (-1.0) ** t * ctx.q ** (second * t) for t, w_t in enumerate(totals)]
    return weights, [role_argument(second, inst.x, first, t) for t in range(len(totals))]


def lfun_side(inst, ns: list, first: int, second: int, epsilon: float, max_terms: int):
    """One side of the l-function symmetry in roles (first, second), yielded
    once for every entry of ns: T1 has no degree, so its line holds equal
    instances, one for each repeat of a grid value."""
    bracket_pow = cmath.exp(complex(inst.s) * math.log(q_number(second, inst.ctx)))
    weights, args = _shift_weights(inst, first, second)
    terms = lfun_values(inst.chi, inst.r, inst.s, args, inst.ctx.power(first), epsilon,
                        max_terms)
    yield from [q_bracket_two_pow(inst.r, inst.ctx.power(second)) * bracket_pow
                * ordered_sum(map(operator.mul, weights, terms))] * len(ns)


def poly_side(inst, ns: list, first: int, second: int, epsilon: float, max_terms: int):
    """One side of the polynomial symmetry in roles (first, second), yielded
    at every degree of ns.  The weights and arguments of the totals t and one
    degree_table of E_n at every argument serve every degree; each degree keeps
    the plan of its own len(args) cells and is summed over t from its own
    column."""
    chi, r, ctx = inst.chi, inst.r, inst.ctx
    for k, n in enumerate(ns):  # each step refuses where check would at that degree
        prefactor = q_number(first, ctx) ** n
        if k == 0:
            weights, args = _shift_weights(inst, first, second)
            tables = degree_table(chi, r, ctx.power(first), args, [(n,) for n in ns], epsilon,
                                  max_terms)
        terms = next(tables)[n]
        if k == 0:
            two = q_bracket_two_pow(r, ctx.power(second))
        yield two * prefactor * ordered_sum(map(operator.mul, weights, terms))


def power_sum_side(inst, ns: list, first: int, second: int, epsilon: float, max_terms: int):
    """One side of the power-sum expansion in roles (first, second), yielded
    at every degree of ns: one degree_table of E_j(second x) at q^first, which
    checks degree n by the widest of its n + 1 cells E_n, ..., E_0, and one
    tuple-total histogram for every S_{n,i}.  Each degree is one ordered_sum
    over i."""
    chi, r, ctx = inst.chi, inst.r, inst.ctx
    ctx_second, ctx_first = ctx.power(second), ctx.power(first)
    upper = first * chi.modulus_d
    bracket_first, bracket_second = q_number(first, ctx), q_number(second, ctx)
    tables = degree_table(chi, r, ctx_first, [second * inst.x], [range(n + 1) for n in ns],
                          epsilon, max_terms)
    for k, (n, table) in enumerate(zip(ns, tables)):
        if k == 0:  # one histogram and its factor rows serve every S_{n,i}
            power_sums = PowerSums(tuple_totals(chi, r, upper, n + 1), upper, ctx_second)
        total = ordered_sum(math.comb(n, i) * bracket_first ** (n - i) * bracket_second ** i
                            * table[n - i][0] * s_val
                            for i, s_val in enumerate(power_sums(n, range(n + 1))))
        yield q_bracket_two_pow(r, ctx_second) * total
