"""q-arithmetic kernel: q-numbers, bracket powers, and certified series truncation.

Every infinite series evaluated in this package has the shape

    sum_{m >= 0} (-1)^m q^m c_m [m+x]_q^w,

with 0 < q < 1, coefficients bounded by |c_m| <= binom(m+r-1, r-1) (triangle
inequality over r-part compositions, character values of modulus at most one),
and weights bounded by W = sup_m |[m+x]_q^w|, one exact formula (weight_sup)
for w = n (the polynomials) and w = -s (the l-function).  The dominating
series has terms t(m) = (1+q)^r binom(m+r-1, r-1) q^m W with decreasing
ratios rho_m = q (m+r)/(m+1), so past a cutoff M with rho_M < 1 its tail is
at most t(M) / (1 - rho_M).  The planner below finds, for a target absolute
error, the smallest such cutoff whose bound meets it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import (BudgetExceeded, DomainError, PlanInfeasible, as_double, is_real,
                     require_count, require_positive_int)

DEFAULT_EPSILON = 1e-10
DEFAULT_MAX_TERMS = 20000
SERIES_BUDGET = 10 ** 7
PREFIX_BYTES = 2 ** 19
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


class QContext:
    """Deformation parameter q strictly inside (0,1).

    q is kept real: principal powers q^x are then unambiguous for every real x
    and the bracket [m+x]_q stays positive for m + x > 0, so no branch choices
    arise anywhere downstream.  Kept as a float, whatever real number it was
    given as.  Immutable, equal and hashed by q: plan_shared memoizes on it.
    """

    __slots__ = ("q",)

    def __init__(self, q: float) -> None:
        if not is_real(q):
            raise DomainError(f"q must be a real number, got {q!r}")
        if not 0.0 < q < 1.0:
            raise DomainError(f"q must lie strictly inside (0,1), got {q}")
        object.__setattr__(self, "q", float(q))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"QContext is immutable, cannot set {name!r}")

    def __eq__(self, other) -> bool:
        return self.q == other.q if other.__class__ is QContext else NotImplemented

    def __hash__(self) -> int:
        return hash((self.q,))

    def __repr__(self) -> str:
        return f"QContext(q={self.q!r})"

    def power(self, a: int) -> QContext:
        """Derived context with q replaced by q^a (a positive integer); a q^a
        that underflows to zero raises PlanInfeasible."""
        require_positive_int(a, "deformation exponent")
        if self.q ** a == 0.0:
            raise PlanInfeasible(f"q^a underflows to zero (q={self.q!r}, a={a})")
        return QContext(self.q ** a)


def q_number(x, ctx: QContext):
    """The q-number [x]_q = (1 - q^x) / (1 - q).

    Accepts a scalar or a numpy array; q^x is the principal real power.  For
    integer x >= 0 this equals the geometric sum 1 + q + ... + q^(x-1), and
    [x]_q recovers x in the limit q -> 1.
    """
    return (1.0 - ctx.q ** x) / (1.0 - ctx.q)


def q_bracket_two_pow(r: int, ctx: QContext) -> float:
    """[2]_q^r = (1 + q)^r, the prefactor of every order-r alternating series."""
    require_positive_int(r, "order r")
    return (1.0 + ctx.q) ** r


class TruncationPlan(NamedTuple):
    """Cutoff certificate: summing indices m < cutoff_M leaves a tail of at
    most tail_bound, which is at most the epsilon it was planned for."""

    cutoff_M: int
    tail_bound: float


def _log_bound(q: float, r: int, M: int) -> float:
    """g_M = log(t(M)/(W (1-rho_M))) at the cutoff M, by numpy's log1p: math's
    differs from it in the last bit of some inputs."""
    log_term = r * math.log1p(q) + M * math.log(q)
    for j in range(1, r):  # log binom(M+r-1, r-1)
        log_term += np.log1p(M / j)
    return log_term - np.log1p(-q * (M + r) / (M + 1.0))


def _first(q: float, r: int, terms: int) -> int:
    """The smallest M with rho_M < 1 by the float test, from just below
    (q r - 1)/(1 - q), or terms + 1 if that is past terms."""
    first = min(max(0, math.floor((q * r - 1.0) / (1.0 - q)) - 1), terms + 1)
    while first <= terms and not q * (first + r) / (first + 1.0) < 1.0:
        first += 1
    return first


def _descend(q: float, r: int, key: float, first: int, hit: int, miss: int, known: dict) -> int:
    """The least M >= first with -g_M >= key, for a hit M that meets the key
    and a miss below it, first - 1 or an M that misses it: g decreases, so
    gallop down from the hit to a miss, then bisect between the two.  Each
    g_M is read from the dict known, or evaluated and added to it."""
    step = 1
    while hit - miss > 1:
        probe = max(hit - step, first) if miss < first else (miss + hit) // 2
        step *= 2
        if probe not in known:
            known[probe] = _log_bound(q, r, probe)
        if -known[probe] >= key:
            hit = probe
        else:
            miss = probe
    return hit


@functools.lru_cache(maxsize=1024)
def plan_shared(ctx: QContext, r: int, weight_bound: float, cells: int, epsilon: float,
                max_terms: int) -> tuple[int, float]:
    """(cutoff, tail bound) of a cell of weight bound W among `cells` cells, by
    one rule: its cutoff is the first M with rho_M < 1 and g_M <= log epsilon -
    log W, so it depends on W alone, and `cells` sets only the budget of each.
    Before any g_M, g by lgamma refuses more than min(max_terms, SERIES_BUDGET)
    terms (PlanInfeasible) and cells x cutoff over SERIES_BUDGET
    (BudgetExceeded).  g decreases, so the cutoff is walked from a fixed-point
    guess in steps that double, up to an M that meets the key and down to one
    that misses it, then bisected between the two.  Memoized: W = (1-q)^(-n)
    does not depend on x or the character, so every E_n at one (q, r, n)
    repeats a plan.  A refusal raises and is not cached."""
    require_positive_int(r, "order r")
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    if max_terms < 0:
        raise DomainError(f"max_terms must be nonnegative, got {max_terms}")
    if not weight_bound >= 0.0:
        raise DomainError(f"weight bound must be nonnegative, got {float(weight_bound)!r}")
    q, log_epsilon, widest = ctx.q, math.log(epsilon), float(weight_bound)
    log_widest = math.log(widest) if widest > 0.0 else -math.inf
    need = log_epsilon - log_widest  # the cell needs g_M <= need
    terms, per_cell = min(max_terms, SERIES_BUDGET), SERIES_BUDGET // max(cells, 1)

    def problem() -> str:
        return f"(q={q!r}, r={r}, weight bound {widest!r})"

    def no_cutoff() -> PlanInfeasible:
        return PlanInfeasible(f"no cutoff within {terms} terms certifies error {epsilon!r} "
                              f"{problem()}")

    def over_budget() -> BudgetExceeded:
        return BudgetExceeded(f"{cells} cells of more than {per_cell} terms exceed "
                              f"the bracket matrix budget {SERIES_BUDGET}")

    def closed(M: int) -> tuple[float, float]:  # log t(M)/W and g_M by lgamma, for rho_M < 1
        log_term = (r * math.log1p(q) + M * math.log(q) + math.lgamma(M + r)
                    - math.lgamma(M + 1) - math.lgamma(r))
        return log_term, log_term - math.log1p(-q * (M + r) / (M + 1.0))

    first = _first(q, r, terms)
    if first > terms or closed(terms)[1] > need:
        raise no_cutoff()
    if log_widest + closed(first)[0] > _LOG_DOUBLE_MAX:  # t(first) is the largest term
        raise PlanInfeasible(f"the dominating series overflows a double {problem()}")
    # g decreases, so a per-cell budget of at least terms already passed the check above
    if per_cell < terms and (first > per_cell or closed(per_cell)[1] > need):
        raise over_budget()
    cap = min(terms, per_cell)

    log_w = np.log(widest) if widest > 0.0 else -math.inf
    key = log_w - log_epsilon  # the cutoff is the first M with -g_M >= key
    M = first  # a guess: fixed-point steps of M = M + (g_M + key) / -log q
    for _ in range(3 if key > -math.inf else 0):
        M = math.ceil(min(cap, max(first, M + (closed(M)[1] + key) / -math.log(q))))
    g, miss, step = _log_bound(q, r, M), first - 1, 1  # miss: the last M known to miss the key
    while -g < key:  # gallop up to an M that meets it
        if M == cap:  # lgamma and the log1p sum disagree in the last bits at the cap
            raise no_cutoff() if cap == terms else over_budget()
        miss, M, step = M, min(cap, M + step), 2 * step
        g = _log_bound(q, r, M)
    known = {M: g}
    M = _descend(q, r, key, first, M, miss, known)
    return M, float(np.exp(log_w + known[M]))


def plan_truncation_weighted(ctx: QContext, r: int, weight_bound: float, epsilon: float,
                             max_terms: int = DEFAULT_MAX_TERMS) -> TruncationPlan:
    """Smallest cutoff M <= min(max_terms, SERIES_BUDGET) whose certified tail
    bound meets epsilon, with that bound: the one-cell plan of plan_shared."""
    return TruncationPlan(*plan_shared(ctx, r, weight_bound, 1, epsilon, max_terms))


def plan_cells(ctx: QContext, r: int, weight_bounds, cells: int, epsilon: float,
               max_terms: int) -> dict:
    """plan_shared's (cutoff, tail bound) of each distinct bound of weight_bounds,
    by bound.  They are refused as plan_shared refuses a nan bound, else the
    least if it is negative, else the widest among `cells` cells, the one plan
    memoized.  The cutoff falls with the bound, so the others are taken from the
    widest down, each descended to from the one before on the g_M met so far."""
    bounds = set(map(float, weight_bounds))
    least = math.nan if any(w != w for w in bounds) else min(bounds, default=0.0)
    widest = max(bounds, default=0.0) if least >= 0.0 else least
    plans = {widest: plan_shared(ctx, r, widest, cells, epsilon, max_terms)}
    (M, _), known, rest = plans[widest], {}, sorted(bounds - {widest}, reverse=True)
    q, first = ctx.q, _first(ctx.q, r, min(max_terms, SERIES_BUDGET)) if rest else 0
    for w in rest:
        log_w = np.log(w) if w > 0.0 else -math.inf  # as plan_shared keys w and forms its tail
        M = _descend(q, r, log_w - math.log(epsilon), first, M, first - 1, known)
        plans[w] = M, float(np.exp(log_w + (known[M] if M in known else _log_bound(q, r, M))))
    return plans if bounds else {}


def weight_sup(ctx: QContext, x: float, w: complex, bracket: float | None) -> float:
    """sup_{m >= 0} |[m+x]_q^w|: [m+x]_q rises from [x]_q towards 1/(1-q) and
    |b^w| = b^(Re w) for b > 0, so it is [x]_q^(Re w) when Re w < 0 (needing
    [x]_q > 0) and (1-q)^(-Re w) otherwise.  bracket is [x]_q, read only when
    Re w < 0, formed by numpy's array power as the kernel forms its brackets:
    at small x, 1 - q^x cancels and the scalar power can round it apart in the
    last bits (q=0.796875, x=0.001: 1.5e-12 relative).  Below the smallest
    normal double the bound is returned as that double, still a bound; past a
    double it raises PlanInfeasible."""
    base = bracket if w.real < 0 else 1.0 / (1.0 - ctx.q)
    try:
        return max(base ** w.real, sys.float_info.min)
    except OverflowError:
        raise PlanInfeasible(f"weight bound sup |[m+x]_q^w| overflows at w={w} "
                             f"(q={ctx.q!r}, x={float(x)!r})") from None


def degree_weight_bound(ctx: QContext, x: float, n: int) -> float:
    """Bound weight_sup(ctx, x, n) = (1-q)^(-n) on [m+x]_q^n over m >= 0, for a
    real x >= 0 and an integer n >= 0."""
    if not (is_real(x) and x >= 0.0):
        raise DomainError(f"x must be nonnegative, got {x}")
    as_double(x, "x")
    require_count(n, "degree n", 0)
    return weight_sup(ctx, x, n, None)


def plan_truncation(ctx: QContext, x: float, n: int, r: int, epsilon: float,
                    max_terms: int = DEFAULT_MAX_TERMS) -> TruncationPlan:
    """Truncation plan for series weighted by [m+x]_q^n with x >= 0, at the
    weight bound degree_weight_bound(ctx, x, n)."""
    return plan_truncation_weighted(ctx, r, degree_weight_bound(ctx, x, n), epsilon, max_terms)


class PrefixStore:
    """Arrays whose entries depend only on a key and their own index along the
    last axis, so that the array formed at one length is a prefix of the one
    formed at any longer length, bit for bit.  Each key keeps the longest
    array formed so far, read-only; a hit costs one dict lookup and a slice.
    Entries stay in the order they were formed, and the oldest go first once
    the store holds more than bound bytes."""

    def __init__(self, bound: int):
        self.bound = bound
        self._arrays: dict = {}
        self._bytes = 0

    def clear(self) -> None:
        self._arrays.clear()
        self._bytes = 0

    def prefix(self, key, length: int, form) -> np.ndarray:
        """form(length), read-only: a view of the key's array when that is at
        least length long, else form(length), which replaces the key's array
        unless it alone is larger than bound."""
        stored = self._arrays.get(key)
        if stored is not None and stored.shape[-1] >= length:
            return stored[..., :length]
        array = form(length)
        array.setflags(write=False)
        if array.nbytes <= self.bound:
            if stored is not None:
                self._bytes -= self._arrays.pop(key).nbytes
            self._arrays[key] = array
            self._bytes += array.nbytes
            while self._bytes > self.bound:  # never the array just stored
                self._bytes -= self._arrays.pop(next(iter(self._arrays))).nbytes
        return array


# the q-only factors of the series kernel, which no character, order, degree
# or exponent changes; c_m is left out, since it would evict them
prefixes = PrefixStore(PREFIX_BYTES)


def bracket_rows(ctx: QContext, xs, length: int) -> np.ndarray:
    """The read-only matrix [m + xs[i]]_q, m < length, from the prefix store,
    keyed by q and the bits of xs."""
    args = np.asarray(xs, dtype=float)
    return prefixes.prefix(("brackets", ctx.q, args.tobytes()), length,
                           lambda size: q_number(np.arange(size) + args[:, None], ctx))


def _alternating_powers(q: float, length: int) -> np.ndarray:
    """(-1)^m q^m for m < length, one complex row: q^m negated at odd m."""
    row = q ** np.arange(length)
    row[1::2] *= -1.0
    return row.astype(complex)


def alternating_weighted_sum(coeffs: np.ndarray, weights: np.ndarray, ctx: QContext):
    """sum_m (-1)^m q^m coeffs[m] weights[..., m] for each row of weights,
    over the common prefix of coeffs and the row, by the row (-1)^m q^m from
    the prefix store, keyed by q.  A sign is exact, so each nonzero term keeps
    the bits of ((c_m (-1)^m) q^m) w_m over two float rows."""
    M = min(len(coeffs), weights.shape[-1])
    signed = prefixes.prefix(("powers", ctx.q), M, lambda size: _alternating_powers(ctx.q, size))
    return (coeffs[:M] * signed * weights[..., :M]).sum(axis=-1)
