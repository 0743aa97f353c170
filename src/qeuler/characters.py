"""Dirichlet characters modulo an odd integer and their composition sums.

The unit group modulo an odd d is a direct product of cyclic groups, one per
odd prime power in d.  Fixing a primitive root g_i for each factor p_i^e_i,
every character is determined by an exponent tuple (k_1, ..., k_t) with
0 <= k_i < phi(p_i^e_i):

    chi(m) = prod_i zeta^(k_i * dlog_i(m) * L / s_i),   zeta = exp(2 pi i / L),

where s_i = phi(p_i^e_i), L = lcm(s_i) is the group exponent, and dlog_i is
the discrete logarithm base g_i.  Values are taken from a single table of
L-th roots of unity, so equal angles give bit-identical complex values.

The module also computes the order-r composition sums

    c_m = sum_{m_1 + ... + m_r = m} chi(m_1) ... chi(m_r)

that collapse the r-fold series of the q-Euler evaluators into a single sum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (BudgetExceeded, NegativeArgument, NotOdd, Overflow, require_count,
                     require_positive_int)

MODULUS_BOUND = 3001  # tables of at most phi(d) * d <= 9.0e6 entries
CONVOLUTION_BUDGET = 10 ** 8
_DOUBLE_MAX = int(np.finfo(float).max)


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root modulo the odd prime power p^e.

    A generator g of (Z/pZ)* also generates (Z/p^eZ)* unless
    g^(p-1) = 1 mod p^2, in which case g + p works.
    """
    order = p - 1
    prime_factors = [f for f, _ in _factorize(order)]
    g = 2
    while True:
        if all(pow(g, order // f, p) != 1 for f in prime_factors):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


class DirichletCharacter:
    """A d-periodic completely multiplicative map, zero off units mod d.

    values[m] holds chi(m) for residues 0 <= m < d, read-only.  The unique
    character mod 1 is identically one, including at 0, so that series
    starting at index 0 keep their constant term in the unramified case.
    label is the position of the character's exponent tuple in lexicographic
    order; label 0 is the principal character.  Characters compare by
    identity.
    """

    __slots__ = ("modulus_d", "label", "values")

    def __init__(self, modulus_d: int, label: int, values) -> None:
        self.modulus_d, self.label = modulus_d, label
        self.values = np.asarray(values, dtype=complex)
        self.values.setflags(write=False)

    def __call__(self, m: int) -> complex:
        """chi(m) via periodic extension; rejects negative arguments."""
        if m < 0:
            raise NegativeArgument(f"character argument must be nonnegative, got {m}")
        return complex(self.values[m % self.modulus_d])

    def periodic_values(self, length: int) -> np.ndarray:
        """chi(0), chi(1), ..., chi(length-1) as a complex array."""
        require_count(length, "length", 0)
        out = np.empty(-(-length // self.modulus_d) * self.modulus_d, dtype=complex)
        out.reshape(-1, self.modulus_d)[...] = self.values
        return out[:length]

    def to_json_dict(self) -> dict:
        return {
            "d": self.modulus_d,
            "label": self.label,
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }


class CharacterGroup:
    """All phi(d) characters modulo an odd d, principal first.

    structure lists one (prime_power, generator, order) triple per odd prime
    power factor of d; the characters appear in lexicographic order of their
    exponent tuples with respect to that factor order.
    """

    __slots__ = ("modulus_d", "characters", "structure")

    def __init__(self, modulus_d: int, characters: list[DirichletCharacter],
                 structure: list[tuple[int, int, int]]) -> None:
        self.modulus_d, self.characters, self.structure = modulus_d, characters, structure

    def __len__(self) -> int:
        return len(self.characters)

    def __getitem__(self, label: int) -> DirichletCharacter:
        return self.characters[label]

    def __iter__(self):
        return iter(self.characters)


def _check_modulus(d: int) -> int:
    """d as an int, for the moduli a character group is built for: integers
    (numpy's too) that are odd, positive and at most MODULUS_BOUND."""
    require_count(d, "modulus", 1)
    if d % 2 == 0:
        raise NotOdd(f"modulus must be odd, got {d}")
    if d > MODULUS_BOUND:
        raise Overflow(f"modulus {d} exceeds the construction bound {MODULUS_BOUND}")
    return int(d)


def group_order(d: int) -> int:
    """phi(d), the number of characters build_character_group(d) returns,
    from the factorization alone; d is checked by the same rules."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _factorize(_check_modulus(d)))


def build_character_group(d: int) -> CharacterGroup:
    """Construct the full character group modulo an odd positive integer d."""
    d = _check_modulus(d)
    if d == 1:
        trivial = DirichletCharacter(1, 0, np.array([1.0 + 0.0j]))
        return CharacterGroup(1, [trivial], [])

    structure = []
    components = []  # (prime_power, order, dlog table indexed by residue mod prime_power)
    for p, e in _factorize(d):
        pp = p ** e
        s = pp // p * (p - 1)  # phi(p^e)
        g = _primitive_root(p, e)
        dlog = np.full(pp, -1, dtype=np.int64)
        v = 1
        for j in range(s):
            dlog[v] = j
            v = v * g % pp
        structure.append((pp, g, s))
        components.append((pp, s, dlog))

    group_exponent = math.lcm(*(s for _, s, _ in components))
    roots = np.exp(2j * np.pi * np.arange(group_exponent) / group_exponent)
    for numerator, exact in ((0, 1.0), (1, 1.0j), (2, -1.0), (3, -1.0j)):
        if numerator * group_exponent % 4 == 0:
            roots[numerator * group_exponent // 4] = exact  # exact cardinal values

    # scaled discrete logs: row i holds dlog_i(m) * L / s_i for every unit m
    units = np.flatnonzero(np.gcd(np.arange(d), d) == 1)
    logs = np.stack([dlog[units % pp] * (group_exponent // s) for pp, s, dlog in components])

    characters = []
    orders = [s for _, s, _ in components]
    for label, ks in enumerate(itertools.product(*(range(s) for s in orders))):
        values = np.zeros(d, dtype=complex)
        values[units] = roots[np.array(ks) @ logs % group_exponent]
        characters.append(DirichletCharacter(d, label, values))
    return CharacterGroup(d, characters, structure)


def _fold(base: np.ndarray, r: int, length: int) -> np.ndarray:
    """base to the r-th convolution power by square-and-multiply from the top
    bit of r, cut back to length after each product: O(log r) products, and
    for r <= 3 the products base*base and (base*base)*base of folding one
    factor at a time, operands in that order, so those stay bit for bit."""
    out = base
    for bit in bin(r)[3:]:
        out = np.convolve(out, out)[:length]
        if bit == "1":
            out = np.convolve(out, base)[:length]
    return out


def _fold_macs(width: int, r: int, length: int) -> int:
    """The multiply-adds of _fold on a base of width entries, a product of
    lengths m and n taking m n."""
    macs, size = 0, width
    for bit in bin(r)[3:]:
        macs += size * size
        size = min(2 * size - 1, length)
        if bit == "1":
            macs += size * width
            size = min(size + width - 1, length)
    return macs


def _binomial_rows(r: int, length: int) -> np.ndarray:
    """The min(r, length) x length matrix whose row i holds
    C(j - i + r - 1, r - 1) at j >= i and 0 before, each entry the double
    nearest its exact integer: by r - 1 running sums in int64 while
    C(length + r - 2, r - 1) fits one, else by the integer recurrence
    b_k = b_(k-1) (k + r - 1) / k, inf past the double range."""
    if math.comb(length + r - 2, r - 1) < 2 ** 63:
        row = np.ones(length, dtype=np.int64)
        for _ in range(r - 1):
            np.cumsum(row, out=row)
        row = row.astype(float)
    else:
        exact = [1]
        for k in range(1, length):
            exact.append(exact[-1] * (k + r - 1) // k)
        row = np.array([float(b) if b <= _DOUBLE_MAX else math.inf for b in exact])
    rows = np.zeros((min(r, length), length))
    for i in range(len(rows)):
        rows[i, i:] = row[:length - i]
    return rows


def _g(count: int) -> str:
    """An int in %g form, by Decimal past the double range, where float() raises."""
    from decimal import Decimal

    return f"{count:g}" if count <= _DOUBLE_MAX else f"{Decimal(count):.6g}"


def conv_power(chi: DirichletCharacter, r: int, M: int) -> np.ndarray:
    """Order-r composition sums c_0, ..., c_{M-1} of chi.

    c_m = sum over (m_1, ..., m_r) with m_1 + ... + m_r = m of
    chi(m_1) ... chi(m_r).  Since chi has period d, the generating function
    of the c_m is P(z)^r / (1 - z^d)^r with P(z) = sum_{a < d} chi(a) z^a.
    At r = 1 that is the periodic sequence itself, its stored values.  At
    r >= 2 the min(M, d) stored values chi.values[:M] are folded to P^r
    (length r(d-1)+1, cut at M) by square-and-multiply, and along each
    residue class a + d j the c_m are the polynomial in j

        c_(a+dj) = sum_(i < r) P^r[a + d i] C(j - i + r - 1, r - 1),

    so with J = ceil(M / d) and rows = min(r, J) all of them are one real
    matrix product: the J x rows binomial matrix (zero above its diagonal)
    times the fold viewed as rows x 2d floats.  The binomial rows come from
    exact integers and are kept in qnum.prefixes keyed by r, a prefix in j
    being the rows formed at that length.  Where every character value is
    0, +-1 or +-i each product and partial sum is an integer below 2^53, so
    the c_m are exact; a prefix c_0..c_(k-1) is bit for bit the result at
    length k.  A product of more than CONVOLUTION_BUDGET multiply-adds,
    rows J d, is refused before anything is formed.
    """
    require_positive_int(r, "order r")
    require_count(M, "series length M", 1)
    d = chi.modulus_d
    J = -(-M // d)
    rows = min(r, J)
    macs = rows * J * d
    if macs > CONVOLUTION_BUDGET:
        raise BudgetExceeded(f"{r}-part composition sums below {_g(M)} take {_g(macs)} "
                             f"multiply-adds, over the budget {CONVOLUTION_BUDGET:g}")
    if r == 1:
        return chi.periodic_values(M)
    from .qnum import prefixes  # not at import: a character group loads no qnum

    fold = _fold(chi.values[:M], r, M)  # at most rows d long
    folded = np.zeros(rows * d, dtype=complex)
    folded[:len(fold)] = fold
    binomials = prefixes.prefix(("binomials", r), J, lambda size: _binomial_rows(r, size))
    c = binomials[:rows].T @ folded.view(float).reshape(rows, 2 * d)
    return c.view(complex).reshape(-1)[:M]


def bounded_composition_sums(chi: DirichletCharacter, r: int, upper: int) -> np.ndarray:
    """Composition sums with every part restricted below upper.

    Returns the full coefficient vector of (sum_{j < upper} chi(j) z^j)^r,
    length r*(upper-1) + 1; entry t aggregates chi(j_1)...chi(j_r) over all
    r-tuples with j_1 + ... + j_r = t and 0 <= j_l < upper.  Raises
    BudgetExceeded when the O(log r) direct convolutions of the fold would
    take more than CONVOLUTION_BUDGET multiply-adds.
    """
    require_positive_int(r, "order r")
    require_count(upper, "upper limit", 1)
    macs = _fold_macs(upper, r, r * (upper - 1) + 1)
    if macs > CONVOLUTION_BUDGET:
        raise BudgetExceeded(
            f"{r}-part composition sums below {upper} take {macs:g} multiply-adds, "
            f"over the budget {CONVOLUTION_BUDGET:g}"
        )
    return _fold(chi.periodic_values(upper), r, r * (upper - 1) + 1)
