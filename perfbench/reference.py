"""Independent high-precision reference for the benchmark's checks.

Nothing here imports the program.  Every value comes from formulas that the
program does not use:

* E_n(x) from the finite closed form
      E_n(x) = [2]_q^r (1-q)^-n  sum_{k<=n} C(n,k) (-1)^k q^(kx) (P(z_k)/(1-z_k^d))^r,
  z_k = -q^(k+1), P(z) = sum_{a<d} chi(a) z^a, which needs no truncation;
* l(s, x) from the grouped series summed until the dominating term falls
  below 1e-32 of the running sum, with the composition sums c_m read off
  (P(z)/(1-z^d))^r = P(z)^r * sum_i C(i+r-1, r-1) z^(di) instead of by
  repeated convolution;
* the symmetry sides assembled from those values and from exact finite power
  sums.

Characters enter as the program's table, snapped to exact roots of unity after
check_group has confirmed the group properties a character group must have.
"""

from __future__ import annotations

import cmath
import math
from math import comb

from mpmath.ctx_mp import MPContext

PRIMARY_DPS = 60
CHECK_DPS = 90
REL_TOL = 1e-7  # the identities' own relative tolerance


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(d: int) -> int:
    result = d
    for p in factorize(d):
        result = result // p * (p - 1)
    return result


def check_group(d: int, rows: list[list[complex]]) -> list[str]:
    """Problems with a claimed character group mod d (empty when sound).

    Checks the count phi(d), that each character is zero exactly off the
    units and a phi(d)-th root of unity on them, complete multiplicativity,
    that label 0 is principal, and row orthogonality (which also makes the
    characters distinct).
    """
    problems = []
    phi = totient(d)
    units = [m for m in range(d) if math.gcd(m, d) == 1]
    if len(rows) != phi:
        problems.append(f"d={d}: {len(rows)} characters, expected phi(d)={phi}")
    for label, vals in enumerate(rows):
        if len(vals) != d:
            problems.append(f"d={d} chi={label}: {len(vals)} values")
            continue
        for m, v in enumerate(vals):
            if math.gcd(m, d) != 1 and d > 1 and v != 0:
                problems.append(f"d={d} chi={label}: nonzero at non-unit {m}")
            if (math.gcd(m, d) == 1 or d == 1) and abs(v ** phi - 1) > 1e-9:
                problems.append(f"d={d} chi={label}: chi({m}) not a phi(d)-th root")
        for a in units:
            for b in units:
                if abs(vals[a * b % d] - vals[a] * vals[b]) > 1e-12:
                    problems.append(f"d={d} chi={label}: not multiplicative at {a},{b}")
                    break
    if rows and any(abs(rows[0][m] - 1) > 1e-15 for m in units):
        problems.append(f"d={d}: label 0 is not principal")
    for i, u in enumerate(rows):
        for j, v in enumerate(rows[: i + 1]):
            dot = sum(u[m] * v[m].conjugate() for m in units)
            want = phi if i == j else 0
            if abs(dot - want) > 1e-9 * phi:
                problems.append(f"d={d}: rows {i},{j} not orthogonal ({dot:.3g})")
    return problems


def root_exponents(d: int, vals: list[complex]) -> tuple[int | None, ...]:
    """Each value as k with chi = exp(2 pi i k / phi(d)), None off the units."""
    phi = totient(d)
    out = []
    for m, v in enumerate(vals):
        if d > 1 and math.gcd(m, d) != 1:
            out.append(None)
            continue
        k = round(cmath.phase(v) * phi / (2 * math.pi)) % phi
        if abs(v - cmath.exp(2j * math.pi * k / phi)) > 1e-12:
            raise ValueError(f"chi({m}) = {v} is not a phi({d})-th root of unity")
        out.append(k)
    return tuple(out)


def _composition_sum(p, m: int, d: int, r: int):
    """c_m from the coefficients p of P(z)^r: the coefficient of z^m in
    P(z)^r * sum_i C(i+r-1, r-1) z^(di)."""
    return sum(p[j] * comb((m - j) // d + r - 1, r - 1)
               for j in range(m % d, min(m, len(p) - 1) + 1, d))


class Reference:
    """Memoized reference evaluations at a fixed working precision.

    A character is passed as its key (d, exponents) from root_exponents; q and
    x are passed as Python floats or as exact mpf values.
    """

    def __init__(self, dps: int = PRIMARY_DPS):
        self.mp = MPContext()
        self.mp.dps = dps
        self._memo: dict = {}

    # -- helpers -----------------------------------------------------------

    def _cached(self, key, fn):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = fn()
            return value

    def chi_values(self, chi):
        d, exps = chi
        phi = totient(d)

        def build():
            return [self.mp.mpc(0) if k is None else self.mp.expjpi(self.mp.mpf(2 * k) / phi)
                    for k in exps]
        return self._cached(("chi", chi), build)

    def _poly_mul(self, u, v):
        out = [self.mp.mpc(0)] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                out[i + j] += a * b
        return out

    def bounded_sums(self, chi, r: int, upper: int):
        """Coefficients of (sum_{j<upper} chi(j) z^j)^r, exactly as polynomials."""
        def build():
            vals = self.chi_values(chi)
            base = [vals[j % chi[0]] for j in range(upper)]
            out = base
            for _ in range(r - 1):
                out = self._poly_mul(out, base)
            return out
        return self._cached(("bounded", chi, r, upper), build)

    def q_number(self, x, q):
        mp = self.mp
        q = mp.mpf(q)
        return (1 - mp.power(q, x)) / (1 - q)

    # -- values --------------------------------------------------------------

    def _closed_form_factor(self, chi, r: int, q, k: int):
        def build():
            mp = self.mp
            d = chi[0]
            z = -mp.power(mp.mpf(q), k + 1)
            vals = self.chi_values(chi)
            p = mp.fsum(vals[a] * z ** a for a in range(d))
            return (p / (1 - z ** d)) ** r
        return self._cached(("F", chi, r, q, k), build)

    def qeuler(self, chi, r: int, n: int, x, q):
        """E_n(x) by the finite closed form."""
        def build():
            mp = self.mp
            qq = mp.mpf(q)
            xx = mp.mpf(x)
            total = mp.fsum(
                comb(n, k) * (-1) ** k * mp.power(qq, k * xx)
                * self._closed_form_factor(chi, r, q, k)
                for k in range(n + 1)
            )
            return (1 + qq) ** r * total / (1 - qq) ** n
        return self._cached(("E", chi, r, n, x, q), build)

    def lfun(self, chi, r: int, s, x, q):
        """l(s, x) by the grouped series, summed until the dominating term
        C(m+r-1, r-1) q^m |[m+x]^-s| falls below 1e-32 of the running sum."""
        def build():
            mp = self.mp
            qq = mp.mpf(q)
            xx = mp.mpf(x)
            ss = mp.mpc(s)
            d = chi[0]
            p = self.bounded_sums(chi, r, d)
            total = mp.mpc(0)
            qm = mp.mpf(1)
            m = 0
            while True:
                bracket = (1 - mp.power(qq, m + xx)) / (1 - qq)
                weight = mp.exp(-ss * mp.log(bracket)) if bracket != 0 else mp.mpc(1)
                term = qm * _composition_sum(p, m, d, r) * weight
                total += term if m % 2 == 0 else -term
                dominating = comb(m + r - 1, r - 1) * qm * abs(weight)
                if m > 8 and dominating < mp.mpf(10) ** -32 * max(abs(total), mp.mpf(10) ** -40):
                    break
                qm *= qq
                m += 1
            return (1 + qq) ** r * total
        return self._cached(("l", chi, r, complex(s), x, q), build)

    # -- sides of the identities ---------------------------------------------

    def _role_arg(self, second: int, x, first: int, t: int):
        mp = self.mp
        return mp.mpf(second) * mp.mpf(x) + mp.mpf(second * t) / first

    def poly_side(self, chi, r: int, n: int, x, q, first: int, second: int):
        mp = self.mp
        qq = mp.mpf(q)
        qf = qq ** first
        w = self.bounded_sums(chi, r, chi[0] * first)
        total = mp.fsum(
            w_t * (-1) ** t * qq ** (second * t)
            * self.qeuler(chi, r, n, self._role_arg(second, x, first, t), qf)
            for t, w_t in enumerate(w) if w_t != 0
        )
        return (1 + qq ** second) ** r * self.q_number(first, q) ** n * total

    def lfun_side(self, chi, r: int, s, x, q, first: int, second: int):
        mp = self.mp
        qq = mp.mpf(q)
        qf = qq ** first
        w = self.bounded_sums(chi, r, chi[0] * first)
        total = mp.fsum(
            w_t * (-1) ** t * qq ** (second * t)
            * self.lfun(chi, r, s, self._role_arg(second, x, first, t), qf)
            for t, w_t in enumerate(w) if w_t != 0
        )
        bracket_pow = mp.exp(mp.mpc(s) * mp.log(self.q_number(second, q)))
        return (1 + qq ** second) ** r * bracket_pow * total

    def power_sum(self, chi, r: int, n: int, i: int, upper: int, q):
        """Exact finite S_{n,i}(upper), grouped by the tuple total t."""
        mp = self.mp
        qq = mp.mpf(q)
        w = self.bounded_sums(chi, r, upper)
        return mp.fsum(
            w_t * (-1) ** t * qq ** ((n - i + 1) * t)
            * (self.q_number(t, qq) ** i if t or i else 1)
            for t, w_t in enumerate(w) if w_t != 0
        )

    def power_sum_side(self, chi, r: int, n: int, x, q, first: int, second: int):
        mp = self.mp
        qq = mp.mpf(q)
        qf, qs = qq ** first, qq ** second
        bf, bs = self.q_number(first, q), self.q_number(second, q)
        arg = mp.mpf(second) * mp.mpf(x)
        total = mp.fsum(
            comb(n, i) * bf ** (n - i) * bs ** i
            * self.qeuler(chi, r, n - i, arg, qf)
            * self.power_sum(chi, r, n, i, first * chi[0], qs)
            for i in range(n + 1)
        )
        return (1 + qs) ** r * total

    def addition(self, chi, r: int, n: int, x, y, q):
        mp = self.mp
        qq = mp.mpf(q)
        bx = self.q_number(x, q)
        return mp.fsum(
            comb(n, i) * mp.power(qq, mp.mpf(x) * i) * self.qeuler(chi, r, i, y, q)
            * bx ** (n - i)
            for i in range(n + 1)
        )

    def sides(self, identity_id: str, inst: dict, chi):
        """Reference (lhs, rhs) of one verify record's instance."""
        mp = self.mp
        r, q = inst["r"], inst["q"]
        x = mp.mpf(inst["x"])
        if identity_id in ("T1", "T2", "T3", "EQ12", "EQ13"):
            a, b = inst["a"], inst["b"]
        if identity_id == "T1":
            s = complex(*inst["s"])
            return (self.lfun_side(chi, r, s, x, q, a, b),
                    self.lfun_side(chi, r, s, x, q, b, a))
        n = inst["n"]
        if identity_id == "T2":
            return (self.poly_side(chi, r, n, x, q, a, b),
                    self.poly_side(chi, r, n, x, q, b, a))
        if identity_id == "T3":
            return (self.power_sum_side(chi, r, n, x, q, a, b),
                    self.power_sum_side(chi, r, n, x, q, b, a))
        if identity_id in ("EQ12", "EQ13"):
            first, second = (a, b) if identity_id == "EQ12" else (b, a)
            return (self.poly_side(chi, r, n, x, q, first, second),
                    self.power_sum_side(chi, r, n, x, q, first, second))
        if identity_id == "EQ4":
            # l(-n, x) = E_n(x) is what EQ4 checks; the series route is
            # compared with the closed form once a run, in the self-check
            value = self.qeuler(chi, r, n, x, q)
            return value, value
        if identity_id in ("EQ5", "EQ9"):
            y = mp.mpf(inst.get("y", 0.0))
            return self.addition(chi, r, n, x, y, q), self.qeuler(chi, r, n, x + y, q)
        if identity_id == "EQ15":
            m, y = inst["m"], mp.mpf(inst["y"])
            qq = mp.mpf(q)
            bx, bnx = self.q_number(x, q), self.q_number(-x, q)
            lhs = mp.fsum(comb(m, k) * mp.power(qq, k * x) * self.qeuler(chi, r, n + k, y, q)
                          * bx ** (m - k) for k in range(m + 1))
            rhs = mp.fsum(comb(n, k) * mp.power(qq, -k * x) * self.qeuler(chi, r, m + k, x + y, q)
                          * bnx ** (n - k) for k in range(n + 1))
            return lhs, rhs
        raise ValueError(f"no reference for identity {identity_id}")


def matches(value: complex, ref, rel_tol: float = REL_TOL) -> bool:
    """|value - ref| <= rel_tol * max(1, |ref|)."""
    ref = complex(ref)
    return abs(complex(value) - ref) <= rel_tol * max(1.0, abs(ref))


def truncated_abs_sum(chi_vals: list[complex], r: int, s, x: float, q: float,
                      M: int) -> float:
    """sum_{m<M} |t_m| of a truncated series, in double precision.

    Terms are (1+q)^r q^m |c_m| |[m+x]_q^-s|, with s = -n for E_n(x).  An
    absolute sum has no cancellation, so double precision gives it to about
    1e-13 relative.
    """
    # imported here: the benchmark's parent process must stay small while it
    # starts the program, since a child's peak memory counts the parent's
    import numpy as np

    d = len(chi_vals)
    base = np.array(chi_vals, dtype=complex)
    p = base
    for _ in range(r - 1):
        p = np.convolve(p, base)
    binoms = np.array([comb(i + r - 1, r - 1) for i in range(M // d + 1)], dtype=float)
    c = np.zeros(M, dtype=complex)
    for j in range(min(len(p), M)):
        count = len(range(j, M, d))
        c[j::d] += p[j] * binoms[:count]
    m = np.arange(M)
    bracket = (1.0 - q ** (m + x)) / (1.0 - q)
    s = complex(s)
    if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
        weight = bracket ** int(-s.real)  # E_n(x); 0**0 == 1 at m = x = 0
    else:
        weight = np.exp(-s.real * np.log(bracket))
    return float((1.0 + q) ** r * np.sum(q ** m * np.abs(c) * weight))
