import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import (
    BudgetExceeded,
    DomainError,
    NegativeArgument,
    NotOdd,
    Overflow,
    bounded_composition_sums,
    build_character_group,
    conv_power,
)
from qeuler import characters, qnum
from qeuler.characters import CONVOLUTION_BUDGET


def euler_phi(n):
    return sum(1 for m in range(n) if math.gcd(m, n) == 1) if n > 1 else 1


def brute_force_composition_sum(chi, r, m):
    """Exact oracle: enumerate all compositions of m into r nonnegative parts."""
    total = 0j
    for parts in itertools.product(range(m + 1), repeat=r):
        if sum(parts) == m:
            value = 1.0 + 0j
            for p in parts:
                value *= chi(p)
            total += value
    return total


def test_group_mod_one():
    group = build_character_group(1)
    assert len(group) == 1
    assert group[0](0) == 1
    assert group[0](7) == 1
    assert group.structure == []


def test_group_mod_three():
    group = build_character_group(3)
    assert len(group) == 2
    assert list(group[0].values) == [0, 1, 1]
    assert list(group[1].values) == [0, 1, -1]
    assert group[0].label == 0  # the principal character comes first


def test_group_mod_five_has_order_four_characters():
    group = build_character_group(5)
    assert len(group) == 4
    at_two = sorted((complex(chi(2)) for chi in group), key=lambda z: (z.real, z.imag))
    assert at_two == [-1, -1j, 1j, 1]
    # the two order-4 characters take exactly +-i at residue 2
    quartics = [chi for chi in group if chi(2) in (1j, -1j)]
    assert len(quartics) == 2


def test_group_construction_errors():
    with pytest.raises(NotOdd):
        build_character_group(4)
    with pytest.raises(DomainError):
        build_character_group(0)


@pytest.mark.parametrize("d", [3.0, 2.5, "15"])
def test_a_modulus_that_is_not_an_integer_is_a_domain_error(d):
    # pow() in _primitive_root raised a raw TypeError
    for build in (build_character_group, characters.group_order):
        with pytest.raises(DomainError, match=re.escape(f"modulus must be an integer, got {d!r}")):
            build(d)


@pytest.mark.parametrize("call, name, least", [
    (lambda chi, k: conv_power(chi, 1, k), "series length M", "positive"),
    (lambda chi, k: bounded_composition_sums(chi, 1, k), "upper limit", "positive"),
    (lambda chi, k: chi.periodic_values(k - 1), "length", "nonnegative"),
])
def test_a_length_that_is_not_an_integer_is_a_domain_error(call, name, least):
    # numpy raised a raw TypeError; an integer below the least keeps its message
    chi = build_character_group(3)[1]
    with pytest.raises(DomainError, match=re.escape(f"{name} must be an integer, got ")):
        call(chi, 2.5)
    with pytest.raises(DomainError, match=re.escape(f"{name} must be {least}, got -1")):
        call(chi, -1 if least == "positive" else 0)


def test_a_numpy_modulus_builds_the_group_of_its_int():
    group = build_character_group(np.int64(15))
    assert characters.group_order(np.int64(15)) == len(group) == 8
    assert type(group.modulus_d) is int
    assert [json.dumps(chi.to_json_dict()) for chi in group] == [
        json.dumps(chi.to_json_dict()) for chi in build_character_group(15)]


def test_default_bound_refuses_moduli_above_3001():
    with pytest.raises(Overflow, match="exceeds the construction bound 3001"):
        build_character_group(3003)


def per_unit_table(d):
    """Character values by one angle per (character, unit), summed in Python
    integers: the loop build_character_group's one row per character replaced."""
    structure = build_character_group(d).structure
    orders = [s for _, _, s in structure]
    exponent = math.lcm(*orders)
    roots = np.exp(2j * np.pi * np.arange(exponent) / exponent)
    for numerator, exact in ((0, 1.0), (1, 1.0j), (2, -1.0), (3, -1.0j)):
        if numerator * exponent % 4 == 0:
            roots[numerator * exponent // 4] = exact
    dlogs = [{pow(g, j, pp): j for j in range(s)} for pp, g, s in structure]
    units = [m for m in range(d) if math.gcd(m, d) == 1]
    tables = []
    for ks in itertools.product(*(range(s) for s in orders)):
        values = np.zeros(d, dtype=complex)
        for m in units:
            angle = sum(k * dlog[m % pp] * (exponent // s)
                        for k, dlog, (pp, _, s) in zip(ks, dlogs, structure))
            values[m] = roots[angle % exponent]
        tables.append(values)
    return tables


@pytest.mark.parametrize("d", range(1, 100, 2))
def test_character_rows_equal_the_per_unit_loop_bit_for_bit(d):
    expected = per_unit_table(d)
    group = build_character_group(d)
    assert len(group) == len(expected)
    for chi, values in zip(group, expected):
        assert chi.values.tobytes() == values.tobytes()


def test_eval_char_periodic_extension():
    chi = build_character_group(3)[1]
    assert chi(4) == 1  # 4 = 1 mod 3
    assert chi(6) == 0  # gcd(6, 3) > 1
    assert build_character_group(1)[0](0) == 1
    with pytest.raises(NegativeArgument):
        chi(-1)


@pytest.mark.parametrize("d", range(1, 46, 2))
def test_group_properties(d):
    group = build_character_group(d)
    assert len(group) == euler_phi(d)
    for chi in group:
        values = chi.values
        # support and normalization
        for m in range(d):
            if math.gcd(m, d) > 1 and d > 1:
                assert values[m] == 0
            else:
                assert abs(abs(values[m]) - 1.0) <= 1e-12
                assert abs(values[m] ** len(group) - 1.0) <= 1e-9
        if d > 1:
            assert values[1] == 1
        # complete multiplicativity on residues
        for m in range(d):
            for n in range(d):
                lhs = values[m * n % d]
                assert abs(lhs - values[m] * values[n]) <= 1e-12
        # orthogonality for non-principal characters
        if chi.label != 0:
            assert abs(np.sum(values)) <= 1e-12


@pytest.mark.parametrize("d", [9, 15, 45])
def test_group_closure_under_products(d):
    group = build_character_group(d)
    tables = [chi.values for chi in group]
    for chi_a, chi_b in itertools.product(group, repeat=2):
        product = chi_a.values * chi_b.values
        assert any(np.allclose(product, t, atol=1e-12) for t in tables)


def test_conv_power_trivial_cases():
    chi1 = build_character_group(1)[0]
    coeffs = conv_power(chi1, 2, 6)
    # compositions of m into 2 parts: m + 1 of them, all weight one
    assert np.allclose(coeffs, np.arange(1, 7))
    assert coeffs[3] == 4
    # a cutoff of 10^6 takes two running sums, not a 10^6-long convolution
    assert np.array_equal(conv_power(chi1, 2, 10 ** 6), np.arange(1, 10 ** 6 + 1))

    quad = build_character_group(3)[1]
    assert list(conv_power(quad, 1, 5)) == [0, 1, -1, 0, 1]


def test_conv_power_hand_enumerated_value():
    quad = build_character_group(3)[1]
    # chi(0)chi(3) + chi(1)chi(2) + chi(2)chi(1) + chi(3)chi(0) = -2
    assert conv_power(quad, 2, 5)[3] == -2


@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_conv_power_matches_brute_force(d, r):
    M = 12
    for chi in build_character_group(d):
        coeffs = conv_power(chi, r, M)
        for m in range(M):
            oracle = brute_force_composition_sum(chi, r, m)
            assert abs(coeffs[m] - oracle) <= 1e-12
            assert abs(coeffs[m]) <= math.comb(m + r - 1, r - 1) + 1e-12


def test_conv_power_order_additivity():
    chi = build_character_group(5)[1]
    M = 20
    lhs = conv_power(chi, 3, M)
    c1 = conv_power(chi, 1, M)
    c2 = conv_power(chi, 2, M)
    rhs = np.convolve(c1, c2)[:M]
    assert np.allclose(lhs, rhs, atol=1e-12)


def integer_direct_convolution(chi, r, M):
    """Order-r composition sums by r-1 direct convolutions of the periodic
    sequence in int64, for characters whose values are all in {0, +-1, +-i}."""
    values = chi.periodic_values(M)
    base_re, base_im = values.real.astype(np.int64), values.imag.astype(np.int64)
    assert np.array_equal(base_re + 1j * base_im, values)
    re, im = base_re, base_im
    for _ in range(r - 1):
        re, im = (np.convolve(re, base_re)[:M] - np.convolve(im, base_im)[:M],
                  np.convolve(re, base_im)[:M] + np.convolve(im, base_re)[:M])
    return re, im


@pytest.mark.parametrize("d", [1, 3, 5, 15])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_conv_power_is_exact_for_integer_character_values(d, r):
    for chi in build_character_group(d):
        re, im = integer_direct_convolution(chi, r, 2000)
        for M in (1, d, d + 1, 2 * d + 1, 2000):
            coeffs = conv_power(chi, r, M)
            assert np.array_equal(coeffs.real, re[:M])
            assert np.array_equal(coeffs.imag, im[:M])


def root_exponent_counts(chi, r_max, M):
    """For r = 1..r_max, counts[m, e]: the r-part compositions of m whose
    character values multiply to exp(2 pi i e / L), L the group exponent."""
    d = chi.modulus_d
    L = math.lcm(*(s for _, _, s in build_character_group(d).structure))
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    exponents = {}
    for a, value in enumerate(chi.values):
        if value != 0:
            exponents[a] = int(np.argmin(np.abs(roots - value)))
            assert abs(roots[exponents[a]] - value) <= 1e-15
    parts = [(m, exponents[m % d]) for m in range(M) if m % d in exponents]
    counts = np.zeros((M, L), dtype=np.int64)
    for m, e in parts:
        counts[m, e] = 1
    orders = [counts]
    for _ in range(r_max - 1):
        folded = np.zeros_like(counts)
        for m, e in parts:
            folded[m:] += np.roll(orders[-1][:M - m], e, axis=1)
        orders.append(folded)
    return orders


def test_conv_power_is_near_exact_for_inexact_roots():
    # d = 45 takes 12th roots of unity, most of them inexact in binary: each
    # c_m against its exact value, from integer counts per root and the roots
    # scaled by 2^200, within 1e-11 * max(1, |c_m|).  The components of
    # exp(2 pi i e / 12) are 0, +-1/2, +-1 and +-sqrt(3)/2, so integers give
    # them to 2^-200.
    scale = 2 ** 200
    half_sqrt3 = math.isqrt(3 << 398)  # sqrt(3)/2 * 2^200, rounded down
    first_quarter = [scale, half_sqrt3, scale // 2]  # cos(30 e degrees), e = 0, 1, 2
    quarter = first_quarter + [0] + [-c for c in reversed(first_quarter)]
    cos = np.array(quarter + [-c for c in quarter[1:-1]], dtype=object)
    sin = np.roll(cos, 3)  # sin(30 e degrees) = cos(30 (e - 3) degrees)
    for chi in build_character_group(45):
        for r, counts in enumerate(root_exponent_counts(chi, 4, 700), start=1):
            counts = counts.astype(object)
            exact = np.array([complex(a / scale, b / scale)
                              for a, b in zip(counts @ cos, counts @ sin)])
            coeffs = conv_power(chi, r, 700)
            assert np.all(np.abs(coeffs - exact) <= 1e-11 * np.maximum(1.0, np.abs(exact)))


def test_conv_power_folds_only_the_period_below_the_cutoff(monkeypatch):
    # a large modulus, a short cutoff and r > 1: the fold takes the chi(a) with
    # a < M, so it multiplies at most (r - 1) M^2 entries, not (r - 1) d^2
    group = build_character_group(3001)
    convolve = np.convolve
    work = []

    def counted(a, v):
        work.append(len(a) * len(v))
        return convolve(a, v)

    for chi in (group[0], group[1], group[1500]):
        expected = bounded_composition_sums(chi, 6, 40)[:40]
        for M in (1, 2, 40):
            with monkeypatch.context() as patch:
                patch.setattr(np, "convolve", counted)
                work.clear()
                coeffs = conv_power(chi, 6, M)
            assert sum(work) <= 5 * M * M
            assert coeffs.tobytes() == expected[:M].tobytes()


def _running_sums(chi, r, M):
    """The composition sums by the running-sum route: the fold P^r cut at M,
    padded with -0.0 into rows of d, and r cumulative sums down the columns,
    one per factor 1 / (1 - z^d)."""
    d = chi.modulus_d
    folded = characters._fold(chi.values[:M], r, M)
    out = np.full(-(-M // d) * d, complex(-0.0, -0.0))
    out[:len(folded)] = folded
    rows = out.reshape(-1, d)
    for _ in range(r):
        np.cumsum(rows, axis=0, out=rows)
    return out[:M]


_EXACT_GROUPS = {d: build_character_group(d) for d in (1, 3, 5, 15)}


@settings(deadline=None, max_examples=60)
@given(d=st.sampled_from(sorted(_EXACT_GROUPS)), r=st.integers(1, 4), M=st.integers(1, 5000))
def test_the_matrix_product_keeps_the_bits_of_the_running_sums(d, r, M):
    # values in {0, +-1, +-i}: every product and partial sum of either route
    # is an exact integer, so the bytes agree, signed zeros included (at r = 1
    # the stored -1j keeps its -0.0 real part)
    for chi in _EXACT_GROUPS[d]:
        assert conv_power(chi, r, M).tobytes() == _running_sums(chi, r, M).tobytes()


def test_binomial_rows_larger_than_the_store_are_formed_and_not_kept():
    # 3 x 30,000 doubles is 720,000 bytes, past PREFIX_BYTES
    chi, M = build_character_group(1)[0], 30000
    assert 3 * M * 8 > qnum.PREFIX_BYTES
    qnum.prefixes.clear()
    coeffs = conv_power(chi, 3, M)
    assert np.array_equal(coeffs, [math.comb(m + 2, 2) for m in range(M)])
    assert ("binomials", 3) not in qnum.prefixes._arrays
    conv_power(chi, 3, 40)
    assert qnum.prefixes._arrays[("binomials", 3)].shape == (3, 40)


@pytest.mark.parametrize("M", [10 ** 12, 10 ** 400])
def test_conv_power_refuses_a_length_past_the_budget_before_allocating(M):
    # these raised a raw MemoryError and ValueError
    chi = build_character_group(3)[1]
    for r in (1, 2):
        with pytest.raises(BudgetExceeded, match=rf"^{r}-part composition sums below .* take "
                                                 r".* multiply-adds, over the budget 1e\+08$"):
            conv_power(chi, r, M)


def test_conv_power_validation():
    chi = build_character_group(3)[0]
    with pytest.raises(DomainError):
        conv_power(chi, 0, 5)
    with pytest.raises(DomainError):
        conv_power(chi, 1, 0)


def test_character_json_round_trip():
    for chi in build_character_group(5):
        blob = json.dumps(chi.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["d"] == 5
        assert parsed["label"] == chi.label
        values = [complex(re, im) for re, im in parsed["values"]]
        assert np.allclose(values, chi.values, atol=0)


def test_character_values_are_immutable():
    chi = build_character_group(3)[1]
    with pytest.raises(ValueError):
        chi.values[0] = 5.0


@pytest.mark.parametrize("r,upper", [(2, 10001), (3, 5774), (5, 3334), (40, 434)])
def test_fold_budget_counts_every_fold(r, upper):
    # each (r, upper) is the first upper past the budget at its r, by the
    # multiply-adds of square-and-multiply that the test below counts
    def macs(upper):
        return characters._fold_macs(upper, r, r * (upper - 1) + 1)

    assert macs(upper - 1) <= CONVOLUTION_BUDGET < macs(upper)
    with pytest.raises(BudgetExceeded, match=re.escape(f" take {macs(upper):g} multiply-adds")):
        bounded_composition_sums(build_character_group(3)[1], r, upper)


def test_fold_macs_are_the_products_the_fold_makes(monkeypatch):
    # every np.convolve of lengths m and n is m n multiply-adds, and there
    # are O(log r) of them: at most two per bit of r
    convolve, work = np.convolve, []

    def counted(a, v):
        work.append(len(a) * len(v))
        return convolve(a, v)

    monkeypatch.setattr(np, "convolve", counted)
    chi = build_character_group(15)[3]
    for r in range(1, 40):
        for upper in (1, 2, 5, 16):
            work.clear()
            bounded_composition_sums(chi, r, upper)
            assert sum(work) == characters._fold_macs(upper, r, r * (upper - 1) + 1)
            assert len(work) <= 2 * (r.bit_length() - 1)
        for M in (1, 7, 15, 40):
            work.clear()
            conv_power(chi, r, M)
            assert sum(work) == characters._fold_macs(min(M, 15), r, M)
    work.clear()
    bounded_composition_sums(chi, 10 ** 6 + 1, 1)
    assert len(work) == 19 + 7  # a square per bit below the top, a multiply per set one


def _one_factor_at_a_time(base, r, length):
    out = base
    for _ in range(r - 1):
        out = np.convolve(out, base)[:length]
    return out


@pytest.mark.parametrize("d", [1, 3, 15, 45])
def test_orders_up_to_three_fold_as_one_factor_at_a_time(d):
    # square-and-multiply makes the products P*P and (P*P)*P at r <= 3, so the
    # composition sums and the fold behind conv_power keep their bits
    for chi in build_character_group(d):
        for r in (1, 2, 3):
            for upper in (1, 2, d, 2 * d + 1):
                expected = _one_factor_at_a_time(chi.periodic_values(upper), r,
                                                 r * (upper - 1) + 1)
                assert bounded_composition_sums(chi, r, upper).tobytes() == expected.tobytes()
            for M in (1, d, 3 * d + 2, 700):
                base = chi.periodic_values(min(M, d))
                assert (characters._fold(base, r, M).tobytes()
                        == _one_factor_at_a_time(base, r, M).tobytes())


def test_a_generator_mod_p_that_fails_mod_p_squared_is_lifted_by_p():
    # 5 generates (Z/pZ)* at p = 40487 but 5^(p-1) = 1 mod p^2, so (Z/p^2 Z)*
    # takes 5 + p; no modulus below MODULUS_BOUND has such a prime
    p = 40487
    assert characters._primitive_root(p, 1) == 5 and pow(5, p - 1, p * p) == 1
    g = characters._primitive_root(p, 2)
    order = p * (p - 1)
    assert g == p + 5
    assert all(pow(g, order // f, p * p) != 1 for f, _ in characters._factorize(order))
