"""Field construction and arithmetic."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarc.gf import (
    MAX_ORDER,
    PRIME_POWER_LIMIT,
    DegreeMismatchError,
    FieldError,
    NotPrimeError,
    NotPrimitiveError,
    _exp_walk,
    build_field,
    factor_prime_power,
    is_prime,
    primitive_moduli,
)
from support import get_field

GF32_MODULUS = [1, 0, 1, 0, 0, 1]  # x^5 + x^2 + 1


def brute_force_root_order(p, modulus):
    """Multiplicative order of the modulus root by repeated multiplication
    on raw coefficient lists; 0 if a power hits zero or never returns to 1."""
    h = len(modulus) - 1
    if h == 1:
        root = (-modulus[0]) % p
        if root == 0:
            return 0
        cur = root
        for k in range(1, p + 1):
            if cur == 1:
                return k
            cur = cur * root % p
        return 0
    cur = [1] + [0] * (h - 1)
    for k in range(1, 2 * p**h):
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            for i in range(h):
                cur[i] = (cur[i] - carry * modulus[i]) % p
        if all(c == 0 for c in cur):
            return 0
        if cur[0] == 1 and all(c == 0 for c in cur[1:]):
            return k
    return 0


def test_gf31_basics():
    f = get_field(31)
    assert f.q == 31
    assert f.add(30, 1) == 0
    assert f.mul(2, 16) == 1
    assert f.inv_list[2] == 16


def test_gf32_explicit_modulus():
    f = build_field(2, 5, GF32_MODULUS)
    # root order 31 (prime), so xi^31 = 1 and xi^5 = xi^2 + 1
    power = 1
    for _ in range(31):
        power = f.mul(power, f.exp[1])
    assert power == 1
    assert f.exp[5] == f.add(f.exp[2], 1)
    assert f.mul(f.exp[30], f.exp[5]) == f.exp[4]


def test_characteristic_two_self_inverse_addition():
    f = build_field(2, 5, GF32_MODULUS)
    for a in range(f.q):
        assert f.add(a, a) == 0


def test_non_primitive_degree5_rejected_per_root_order_oracle():
    # x^5 + x + 1: the oracle decides whether construction must fail
    modulus = [1, 1, 0, 0, 0, 1]
    order = brute_force_root_order(2, modulus)
    if order == 31:
        build_field(2, 5, modulus)
    else:
        with pytest.raises(NotPrimitiveError):
            build_field(2, 5, modulus)


def test_construction_errors():
    with pytest.raises(NotPrimeError):
        build_field(6)
    with pytest.raises(DegreeMismatchError):
        build_field(2, 5, [1, 0, 1, 1])  # degree 3 polynomial for h=5
    with pytest.raises(DegreeMismatchError):
        build_field(2, 5, [1, 0, 1, 0, 0, 0])  # not monic
    with pytest.raises(NotPrimitiveError):
        build_field(3, 2, [2, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(NotPrimitiveError):
        build_field(3, 2, [1, 0, 1])  # x^2 + 1 irreducible, root has order 4


def has_monic_factor(p, modulus, max_degree):
    """Trial division of modulus over GF(p) by every monic polynomial of
    degree 1 to max_degree."""
    for d in range(1, max_degree + 1):
        for tail in product(range(p), repeat=d):
            rem = list(modulus)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                for j, coeff in enumerate((*tail, 1)):
                    rem[i - d + j] = (rem[i - d + j] - c * coeff) % p
            if not any(rem):
                return True
    return False


def test_explicit_modulus_accepted_iff_root_order_is_full():
    """Every monic modulus of degree h >= 2 for every supported p^h: the
    root-order walk alone decides, and what it accepts is irreducible.
    primitive_moduli lists exactly the accepted moduli, in order, with
    build_field's exp tables."""
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for h in range(2, 9):
            if p**h > MAX_ORDER:
                break
            accepted = []
            for tail in product(range(p), repeat=h):
                modulus = (*tail, 1)
                checked += 1
                if brute_force_root_order(p, modulus) == p**h - 1:
                    field = build_field(p, h, modulus)
                    assert field.modulus == modulus
                    assert not has_monic_factor(p, modulus, h // 2)
                    accepted.append((modulus, field.exp))
                else:
                    with pytest.raises(NotPrimitiveError):
                        build_field(p, h, modulus)
            assert list(primitive_moduli(p, h)) == accepted, (p, h)
    assert checked == 1357


def test_auto_modulus_is_least_primitive():
    """Deterministic auto selection: the least coefficient tuple whose root
    has full order, checked against the raw-order oracle."""
    for p, h in [(2, 5), (3, 2), (2, 2)]:
        expected = None
        for tail in product(range(p), repeat=h):
            if brute_force_root_order(p, [*tail, 1]) == p**h - 1:
                expected = (*tail, 1)
                break
        f = build_field(p, h)
        assert f.modulus == expected
        f2 = build_field(p, h)
        assert f2.modulus == f.modulus


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 31, 32])
def test_field_axioms_exhaustive_pairs(q):
    f = get_field(q)
    for a in range(f.q):
        for b in range(f.q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            if a and b:
                assert f.mul(f.mul(a, b), f.inv_list[b]) == a


@pytest.mark.parametrize("q", [4, 8, 9, 27, 32])
def test_field_axioms_triples(q):
    f = get_field(q)
    for a in range(f.q):
        for b in range(f.q):
            for c in range(f.q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 31, 32])
def test_exp_log_round_trip(q):
    f = get_field(q)
    for a in range(1, q):
        assert f.exp[f.log[a]] == a
    for k in range(q - 1):
        assert f.log[f.exp[k]] == k
    assert f.exp[0] == 1


def test_frobenius_gf32():
    f = get_field(32)
    frob = f.frob_tables
    assert len(frob) == 5
    assert frob[0] == list(range(f.q))
    assert frob[1][f.exp[1]] == f.exp[2]
    for a in range(f.q):
        cur = a
        for _ in range(5):
            cur = frob[1][cur]
        assert cur == a


def test_frobenius_is_homomorphism_gf32():
    f = get_field(32)
    for frob in f.frob_tables:
        for a in range(f.q):
            for b in range(f.q):
                assert frob[f.add(a, b)] == f.add(frob[a], frob[b])
                assert frob[f.mul(a, b)] == f.mul(frob[a], frob[b])


@given(st.sampled_from([3, 5, 8, 9, 16, 31, 32]), st.data())
@settings(max_examples=200, deadline=None)
def test_inverse_and_negation_properties(q, data):
    f = get_field(q)
    a = data.draw(st.integers(min_value=0, max_value=q - 1))
    assert f.add(a, f.neg_list[a]) == 0
    if a:
        assert f.mul(a, f.inv_list[a]) == 1
        assert f.inv_list[f.inv_list[a]] == a


def test_negation_in_every_field():
    """neg_list, read from the log table, is the additive inverse of every
    element of every field of order <= 256."""
    for q in range(2, MAX_ORDER + 1):
        try:
            p, h = factor_prime_power(q)
        except ValueError:
            continue
        f = build_field(p, h)
        for a in range(q):
            assert f.add(a, f.neg_list[a]) == 0, (q, a)


def test_is_prime_agrees_with_a_sieve():
    limit = 300
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, limit):
        if sieve[n]:
            for m in range(n * n, limit, n):
                sieve[m] = False
    assert [is_prime(n) for n in range(-2, limit)] == [False, False] + sieve


def test_factor_prime_power():
    assert factor_prime_power(32) == (2, 5)
    assert factor_prime_power(31) == (31, 1)
    assert factor_prime_power(27) == (3, 3)
    with pytest.raises(ValueError):
        factor_prime_power(12)
    with pytest.raises(ValueError):
        factor_prime_power(1)


def test_factor_prime_power_of_large_q():
    """Roots of q tested with Miller-Rabin, not trial division to sqrt(q):
    a prime near 2^61 and 3^40 are factored, a prime times 3 and
    10^24 + 1 = (10^8 + 1)(10^16 - 10^8 + 1) are not prime powers, and q
    from the limit of the primality test on is refused."""
    assert factor_prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert factor_prime_power(3**40) == (3, 40)
    assert factor_prime_power(2**80) == (2, 80)
    assert factor_prime_power(1000003**3) == (1000003, 3)
    for q in ((2**61 - 1) * 3, 10**24 + 1):
        with pytest.raises(ValueError, match="not a prime power"):
            factor_prime_power(q)
    for q in (PRIME_POWER_LIMIT, 2**127 - 1):
        with pytest.raises(ValueError, match="the limit of the primality test"):
            factor_prime_power(q)


def test_is_prime_rejects_strong_pseudoprimes():
    """Each of these is the least strong pseudoprime to the first k prime
    bases for some k from 4 to 12, so k bases would call it prime."""
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)


def test_field_order_cap():
    assert MAX_ORDER == 256
    f = build_field(2, 8)
    assert f.q == 256 and len(f.mul_flat) == 256 * 256
    assert f.mul(f.exp[200], f.exp[100]) == f.exp[300 % 255]
    for p, h in [(257, 1), (2, 9), (3, 6)]:
        with pytest.raises(FieldError, match="exceeds supported maximum"):
            build_field(p, h)


def test_prime_field_tables_are_modular_integers():
    f = get_field(31)
    for a in range(f.q):
        for b in range(f.q):
            assert f.add(a, b) == (a + b) % 31
            assert f.sub(a, b) == (a - b) % 31
            assert f.mul(a, b) == a * b % 31


def test_prime_field_exp_table_is_the_powers_of_minus_m0():
    """Over GF(p) the root of x + m0 is -m0.  For every prime p <= 256 and
    every m0, the exp walk of [m0, 1] is the list of powers of -m0 when
    -m0 generates GF(p)*, else None; build_field gives that table for the
    least and the greatest such m0 and rejects the modulus x (m0 = 0)."""
    for p in filter(is_prime, range(2, MAX_ORDER + 1)):
        primitive = []
        for m0 in range(p):
            powers = [pow(-m0 % p, k, p) for k in range(p - 1)]
            if m0 and len(set(powers)) == p - 1:
                primitive.append((m0, powers))
                assert _exp_walk(p, 1, (m0, 1)) == powers, (p, m0)
            else:
                assert _exp_walk(p, 1, (m0, 1)) is None, (p, m0)
        for m0, powers in (primitive[0], primitive[-1]):
            assert build_field(p, 1, [m0, 1]).exp == powers, (p, m0)
        with pytest.raises(NotPrimitiveError):
            build_field(p, 1, [0, 1])
