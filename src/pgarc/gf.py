"""Exact arithmetic in the Galois fields GF(q), q = p^h.

Elements are integer codes in [0, q): the polynomial c0 + c1*x + ... is
encoded as c0 + c1*p + c2*p^2 + ...  Code 0 is the additive zero and
code 1 the multiplicative unit.  primitive_moduli is the one walk over
the monic moduli of a degree: it keeps those whose root has order q - 1,
with the root's exp table.  The exp/log tables give the tables of
negatives (-1 is a power of the root), inverses and Frobenius maps;
addition (digitwise mod p on the codes) and multiplication are looked
up in q x q flat tables, which the geometry and search layers index
directly.

The integer encoding gives every field a total order (plain integer
order on codes), which downstream code relies on for reproducible
lexicographic comparisons.
"""

from __future__ import annotations

from itertools import product

# Hard cap on the field order: the flat tables hold q^2 entries each, and
# the plane layer stops far below this.
MAX_ORDER = 256


class FieldError(ValueError):
    """Base class for field construction and arithmetic failures."""


class NotPrimeError(FieldError):
    """The requested characteristic is not a prime number."""


class NotPrimitiveError(FieldError):
    """The root of the modulus does not have multiplicative order q - 1:
    the modulus factors over GF(p), or it is irreducible but not primitive."""


class DegreeMismatchError(FieldError):
    """The supplied modulus does not have the requested degree/shape."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015); factor_prime_power refuses q above it.
PRIME_POWER_LIMIT = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _BASES: exact below PRIME_POWER_LIMIT."""
    if n < 2 or any(n % a == 0 for a in _BASES):
        return n in _BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n - 1 = d * 2^s with d odd; n is a strong probable prime to base a
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _BASES)


def _add_codes(a: int, b: int, p: int) -> int:
    """Digitwise base-p addition of two element codes."""
    if p == 2:
        return a ^ b
    res = 0
    weight = 1
    while a or b:
        res += ((a % p) + (b % p)) % p * weight
        a //= p
        b //= p
        weight *= p
    return res


def _exp_walk(p: int, h: int, modulus: tuple[int, ...]) -> list[int] | None:
    """Codes of root^k for k in [0, q-1), or None if the root's
    multiplicative order is not exactly q-1 (brute-force order check).
    At degree 1 the root is -m0, and the walk multiplies by it mod p."""
    q = p**h
    exp = [1]
    cur = [1] + [0] * (h - 1)
    for k in range(q - 1):
        # multiply by x and reduce: x^h = -(m0 + m1 x + ... + m_{h-1} x^{h-1})
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            for i in range(h):
                cur[i] = (cur[i] - carry * modulus[i]) % p
        code = 0
        weight = 1
        for c in cur:
            code += c * weight
            weight *= p
        if k == q - 2:
            return exp if code == 1 else None
        if code <= 1:
            return None
        exp.append(code)
    return exp


def primitive_moduli(p: int, h: int):
    """(modulus, exp) for every monic primitive modulus of degree h over
    GF(p), in ascending coefficient-tuple order; exp is its _exp_walk."""
    for tail in product(range(p), repeat=h):
        modulus = (*tail, 1)
        exp = _exp_walk(p, h, modulus)
        if exp is not None:
            yield modulus, exp


class FieldTable:
    """Arithmetic tables for one field GF(q). Immutable after construction;
    safe to share across any number of concurrent readers."""

    def __init__(self, p: int, h: int, modulus: tuple[int, ...], exp: list[int]):
        self.p = p
        self.h = h
        self.q = q = p**h
        self.modulus = modulus
        self.exp = exp
        log: list[int | None] = [None] * q
        for k, code in enumerate(exp):
            log[code] = k
        self.log = log
        # -a = a * (-1), and -1 = root^((q-1)/2) for odd p, 1 for p = 2
        half = (q - 1) // 2 if p > 2 else 0
        self.neg_list = [0] + [exp[(log[a] + half) % (q - 1)] for a in range(1, q)]
        inv: list[int | None] = [None] * q
        for a in range(1, q):
            inv[a] = exp[(q - 1 - log[a]) % (q - 1)]
        self.inv_list = inv
        self.frob_tables = []
        for i in range(self.h):
            e = self.p**i
            tab = [0] * q
            for a in range(1, q):
                tab[a] = exp[(log[a] * e) % (q - 1)]
            self.frob_tables.append(tab)
        self.add_flat = [
            _add_codes(a, b, self.p) for a in range(q) for b in range(q)
        ]
        self.mul_flat = [
            exp[(log[a] + log[b]) % (q - 1)] if a and b else 0
            for a in range(q)
            for b in range(q)
        ]

    def add(self, a: int, b: int) -> int:
        return self.add_flat[a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        return self.add_flat[a * self.q + self.neg_list[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_flat[a * self.q + b]

    def power_repr(self, a: int) -> str:
        """Display form of an element as a power of the modulus root.
        Never parsed back; codes are the authoritative encoding."""
        if a == 0:
            return "0"
        k = self.log[a]
        if k == 0:
            return "1"
        return "ξ" if k == 1 else f"ξ^{k}"

    def __repr__(self):
        return f"FieldTable(q={self.q}, p={self.p}, h={self.h})"


def build_field(p: int, ext_degree: int = 1, modulus="auto") -> FieldTable:
    """Construct GF(p^ext_degree).

    With modulus="auto" the first modulus of primitive_moduli, the least
    primitive polynomial by ascending-coefficient tuple, is selected, so
    repeated runs build the identical field.  An explicit modulus must be
    monic of the stated degree and primitive, which is verified by
    brute-force computation of the root's multiplicative order.  That
    walk also rejects a reducible modulus: GF(p)[x]/(m) then has fewer
    than q - 1 units, so x cannot have order q - 1 there.
    """
    if not isinstance(ext_degree, int) or ext_degree < 1:
        raise DegreeMismatchError(f"extension degree must be >= 1, got {ext_degree}")
    # capped before any walk; p**h is built only for h < 9 (2^9 > MAX_ORDER)
    if isinstance(p, int) and p > 1 and (
            p > MAX_ORDER or ext_degree >= MAX_ORDER.bit_length() or p**ext_degree > MAX_ORDER):
        raise FieldError(f"field order p^h exceeds supported maximum {MAX_ORDER}")
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")

    if isinstance(modulus, str):
        if modulus != "auto":
            raise DegreeMismatchError(f"unknown modulus spec {modulus!r}")
        return FieldTable(p, ext_degree, *next(primitive_moduli(p, ext_degree)))

    mod = tuple(int(c) for c in modulus)
    if len(mod) != ext_degree + 1 or mod[-1] != 1:
        raise DegreeMismatchError(
            f"modulus must be monic of degree {ext_degree}, got {list(mod)}"
        )
    if any(not 0 <= c < p for c in mod):
        raise DegreeMismatchError(f"modulus coefficients must lie in [0, {p})")
    exp = _exp_walk(p, ext_degree, mod)
    if exp is None:
        raise NotPrimitiveError(
            f"root of {list(mod)} does not have multiplicative order {p**ext_degree - 1}"
        )
    return FieldTable(p, ext_degree, mod, exp)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, h) with q = p^h, or raise ValueError: the h-th root
    of q, for each h up to log2 q, tested with Miller-Rabin."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q >= PRIME_POWER_LIMIT:
        raise ValueError(f"{q} is not below {PRIME_POWER_LIMIT}, the limit of the primality test")
    for h in range(1, q.bit_length()):
        r = q if h == 1 else round(q ** (1 / h))  # exact for an h-th power
        if r**h == q and is_prime(r):
            return r, h
    raise ValueError(f"{q} is not a prime power")
