"""Arithmetic in GF(p^alpha) for odd primes p, and the quadratic character.

Elements are coefficient tuples of length alpha, constant term first, with
coefficients reduced mod p; products are reduced mod a fixed monic
irreducible modulus of degree alpha.  The canonical element order is by
base-p digits: element i carries the digits of i as coefficients, so
elements[0] is zero, elements[1] is one, and for prime fields element i is
the residue i itself.

The quadratic character chi maps zero to 0, nonzero squares to +1 and
non-squares to -1; it is computed as x^((q-1)/2), which lands on the field
element 1 or -1.  For q = 1 (mod 4) the character is even: chi(-x) = chi(x).

`GaloisField.chi_differences()` is the exponent matrix E[i, j] =
chi(a_i - a_j) that every construction reads.  Addition only touches the
base-p digits, so the index of a_i - a_j is the digitwise difference mod p
read back in base p, and E is one lookup into the chi table.  It is computed
once per field and shared as a read-only array.  Its diagonal is chi(0) = 0;
for q = 1 (mod 4) it is symmetric, for q = 3 (mod 4) antisymmetric.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DivisionByZero, InvalidExponent, InvalidPrime
from .orders import factor_prime_power

Element = tuple[int, ...]


def _base_p_digits(i: int, p: int, width: int) -> Element:
    digits = []
    for _ in range(width):
        digits.append(i % p)
        i //= p
    return tuple(digits)


def _poly_rem(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
    # remainder of a modulo the monic polynomial b, in place on a copy
    a = list(a)
    db = len(b) - 1
    for d in range(len(a) - 1, db - 1, -1):
        c = a[d]
        if c:
            for j in range(db + 1):
                a[d - db + j] = (a[d - db + j] - c * b[j]) % p
    return a


def _monic_polys(deg: int, p: int):
    # monic polynomials of the given degree, ascending in the base-p value
    # of their non-leading coefficients (constant term least significant)
    for i in range(p**deg):
        yield _base_p_digits(i, p, deg) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    # trial division against all monic polynomials of degree <= deg/2;
    # feasible because alpha stays small at desk scale
    deg = len(poly) - 1
    for m in range(1, deg // 2 + 1):
        for d in _monic_polys(m, p):
            r = _poly_rem(list(poly), d, p)
            if not any(r[:m]):
                return False
    return True


class GaloisField:
    """GF(p^alpha) with a fixed modulus and element enumeration.

    Attributes:
        p: odd prime characteristic.
        alpha: extension degree, >= 1.
        q: field size p**alpha.
        modulus: monic irreducible modulus as a coefficient tuple of length
            alpha + 1, constant term first.  For alpha = 1 it is x - 0,
            i.e. plain arithmetic mod p.  For alpha > 1 it is the
            lexicographically smallest monic irreducible of degree alpha.
        elements: all q elements in canonical (base-p digit) order.
    """

    def __init__(self, p: int, alpha: int = 1):
        if not isinstance(p, int) or p == 2 or factor_prime_power(p) != (p, 1):
            raise InvalidPrime(f"characteristic must be an odd prime, got {p!r}")
        if not isinstance(alpha, int) or alpha < 1:
            raise InvalidExponent(f"extension degree must be a positive integer, got {alpha!r}")
        self.p = p
        self.alpha = alpha
        self.q = p**alpha
        if alpha == 1:
            self.modulus: tuple[int, ...] = (0, 1)
        else:
            self.modulus = next(c for c in _monic_polys(alpha, p) if _is_irreducible(c, p))
        self.elements: tuple[Element, ...] = tuple(
            _base_p_digits(i, p, alpha) for i in range(self.q)
        )
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.zero: Element = self.elements[0]
        self.one: Element = self.elements[1]

    def __repr__(self) -> str:
        return f"GaloisField(p={self.p}, alpha={self.alpha})"

    def element(self, i: int) -> Element:
        return self.elements[i]

    def index(self, x: Element) -> int:
        return self._index[x]

    def add(self, x: Element, y: Element) -> Element:
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def neg(self, x: Element) -> Element:
        p = self.p
        return tuple(-a % p for a in x)

    def sub(self, x: Element, y: Element) -> Element:
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def mul(self, x: Element, y: Element) -> Element:
        p, alpha, modulus = self.p, self.alpha, self.modulus
        prod = [0] * (2 * alpha - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] = (prod[i + j] + a * b) % p
        for d in range(len(prod) - 1, alpha - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(alpha):
                    prod[d - alpha + j] = (prod[d - alpha + j] - c * modulus[j]) % p
        return tuple(prod[:alpha])

    def pow(self, x: Element, n: int) -> Element:
        """x**n by square and multiply, n >= 0."""
        result = self.one
        base = x
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, x: Element) -> Element:
        """Multiplicative inverse via x**(q-2)."""
        if x == self.zero:
            raise DivisionByZero("inverse of the zero element")
        return self.pow(x, self.q - 2)

    def chi(self, x: Element) -> int:
        """Quadratic character: 0 on zero, +1 on squares, -1 on non-squares."""
        return self._chi_table[self._index[x]]

    def chi_differences(self) -> np.ndarray:
        """The int8 q x q matrix E[i, j] = chi(a_i - a_j), computed once and shared read-only."""
        return self._chi_differences

    @functools.cached_property
    def _chi_differences(self) -> np.ndarray:
        digits = np.array(self.elements, dtype=np.int64)
        diff = (digits[:, None, :] - digits[None, :, :]) % self.p
        index = diff @ self.p ** np.arange(self.alpha, dtype=np.int64)
        E = np.array(self._chi_table, dtype=np.int8)[index]
        E.flags.writeable = False
        return E

    @functools.cached_property
    def _chi_table(self) -> tuple[int, ...]:
        e = (self.q - 1) // 2
        minus_one = self.neg(self.one)
        table = []
        for x in self.elements:
            if x == self.zero:
                table.append(0)
                continue
            t = self.pow(x, e)
            if t == self.one:
                table.append(1)
            elif t == minus_one:
                table.append(-1)
            else:  # impossible in a field
                raise AssertionError(f"x^((q-1)/2) = {t!r} is not +-1")
        return tuple(table)

    def first_nonsquare(self) -> Element:
        """First element in canonical order with chi = -1."""
        for x in self.elements:
            if self.chi(x) == -1:
                return x
        raise AssertionError("no non-square found; field of size 1?")


@functools.lru_cache(maxsize=None)
def make_field(p: int, alpha: int = 1) -> GaloisField:
    """Construct (and cache) GF(p**alpha); fields are immutable."""
    return GaloisField(p, alpha)
