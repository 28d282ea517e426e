"""Arithmetic in GF(p^alpha) for odd primes p, and the quadratic character.

Elements are coefficient tuples of length alpha, constant term first, with
coefficients reduced mod p; products are reduced mod a fixed monic
irreducible modulus of degree alpha.  The canonical element order is by
base-p digits: element i carries the digits of i as coefficients, so
elements[0] is zero, elements[1] is one, and for prime fields element i is
the residue i itself.

The quadratic character chi maps zero to 0, nonzero squares to +1 and
non-squares to -1 (by Euler's criterion, the field element x^((q-1)/2)).
The chi table marks the squares directly: the digit polynomials of all q
elements (for prime fields the residues i) are squared mod the modulus in
one vectorised pass.  For q = 1 (mod 4) the character is even:
chi(-x) = chi(x).

`GaloisField.digit_differences()` is the index of a_i - a_j.  Addition only
touches the base-p digits, so that index is the digitwise difference mod p
read back in base p: the Kronecker sum of alpha copies of the p x p table
(i - j) mod p, stored in the smallest unsigned dtype that holds q - 1.  A
matrix M is group-developed over the additive group of GF(q) when
M[i, j] = m(a_i - a_j), that is M == M[:, 0][digit_differences()];
`developed_column` is that one test, which the conference, Seidel and
count checks make before they take their O(q^2) paths.  Row 0 of the index
is the negation map: it holds the index of -a_j.

`GaloisField.chi_differences()` is the exponent matrix E[i, j] =
chi(a_i - a_j) that every construction reads: one lookup of the digit
differences into the chi table.  The diagonal of E is chi(0) = 0; for
q = 1 (mod 4) it is symmetric, for q = 3 (mod 4) antisymmetric.

`GaloisField.character_phases()` is the index b.a_x mod p of the additive
characters psi_b(a_x) = exp(2 pi i b.x / p), the digitwise dot product,
in the smallest unsigned dtype that holds p - 1: the character transform
of the seidel module and the plane basis read their cos and sin tables
through it.  All three arrays are computed once per field and shared
read-only.
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
            alpha + 1, constant term first: the lexicographically
            smallest monic irreducible of degree alpha.  For alpha = 1
            that is x - 0, i.e. plain arithmetic mod p.
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
        self.modulus: tuple[int, ...] = next(c for c in _monic_polys(alpha, p) if _is_irreducible(c, p))
        self._digits = np.arange(self.q)[:, None] // p ** np.arange(alpha) % p
        self._digits.flags.writeable = False
        self.elements: tuple[Element, ...] = tuple(map(tuple, self._digits.tolist()))
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

    def digit_differences(self) -> np.ndarray:
        """The q x q index of a_i - a_j, computed once and shared read-only.

        The dtype is the smallest unsigned integer type that holds q - 1.
        """
        return self._digit_differences

    @functools.cached_property
    def _digit_differences(self) -> np.ndarray:
        p = self.p
        dtype = np.min_scalar_type(self.q - 1)
        i = np.arange(p)
        table = ((i[:, None] - i[None, :]) % p).astype(dtype)
        index = table
        for d in range(1, self.alpha):
            # digit d is the more significant one: rows i_d p^d + i_rest, columns likewise
            high = table * dtype.type(p**d)
            m = index.shape[0]
            index = np.add.outer(high, index).transpose(0, 2, 1, 3).reshape(m * p, m * p)
        index.flags.writeable = False
        return index

    def character_phases(self) -> np.ndarray:
        """The q x q index b.a_x mod p (digitwise dot product), computed once and shared read-only.

        The dtype is the smallest unsigned integer type that holds p - 1.
        """
        return self._character_phases

    @functools.cached_property
    def _character_phases(self) -> np.ndarray:
        phases = (self._digits @ self._digits.T % self.p).astype(np.min_scalar_type(self.p - 1))
        phases.flags.writeable = False
        return phases

    @functools.cached_property
    def _chi_differences(self) -> np.ndarray:
        E = np.array(self._chi_table, dtype=np.int8)[self._digit_differences]
        E.flags.writeable = False
        return E

    @functools.cached_property
    def _chi_table(self) -> tuple[int, ...]:
        p, alpha = self.p, self.alpha
        table = np.full(self.q, -1, dtype=np.int64)
        # square every digit polynomial, then reduce mod the monic modulus (for
        # alpha = 1 the digits are the residues and there is nothing to reduce)
        digits = self.digit_array()
        prod = np.zeros((self.q, 2 * alpha - 1), dtype=np.int64)
        for i in range(alpha):
            prod[:, i : i + alpha] += digits[:, i : i + 1] * digits
        prod %= p
        for d in range(2 * alpha - 2, alpha - 1, -1):
            prod[:, d - alpha : d] -= prod[:, d : d + 1] * np.array(self.modulus[:alpha])
            prod[:, d - alpha : d] %= p
        squares = prod[:, :alpha] @ p ** np.arange(alpha, dtype=np.int64)
        table[squares] = 1
        table[0] = 0
        return tuple(table.tolist())

    def digit_array(self) -> np.ndarray:
        """The (q, alpha) array of base-p digits of every element, in canonical order; computed once, read-only."""
        return self._digits

    def first_nonsquare(self) -> Element:
        """First element in canonical order with chi = -1."""
        return self.elements[self._chi_table.index(-1)]


@functools.lru_cache(maxsize=None)
def make_field(p: int, alpha: int = 1) -> GaloisField:
    """Construct (and cache) GF(p**alpha); fields are immutable."""
    return GaloisField(p, alpha)


def field_of_order(q: int) -> GaloisField | None:
    """GF(q) when q is a power of an odd prime, else None.

    The group-developed fast paths factor the order of their input here
    rather than trust any metadata that came with it.
    """
    pa = factor_prime_power(int(q))
    if pa is None or pa[0] == 2:
        return None
    return make_field(*pa)


def developed_column(M: np.ndarray) -> np.ndarray | None:
    """Column 0 of M when every trailing q x q slice is group-developed over GF(q), else None.

    M has shape (..., q, q), and each slice must satisfy
    M[..., i, j] = m(a_i - a_j), checked exactly as M == M[..., :, 0][..., sub]
    with sub the digit-difference index of the field that the trailing
    shape itself factors into.  A nan entry never compares equal.  The
    result is the view M[..., :, 0], so m(a_x) = result[..., x].
    """
    if M.ndim < 2 or M.shape[-2] != M.shape[-1] or (field := field_of_order(M.shape[-1])) is None:
        return None
    column = M[..., :, 0]
    # np.take gathers from a strided column about 4 times faster than fancy indexing does
    return column if np.array_equal(M, np.take(column, field.digit_differences(), axis=-1)) else None
