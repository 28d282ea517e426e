"""GF(p^alpha) for odd primes p, read through index tables, and the quadratic character.

Elements are coefficient tuples of length alpha, constant term first, with
coefficients reduced mod p.  The canonical element order is by base-p
digits: element i carries the digits of i as coefficients, so elements[0]
is zero, elements[1] is one, and for prime fields element i is the residue
i itself.

The package has one field arithmetic: the index arrays below give every
difference, character value and additive phase by element index, so
element lookups and sums go through them (a + b is a - (-b), and row 0 of
`digit_differences` is the negation map).  The one scalar operation is
`mul`, which builds the chi table; `chi` reads that table for one element.
Products are reduced mod a fixed monic irreducible modulus of degree alpha,
by the one polynomial remainder that the modulus search also uses.  The
modulus is the first irreducible in a walk over the monic polynomials of
degree alpha that counts their non-leading coefficients in base p, constant
term least significant (itertools.product over range(p), each tuple
reversed); each candidate is tested by trial division.

The quadratic character chi maps zero to 0, nonzero squares to +1 and
non-squares to -1 (by Euler's criterion, the field element x^((q-1)/2)).
The chi table marks the squares directly.  `mul` reduces the product
t^i t^j of every two power-basis elements t^d = elements[p^d] once; the
square of each element is then the bilinear form of its digits on that
alpha x alpha table, mod p, for all q elements in one vectorised pass
(each entry a sum of alpha^2 products below p^3, exact in int64).  For
q = 1 (mod 4) the character is even: chi(-x) = chi(x).

`GaloisField.digit_differences` is the index of a_i - a_j.  Addition only
touches the base-p digits, so that index is the digitwise difference mod p
read back in base p: the Kronecker sum of alpha copies of the p x p table
(i - j) mod p, stored in the smallest unsigned dtype that holds q - 1.  A
matrix M is group-developed over the additive group of GF(q) when
M[i, j] = m(a_i - a_j), that is M == M[:, 0][digit_differences];
`developed_column` is that one test, which the conference, Seidel and
count checks make before they take their O(q^2) paths: on scalar entries
(E, C) and, with block = 2, on the 2 x 2 blocks of a Seidel matrix.  Row 0
of the index is the negation map: it holds the index of -a_j.

`GaloisField.chi_differences` is the exponent matrix E[i, j] =
chi(a_i - a_j) that every construction reads: one lookup of the digit
differences into the chi table.  The diagonal of E is chi(0) = 0; for
q = 1 (mod 4) it is symmetric, for q = 3 (mod 4) antisymmetric.

`GaloisField.character_phases` is the index b.a_x mod p of the additive
characters psi_b(a_x) = exp(2 pi i b.x / p), the digitwise dot product,
in the smallest unsigned dtype that holds p - 1: the character transform
of the seidel module and the plane basis read their cos and sin tables
through it.  It is built by the loop that builds the difference index
(`_digitwise`): the sum of alpha copies of the p x p table i j mod p, each
digit weighted 1 where the differences weight digit d by p^d, in the
smallest unsigned dtype that holds alpha (p - 1), the largest sum, and
then reduced mod p in place.  These three arrays and `GaloisField.digits`
are attributes, each computed once per field (the three on first use) and
shared read-only.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import InvalidExponent, InvalidPrime
from .orders import factor_prime_power

Element = tuple[int, ...]


def _poly_rem(a: list[int] | tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
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
    # of their non-leading coefficients (constant term least significant):
    # product counts with its first digit most significant, so each tuple is reversed
    for digits in itertools.product(range(p), repeat=deg):
        yield digits[::-1] + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    # trial division against all monic polynomials of degree <= deg/2;
    # feasible because alpha stays small at desk scale
    deg = len(poly) - 1
    for m in range(1, deg // 2 + 1):
        for d in _monic_polys(m, p):
            r = _poly_rem(poly, d, p)
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
            alpha + 1, constant term first: the first monic irreducible
            of degree alpha in the candidate walk, the one whose
            coefficients, read from the leading one down, are
            lexicographically smallest.  For alpha = 1 that is x - 0,
            i.e. plain arithmetic mod p.
        elements: all q elements in canonical (base-p digit) order.
        digits: the (q, alpha) array of base-p digits of every element, in
            canonical order; read-only.
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
        self.digits = np.arange(self.q)[:, None] // p ** np.arange(alpha) % p
        self.digits.flags.writeable = False
        self.elements: tuple[Element, ...] = tuple(map(tuple, self.digits.tolist()))
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.zero: Element = self.elements[0]
        self.one: Element = self.elements[1]

    def __repr__(self) -> str:
        return f"GaloisField(p={self.p}, alpha={self.alpha})"

    def mul(self, x: Element, y: Element) -> Element:
        p, alpha = self.p, self.alpha
        prod = [0] * (2 * alpha - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        # _poly_rem reduces only the coefficients it subtracts from
        return tuple(c % p for c in _poly_rem(prod, self.modulus, p)[:alpha])

    def chi(self, x: Element) -> int:
        """Quadratic character: 0 on zero, +1 on squares, -1 on non-squares."""
        return self._chi_table[self._index[x]]

    def _digitwise(self, table: np.ndarray, base: int) -> np.ndarray:
        """sum_d base^d table[i_d, j_d] at (i, j), over the base-p digits i_d, j_d; q x q in table's dtype."""
        index = table
        for d in range(1, self.alpha):
            # digit d is the more significant one: rows i_d p^d + i_rest, columns likewise
            index = np.add.outer(table * base**d, index).transpose(0, 2, 1, 3).reshape(self.p ** (d + 1), -1)
        return index

    @functools.cached_property
    def digit_differences(self) -> np.ndarray:
        """The q x q index of a_i - a_j, computed once and shared read-only.

        The dtype is the smallest unsigned integer type that holds q - 1.
        """
        i = np.arange(self.p)
        index = self._digitwise(((i[:, None] - i) % self.p).astype(np.min_scalar_type(self.q - 1)), self.p)
        index.flags.writeable = False
        return index

    @functools.cached_property
    def character_phases(self) -> np.ndarray:
        """The q x q index b.a_x mod p (digitwise dot product), computed once and shared read-only.

        The dtype is the smallest unsigned integer type that holds p - 1.
        """
        i = np.arange(self.p)
        # the digitwise sum of alpha products, each below p, is taken mod p only at the end
        phases = self._digitwise((i[:, None] * i % self.p).astype(np.min_scalar_type(self.alpha * (self.p - 1))), 1)
        phases = np.remainder(phases, self.p, out=phases).astype(np.min_scalar_type(self.p - 1), copy=False)
        phases.flags.writeable = False
        return phases

    @functools.cached_property
    def chi_differences(self) -> np.ndarray:
        """The int8 q x q matrix E[i, j] = chi(a_i - a_j), computed once and shared read-only."""
        E = np.array(self._chi_table, dtype=np.int8)[self.digit_differences]
        E.flags.writeable = False
        return E

    @functools.cached_property
    def _chi_table(self) -> tuple[int, ...]:
        p, alpha = self.p, self.alpha
        table = np.full(self.q, -1, dtype=np.int64)
        # t^i t^j reduced once by mul for the power basis t^d = elements[p^d]; the square of
        # each element is the bilinear form of its digits on that table, mod p
        basis = [self.elements[p**d] for d in range(alpha)]
        products = np.array([[self.mul(a, b) for b in basis] for a in basis], dtype=np.int64)
        squares = np.einsum("xi,xj,ijd->xd", self.digits, self.digits, products) % p @ p ** np.arange(alpha)
        table[squares] = 1
        table[0] = 0
        return tuple(table.tolist())

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


# the most bytes of M that developed_column compares at once, which bounds its temporaries
_COMPARE_BYTES = 16 * 2**20


def developed_column(M: np.ndarray, block: int = 1) -> np.ndarray | None:
    """Column 0 of M when M is group-developed over GF(q) in blocks of order `block` (1 or 2), else None.

    block = 1: M has shape (..., q, q) and each trailing slice must satisfy
    M[..., i, j] = m(a_i - a_j); the result is the view M[..., :, 0], so
    m(a_x) = result[..., x].  block = 2: M is a 2-D array of even order 2q,
    read in 2 x 2 blocks, and block (i, j) must equal block (d, 0) with
    a_d = a_i - a_j; the result is the (2, 2, q) view
    g[a, b, x] = M[2x + a, b], block column 0.  q is the order of the field
    that M's shape factors into.

    The check is exact: == against column 0 read through the
    digit-difference index, so a nan entry never compares equal.  For
    block = 2 it reads the (a, i, j, b) rows M[2i + a, 2j + b], whose last
    two axes are one contiguous row of M.  It compares bands of at most
    _COMPARE_BYTES of M's rows at a time, and a complex M through its float
    view when its rows are contiguous: == on a complex number is == on
    both parts.
    """
    if M.ndim < 2 or M.shape[-2] != M.shape[-1] or (field := field_of_order(M.shape[-1] // block)) is None:
        return None
    if block == 1:
        rows, column, axis = M, M[..., :, 0], M.ndim - 2
    else:
        rows = M.reshape(field.q, 2, field.q, 2).transpose(1, 0, 2, 3)
        column, axis = rows[:, :, 0], 1
    # compared as floats when the rows allow it (a complex dtype), else as they are
    dtype = M.real.dtype if rows.strides[-1] == M.itemsize else M.dtype
    band = max(1, _COMPARE_BYTES // max(1, M.nbytes // field.q))
    for start in range(0, field.q, band):
        x = rows[(slice(None),) * axis + (slice(start, start + band),)]
        # np.take gathers from a strided column about 4 times faster than fancy indexing does
        y = np.take(column, field.digit_differences[start : start + band], axis=axis)
        if not (x.view(dtype) == y.view(dtype)).all():
            return None
    return column if block == 1 else column.transpose(0, 2, 1)
