"""Scalar GF(q) arithmetic on single elements: the brute-force oracle of the field tests.

The package reads its field through arrays (chi_differences,
digit_differences, character_phases) and keeps `mul` only to build the chi
table.  These element operations are the plain reference that the chi,
modulus, field-axiom, character-sum and index tests compare `mul` and the
tables against.  Elements are the package's coefficient tuples, constant
term first.
"""

from __future__ import annotations

import numpy as np

from isoclinic import plane_rotation


def index(field, x):
    """Position of x in canonical order: its base-p digits read as a number."""
    return sum(c * field.p**d for d, c in enumerate(x))


def add(field, x, y):
    return tuple((a + b) % field.p for a, b in zip(x, y))


def neg(field, x):
    return tuple(-a % field.p for a in x)


def sub(field, x, y):
    return tuple((a - b) % field.p for a, b in zip(x, y))


def phase(field, b, x):
    """b.x mod p, the digitwise dot product: psi_b(x) = exp(2 pi i phase / p)."""
    return sum(c * d for c, d in zip(b, x)) % field.p


def power(field, x, n):
    """x**n by square and multiply, n >= 0."""
    result, base = field.one, x
    while n:
        if n & 1:
            result = field.mul(result, base)
        base = field.mul(base, base)
        n >>= 1
    return result


def inv(field, x):
    """Multiplicative inverse of a nonzero x, as x**(q-2)."""
    assert x != field.zero
    return power(field, x, field.q - 2)


def rotation_sum(field, theta, b):
    """Sum of r_{theta (chi(a) - chi(a+b))} over a not in {0, -b}, one element at a time."""
    total = np.zeros((2, 2))
    for a in field.elements:
        if a == field.zero or add(field, a, b) == field.zero:
            continue
        total += plane_rotation(theta * (field.chi(a) - field.chi(add(field, a, b))))
    return total
