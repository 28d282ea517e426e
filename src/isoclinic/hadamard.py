"""Order doubling: a conference matrix of order n gives a complex Hadamard
matrix of order 2n,

    H = [[C + I, C* - I], [C - I, -C* - I]],    H H* = 2n I,

where C* is the conjugate transpose; for symmetric C this is plain
entrywise conjugation, which is how it is computed here.  Complex Hadamard
matrices of doubled order are of independent interest, e.g. in quantum
information; this module only builds and verifies them.

`hadamard_residual` reads H H* - 2q I from C C* when H has exactly this
form, and from column 0 of C C* alone when C is also group-developed over
GF(q), as the construction is; otherwise it forms the full product.  The
form check runs once per HadamardMatrix and is kept on it, so the residual
and the doubling-form row of a verified record share it.  It copies C out
of H as a ConferenceMatrix, whose one kept form check (column) picks the m
columns that both the symmetry read and the deviation of C C* take.  The
gate of `double` reads the residual its ConferenceMatrix keeps.  H does
not keep the C it was doubled from, so a caller may drop C once H is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conference import ConferenceMatrix, _gram_deviation
from .errors import InvalidOrder, NotConference


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """Unimodular matrix of order n2 with H H* = n2 I.

    The order n2 is read from the shape of `values`, which must be square
    of order >= 1 (else InvalidOrder); it may be odd, and then H is no
    doubling.

    The doubling-form check (_doubled) is computed on first use and kept on
    the object, with the ConferenceMatrix C it finds.  Do not change
    `values` in place after a check has read it: build a new matrix instead
    (dataclasses.replace gives one with nothing cached).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        shape = self.values.shape
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise InvalidOrder(f"a Hadamard matrix must be square of order >= 1, got shape {shape}")

    @property
    def n2(self) -> int:
        return self.values.shape[0]

    @cached_property
    def doubling_of(self) -> ConferenceMatrix | None:
        """_doubled(values): the ConferenceMatrix C that H is the doubling of, or None; computed once."""
        return _doubled(self.values)


def double(C: ConferenceMatrix) -> HadamardMatrix:
    """Doubled Hadamard matrix; input must pass the conference residual gate.

    The gate reads C.gram_residual, so it repeats no product when
    conference_residual(C) has run.
    """
    resid = C.gram_residual
    if not resid <= 1e-10:  # also rejects nan
        raise NotConference(f"conference residual {resid!r} exceeds 1e-10")
    q = C.q
    V = C.values
    H = np.empty((2 * q, 2 * q), dtype=np.complex128)
    np.add(V, 0.0, out=H[:q, :q])  # not a copy: C + I adds 0 off the diagonal, so a -0.0 part reads +0.0
    H[q:, :q] = V
    np.conjugate(V, out=H[:q, q:])  # symmetric C: entrywise conjugate equals conjugate transpose
    np.negative(H[:q, q:], out=H[q:, q:])
    diag = np.einsum("aibi->abi", H.reshape(2, q, 2, q))  # a writable view: the diagonal of block (a, b)
    diag[0, 0] += 1.0
    diag[0, 1] -= 1.0
    diag[1] -= 1.0
    return HadamardMatrix(values=H)


def hadamard_residual(H: HadamardMatrix) -> float:
    """Max of the unimodularity deviation and the max-abs entry of H H* - n2 I.

    When H is exactly the doubling of a symmetric C with zero diagonal
    (checked entry by entry with ==, see _doubled), the blocks of
    H H* - 2q I follow from M = C C*: the diagonal blocks are
    2 Re(M - (q-1) I) and the off-diagonal blocks 2i Im M, since
    C~ C^T = conj(M).  M - (q-1) I is read as ConferenceMatrix.gram_residual
    reads it, through the form check that C keeps: its column 0 when C is
    group-developed over GF(q) (see conference._gram_deviation), else the
    full q x q M, 8 times fewer flops than H H*.  Unimodularity is read on
    the same m columns of C + I: column 0 of a group-developed C + I holds
    every off-diagonal value of C, and 1 at (0, 0), so its maximum
    deviation is that of the whole block.  Any other H takes the dense
    product H H*.
    """
    V = H.values
    C = H.doubling_of
    if C is None:
        return _dense_residual(H)
    # M - (q-1) I, or its column 0
    dev = _gram_deviation(C)
    # the entries of H are +-1 on the block diagonals and +-C, +-C~ elsewhere; read on the m columns of dev
    unimod = float(np.abs(np.abs(V[: C.q, : dev.shape[1]]) - 1.0).max())
    real = 2.0 * float(np.abs(dev.real).max())
    imag = 2.0 * float(np.abs(dev.imag).max())
    return max(unimod, real, imag)


def _dense_residual(H: HadamardMatrix) -> float:
    """The dense path of hadamard_residual: the full product H H*."""
    V = H.values
    unimod = float(np.abs(np.abs(V) - 1.0).max())
    gram = V @ V.conj().T
    gram.flat[:: H.n2 + 1] -= H.n2
    return max(unimod, float(np.abs(gram).max()))


def _doubled(V: np.ndarray) -> ConferenceMatrix | None:
    """C when V is exactly [[C + I, C~ - I], [C - I, -C~ - I]] with C symmetric, zero on the diagonal; else None.

    Compared block against block with ==, with no identity and no complex
    temporary.  With V10 = C - I anchored by its diagonal of -1, the form is
    V00 = V10 + 2I, V01 = conj(V10) and V11 = -conj(V00).  The last two
    hold on the whole block, read through the .real and .imag views; the
    first is a diagonal of 1 and exactly q mismatches with V10, all on the
    diagonal.  C is a ConferenceMatrix on a copy of V10 with a zero
    diagonal, and no check on it reads its k.  Its symmetry is read with ==
    on the m columns that its kept form check picks, as cli._asymmetry
    reads a record: for a group-developed C, C[i, j] = c(a_i - a_j),
    column 0 against row 0 holds every c(x) - c(-x), so m = 1; any other C
    is compared whole, m = q.
    """
    q, odd = divmod(V.shape[0], 2)
    if odd:
        return None
    V00, V01, V10, V11 = V[:q, :q], V[:q, q:], V[q:, :q], V[q:, q:]
    form = (
        (V10.diagonal() == -1.0).all()
        and (V00.diagonal() == 1.0).all()
        and np.count_nonzero(V00 != V10) == q
        and (V01.real == V10.real).all()
        and (V01.imag == -V10.imag).all()
        and (V11.real == -V00.real).all()
        and (V11.imag == V00.imag).all()
    )
    if not form:
        return None
    C = ConferenceMatrix(k=(q + 1) // 2, exponents=None, values=V10.copy())
    np.fill_diagonal(C.values, 0.0)  # before anything reads C.column
    m = 1 if C.column is not None else q
    return C if (C.values[:, :m] == C.values[:m].T).all() else None
