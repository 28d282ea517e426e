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
and the doubling-form row of a verified record share it.  It reads H by
the m-row rule: one gf.developed_column call on the stack of H's four
blocks picks m = 1 when all four are group-developed over GF(q) and
m = q otherwise, and the block relations are read on m columns.  It
copies C out of H as a ConferenceMatrix that keeps this verdict as its
form check (column), so the copy is not checked again; the symmetry read
and the deviation of C C* take the same m columns.  The gate of `double`
reads the residual its ConferenceMatrix keeps.  H does not keep the C it
was doubled from, so a caller may drop C once H is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conference import ConferenceMatrix, _gram_deviation
from .errors import InvalidOrder, NotConference
from .gf import developed_column


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
    temporary.  The blocks are read as one (2, 2, q, q) stack, a view of a
    contiguous V, whose one form check gf.developed_column picks m: 1 when
    all four blocks are group-developed over GF(q), q otherwise.  With
    V10 = C - I anchored by its diagonal of -1, the form is V00 = V10 + 2I,
    V01 = conj(V10) and V11 = -conj(V00), read on the m leading columns of
    each block: the last two through the .real and .imag views, the first
    as a diagonal of 1 and exactly m mismatches with V10, all on the
    diagonal.  m = 1 is exact: every block is compared with its column 0
    through the same digit-difference index, so a relation holds entrywise
    if and only if it holds on column 0, with the diagonal at (0, 0).
    C is a ConferenceMatrix on a copy of V10 with a zero diagonal, and no
    check on it reads its k.  It keeps the verdict as its column: the view
    C.values[:, 0] at m = 1, which is what developed_column(C.values)
    returns, and None at m = q, since blocks in this form follow from V10,
    so neither V10 nor C is group-developed when the stack is not.  Its
    symmetry is read with == on the same m columns, as cli._asymmetry reads
    a record: for a group-developed C, C[i, j] = c(a_i - a_j), column 0
    against row 0 holds every c(x) - c(-x); any other C is compared whole.
    """
    q, odd = divmod(V.shape[0], 2)
    if odd:
        return None
    blocks = V.reshape(2, q, 2, q).swapaxes(1, 2)  # blocks[a, b] is block (a, b) of V
    m = 1 if developed_column(blocks) is not None else q
    (V00, V01), (V10, V11) = blocks[..., :m]
    form = (
        (V10.diagonal() == -1.0).all()
        and (V00.diagonal() == 1.0).all()
        and np.count_nonzero(V00 != V10) == m
        and (V01.real == V10.real).all()
        and (V01.imag == -V10.imag).all()
        and (V11.real == -V00.real).all()
        and (V11.imag == V00.imag).all()
    )
    if not form:
        return None
    C = ConferenceMatrix(k=(q + 1) // 2, exponents=None, values=blocks[1, 0].copy())
    np.fill_diagonal(C.values, 0.0)
    vars(C)["column"] = C.values[:, 0] if m == 1 else None  # what developed_column(C.values) would return
    return C if (C.values[:, :m] == C.values[:m].T).all() else None
