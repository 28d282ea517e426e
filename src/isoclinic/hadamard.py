"""Order doubling: a conference matrix of order n gives a complex Hadamard
matrix of order 2n,

    H = [[C + I, C* - I], [C - I, -C* - I]],    H H* = 2n I,

where C* is the conjugate transpose; for symmetric C this is plain
entrywise conjugation, which is how it is computed here.  Complex Hadamard
matrices of doubled order are of independent interest, e.g. in quantum
information; this module only builds and verifies them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conference import ConferenceMatrix, conference_residual
from .errors import NotConference


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """Unimodular matrix of order n2 with H H* = n2 I."""

    n2: int
    values: np.ndarray


def double(C: ConferenceMatrix) -> HadamardMatrix:
    """Doubled Hadamard matrix; input must pass the conference residual gate."""
    resid = conference_residual(C)
    if resid > 1e-10:
        raise NotConference(f"conference residual {resid!r} exceeds 1e-10")
    q = C.q
    V = C.values
    H = np.empty((2 * q, 2 * q), dtype=np.complex128)
    np.add(V, 0.0, out=H[:q, :q])  # not a copy: C + I adds 0 off the diagonal, so a -0.0 part reads +0.0
    H[q:, :q] = V
    np.conjugate(V, out=H[:q, q:])  # symmetric C: entrywise conjugate equals conjugate transpose
    np.negative(H[:q, q:], out=H[q:, q:])
    # diag[a, b, i] is H[a q + i, b q + i], the diagonal of block (a, b)
    row, col = H.strides
    diag = np.lib.stride_tricks.as_strided(H, shape=(2, 2, q), strides=(q * row, q * col, row + col))
    diag[0, 0] += 1.0
    diag[0, 1] -= 1.0
    diag[1] -= 1.0
    return HadamardMatrix(n2=2 * q, values=H)


def hadamard_residual(H: HadamardMatrix) -> float:
    """Max of the unimodularity deviation and the max-abs entry of H H* - n2 I.

    When H is exactly the doubling of a symmetric C with zero diagonal
    (checked entry by entry with ==), the blocks of H H* - 2q I follow from
    one q x q product M = C C*: the diagonal blocks are 2 Re(M - (q-1) I)
    and the off-diagonal blocks 2i Im M, since C~ C^T = conj(M).  That is
    8 times fewer flops than H H*.  Any other H takes the dense product.
    """
    V = H.values
    C = _doubled(V, H.n2)
    if C is None:
        return _dense_residual(H)
    q = H.n2 // 2
    # the entries of H are +-1 on the block diagonals and +-C, +-C~ elsewhere
    unimod = float(np.abs(np.abs(V[:q, :q]) - 1.0).max())
    M = C @ C.conj().T
    real = 2.0 * float(np.abs(M.real - (q - 1) * np.eye(q)).max())
    imag = 2.0 * float(np.abs(M.imag).max())
    return max(unimod, real, imag)


def _dense_residual(H: HadamardMatrix) -> float:
    """The dense path of hadamard_residual: the full product H H*."""
    n2 = H.n2
    V = H.values
    unimod = float(np.abs(np.abs(V) - 1.0).max())
    gram = float(np.abs(V @ V.conj().T - n2 * np.eye(n2)).max())
    return max(unimod, gram)


def _doubled(V: np.ndarray, n2: int) -> np.ndarray | None:
    """C when V is exactly [[C + I, C~ - I], [C - I, -C~ - I]] with C symmetric, zero on the diagonal; else None."""
    q, odd = divmod(n2, 2)
    if odd or V.shape != (n2, n2):
        return None
    eye = np.eye(q)
    C = V[:q, :q] - eye
    Cc = C.conj()
    # V[:q, :q] == C + I holds by construction when the diagonal of C is zero
    form = (
        not C.diagonal().any()
        and np.array_equal(C, C.T)
        and np.array_equal(V[:q, q:], Cc - eye)
        and np.array_equal(V[q:, :q], C - eye)
        and np.array_equal(V[q:, q:], -Cc - eye)
    )
    return C if form else None
