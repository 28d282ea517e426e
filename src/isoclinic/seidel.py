"""Seidel block matrices: real 2q x 2q images of the conference construction.

Replacing each unimodular entry e^(i phi) of a conference matrix by the
2 x 2 plane symmetry

    s_phi = [[cos phi, sin phi], [sin phi, -cos phi]]

and each zero by the 2 x 2 zero block yields a real symmetric matrix S with

    S^2 = (2k - 2) I_{2q}

when phi = theta * chi(a_i - a_j) and cos(2 theta) = (2-k)/(k-1).  The two
eigenprojectors P = (I +- S/sqrt(2k-2)) / 2 then each have rank 2k - 1, and
the column span pairs of 2 P_+ form the equi-isoclinic plane tuples
extracted in the planes module.

Reflection algebra used throughout: s_a s_b = r_{a-b} (a plane rotation),
r_b s_a = s_a r_{-b} = s_{a+b}, hence r_{eta/2} s_a r_{-eta/2} = s_{a+eta}.

Layout: block (i, j) of the dense array holds rows 2i, 2i+1 and columns 2j,
2j+1.  Every block operation of the package reads and writes through the
(q, q, 2, 2) view `_blocks` gives, which is also `SeidelMatrix.blocks`.

Group-developed form.  The canonical S is block group-developed over the
additive group (Z_p)^alpha of GF(q): S[i, j] = g(a_i - a_j) with
g(x) = s_{theta chi(x)} and g(0) = 0.  SeidelMatrix.block_column checks
the form exactly (gf.developed_column on the (a, b, i, j) block view) and
returns g, read from block column 0: g(a_i) = S[i, 0].  The planes module
splits such an S by the additive characters into q blocks g^(b) of order
2 (see its "Character transform").  `seidel_square_residual` needs the
check only to pick how many rows of S^2 it reads: S^2 is block
group-developed too, so its block row 0, rows 0 and 1, holds every
distinct entry; any other S, such as normalize(S), permute_blocks by a
non-affine sigma or a record with one changed block, is read on every
row.  `spectrum` has one path on every S: the projector traces, O(q).

One involution guard.  spectrum, planes_from_seidel and build_gram need
S^2 = (2k-2) I only, and each asks it of S in one place,
_require_involutory: the S^2 residual (max-abs entry of S^2 - mu^2 I) is
at most 1e-10, on every path.  That suffices for the spectral claim.  S is
symmetric of order 2q, so ||S^2 - mu^2 I||_2 <= 2q 1e-10, and every
eigenvalue lambda of S has |lambda^2 - mu^2| <= 2q 1e-10, far below
mu^2 = q - 1.  So lambda lies near +mu or near -mu, and the multiplicities
read from the signs of the eigenvalues (through the projector traces, or
of the blocks g^(b) in planes.planes_from_seidel) are exact.  The
roundoff of the computed g^(b), q-term sums, moves their eigenvalues by
0.01 to 0.15 q^2 eps in lambda^2 (measured for q = 121 to 2209), which
changes no sign either; it is not gated, as it measures the sums and not
S.  The S^2 residual itself has stayed at or below 1.8e-12 for every
order measured up to q = 3125.

The form check and the S^2 residual are computed at most once per
SeidelMatrix and kept on it (the cached properties block_column and
square_residual), so seidel_square_residual, spectrum, build_gram and
planes_from_seidel on one S check its form once and form S^2 at most once;
neither raises, so the guard, which reads the kept residual, decides each
use alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .conference import ConferenceMatrix, _check_permutation, _require_symmetrizable, critical_angle
from .errors import InvalidOrder, InvalidShift, NotInvolutory, NotUnimodular
from .gf import Element, GaloisField, developed_column


def plane_rotation(angle: float) -> np.ndarray:
    """r_angle = [[c, -s], [s, c]]."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def plane_symmetry(angle: float) -> np.ndarray:
    """s_angle = [[c, s], [s, -c]]: reflection across the line at angle/2."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [s, -c]])


@dataclass(frozen=True, eq=False)
class SeidelMatrix:
    """Real symmetric 2q x 2q matrix with zero 2x2 diagonal blocks.

    The canonical construction fills every off-diagonal block with a plane
    symmetry; normalization replaces the first block row/column by identity
    blocks, which are rotations, so downstream code only assumes the blocks
    are orthogonal.

    The order q is read from the shape of `dense`, which must be square of
    even order >= 2 (else InvalidOrder).  k is an input: a record's header
    states it, and its checks hold the array against it.  It must be at
    least 3 (else InvalidOrder), as mu = sqrt(2k - 2) divides in spectrum
    and in the plane extraction.

    The form check and the S^2 residual are computed on first use and kept
    on the object, so every check of one S reads the same verdict.  Do not
    change `dense` in place after a check has read it: build a new matrix
    instead (dataclasses.replace gives one with nothing cached).  Neither
    raises: whether S^2 = (2k-2) I holds closely enough is decided from the
    kept residual by _require_involutory, once per use.
    """

    k: int
    dense: np.ndarray

    def __post_init__(self) -> None:
        shape = self.dense.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 or not shape[0]:
            raise InvalidOrder(f"a Seidel matrix must be square of even order >= 2, got shape {shape}")
        if self.k < 3:
            raise InvalidOrder(f"a Seidel matrix needs k >= 3, got k = {self.k!r}")

    @property
    def q(self) -> int:
        return self.dense.shape[0] // 2

    @property
    def blocks(self) -> np.ndarray:
        """View of shape (q, q, 2, 2): blocks[i, j] is the 2x2 block at (i, j)."""
        return _blocks(self.dense)

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[i, j]

    @cached_property
    def block_column(self) -> np.ndarray | None:
        """g as entries[a, b, x] = g(a_x)[a, b] when S[i, j] = g(a_i - a_j) over GF(q), else None.

        Computed once.  The form is checked exactly by gf.developed_column
        on the (a, b, i, j) block view, which returns its column j = 0:
        g(a_x) = S[x, 0].
        """
        return developed_column(self.blocks.transpose(2, 3, 0, 1))

    @cached_property
    def square_residual(self) -> float:
        """_square_residual(self), computed once."""
        return _square_residual(self)


def build_seidel(field: GaloisField) -> SeidelMatrix:
    """Canonical Seidel matrix at the critical angle over the given field."""
    q = field.q
    _require_symmetrizable(q)
    k = (q + 1) // 2
    theta = critical_angle(k)
    # the angle theta * chi takes three values only: cos and sin of each, read at chi + 1
    ang = theta * np.array([-1.0, 0.0, 1.0])
    at = np.add(field.chi_differences(), 1, dtype=np.intp)  # an intp index gathers faster than int8
    dense = _reflection_blocks(np.cos(ang)[at], np.sin(ang)[at])
    return SeidelMatrix(k=k, dense=dense)


def _blocks(dense: np.ndarray) -> np.ndarray:
    """(m, n, 2, 2) block view of a 2m x 2n array; a view whenever its rows are C-contiguous."""
    return dense.reshape(dense.shape[0] // 2, 2, dense.shape[1] // 2, 2).swapaxes(1, 2)


def _reflection_blocks(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Dense 2q x 2q matrix with block [[c, s], [s, -c]][i, j] off the diagonal, zero on it.

    c and s are the q x q cosines and sines of the block angles.
    """
    q = c.shape[0]
    dense = np.empty((2 * q, 2 * q))
    blocks = _blocks(dense)
    blocks[..., 0, 0] = c
    blocks[..., 0, 1] = s
    blocks[..., 1, 0] = s
    np.negative(c, out=blocks[..., 1, 1])  # -c would be one more q x q temporary
    blocks[range(q), range(q)] = 0.0
    return dense


def seidel_square_residual(S: SeidelMatrix) -> float:
    """Max-abs entry of S^2 - (2k-2) I, computed once per S (see _square_residual)."""
    return S.square_residual


def _square_residual(S: SeidelMatrix) -> float:
    """Max-abs entry of S^2 - (2k-2) I, read on rows 0..m-1 of S^2: the m x 2q product S[:m] S.

    When S is block group-developed over GF(q) (see
    SeidelMatrix.block_column), so is S^2: its block (i, j) is
    sum_x g(x) g(a_i - a_j - x), which depends on a_i - a_j only.  Block
    row 0, m = 2, then holds every distinct entry, the diagonal at (0, 0)
    and (1, 1).  Any other S, such as normalize(S), permute_blocks(S, sigma)
    for a sigma that is not affine, or a record with one changed block, is
    read on every row, m = 2q.
    """
    n = 2 * S.q
    m = n if S.block_column is None else 2
    dev = S.dense[:m] @ S.dense
    dev.flat[:: n + 1] -= 2 * S.k - 2  # the diagonal of the top m x m block
    return float(np.abs(dev).max())


def _require_involutory(S: SeidelMatrix) -> None:
    """Raise NotInvolutory unless the S^2 residual is at most 1e-10 (a nan residual raises too).

    The one gate of spectrum, planes_from_seidel and build_gram; it reads
    the residual S keeps (seidel_square_residual), so after that check it
    costs one comparison.
    """
    residual = seidel_square_residual(S)
    if not residual <= 1e-10:  # also rejects nan
        raise NotInvolutory(f"S^2 is not (2k-2) I within 1e-10: residual {residual:.3e}")


def rotation_sum(field: GaloisField, theta: float, b: Element) -> np.ndarray:
    """Sum of r_{theta (chi(a) - chi(a+b))} over a not in {0, -b}.

    Direct evaluation of the character-sum identity: the result equals
    (k - 2 + (k - 1) cos(2 theta)) I_2 for every nonzero shift b, hence the
    zero matrix at the critical angle.
    """
    if b == field.zero:
        raise InvalidShift("shift b must be a nonzero field element")
    total = np.zeros((2, 2))
    for a in field.elements:
        if a == field.zero or field.add(a, b) == field.zero:
            continue
        total += plane_rotation(theta * (field.chi(a) - field.chi(field.add(a, b))))
    return total


def spectrum(S: SeidelMatrix) -> list[tuple[float, int]]:
    """Eigenvalues +-sqrt(2k-2) with their multiplicities.

    S must pass _require_involutory.  Then S^2 = (2k-2) I forces the
    two-point spectrum, and the multiplicities are the traces
    q +- tr(S)/(2 mu) of P = (I +- S/mu)/2, integers up to roundoff: the
    trace is the sum of the eigenvalues, O(q) to read on any S.
    """
    _require_involutory(S)
    mu = math.sqrt(2 * S.k - 2)
    shift = float(np.trace(S.dense)) / (2.0 * mu)
    out: list[tuple[float, int]] = []
    for sign in (1.0, -1.0):
        tr = S.q + sign * shift
        m = np.rint(tr)  # round() would raise ValueError on nan
        if not abs(tr - m) <= 1e-8:
            raise NotInvolutory(f"projector trace {tr!r} is not an integer up to 1e-8")
        out.append((sign * mu, int(m)))
    return out


def normalize(S: SeidelMatrix) -> SeidelMatrix:
    """Equivalent matrix whose first block row and column are identity blocks.

    N[i, j] = R_i S[i, j] R_j^T with R = (I, S[0, 1], ..., S[0, q-1]), in
    O(q^2).  If the blocks S[0, j] are orthogonal, this is an orthogonal
    conjugation, so S^2 and the spectrum are preserved.  Idempotent.
    """
    R = np.concatenate([np.eye(2)[None], S.blocks[0, 1:]])
    dense = np.empty((2 * S.q, 2 * S.q))
    # block indices last, so that einsum's inner loop runs along a block row rather than inside a 2 x 2 block
    np.einsum("iab,bcij,jdc->adij", R, S.blocks.transpose(2, 3, 0, 1), R, out=_blocks(dense).transpose(2, 3, 0, 1))
    return SeidelMatrix(k=S.k, dense=dense)


def transport_scaling(S: SeidelMatrix, index: int, eta: float) -> SeidelMatrix:
    """Multiply block row `index` by r_{eta/2} and block column by r_{-eta/2}.

    N[index, j] = r S[index, j] and N[i, index] = S[i, index] r^T with
    r = r_{eta/2}, in O(q) after the copy; no other block changes.  An
    orthogonal conjugation, so S^2 and the spectrum are preserved: the image of
    scaling row/column `index` of the conference matrix by e^(i eta / 2).
    """
    if not 0 <= index < S.q:
        raise IndexError(f"index {index} out of range for order {S.q}")
    r = plane_rotation(eta / 2.0)
    dense = S.dense.copy()
    blocks = _blocks(dense)
    at = slice(index, index + 1)  # a slice: a float index raises TypeError, and True selects block 1 only
    blocks[at] = r @ blocks[at]
    blocks[:, at] = blocks[:, at] @ r.T
    return SeidelMatrix(k=S.k, dense=dense)


def from_conference(C: ConferenceMatrix) -> SeidelMatrix:
    """Entry-by-entry image: e^(i phi) -> s_phi, zero diagonal -> zero blocks.

    For the canonical C(omega0) this coincides with build_seidel up to
    floating-point roundoff in the angle extraction.
    """
    off = ~np.eye(C.q, dtype=bool)
    dev = float(np.abs(np.abs(C.values[off]) - 1.0).max())
    if not dev <= 1e-8:  # also rejects nan
        raise NotUnimodular(f"off-diagonal entries deviate from |c| = 1 by {dev!r}")
    ang = np.angle(C.values)
    dense = _reflection_blocks(np.cos(ang), np.sin(ang))
    return SeidelMatrix(k=C.k, dense=dense)


def permute_blocks(S: SeidelMatrix, sigma: Sequence[int]) -> SeidelMatrix:
    """Simultaneous block row/column permutation mirroring conference.permute."""
    idx = _check_permutation(sigma, S.q)
    # the indices broadcast to shape (q, 2, q, 2), so the result is already laid out as dense
    i, a, j, b = np.ix_(idx, np.arange(2), idx, np.arange(2))
    dense = S.blocks[i, j, a, b].reshape(2 * S.q, 2 * S.q)
    return SeidelMatrix(k=S.k, dense=dense)
