"""Equi-isoclinic plane tuples extracted from Seidel matrices.

With S^2 = (2k-2) I, the matrix A = I + S / sqrt(2k-2) is twice the rank-
(2k-1) eigenprojector of S, so its eigenvalues are exactly {0, 2}.  Its
2 x 2 diagonal blocks are identities and for i != j the blocks satisfy
A_ij A_ji = lambda I_2 with lambda = 1 / (2k-2).  Factoring A = X^T X with
X of row rank 2k - 1 therefore yields q = 2k - 1 planes in R^(2k-1),
spanned by consecutive column pairs of X, any two of which meet at the same
pair of angles: B = P_i^T P_j has B^T B = lambda I_2.

For the canonical S the factor comes from the character transform of the
seidel module: S is block group-developed over the additive group of GF(q),
each 2 x 2 block g^(b) = sum_x g(x) cos(2 pi b.x / p) has eigenvalues
+-mu (g^(0) = diag(mu, -mu); for b != 0 the off-diagonal entry is
gamma(b) sin(theta), gamma(b) = +-sqrt(q) a quadratic Gauss sum), and the
+mu eigenvector v_b of g^(b) = g^(-b) gives two real rows of X, the cos
and the sin of 2 pi b.a_i / p times v_b (planes_from_seidel).  An S
without the group-developed form falls back to the dense route,
extract_bases(build_gram(S)).  Either route first asks S^2 = (2k-2) I of
S through the one guard of the seidel module (_require_involutory, S^2
residual at most 1e-10), and reads the form check and the S^2 residual
that S keeps once computed (see seidel.SeidelMatrix), so extracting the
planes of an S whose S^2 residual or spectrum was taken repeats neither.
The transform is computed once per call: this is its one reader.

Both residuals read blocks of one Gram matrix: the diagonal 2 x 2 blocks of
basis^T basis are the P_i^T P_i, and its blocks above the diagonal are the
B = P_i^T P_j, i < j.  The isoclinic residual reads the four entries of
every block as four strided q x q arrays b00, b01, b10, b11 of the Gram and
forms the three distinct entries of every B^T B from them elementwise:
b00^2 + b10^2, b01^2 + b11^2 and b00 b01 + b10 b11.

That count is maximal for this angle parameter: the pairwise bound

    v <= r (1 - lambda) / (2 - r lambda)        (valid while r lambda < 2)

on the number v of equi-isoclinic planes at parameter lambda in R^r is
attained with equality at r = 2k - 1, lambda = 1/(2k-2), v = 2k - 1.  The
bound statement here is the lambda-restricted count, not the unrestricted
maximum over all lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvalidOrder, RankMismatch
from .seidel import SeidelMatrix, _blocks, _character_transform, _require_involutory


@dataclass(frozen=True, eq=False)
class PlaneTuple:
    """n planes in R^r at common isoclinism parameter lambda.

    basis has shape (r, 2n); columns 2i, 2i+1 are an orthonormal basis of
    plane i.  r and n are read from that shape, which must be 2-D with an
    even number of columns (else InvalidOrder).  lambda is kept as an exact
    rational so tightness of the count bound can be decided without
    floating point.
    """

    lam: Fraction
    basis: np.ndarray

    def __post_init__(self) -> None:
        shape = self.basis.shape
        if len(shape) != 2 or shape[1] % 2:
            raise InvalidOrder(f"a plane basis must be 2-D with an even number of columns, got shape {shape}")

    @property
    def r(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1] // 2

    def plane(self, i: int) -> np.ndarray:
        return self.basis[:, 2 * i : 2 * i + 2]


def build_gram(S: SeidelMatrix) -> np.ndarray:
    """A = I + S / sqrt(2k-2); PSD with eigenvalues {0, 2}."""
    _require_involutory(S)
    n = 2 * S.q
    return np.eye(n) + S.dense / math.sqrt(2 * S.k - 2)


def extract_bases(gram: np.ndarray, r: int, lam: Fraction) -> PlaneTuple:
    """Factor gram = X^T X by symmetric eigendecomposition, keeping rank r.

    Eigenvalues above 1 are kept (the spectral gap of a valid gram separates
    0 from 2); any other count raises RankMismatch.  Gauge: row t of X is
    sqrt(lambda_t) v_t for the kept eigenvalues in descending order, each unit
    eigenvector v_t signed so that its first entry above 1e-12 in magnitude is
    positive (a unit vector of length m has an entry of at least 1/sqrt(m)).
    """
    gram = np.asarray(gram, dtype=float)
    m = gram.shape[0]
    if m % 2 != 0 or gram.shape != (m, m):
        raise ValueError(f"gram must be square of even order, got {gram.shape}")
    vals, vecs = np.linalg.eigh(gram)
    keep = np.nonzero(vals > 1.0)[0][::-1]
    if len(keep) != r:
        raise RankMismatch(f"{len(keep)} eigenvalues above threshold, expected {r}")
    basis = vecs.T[keep]  # a new C-contiguous (r, m) array
    del vecs  # free the (m, m) eigenvectors before the gauge's (r, m) temporaries
    # the number of leading entries of magnitude <= 1e-12 is the index of the first larger one
    first = np.logical_and.accumulate(np.abs(basis) <= 1e-12, axis=1).sum(axis=1)
    basis *= np.copysign(np.sqrt(vals[keep]), basis[np.arange(r), first])[:, None]
    return PlaneTuple(lam=Fraction(lam), basis=basis)


def planes_from_seidel(S: SeidelMatrix) -> PlaneTuple:
    """Full extraction: 2k-1 equi-isoclinic planes in R^(2k-1).

    For a group-developed S (see seidel._character_transform) whose every
    block g^(b) has one positive and one negative eigenvalue, the +mu
    eigenspace of S is spanned by the real and imaginary parts of
    psi_b(a_i) v_b, v_b the +mu unit eigenvector of g^(b) = g^(-b).  Pairing
    b with -b gives the q rows of X directly, with no 2q x 2q eigh:

        row 0:          sqrt(2/q) v_0[c]                      (b = 0)
        rows 2t-1, 2t:  (2/sqrt(q)) cos(2 pi b.a_i / p) v_b[c],
                        (2/sqrt(q)) sin(2 pi b.a_i / p) v_b[c]

    at column 2i + c, for the t-th b of the transform.  Then
    X^T X = 2 P_+ = I + S/mu.  Gauge: each v_b is signed so that its first
    entry above 1e-12 in magnitude is positive.  Any other S takes
    extract_bases(build_gram(S), ...), whose rows are the eigh eigenvectors.
    Either way S must pass seidel._require_involutory.
    """
    _require_involutory(S)
    lam = Fraction(1, 2 * S.k - 2)
    transform = _character_transform(S)
    if transform is None or not ((transform.vals[:, 0] < 0) & (transform.vals[:, 1] > 0)).all():
        return extract_bases(build_gram(S), S.q, lam)
    q = S.q
    v = transform.vecs[:, :, 1]  # eigh sorts ascending: column 1 belongs to +mu
    lead = np.where(np.abs(v[:, 0]) > 1e-12, v[:, 0], v[:, 1])
    v = v * np.copysign(1.0, lead)[:, None]
    phase = np.empty((q, q))
    phase[0] = math.sqrt(2.0 / q)
    np.multiply(transform.cos[1:], 2.0 / math.sqrt(q), out=phase[1::2])
    np.multiply(transform.sin[1:], 2.0 / math.sqrt(q), out=phase[2::2])
    rows = np.concatenate([v[:1], np.repeat(v[1:], 2, axis=0)])  # v_0, then v_b for its cos and its sin row
    basis = (phase[:, :, None] * rows[:, None, :]).reshape(q, 2 * q)
    return PlaneTuple(lam=lam, basis=basis)


def orthonormality_residual(pt: PlaneTuple) -> float:
    """Max deviation of any plane's P^T P from I_2."""
    planes = pt.basis.reshape(pt.r, pt.n, 2)
    blocks = planes.transpose(1, 2, 0) @ planes.transpose(1, 0, 2)  # P_i^T P_i for every plane i
    return float(np.abs(blocks - np.eye(2)).max(initial=0.0))


def isoclinic_residual(pt: PlaneTuple) -> float:
    """Max deviation of any B^T B from lambda I_2, B = P_i^T P_j, i < j."""
    return _isoclinic_deviation(_blocks(pt.basis.T @ pt.basis), pt.lam)


def _isoclinic_deviation(blocks: np.ndarray, lam: Fraction | float) -> float:
    """Max-abs entry of B^T B - lam I_2 over the blocks B = blocks[i, j] above the diagonal.

    blocks has shape (n, n, 2, 2).  B^T B is symmetric, so its three distinct
    entries are formed from the four strided n x n entry arrays of blocks;
    the blocks on and below the diagonal are computed too and then masked
    out by np.triu.
    """
    b00, b01, b10, b11 = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]
    lam = float(lam)
    tmp = np.multiply(b10, b10)
    dev = np.multiply(b00, b00)
    dev += tmp
    dev -= lam
    np.abs(dev, out=dev)  # |(B^T B)_00 - lam|
    other = np.multiply(b01, b01)
    other += np.multiply(b11, b11, out=tmp)
    other -= lam
    np.abs(other, out=other)  # |(B^T B)_11 - lam|
    np.maximum(dev, other, out=dev)
    np.multiply(b00, b01, out=other)
    other += np.multiply(b10, b11, out=tmp)
    np.abs(other, out=other)  # |(B^T B)_01| = |(B^T B)_10|
    np.maximum(dev, other, out=dev)
    return float(np.triu(dev, 1).max(initial=0.0))


class BoundCheck(NamedTuple):
    bound: Fraction | float  # +inf when r * lam >= 2
    tight: bool


def ls_bound(r: int, lam: Fraction | int, v: int) -> BoundCheck:
    """Pairwise-parameter bound v <= r (1 - lam) / (2 - r lam), decided exactly.

    lam must be an exact rational.  tight means v equals the bound, an
    exact equality of rationals; a vacuous bound (r lam >= 2) is never
    tight.
    """
    if r < 4:
        raise ValueError(f"ambient dimension r must be >= 4, got {r}")
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError(f"lambda must lie strictly between 0 and 1, got {lam}")
    denom = 2 - r * lam
    if denom <= 0:
        return BoundCheck(math.inf, False)
    bound = Fraction(r) * (1 - lam) / denom
    return BoundCheck(bound, bound == v)
