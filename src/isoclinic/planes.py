"""Equi-isoclinic plane tuples extracted from Seidel matrices.

With S^2 = (2k-2) I, the matrix A = I + S / sqrt(2k-2) is twice the rank-
(2k-1) eigenprojector of S, so its eigenvalues are exactly {0, 2}.  Its
2 x 2 diagonal blocks are identities and for i != j the blocks satisfy
A_ij A_ji = lambda I_2 with lambda = 1 / (2k-2).  Factoring A = X^T X with
X of row rank 2k - 1 therefore yields q = 2k - 1 planes in R^(2k-1),
spanned by consecutive column pairs of X, any two of which meet at the same
pair of angles: B = P_i^T P_j has B^T B = lambda I_2.

Character transform.  For the canonical S the factor comes from the
additive characters of GF(q).  S is block group-developed over the
additive group (Z_p)^alpha of GF(q): S[i, j] = g(a_i - a_j) with
g(x) = s_{theta chi(x)} and g(0) = 0.  For each b in (Z_p)^alpha the
vectors psi_b(a_i) v, with psi_b(x) = exp(2 pi i b.x / p) the additive
characters, satisfy S (psi_b (x) v) = psi_b (x) g^(b) v, so S splits into
q blocks of order 2,

    g^(b) = sum_x g(x) psi_b(-x) = sum_x g(x) cos(2 pi b.x / p),

real because g is even with symmetric values.  Summing the reflections,
with cos(theta) = 1/mu and mu = sqrt(2k - 2):

    g^(0) = (q - 1) cos(theta) diag(1, -1) = diag(mu, -mu),
    g^(b) = [[-cos theta, gamma(b) sin theta], [gamma(b) sin theta, cos theta]]
            for b != 0,

since sum_{x != 0} psi_b(x) = -1 and gamma(b) = sum_x chi(x) psi_b(x) is a
quadratic Gauss sum, gamma(b) = +-sqrt(q).  Both eigenvalues of each
g^(b) are +-mu: cos^2 theta + q sin^2 theta = 2k - 2.  The +mu
eigenvector v_b of g^(b) = g^(-b) gives two real rows of X, the cos and
the sin of 2 pi b.a_i / p times v_b (planes_from_seidel).

_character_transform reads g from block column 0 (g(a_i) = S[i, 0]) and
checks the form exactly (SeidelMatrix.block_column: gf.developed_column
on the (a, i, j, b) rows of S; then g(-x) = g(x) and g(x) symmetric); it
then takes g^(b) from the cos rows of the real character table
(_character_table), one batched 2 x 2 eigh, and nothing of order 2q.  An
S that fails the check, such as normalize(S), permute_blocks by a
non-affine sigma or a record with one changed block, falls back to the
dense route, extract_bases(build_gram(S)).  Either route first asks
S^2 = (2k-2) I of S through the one guard of the seidel module
(_require_involutory, S^2 residual at most 1e-10), and reads the form
check and the S^2 residual that S keeps once computed (see
seidel.SeidelMatrix), so extracting the planes of an S whose S^2 residual
or spectrum was taken repeats neither.  The transform is not kept:
planes_from_seidel, its one reader, computes it on each call from the
phase index that the field keeps (gf.GaloisField.character_phases).  The
table is kept, on the plane tuple it was built for (PlaneTuple.table), so
the form check of the residuals reads it again instead of building a
second one: a pipeline run builds the table once.

Table form.  That basis is exactly X = table * w: entry (t, 2i + c) is
table[t, i] * w[t, c], with table the real character table and w[t] the
scaled v_b of row t, shared by the cos and the sin row of one b.
_character_table fixes the layout of the table, and this module alone
reads it: m = (q + 1) / 2 cos rows, the first (b = 0) a row of ones, then
a sin row for each b != 0 in the order of the cos rows.  Column i = 0 of
the table reads cos 0 = 1 on every cos row, so block column 0 of X
returns w bit for bit, and PlaneTuple.gram_rows compares the whole of X
with table * w by ==.  The table it reads is the one the shape of X
selects (PlaneTuple.table, built from the shape unless planes_from_seidel
stored it), so the check needs the basis alone.

The m-row rule.  Both residuals read one product, PlaneTuple.gram_rows:
block rows 0..m-1 of X^T X, the (2m, 2q) product X[:, :2m]^T X.  For any w,
block (i, j) of (table * w)^T (table * w) is

    sum_b w_b w_b^T (cos(b.a_i) cos(b.a_j) + sin(b.a_i) sin(b.a_j))
        = sum_b w_b w_b^T cos(b.(a_i - a_j))

(b.a read as the angle 2 pi b.a / p, no sin term for b = 0) by the
addition law, so X^T X is block group-developed over GF(q): block
row 0 holds every distinct block, the diagonal ones P_i^T P_i at (0, 0)
and every B = P_i^T P_j, i != j, at (0, j') with a_j' = a_j - a_i.  On a
basis that passes that check, m = 1: the orthonormality residual
reads block (0, 0) and the isoclinic residual blocks (0, j), j >= 1, with
no 2q x 2q product.  Any other basis is read on every block row, m = n:
the eigh route of extract_bases, a record not in table form (a rotated QX,
a row permutation, one changed entry) and a tuple of any other shape.
The form check uses the basis alone, no metadata.  The isoclinic residual
reads the four entries of every block as four strided m x n arrays b00,
b01, b10, b11 and forms the three distinct entries of every B^T B from
them elementwise: b00^2 + b10^2, b01^2 + b11^2 and b00 b01 + b10 b11.

The bound.  The table is rounded, so the addition law, and with it the
group-developed form of X^T X, holds only to roundoff.  With eps the
double-precision machine epsilon:

  - The addition-law error of the table, e(p) = max over j, k of
    |c_j c_k + s_j s_k - c_(j-k mod p)| in exact arithmetic on the table
    values c_j = cos(alpha_j), s_j = sin(alpha_j), is at most 40 eps: each
    angle alpha_j = fl(fl(2 pi / p) j) lies within 3 pi eps of 2 pi j / p,
    which moves the law by at most 9 pi eps, and cos and sin within 2 ulp
    add at most 10 eps.  It reads 1.2 to 7.6 eps for p = 3 to 1889.
  - Two computed entries of X^T X that belong to one difference a_i - a_j
    then differ by at most delta = (2q + 40) eps: e(p) times
    sum_t |w_tc w_td| <= 1 (columns of unit norm), plus the roundoff of two
    q-term dot products and of the product table * w.  delta is linear in
    q in the worst case; it read 1.1, 3.5, 11, 32, 48.5 and 53.5 eps at
    q = 5, 61, 121, 529, 729 and 2197, closer to sqrt(q) eps.
  - The orthonormality residual read on block row 0 is within delta + eps
    of the every-row reading, and the isoclinic residual within
    2 delta + eps (the entries of an isoclinic B are at most
    sqrt(lambda) <= 1/2), so both within (4q + 81) eps.  The gap read at
    most 5.5 eps for q <= 2197.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidOrder, RankMismatch
from .gf import GaloisField, field_of_order
from .seidel import SeidelMatrix, _blocks, _require_involutory


@dataclass(frozen=True, eq=False)
class PlaneTuple:
    """n planes in R^r at common isoclinism parameter lambda.

    basis has shape (r, 2n); columns 2i, 2i+1 are an orthonormal basis of
    plane i.  r and n are read from that shape, which must be 2-D with an
    even number of columns (else InvalidOrder).  lambda is kept as an exact
    rational so tightness of the count bound can be decided without
    floating point.

    Both residuals read one Gram product, kept on the object (gram_rows),
    and its form check reads the character table that the shape of the
    basis selects, kept too (table).  Do not change `basis` in place after
    a residual has read it: build a new tuple instead (dataclasses.replace
    gives one with nothing cached).
    """

    lam: Fraction
    basis: np.ndarray

    def __post_init__(self) -> None:
        shape = self.basis.shape
        if len(shape) != 2 or shape[1] % 2:
            raise InvalidOrder(f"a plane basis must be 2-D with an even number of columns, got shape {shape}")

    @cached_property
    def gram_rows(self) -> np.ndarray:
        """Block rows 0..m-1 of basis^T basis, the (2m, 2n) product basis[:, :2m]^T basis; computed once.

        m = 1 when the basis is exactly the table basis of planes_from_seidel
        for the w that its block column 0 holds, in which case block row 0
        holds every distinct block (see the module docstring); m = n on any
        other basis.  The check needs nothing but the basis: its shape gives
        the character table (table, None for any other shape), and its block
        column 0 gives w bit for bit, since column 0 of the table reads
        cos 0 = 1 on every cos row.  The whole basis is then compared with
        _table_basis(table, w) by ==, so a sin row whose w differs from that
        of its cos row fails too.
        """
        table, X = self.table, self.basis
        m = 1 if table is not None and (X == _table_basis(table, X[: self.r // 2 + 1, :2])).all() else self.n
        return X[:, : 2 * m].T @ X

    @cached_property
    def table(self) -> np.ndarray | None:
        """_character_table of GF(q) when the basis has shape (q, 2q), q an odd prime power, else None; computed once.

        planes_from_seidel stores here the table it built the basis on, the
        value this would compute, so a pipeline run builds the table once.
        """
        field = field_of_order(self.r) if self.basis.shape[1] == 2 * self.r else None
        return None if field is None else _character_table(field)

    @property
    def r(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1] // 2


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


def _character_table(field: GaloisField) -> np.ndarray:
    """The q x q real character table of the additive group of GF(q), one b of each pair {b, -b}.

    Rows 0..m-1, m = (q + 1) / 2, are cos(2 pi b.a_x / p) for b = 0 (a row
    of ones) and then the lesser index b of each pair; rows m..q-1 are
    sin(2 pi b.a_x / p) for the same b != 0, in the same order.  Each entry
    is looked up through field.character_phases in the p values of cos
    and sin, so every build gives the same bits.
    """
    q, p = field.q, field.p
    # row 0 of the digit differences is the negation map: b = 0 first, then the lesser index of each pair
    phases = field.character_phases[np.arange(q) <= field.digit_differences[0]]
    angle = 2.0 * math.pi / p * np.arange(p)
    m = len(phases)
    table = np.empty((q, q))
    np.take(np.cos(angle), phases, out=table[:m], mode="clip")  # "clip" fills out without a buffer
    np.take(np.sin(angle), phases[1:], out=table[m:], mode="clip")
    return table


def _character_transform(S: SeidelMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(table, vals, vecs) when S is group-developed over GF(S.q) with even, symmetric g, else None.

    table is _character_table of the field, whose m = (q + 1) / 2 cos rows
    give the blocks g^(b); vals and vecs are the eigh of the g^(b), shapes
    (m, 2) and (m, 2, 2), in the order of those rows.  g^(-b) equals g^(b),
    so the m blocks carry all 2q eigenvalues of S.
    """
    entries = S.block_column
    if entries is None:
        return None
    q = S.q
    field = field_of_order(q)
    neg = field.digit_differences[0]  # row 0 of the index is the negation map x -> -x
    # the transform is real only for g even with symmetric values
    if not ((entries[:, :, neg] == entries).all() and (entries[1, 0] == entries[0, 1]).all()):
        return None
    table = _character_table(field)
    return table, *np.linalg.eigh((table[: (q + 1) // 2] @ entries.reshape(4, q).T).reshape(-1, 2, 2))


def planes_from_seidel(S: SeidelMatrix) -> PlaneTuple:
    """Full extraction: 2k-1 equi-isoclinic planes in R^(2k-1).

    For a group-developed S (see _character_transform) whose every
    block g^(b) has one positive and one negative eigenvalue, the +mu
    eigenspace of S is spanned by the real and imaginary parts of
    psi_b(a_i) v_b, v_b the +mu unit eigenvector of g^(b) = g^(-b).  Pairing
    b with -b gives the q rows of X directly, with no 2q x 2q eigh: X is
    exactly table[t, i] * w[t, c] at row t and column 2i + c, for
    table = _character_table of the field and

        w[0] = sqrt(2/q) v_0                 (b = 0, the row of ones)
        w[t] = w[t + m - 1] = (2/sqrt(q)) v_b   (the cos row t and the sin row
                                              t + m - 1 of the t-th b != 0)

    with m = (q + 1) / 2.  Then X^T X = 2 P_+ = I + S/mu.  Gauge: each v_b
    is signed so that its first entry above 1e-12 in magnitude is positive.
    Any other S takes extract_bases(build_gram(S), ...), whose rows are the
    eigh eigenvectors.  Either way S must pass seidel._require_involutory.
    """
    _require_involutory(S)
    lam = Fraction(1, 2 * S.k - 2)
    transform = _character_transform(S)
    # eigh sorts ascending: every g^(b) needs one negative and then one positive eigenvalue
    if transform is None or not (np.sign(transform[1]) == (-1.0, 1.0)).all():
        return extract_bases(build_gram(S), S.q, lam)
    table, _, vecs = transform
    q = S.q
    v = vecs[:, :, 1]  # column 1 belongs to +mu
    scale = np.full(len(v), 2.0 / math.sqrt(q))
    scale[0] = math.sqrt(2.0 / q)  # the cos row of b = 0 has no sin row
    w = v * np.copysign(scale, np.where(np.abs(v[:, 0]) > 1e-12, v[:, 0], v[:, 1]))[:, None]
    pt = PlaneTuple(lam=lam, basis=_table_basis(table, w))
    vars(pt)["table"] = table  # the table PlaneTuple.table would build again from the shape
    return pt


def _table_basis(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The q x 2q basis table[t, i] * w[t, c] at column 2i + c, w given on the cos rows (m of them).

    Each sin row t + m - 1 takes the w of its cos row t.
    """
    q = len(table)
    w = np.concatenate([w, w[1:]])
    basis = np.empty((q, 2 * q))
    for c in (0, 1):  # a strided column per c runs far faster than a broadcast over a last axis of 2
        np.multiply(table, w[:, c : c + 1], out=basis[:, c::2])
    return basis


def orthonormality_residual(pt: PlaneTuple) -> float:
    """Max deviation of any plane's P^T P from I_2, read on the diagonal blocks of PlaneTuple.gram_rows."""
    m = len(pt.gram_rows) // 2
    diagonal = np.einsum("iiab->iab", _blocks(pt.gram_rows[:, : 2 * m]))  # P_i^T P_i for i < m
    return float(np.abs(diagonal - np.eye(2)).max(initial=0.0))


def isoclinic_residual(pt: PlaneTuple) -> float:
    """Max deviation of any B^T B from lambda I_2, B = P_i^T P_j, i < j, read on PlaneTuple.gram_rows."""
    return _isoclinic_deviation(_blocks(pt.gram_rows), pt.lam)


def _isoclinic_deviation(blocks: np.ndarray, lam: Fraction | float) -> float:
    """Max-abs entry of B^T B - lam I_2 over the blocks B = blocks[i, j] above the diagonal.

    blocks has shape (m, n, 2, 2), block rows 0..m-1 of an n x n array of
    blocks.  B^T B is symmetric, so its three distinct entries are formed
    elementwise from the four strided m x n entry arrays of blocks; the
    blocks on and below the diagonal are computed too and then masked out
    by np.triu.
    """
    b00, b01, b10, b11 = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]
    lam = float(lam)
    diagonal = np.maximum(np.abs(b00 * b00 + b10 * b10 - lam), np.abs(b01 * b01 + b11 * b11 - lam))
    dev = np.maximum(diagonal, np.abs(b00 * b01 + b10 * b11))
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
    # in integers, with lam = a / b and b > 0: r (1 - lam) / (2 - r lam) = r (b - a) / (2b - r a)
    if (denom := 2 * lam.denominator - r * lam.numerator) <= 0:
        return BoundCheck(math.inf, False)
    bound = Fraction(r * (lam.denominator - lam.numerator), denom)
    return BoundCheck(bound, bound == v)
