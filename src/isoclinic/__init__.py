"""Conference matrices, Seidel matrices and equi-isoclinic plane tuples.

Build chain for odd prime-power orders q = 2k - 1 with q = 1 (mod 4):
quadratic-character conference matrix C with C C* = (2k-2) I, certified by
exact integer counting; its real 2q x 2q Seidel image S with S^2 = (2k-2) I;
the tuple of 2k - 1 equi-isoclinic planes in R^(2k-1) spanned by the
columns of the factored eigenprojector Gram matrix (a count that meets the
pairwise-parameter upper bound exactly); and the doubled complex Hadamard
matrix of order 2q.
"""

from .conference import (
    ConferenceMatrix,
    EquivalenceWitnesses,
    build_conference,
    conference_residual,
    critical_angle,
    critical_omega,
    equivalence_witnesses,
    gram_constant,
    permute,
    scale_row_col,
    verify_counts,
)
from .errors import (
    InvalidExponent,
    InvalidOrder,
    InvalidPermutation,
    InvalidPrime,
    InvalidShift,
    IsoclinicError,
    NotConference,
    NotInvolutory,
    NotSymmetrizable,
    NotUnimodular,
    RankMismatch,
    RecordParseError,
    WitnessMismatch,
)
from .export import ExportRecord, parse, read_record, serialize, write_record
from .gf import GaloisField, make_field
from .hadamard import HadamardMatrix, double, hadamard_residual
from .orders import OrderInfo, admissible_orders, classify_order, factor_prime_power
from .planes import (
    BoundCheck,
    PlaneTuple,
    build_gram,
    extract_bases,
    isoclinic_residual,
    ls_bound,
    orthonormality_residual,
    planes_from_seidel,
)
from .seidel import (
    SeidelMatrix,
    build_seidel,
    from_conference,
    normalize,
    permute_blocks,
    plane_rotation,
    plane_symmetry,
    rotation_sum,
    seidel_square_residual,
    spectrum,
    transport_scaling,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "ConferenceMatrix",
    "EquivalenceWitnesses",
    "ExportRecord",
    "GaloisField",
    "HadamardMatrix",
    "InvalidExponent",
    "InvalidOrder",
    "InvalidPermutation",
    "InvalidPrime",
    "InvalidShift",
    "IsoclinicError",
    "NotConference",
    "NotInvolutory",
    "NotSymmetrizable",
    "NotUnimodular",
    "OrderInfo",
    "PlaneTuple",
    "RankMismatch",
    "RecordParseError",
    "SeidelMatrix",
    "WitnessMismatch",
    "admissible_orders",
    "build_conference",
    "build_gram",
    "build_seidel",
    "classify_order",
    "conference_residual",
    "critical_angle",
    "critical_omega",
    "double",
    "equivalence_witnesses",
    "extract_bases",
    "factor_prime_power",
    "from_conference",
    "gram_constant",
    "hadamard_residual",
    "isoclinic_residual",
    "ls_bound",
    "make_field",
    "normalize",
    "orthonormality_residual",
    "parse",
    "permute",
    "permute_blocks",
    "plane_rotation",
    "plane_symmetry",
    "planes_from_seidel",
    "read_record",
    "rotation_sum",
    "scale_row_col",
    "seidel_square_residual",
    "serialize",
    "spectrum",
    "transport_scaling",
    "verify_counts",
    "write_record",
]
