"""Exception types shared across the package."""


class IsoclinicError(Exception):
    """Base class for every error raised by this package."""


class InvalidPrime(IsoclinicError):
    """Field characteristic is not an odd prime."""


class InvalidExponent(IsoclinicError):
    """Field extension degree is not a positive integer."""


class InvalidOrder(IsoclinicError):
    """Construction parameter k lies outside its valid range, or an array's shape implies no valid order."""


class NotSymmetrizable(IsoclinicError):
    """q is not 1 mod 4, so chi(-1) = -1 and the matrix cannot be symmetric."""


class InvalidPermutation(IsoclinicError):
    """Index sequence is not a bijection on 0..n-1."""


class WitnessMismatch(IsoclinicError):
    """An equivalence witness failed its entrywise verification."""


class NotUnimodular(IsoclinicError):
    """An entry expected on the unit circle is not unimodular."""


class InvalidShift(IsoclinicError):
    """Character-sum shift must be a nonzero field element."""


class NotInvolutory(IsoclinicError):
    """Matrix does not square to the expected multiple of the identity."""


class NotConference(IsoclinicError):
    """Input fails the conference-matrix residual gate."""


class RankMismatch(IsoclinicError):
    """Spectral thresholding found an unexpected number of eigenvalues."""


class RecordParseError(IsoclinicError):
    """An export record could not be parsed."""
