"""Independent checks of the construction chain.

Every check here recomputes its property with the benchmark's own numpy or
integer code and never calls the program's residual or count functions.
A failed check raises CheckFailed naming the property and, where there is
one, the worst entry.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Absolute max-norm gate for the floating-point identities.  The largest
# residual seen on the benchmark's orders is about 3e-12 (H H* at q = 729).
TOL = 1e-9
PAIR_SAMPLE = 64


class CheckFailed(Exception):
    """An output of the program does not have the property checked."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _dev(a: np.ndarray, b) -> tuple[float, tuple[int, ...]]:
    diff = np.abs(a - b)
    worst = np.unravel_index(int(diff.argmax()), diff.shape)
    return float(diff[worst]), tuple(int(i) for i in worst)


def _require_close(a: np.ndarray, b, what: str) -> None:
    dev, at = _dev(a, b)
    _require(dev <= TOL, f"{what}: deviation {dev:.3e} at {at} exceeds {TOL:g}")


def check_exponents(E: np.ndarray, q: int, p: int, alpha: int) -> None:
    """Symmetric, zero diagonal, (q-1)/2 entries +1 and -1 per row; Euler's criterion for prime q."""
    E = np.asarray(E, dtype=np.int64)
    _require(E.shape == (q, q), f"exponent matrix shape {E.shape}, expected ({q}, {q})")
    _require(np.array_equal(E, E.T), "exponent matrix is not symmetric")
    _require(not E.diagonal().any(), "exponent diagonal is not zero")
    half = (q - 1) // 2
    plus, minus = (E == 1).sum(axis=1), (E == -1).sum(axis=1)
    _require(
        (plus == half).all() and (minus == half).all(),
        f"a row does not hold {half} entries +1 and {half} entries -1",
    )
    if alpha == 1:
        euler = np.array([0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)])
        idx = np.arange(p)
        expected = euler[(idx[:, None] - idx[None, :]) % p]
        bad = np.argwhere(E != expected)
        _require(len(bad) == 0, f"exponents differ from Euler's criterion at {tuple(bad[0]) if len(bad) else ()}")


def check_counts(E: np.ndarray, q: int) -> None:
    """Exact (r, s, t) = (k-2, (k-1)/2, (k-1)/2) at every off-diagonal entry.

    With P = [E = 1] and N = [E = -1], s = P N, t = N P and r = P P + N N.
    The products are taken in float64, which is exact here: every partial
    sum is an integer below q < 2**53.
    """
    P = (np.asarray(E) == 1).astype(np.float64)
    N = (np.asarray(E) == -1).astype(np.float64)
    k = (q + 1) // 2
    off = ~np.eye(q, dtype=bool)
    for name, counts, want in (
        ("r", P @ P + N @ N, k - 2),
        ("s", P @ N, (k - 1) // 2),
        ("t", N @ P, (k - 1) // 2),
    ):
        bad = np.argwhere(off & (counts != want))
        _require(len(bad) == 0, f"count {name} differs from {want} at {tuple(bad[0]) if len(bad) else ()}")


def check_conference(V: np.ndarray, q: int) -> None:
    """Zero diagonal, unimodular off-diagonal, symmetric, C C* = (q-1) I."""
    _require(V.shape == (q, q), f"conference shape {V.shape}, expected ({q}, {q})")
    _require(not V.diagonal().any(), "conference diagonal is not zero")
    off = ~np.eye(q, dtype=bool)
    _require_close(np.abs(V[off]), 1.0, "|C_ij| = 1 off the diagonal")
    _require_close(V, V.T, "C symmetric")
    _require_close(V @ V.conj().T, (q - 1) * np.eye(q), "C C* = (q-1) I")


def check_seidel(S: np.ndarray, q: int) -> None:
    """Symmetric with zero diagonal blocks, S^2 = (q-1) I and trace 0."""
    n = 2 * q
    _require(S.shape == (n, n), f"Seidel shape {S.shape}, expected ({n}, {n})")
    _require_close(S, S.T, "S symmetric")
    diag_blocks = S.reshape(q, 2, q, 2)[np.arange(q), :, np.arange(q), :]
    _require(not diag_blocks.any(), "a diagonal 2x2 block of S is not zero")
    _require_close(S @ S, (q - 1) * np.eye(n), "S^2 = (q-1) I")
    _require(abs(float(np.trace(S))) <= TOL, "trace of S is not 0")


def check_gram(A: np.ndarray, S: np.ndarray, q: int) -> None:
    """A = I + S / sqrt(q-1)."""
    _require(A.shape == S.shape, f"Gram shape {A.shape}, expected {S.shape}")
    _require_close(A, np.eye(2 * q) + S / np.sqrt(q - 1), "A = I + S/sqrt(q-1)")


def check_planes(basis: np.ndarray, S: np.ndarray, q: int, lam, rng: np.random.Generator) -> None:
    """q planes in R^q whose Gram is I + S/sqrt(q-1); sampled pairs have B^T B = lambda I."""
    _require(basis.shape == (q, 2 * q), f"basis shape {basis.shape}: expected {q} planes in R^{q}")
    check_gram(basis.T @ basis, S, q)
    m = min(PAIR_SAMPLE, q * (q - 1) // 2)
    i = rng.integers(q, size=m)
    j = (i + rng.integers(1, q, size=m)) % q
    planes = basis.reshape(q, q, 2)
    B = np.einsum("rma,rmb->mab", planes[:, i, :], planes[:, j, :])
    BtB = np.einsum("mab,mac->mbc", B, B)
    _require_close(BtB, float(lam) * np.eye(2), "B^T B = lambda I on sampled plane pairs")


def check_bound(q: int, lam) -> None:
    """lambda = 1/(q-1) and q (1 - lambda) / (2 - q lambda) = q exactly."""
    lam = Fraction(lam)
    _require(lam == Fraction(1, q - 1), f"lambda = {lam}, expected 1/{q - 1}")
    bound = Fraction(q) * (1 - lam) / (2 - q * lam)
    _require(bound == q, f"bound {bound} is not {q}")


def check_hadamard(H: np.ndarray, q: int) -> None:
    """|H_ij| = 1 and H H* = 2q I."""
    n = 2 * q
    _require(H.shape == (n, n), f"Hadamard shape {H.shape}, expected ({n}, {n})")
    _require_close(np.abs(H), 1.0, "|H_ij| = 1")
    _require_close(H @ H.conj().T, n * np.eye(n), "H H* = 2q I")


def check_spectrum(S: np.ndarray, q: int) -> None:
    """q eigenvalues +sqrt(q-1) and q eigenvalues -sqrt(q-1)."""
    ev = np.linalg.eigvalsh(S)
    mu = np.sqrt(q - 1)
    plus, minus = int((np.abs(ev - mu) <= TOL).sum()), int((np.abs(ev + mu) <= TOL).sum())
    _require(plus == q and minus == q, f"{plus} eigenvalues at +sqrt(q-1) and {minus} at -sqrt(q-1), expected {q} each")


def orthonormality_dev(basis: np.ndarray) -> float:
    """Max deviation of any plane's P^T P from I_2."""
    planes = basis.reshape(basis.shape[0], -1, 2)
    return _dev(np.einsum("rna,rnb->nab", planes, planes), np.eye(2))[0]


def isoclinic_dev(basis: np.ndarray, lam) -> float:
    """Max deviation of B^T B from lambda I_2 over all plane pairs i < j, B = P_i^T P_j."""
    n = basis.shape[1] // 2
    B = (basis.T @ basis).reshape(n, 2, n, 2).swapaxes(1, 2)
    BtB = np.einsum("ijab,ijac->ijbc", B, B)
    i, j = np.triu_indices(n, k=1)
    return _dev(BtB[i, j], float(lam) * np.eye(2))[0]


def holds(check, *args) -> bool:
    """The verdict of one check: True when it raises no CheckFailed."""
    try:
        check(*args)
    except CheckFailed:
        return False
    return True


# Corrupted copies: each breaks one property the checks above test, by far
# more than TOL.


def flip_exponent(E: np.ndarray) -> np.ndarray:
    """E with the exponent at (0, 1) and (1, 0) negated; symmetry is kept."""
    E = E.copy()
    E[0, 1] = E[1, 0] = -E[0, 1]
    return E


def rotate_block(S: np.ndarray) -> np.ndarray:
    """S with its (0, 1) block pair rotated by 0.01 rad; symmetry and zero diagonal blocks are kept."""
    S = S.copy()
    phi = np.arctan2(S[0, 3], S[0, 2]) + 0.01
    block = np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])
    S[0:2, 2:4] = block
    S[2:4, 0:2] = block.T
    return S


def scale_last_plane(basis: np.ndarray) -> np.ndarray:
    """The last plane's basis scaled by 1.01: it is no longer orthonormal, nor isoclinic to the others."""
    basis = basis.copy()
    basis[:, -2:] *= 1.01
    return basis


def scale_pair(V: np.ndarray) -> np.ndarray:
    """V with the entries (0, 1) and (1, 0) scaled by 1.01."""
    V = V.copy()
    V[0, 1] *= 1.01
    V[1, 0] *= 1.01
    return V


def turn_entry(H: np.ndarray) -> np.ndarray:
    """H with the phase of its (0, 0) entry turned by 0.01 rad; it stays unimodular."""
    H = H.copy()
    H[0, 0] *= np.exp(0.01j)
    return H


def check_construction(C, S, pt, H, q: int, p: int, alpha: int, rng: np.random.Generator) -> None:
    """Every check above on one order's conference, Seidel, plane and Hadamard objects."""
    check_exponents(C.exponents, q, p, alpha)
    check_counts(C.exponents, q)
    check_conference(C.values, q)
    check_seidel(S.dense, q)
    check_planes(pt.basis, S.dense, q, pt.lam, rng)
    check_bound(q, pt.lam)
    check_hadamard(H.values, q)


def check_same_bits(a: np.ndarray, b: np.ndarray, what: str) -> None:
    _require(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(),
        f"{what}: parsed array is not bitwise equal to the library-built record",
    )
