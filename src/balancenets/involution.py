"""The manifold of traceless 2x2 involutions and its seed construction.

Matrices of the form ``A = [[a, b], [c, -a]]`` with ``bc = 1 - a**2`` square
to the identity and have determinant -1.  Every such matrix arises by
conjugating the swap matrix ``Z = [[0, 1], [1, 0]]`` with a nonsingular seed
``G``, and the seed can be rebuilt from any vector that is not an
eigenvector of ``A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import TAU_ALG, lazy_module
from .errors import SingularSeedError, ValidationError

np = lazy_module("numpy")


def __getattr__(name: str):
    """E2 (identity) and Z_SWAP, built per read: importing loads no numpy."""
    if name == "E2":
        return np.eye(2)
    if name == "Z_SWAP":
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_quadric(a, b, c, tol: float) -> None:
    """Raise ValidationError unless bc = 1 - a**2 holds within tol.

    a, b and c may be equal-length arrays; the first violating entry is
    reported, as a check of the entries one by one would report it.
    """
    gap = abs(b * c - (1.0 - a * a))
    if np.ndim(gap):
        bad = np.flatnonzero(~(gap <= tol))
        gap = gap[bad[0]] if bad.size else 0.0
    if not gap <= tol:
        raise ValidationError(
            f"entries violate bc = 1 - a^2 by {gap:.3e} (tol {tol:.1e})"
        )


@dataclass(frozen=True)
class InvolutionMatrix:
    """Entries of [[a, b], [c, -a]] constrained by bc = 1 - a**2."""

    a: float
    b: float
    c: float
    tol: float = TAU_ALG

    def __post_init__(self) -> None:
        check_quadric(self.a, self.b, self.c, self.tol)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, -self.a]])

    @classmethod
    def from_matrix(cls, m: np.ndarray, tol: float = TAU_ALG) -> "InvolutionMatrix":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValidationError("expected a 2x2 matrix")
        if abs(m[0, 0] + m[1, 1]) > tol:
            raise ValidationError("matrix is not traceless")
        return cls(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), tol)

    def eigenvectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvectors for the eigenvalues +1 and -1, in that order.

        The closed forms (-b, a - 1) and (-b, a + 1) degenerate when b == 0;
        in that case the matrix is diagonal up to the c entry and the
        coordinate directions (adjusted for c) are used instead.
        """
        a, b, c = self.a, self.b, self.c
        if abs(b) > self.tol:
            return np.array([-b, a - 1.0]), np.array([-b, a + 1.0])
        # b = 0 forces a = +-1; the matrix is lower triangular.
        if a > 0.0:
            return np.array([2.0, c]), np.array([0.0, 1.0])
        return np.array([0.0, 1.0]), np.array([2.0, -c])


def involution_from_seed(g: np.ndarray, tol: float = TAU_ALG) -> InvolutionMatrix:
    """Conjugate the swap matrix by the seed: A = G Z G^-1.

    Uses the closed-form entries in terms of G = [[a, b], [c, d]] rather
    than an explicit inverse, so the only failure mode is det G = 0.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (2, 2):
        raise ValidationError("seed must be a 2x2 matrix")
    a, b = g[0]
    c, d = g[1]
    det = a * d - b * c
    if abs(det) <= tol:
        raise SingularSeedError(f"seed determinant {det:.3e} is too close to zero")
    return InvolutionMatrix(
        (b * d - a * c) / det,
        (a * a - b * b) / det,
        (d * d - c * c) / det,
        tol,
    )


def seed_from_involution(
    inv: InvolutionMatrix, v: np.ndarray, tol: float = TAU_ALG
) -> np.ndarray:
    """Rebuild a seed with columns (v, A v); fails when v is an eigenvector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValidationError("seed vector must have two components")
    av = inv.matrix @ v
    g = np.column_stack([v, av])
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det) <= tol:
        raise SingularSeedError(
            "vector is zero or an eigenvector; columns (v, Av) are dependent"
        )
    return g


def spectral_projectors(inv: InvolutionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1 and -1 eigenspaces: Z1 = (A+E)/2, Z2 = (E-A)/2."""
    m = inv.matrix
    return (m + np.eye(2)) / 2.0, (np.eye(2) - m) / 2.0


def involution_log(inv: InvolutionMatrix) -> np.ndarray:
    """Principal logarithm data for the involution.

    Returns B = pi * Z2 where Z2 projects onto the -1 eigenspace.  The
    logarithm lives on the imaginary axis: exp(i B) = Z1 - Z2 = A, using
    the principal branch of log(-1).
    """
    _, z2 = spectral_projectors(inv)
    return math.pi * z2
