"""Wildness gadgets and the tame canonical forms they contrast with.

Each gadget embeds an arbitrary matrix X into a structured object (nilpotent
of index 3, a pair of projectors, a square-zero pair, a pair of arrows, a
triple of subspaces) so that two gadgets are isometric exactly when the
embedded matrices are unitarily similar.  The tame problems (nilpotents of
index 2, single projectors, pairs of subspaces) have closed-form canonical
data, cross-checked against the generic block-matrix reduction.
"""

from __future__ import annotations

import numpy as np

from .numcore import Tolerance, _rank, cluster_complex, frobenius, same_form
from .mbm import MarkedBlockMatrix, canonicalize
from .quiverrep import Quiver, Representation, isometric

__all__ = [
    "GADGET_KINDS",
    "ShapeMismatchError",
    "RelationViolatedError",
    "gadget",
    "gadget_faithful",
    "tame_canonical",
]

GADGET_KINDS = (
    "Nilpotent3",
    "ProjectorPair",
    "SquareZeroPair",
    "ArrowPair",
    "SubspaceTriple",
)

_LOOP = Quiver(1, [("a", 1, 1)])
_TWO_LOOPS = Quiver(1, [("a", 1, 1), ("b", 1, 1)])
_TWO_ARROWS_IN = Quiver(3, [("a", 1, 2), ("b", 3, 2)])


class ShapeMismatchError(ValueError):
    pass


class RelationViolatedError(ValueError):
    pass


def _square(X) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got {X.shape}")
    return X


def gadget(kind: str, X, Y=None):
    """Block template embedding X (and Y for SubspaceTriple).

    Nilpotent3, ProjectorPair and SquareZeroPair live on loop quivers;
    ArrowPair on the two-arrows-in quiver; SubspaceTriple is a marked block
    matrix with three column strips (Y defaults to X)."""
    X = _square(X)
    n = X.shape[0]
    I = np.eye(n, dtype=complex)
    Z = np.zeros((n, n), dtype=complex)
    if kind == "Nilpotent3":
        M = np.block([[Z, I, X], [Z, Z, I], [Z, Z, Z]])
        return Representation(_LOOP, (3 * n,), {"a": M})
    if kind == "ProjectorPair":
        A1 = np.block([[I, Z], [Z, Z]])
        A2 = np.block([[X, I - X], [X, I - X]])
        return Representation(_TWO_LOOPS, (2 * n,), {"a": A1, "b": A2})
    if kind == "SquareZeroPair":
        A1 = np.block([[Z, I], [Z, Z]])
        A2 = np.block([[Z, X], [Z, Z]])
        return Representation(_TWO_LOOPS, (2 * n,), {"a": A1, "b": A2})
    if kind == "ArrowPair":
        A_a = np.block([[2 * I, Z, Z], [Z, I, Z], [Z, Z, Z]])
        A_b = np.block([[I, X], [I, I], [I, Z]])
        return Representation(
            _TWO_ARROWS_IN, (3 * n, 3 * n, 2 * n), {"a": A_a, "b": A_b}
        )
    if kind == "SubspaceTriple":
        Y = X if Y is None else _square(Y)
        if Y.shape != X.shape:
            raise ShapeMismatchError("X and Y must have equal sizes")
        E = np.block([[I, Z, X], [Z, I, Y], [Z, Z, I]])
        return MarkedBlockMatrix((3 * n,), (n, n, n), E, frozenset())
    raise ValueError(f"unknown gadget kind {kind!r}")


def gadget_faithful(kind: str, X, Y, tol: Tolerance = Tolerance()) -> bool:
    """Whether gadget(kind, X) and gadget(kind, Y) are isometric.

    By the wildness reductions this holds exactly when X and Y are unitarily
    similar."""
    GX = gadget(kind, X)
    GY = gadget(kind, Y)
    if isinstance(GX, MarkedBlockMatrix):
        CX, _, _ = canonicalize(GX, tol)
        CY, _, _ = canonicalize(GY, tol)
        return same_form(CX.entries, CY.entries, tol)
    return isometric(GX, GY, tol)


def tame_canonical(kind: str, data, tol: Tolerance = Tolerance()):
    """Canonical data of the tame problems.

    * ``Nilpotent2``: A with A^2 = 0 -> the matrix [[0, D], [0, 0]] with D
      the diagonal of singular-value cluster means padded by zero rows.
    * ``Projector``: P with P^2 = P -> [[I_r, D], [0, 0]] with
      d_i = sqrt(sigma_i^2 - 1) over the singular values above 1.
    * ``SubspacePair``: (A1, A2) of full column rank -> multiset of the five
      indecomposable subspace-pair types with the angle parameters
      alpha = cos/sin sorted descending.
    """
    if kind == "Nilpotent2":
        A = _square(data)
        n = A.shape[0]
        B = A / (frobenius(A) or 1.0)  # A^2 = 0 is decided at unit norm, in range
        if frobenius(B @ B) > tol.bound(1.0, n):
            raise RelationViolatedError("A^2 != 0")
        eps = tol.threshold(A)
        s = np.linalg.svd(A, compute_uv=False) if A.size else np.zeros(0)
        sig = [x for x in s if x > eps]
        r = len(sig)
        vals = [rep.real for rep, mem in cluster_complex(sig, Tolerance(eps)) for _ in mem]
        C = np.zeros((n, n), dtype=complex)
        for k, v in enumerate(vals):
            C[k, (n - r) + k] = v
        return C
    if kind == "Projector":
        P = _square(data)
        n = P.shape[0]
        s = frobenius(P)
        B = P / (s or 1.0)  # P^2 - P = s (s B^2 - B), in range where P^2 is not
        if frobenius(s * (B @ B) - B) > tol.bound(s, n):
            raise RelationViolatedError("P^2 != P")
        r = int(round(float(np.trace(P).real)))
        eps = tol.threshold(P)
        s = np.linalg.svd(P, compute_uv=False) if P.size else np.zeros(0)
        d = [np.sqrt(x * x - 1.0) for x in s if x > 1.0 + eps]
        vals = [rep.real for rep, mem in cluster_complex(d, Tolerance(eps)) for _ in mem]
        C = np.zeros((n, n), dtype=complex)
        C[:r, :r] = np.eye(r)
        for k, v in enumerate(vals):
            C[k, r + k] = v
        return C
    if kind == "SubspacePair":
        A1, A2 = data
        A1 = np.asarray(A1, dtype=complex)
        A2 = np.asarray(A2, dtype=complex)
        if A1.shape[0] != A2.shape[0]:
            raise ShapeMismatchError("ambient dimensions differ")
        n = A1.shape[0]
        k1, k2 = A1.shape[1], A2.shape[1]
        if _rank(A1, tol.threshold(A1)) != k1 or _rank(A2, tol.threshold(A2)) != k2:
            raise RelationViolatedError("blocks must have full column rank")
        Q1, _ = np.linalg.qr(A1) if k1 else (np.zeros((n, 0)), None)
        Q2, _ = np.linalg.qr(A2) if k2 else (np.zeros((n, 0)), None)
        c = (
            np.linalg.svd(Q1.conj().T @ Q2, compute_uv=False)
            if k1 and k2
            else np.zeros(0)
        )
        eps = tol.bound(1.0)  # cosines of principal angles are at most 1
        common = int(np.sum(c >= 1.0 - eps))
        mid = [x for x in c if eps < x < 1.0 - eps]
        alphas = sorted(
            (float(x / np.sqrt(1.0 - x * x)) for x in mid), reverse=True
        )
        paired = common + len(mid)
        return {
            "angle": alphas,
            "both": common,
            "first": k1 - paired,
            "second": k2 - paired,
            "neither": n - (k1 + k2 - common),
        }
    raise ValueError(f"unknown tame kind {kind!r}")
