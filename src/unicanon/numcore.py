"""Dense complex-matrix kernels and the one tolerance rule.

Every tolerance decision follows :class:`Tolerance`: a value counts as zero,
and two values as equal, within ``tol.abs * ||X||_F`` of the data X they come
from, and a computed result passes its check within
``10 * n * tol.abs * ||X||_F``.  ``mbm.canonicalize`` reduces its input
divided by its Frobenius norm, so inside the engine the threshold is
``tol.abs`` itself.

The kernels: clustering of complex values (the one clustering rule: chains
with gaps <= ``tol.abs``), the lexicographic order on the complex numbers,
the one form-equality predicate, rank and SVD helpers, Haar-random
unitaries, and the step of the unitary similarity form (:func:`simil_step`):
block upper triangular with scalar diagonal blocks, eigenvalues
lexicographically decreasing, repeats adjacent with the minimal-polynomial
exponents, and superdiagonal blocks between equal eigenvalues of full column
rank, built from an ordered Schur form and a staircase on each cluster
block.  The unitary equivalence form is one step of :func:`mbm.canonicalize`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "frobenius",
    "lex_cmp",
    "cluster_complex",
    "same_form",
    "simil_step",
    "random_unitary",
]


@dataclass(frozen=True)
class Tolerance:
    """The one tolerance rule: ``abs`` is relative to the Frobenius norm of
    the data, through :meth:`threshold` for decisions and :meth:`bound` for
    checks of computed results.  The kernels below take ``abs`` as it is."""

    abs: float = 1e-9

    def __post_init__(self) -> None:
        if self.abs < 0:
            raise ValueError("tolerance must be nonnegative")
        if not np.isfinite(self.abs):
            raise ValueError("tolerance must be finite")

    def threshold(self, X) -> float:
        """The decision threshold ``abs * ||X||_F``."""
        return self.abs * frobenius(X)

    def bound(self, X, n: int | None = None) -> float:
        """The check bound ``10 * n * abs * ||X||_F`` for a result computed
        from X, n its larger side (1 for a scalar) unless given."""
        if n is None:
            n = max((1, *np.shape(X)))
        return 10 * n * self.threshold(X)


def frobenius(X) -> float:
    """``||X||_F``, also where squaring the entries over- or underflows.

    ``np.linalg.norm(X)`` when that lies in [2^-450, inf), where no square
    that matters leaves the normal range; otherwise the norm of X times
    2^-e, e the binary exponent of its largest entry, times 2^e.  Scaling
    by a power of two is exact, so both agree wherever neither loses
    range.  Infinite or NaN entries give ``np.linalg.norm``'s answer."""
    with np.errstate(over="ignore"):
        s = float(np.linalg.norm(X))
    if 2.0**-450 <= s < np.inf:
        return s
    big = float(np.max(np.abs(X), initial=0.0))
    if big == 0.0 or not np.isfinite(big):
        return s
    e = int(np.clip(np.frexp(big)[1], -1020, 1020))
    return float(np.ldexp(np.linalg.norm(np.ldexp(1.0, -e) * np.asarray(X)), e))


def lex_cmp(a: complex, b: complex, tol: Tolerance = Tolerance()) -> int:
    """Compare complex numbers in the order: real part first, then imaginary.

    Returns -1, 0 or 1.  Real (then imaginary) parts closer than ``tol.abs``
    count as equal.
    """
    a, b = complex(a), complex(b)
    if a.real < b.real - tol.abs:
        return -1
    if a.real > b.real + tol.abs:
        return 1
    if a.imag < b.imag - tol.abs:
        return -1
    if a.imag > b.imag + tol.abs:
        return 1
    return 0


def cluster_complex(vals, tol: Tolerance = Tolerance()):
    """Cluster complex values: chains of real parts with gaps <= tol.abs
    first, then chains of imaginary parts within each real-part group.

    Returns ``(representative, members)`` pairs sorted lexicographically
    decreasing; ``members`` lists the indices into ``vals`` and the
    representative has the mean real part of its real-part group and the
    mean imaginary part of its members."""
    v = np.asarray(vals, dtype=complex).ravel()
    if v.size == 0:
        return []
    if v.size == 1:  # the general path's bits: its sum gives -0.0 + 0.0 = +0.0
        z = complex(v[0])
        return [(complex(z.real + 0.0, z.imag), [0])]
    o = np.argsort(-v.real, kind="stable")
    x = v.real[o]
    g = np.zeros(v.size, dtype=np.intp)
    np.cumsum(x[:-1] - x[1:] > tol.abs, out=g[1:])
    re = np.bincount(g, weights=x) / np.bincount(g)
    o = o[np.lexsort((-v.imag[o], g))]  # g is ascending, and stays so
    y = v.imag[o]
    new = np.ones(v.size, dtype=bool)
    new[1:] = (g[1:] != g[:-1]) | (y[:-1] - y[1:] > tol.abs)
    starts = np.flatnonzero(new)
    bounds = starts.tolist() + [v.size]
    im = np.add.reduceat(y, starts).tolist()
    o = o.tolist()
    return [
        (complex(r, i / (b - a)), o[a:b])
        for r, i, a, b in zip(re[g[starts]].tolist(), im, bounds, bounds[1:])
    ]


def same_form(X, Y, tol: Tolerance = Tolerance()) -> bool:
    """Whether two canonical forms are the same.

    The one equality rule for canonical forms: equal shapes, and
    ``||X - Y||_F`` within the decision threshold of the larger of the two."""
    X, Y = np.asarray(X), np.asarray(Y)
    return X.shape == Y.shape and bool(
        frobenius(X - Y) <= max(tol.threshold(X), tol.threshold(Y))
    )


def _rank(M: np.ndarray, thresh: float) -> int:
    """Number of singular values of M above ``thresh``."""
    if M.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(M, compute_uv=False) > thresh))


def _svd(B: np.ndarray):
    """``np.linalg.svd(B)``; when LAPACK does not converge on B, the factors
    of the SVD of B^H, swapped (it converges on some blocks where B fails)."""
    try:
        return np.linalg.svd(B)
    except np.linalg.LinAlgError:
        U, s, Vh = np.linalg.svd(B.conj().T)
        return Vh.conj().T, s, U.conj().T


def _below_blocks(T: np.ndarray, sizes) -> float:
    """Frobenius norm of the part of T strictly below its diagonal blocks."""
    blk = np.repeat(np.arange(len(sizes)), sizes)
    return float(np.linalg.norm(T[blk[:, None] > blk]))


def _deflate(A: np.ndarray, shifts):
    """Unitary Z with Z^H A Z upper triangular up to the residuals
    sigma_min(B - shift I) of the successive trailing blocks B, whose
    diagonal follows ``shifts``."""
    n = A.shape[0]
    T = A.astype(complex)
    Z = np.eye(n, dtype=complex)
    for k, lam in enumerate(shifts[:-1]):
        v = _svd(T[k:, k:] - lam * np.eye(n - k))[2][-1].conj()
        # Householder reflector with first column a multiple of v; adding the
        # phase of v[0] (not subtracting it) cannot cancel when v is close to e1
        w = v.copy()
        w[0] += v[0] / abs(v[0]) if v[0] != 0 else 1.0
        w /= np.linalg.norm(w)
        T[k:] -= 2.0 * np.outer(w, w.conj() @ T[k:])
        T[:, k:] -= 2.0 * np.outer(T[:, k:] @ w, w.conj())
        Z[:, k:] -= 2.0 * np.outer(Z[:, k:] @ w, w.conj())
    return Z, T


def _staircase(N: np.ndarray, thresh: float):
    """Staircase reduction of a nilpotent N (Kublanovskaya; Kagstrom & Ruhe).

    Returns ``(U, levels, ok)``: U^H N U is strictly block upper triangular
    with diagonal blocks of the sizes ``levels``, each level the kernel, at
    the fixed threshold, of what N leaves after the levels before it.  ``ok``
    is False when some remainder has no such kernel, i.e. N is not nilpotent;
    that remainder is then returned as the last level."""
    m = N.shape[0]
    U = np.eye(m, dtype=complex)
    levels: list[int] = []
    p, B = 0, N
    while p < m:
        if np.linalg.norm(B) <= thresh:  # every singular value is below it
            levels.append(m - p)
            break
        _, s, Vh = _svd(B)
        r = int(np.sum(s > thresh))
        if r == m - p:
            levels.append(m - p)
            return U, levels, False
        # kernel first, then its complement, on which the next level is taken
        U[:, p:] = U[:, p:] @ np.concatenate([Vh[r:], Vh[:r]]).conj().T
        B = Vh[:r] @ B @ Vh[:r].conj().T
        levels.append(m - p - r)
        p = m - r
    return U, levels, True


def simil_step(A: np.ndarray, tol: Tolerance):
    """One pass of the similarity reduction.

    Returns ``(lams, sizes, S)``: eigenvalue of each diagonal block, block
    sizes, and a unitary S such that S^-1 A S is block upper triangular with
    diagonal blocks lams[i] * I of the given sizes.  The sequence of
    eigenvalues lists each distinct value with its minimal-polynomial
    multiplicity, adjacent repeats, lexicographically decreasing.

    S is an ordered Schur basis, one cluster of eigenvalues after the other,
    refined on each cluster block by the staircase.  Every rank decision and
    every residual dropped is judged against one fixed threshold
    ``tol.abs``, the decision threshold of the unit-norm matrix that
    ``mbm.canonicalize`` reduces; eigenvalues are clustered at that
    threshold times 10^k, coarsest clustering first, because an eigenvalue of
    a Jordan block of size e is computed only to about threshold^(1/e).  A
    clustering is taken when its Schur basis leaves at most the threshold
    below the cluster blocks and every cluster block minus its mean
    eigenvalue is nilpotent by the staircase.  The finest clustering is the
    last resort and is taken even when it fails a check; the certificate of
    ``mbm.canonicalize`` then rejects the result if it is wrong.
    """
    n = A.shape[0]
    if n == 0:
        return [], [], np.eye(0, dtype=complex)
    thresh = tol.abs
    w, V = np.linalg.eig(A)
    candidates = [cluster_complex(w, tol)]
    t = 10.0 * thresh
    while t > 0 and len(candidates[-1]) > 1:  # tol.abs = 0 clusters equal values only
        clusters = cluster_complex(w, Tolerance(abs=t))
        if len(clusters) < len(candidates[-1]):
            candidates.append(clusters)
        t *= 10.0
    for clusters in reversed(candidates[1:]):
        out = _schur_staircase(A, V, clusters, thresh)
        if out is not None:
            return out
    return _schur_staircase(A, V, candidates[0], thresh, force=True)


def _schur_staircase(A, V, clusters, thresh: float, force: bool = False):
    """``(lams, sizes, S)`` of :func:`simil_step` for one clustering of the
    eigenvalues, with V the eigenvectors; None if the clustering fails the
    Schur or the staircase check, unless ``force``."""
    members = [m for _, m in clusters]
    counts = [len(m) for m in members]
    # QR of the eigenvectors in cluster order spans the nested invariant
    # subspaces of an ordered Schur form unless they are too ill-conditioned
    # (Jordan blocks); deflation leaves only the smallest singular values of
    # the shifted trailing blocks below the diagonal
    Z = np.linalg.qr(V[:, [i for m in members for i in m]])[0]
    T = Z.conj().T @ A @ Z
    if _below_blocks(T, counts) > thresh:
        Z, T = _deflate(A, [lam for lam, m in clusters for _ in m])
        if _below_blocks(T, counts) > thresh and not force:
            return None
    lams: list[complex] = []
    sizes: list[int] = []
    S = Z.copy()
    o = 0
    for c in counts:
        if c == 1:  # a 1 x 1 block is its own eigenvalue
            lams.append(complex(T[o, o]))
            sizes.append(1)
            o += 1
            continue
        Tc = T[o : o + c, o : o + c]
        lam = complex(np.trace(Tc)) / c
        U, levels, ok = _staircase(Tc - lam * np.eye(c), thresh)
        if not (ok or force):
            return None
        S[:, o : o + c] = Z[:, o : o + c] @ U
        lams += [lam] * len(levels)
        sizes += levels
        o += c
    return lams, sizes, S


def random_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian sample
    with the phases of the triangular factor fixed."""
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
