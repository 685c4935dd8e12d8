"""Dense complex-matrix kernels.

Tolerance-aware value clustering, the lexicographic order on the complex
numbers, Haar-random unitaries, and the two base canonical forms:

* unitary equivalence  (R^-1 A S = a_1 I + ... + a_{k-1} I + 0, values
  strictly decreasing),
* unitary similarity   (block upper triangular with scalar diagonal blocks,
  eigenvalues in lexicographically decreasing order, repeats adjacent with
  the minimal-polynomial exponents; superdiagonal blocks between equal
  eigenvalues have full column rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tolerance",
    "EquivCanonical",
    "SimilCanonical",
    "NonSquareError",
    "lex_cmp",
    "lex_sort_key",
    "cluster_values",
    "cluster_complex",
    "same_form",
    "equiv_canonical",
    "simil_canonical",
    "random_unitary",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute threshold for rank and clustering decisions; form equality
    also carries a relative term (see :func:`same_form`)."""

    abs: float = 1e-9

    def __post_init__(self) -> None:
        if self.abs < 0:
            raise ValueError("tolerance must be nonnegative")


class NonSquareError(ValueError):
    pass


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


def lex_sort_key(z: complex) -> tuple[float, float]:
    """Sort key realizing the same order as :func:`lex_cmp` (exact version)."""
    z = complex(z)
    return (z.real, z.imag)


def cluster_values(vals, tol: Tolerance = Tolerance()):
    """Group real values that form chains with gaps <= tol.abs.

    Returns a list of ``(representative, members)`` with the representatives
    strictly decreasing; ``members`` are the values, sorted descending.  The
    representative is the arithmetic mean of the group.
    """
    vals = sorted(float(v) for v in vals)
    groups: list[list[float]] = []
    for v in vals:
        if groups and v - groups[-1][-1] <= tol.abs:
            groups[-1].append(v)
        else:
            groups.append([v])
    out = []
    for g in reversed(groups):
        out.append((float(np.mean(g)), sorted(g, reverse=True)))
    return out


def cluster_complex(vals, tol: Tolerance = Tolerance()):
    """Cluster complex values: real parts first, then imaginary parts within
    each real-part group.  Returns ``(representative, count)`` pairs sorted
    lexicographically decreasing."""
    vals = [complex(v) for v in vals]
    out: list[tuple[complex, int]] = []
    for re_rep, re_members in cluster_values([v.real for v in vals], tol):
        lo, hi = min(re_members) - 0.5 * tol.abs, max(re_members) + 0.5 * tol.abs
        group = [v for v in vals if lo <= v.real <= hi]
        for im_rep, im_members in cluster_values([v.imag for v in group], tol):
            out.append((complex(re_rep, im_rep), len(im_members)))
    return out


def same_form(X, Y, tol: Tolerance = Tolerance()) -> bool:
    """Whether two canonical forms are the same.

    The one equality rule for canonical forms: equal shapes, and entries that
    agree by ``np.allclose(X, Y, atol=10 * tol.abs)`` with numpy's default
    ``rtol=1e-5``, i.e. ``|x - y| <= 10 * tol.abs + 1e-5 * |y|`` entrywise."""
    X, Y = np.asarray(X), np.asarray(Y)
    return X.shape == Y.shape and bool(np.allclose(X, Y, atol=10 * tol.abs))


@dataclass(frozen=True)
class EquivCanonical:
    """Canonical form under unitary equivalence.

    ``clusters`` is a sequence of (value, multiplicity) with strictly
    decreasing positive values; the canonical matrix is
    a_1 I + ... + a_{k-1} I plus a zero block of shape
    (zero_rows, zero_cols)."""

    clusters: tuple[tuple[float, int], ...]
    zero_rows: int
    zero_cols: int

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.clusters)

    def matrix(self) -> np.ndarray:
        r = self.rank
        D = np.zeros((r + self.zero_rows, r + self.zero_cols), dtype=complex)
        i = 0
        for a, m in self.clusters:
            for _ in range(m):
                D[i, i] = a
                i += 1
        return D


def equiv_canonical(A, tol: Tolerance = Tolerance()):
    """Reduce A by unitary equivalence: returns (EquivCanonical, R, S) with
    R^-1 A S equal to the reassembled canonical matrix within tolerance."""
    A = np.asarray(A, dtype=complex)
    m, n = A.shape
    if m == 0 or n == 0:
        return (
            EquivCanonical(clusters=(), zero_rows=m, zero_cols=n),
            np.eye(m, dtype=complex),
            np.eye(n, dtype=complex),
        )
    U, s, Vh = np.linalg.svd(A)
    nonzero = s[s > tol.abs]
    clusters = tuple(
        (rep, len(members)) for rep, members in cluster_values(nonzero, tol)
    )
    r = len(nonzero)
    can = EquivCanonical(clusters=clusters, zero_rows=m - r, zero_cols=n - r)
    return can, U, Vh.conj().T


@dataclass(frozen=True)
class SimilCanonical:
    """Single-pass canonical form under unitary similarity (block upper
    triangular; diagonal blocks are eigenvalue * identity)."""

    diag: tuple[tuple[complex, int], ...]
    upper: dict = field(default_factory=dict)  # (i, j) 1-based -> ndarray

    def matrix(self) -> np.ndarray:
        sizes = [t for _, t in self.diag]
        n = sum(sizes)
        offs = np.concatenate(([0], np.cumsum(sizes))).astype(int)
        F = np.zeros((n, n), dtype=complex)
        for i, (lam, t) in enumerate(self.diag):
            F[offs[i] : offs[i] + t, offs[i] : offs[i] + t] = lam * np.eye(t)
        for (i, j), blk in self.upper.items():
            F[offs[i - 1] : offs[i], offs[j - 1] : offs[j]] = blk
        return F


def _rank(M: np.ndarray, tol: Tolerance) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > tol.abs * max(1.0, s[0])))


def _rank_abs(M: np.ndarray, thresh: float) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > thresh))


def _nullspace_abs(M: np.ndarray, thresh: float) -> np.ndarray:
    """Orthonormal kernel basis with an absolute singular-value threshold."""
    n = M.shape[1]
    if M.shape[0] == 0 or n == 0:
        return np.eye(n, dtype=complex)
    _, s, Vh = np.linalg.svd(M)
    r = int(np.sum(s > thresh))
    return Vh[r:].conj().T


def _exponent_and_multiplicity(A, lam, tol: Tolerance):
    """Minimal-polynomial exponent of lam and its algebraic multiplicity,
    read off the rank-stabilization chain of (A - lam I)^k."""
    n = A.shape[0]
    B = A - lam * np.eye(n)
    scale = max(1.0, float(np.linalg.norm(B)))
    P = np.eye(n, dtype=complex)
    prev = n
    e = 0
    cum = 1.0
    while True:
        P = P @ B
        cum *= scale
        r = _rank_abs(P, tol.abs * cum)
        e += 1
        if r == prev:
            e -= 1
            break
        prev = r
        if r == 0:
            break
    return max(e, 1), n - prev


def min_poly_spectrum(A: np.ndarray, tol: Tolerance):
    """Distinct eigenvalues (cluster representatives) with their
    minimal-polynomial exponents, sorted lexicographically decreasing.

    An eigenvalue with a nontrivial Jordan structure is computed only to
    about noise^(1/exponent), which can exceed the base tolerance by orders
    of magnitude.  The clustering threshold is therefore escalated until the
    rank-chain multiplicities agree with the cluster sizes.
    """
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    # candidate clusterings, finest to coarsest; an eigenvalue of exponent e
    # scatters by at most about (tol * norm)^(1/e), so no clustering coarser
    # than the n-th root can be genuine
    scale = max(1.0, float(np.linalg.norm(A)))
    t_cap = (tol.abs * scale) ** (1.0 / n) if n > 1 else tol.abs
    candidates = []
    t = tol.abs
    while True:
        reps = cluster_complex(eigs, Tolerance(abs=t))
        if not candidates or len(reps) < len(candidates[-1]):
            candidates.append(reps)
        if len(reps) <= 1 or t > t_cap:
            break
        t *= 10.0
    # prefer the coarsest clustering whose rank-chain multiplicities match
    # the cluster sizes; finer clusterings can pass the same check on noise
    # (an eigenvalue with a nontrivial Jordan structure is computed only to
    # about noise^(1/exponent))
    fallback = None
    for reps in reversed(candidates):
        out = []
        consistent = True
        total = 0
        for lam, cnt in reps:
            e, mult = _exponent_and_multiplicity(A, lam, tol)
            out.append((lam, e))
            total += mult
            if mult != cnt:
                consistent = False
        if consistent and total == n:
            out.sort(key=lambda p: lex_sort_key(p[0]), reverse=True)
            return out
        if fallback is None:
            fallback = out
    fallback.sort(key=lambda p: lex_sort_key(p[0]), reverse=True)
    return fallback


def simil_step(A: np.ndarray, tol: Tolerance):
    """One pass of the similarity reduction.

    Returns ``(lams, sizes, S)``: eigenvalue of each diagonal block, block
    sizes, and a unitary S such that S^-1 A S is block upper triangular with
    diagonal blocks lams[i] * I of the given sizes.  The sequence of
    eigenvalues lists each distinct value with its minimal-polynomial
    multiplicity, adjacent repeats, lexicographically decreasing.
    """
    n = A.shape[0]
    if n == 0:
        return [], [], np.eye(0, dtype=complex)
    spec = min_poly_spectrum(A, tol)
    seq: list[complex] = []
    for lam, e in spec:
        seq.extend([lam] * e)
    cols: list[np.ndarray] = []
    sizes: list[int] = []
    lams: list[complex] = []
    P = np.eye(n, dtype=complex)
    basis = np.zeros((n, 0), dtype=complex)
    cum = 1.0
    for lam in seq:
        B = A - lam * np.eye(n)
        P = P @ B
        cum *= max(1.0, float(np.linalg.norm(B)))
        K = _nullspace_abs(P, tol.abs * cum)
        # component of the new kernel orthogonal to what we already have
        W = K - basis @ (basis.conj().T @ K)
        if W.size:
            Q, s, Vh = np.linalg.svd(W, full_matrices=False)
            t = int(np.sum(s > 0.5))
            Q = Q[:, :t]
        else:
            Q = np.zeros((n, 0), dtype=complex)
            t = 0
        if t == 0:
            continue
        basis = np.concatenate([basis, Q], axis=1)
        cols.append(Q)
        sizes.append(t)
        lams.append(lam)
    if basis.shape[1] != n:  # numerical safety: complete the basis
        K = _nullspace_abs(basis.conj().T, tol.abs)
        extra = K.shape[1]
        if extra:
            basis = np.concatenate([basis, K], axis=1)
            sizes.append(extra)
            lams.append(lams[-1] if lams else 0.0 + 0.0j)
    S = basis
    return lams, sizes, S


def simil_canonical(A, tol: Tolerance = Tolerance()):
    """Reduce a square A by unitary similarity to the block-triangular form
    with scalar diagonal blocks.  Returns (SimilCanonical, S)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected square matrix, got shape {A.shape}")
    n = A.shape[0]
    lams, sizes, S = simil_step(A, tol)
    F = S.conj().T @ A @ S
    offs = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    k = len(sizes)
    # snap the canonical parts exactly
    for i in range(k):
        F[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = lams[i] * np.eye(sizes[i])
        F[offs[i + 1] :, offs[i] : offs[i + 1]] = 0.0
    # deterministic phase normalization: make the first entry above the
    # diagonal blocks in each column positive real (an admissible diagonal
    # phase change; it preserves the scalar diagonal blocks)
    phases = np.ones(n, dtype=complex)
    for j in range(offs[1] if k else 0, n):
        jb = int(np.searchsorted(offs, j, side="right") - 1)
        col = F[: offs[jb], j]
        nz = np.nonzero(np.abs(col) > tol.abs)[0]
        if nz.size:
            v = phases[nz[0]].conjugate() * col[nz[0]]
            phases[j] = v.conjugate() / abs(v)
    D = np.diag(phases)
    S = S @ D
    F = D.conj().T @ F @ D
    upper = {}
    for i in range(k):
        for j in range(i + 1, k):
            upper[(i + 1, j + 1)] = F[offs[i] : offs[i + 1], offs[j] : offs[j + 1]].copy()
    can = SimilCanonical(
        diag=tuple((lams[i], sizes[i]) for i in range(k)), upper=upper
    )
    return can, S


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
