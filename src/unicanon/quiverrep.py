"""Quivers and their unitary representations.

A representation assigns a matrix of shape d_dst x d_src to every arrow.
Representations are classified up to isometry (vertex-wise unitary basis
changes); the classification reduces to marked block matrices by packing all
arrow matrices into one grid whose admissible transformations are exactly the
vertex-wise unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numcore import Tolerance, frobenius
from . import mbm
from .mbm import MarkedBlockMatrix
from .scheme import _scheme, count_params

__all__ = [
    "Quiver",
    "Representation",
    "Isometry",
    "QuiverMismatchError",
    "DimMismatchError",
    "UnknownArrowError",
    "ZeroDimError",
    "pack",
    "unpack",
    "rep_canonical",
    "rep_params",
    "isometric",
    "apply_isometry",
    "direct_sum",
    "decompose_rep",
    "is_indecomposable_rep",
    "reverse_arrow",
    "random_rep",
]


class QuiverMismatchError(ValueError):
    pass


class DimMismatchError(ValueError):
    pass


class UnknownArrowError(KeyError):
    pass


class ZeroDimError(ValueError):
    pass


@dataclass(frozen=True)
class Quiver:
    """Directed graph with 1-based vertices; loops and parallel arrows are
    allowed.  Arrows are (id, src, dst)."""

    p: int
    arrows: tuple

    def __post_init__(self):
        (p,) = mbm._integers((self.p,), ValueError, "vertices")
        if p < 0:
            raise ValueError(f"vertices {p}: the count is negative")
        arrows = tuple((str(a), *mbm._integers((s, d), ValueError, f"arrow {a}: endpoints"))
                       for a, s, d in self.arrows)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "arrows", arrows)
        ids = [a for a, _, _ in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("arrow ids must be unique")
        for a, s, d in self.arrows:
            if not (1 <= s <= self.p and 1 <= d <= self.p):
                raise ValueError(f"arrow {a}: endpoints out of range")

    @cached_property
    def _m_matrix(self) -> np.ndarray:
        """``dims.m_matrix``, built once per quiver and read-only."""
        M = np.zeros((self.p, self.p), dtype=int)
        for _, s, d in self.arrows:
            M[s - 1, d - 1] += 1
            if s != d:
                M[d - 1, s - 1] += 1
        M.flags.writeable = False
        return M

    def arrow(self, arrow_id):
        for a in self.arrows:
            if a[0] == str(arrow_id):
                return a
        raise UnknownArrowError(arrow_id)

    def to_json(self) -> dict:
        return {
            "vertices": self.p,
            "arrows": [{"id": a, "src": s, "dst": d} for a, s, d in self.arrows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Quiver":
        return cls(
            p=data["vertices"],
            arrows=tuple((a["id"], a["src"], a["dst"]) for a in data["arrows"]),
        )


def _vector(Q: Quiver, d, what: str) -> tuple:
    """d as Q.p integers by ``mbm._integers``' rule, whose message names d
    ``what``, else DimMismatchError: the one length rule of dimension vectors."""
    d = mbm._integers(d, DimMismatchError, what)
    if len(d) != Q.p:
        raise DimMismatchError(f"dims length != number of vertices: expected length {Q.p}, got {len(d)}")
    return d


def _dims(Q: Quiver, d) -> tuple:
    """d as a dimension vector of Q: :func:`_vector`, non-negative."""
    d = _vector(Q, d, "dims")
    if any(x < 0 for x in d):
        raise DimMismatchError(f"dims {d}: a dimension is negative")
    return d


@dataclass(frozen=True)
class Representation:
    """A matrix of shape d_dst x d_src per arrow; construction checks the
    dimension vector, each arrow's shape and that its entries are finite."""

    quiver: Quiver
    dims: tuple
    matrices: dict = field(default_factory=dict)  # arrow id -> ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims(self.quiver, self.dims))
        mats = {}
        for a, s, d in self.quiver.arrows:
            mats[a] = mbm._shaped(self.matrices[a], (self.dims[d - 1], self.dims[s - 1]),
                                  DimMismatchError, f"arrow {a}")
            mbm._check_finite(mats[a], f"arrow {a}: entry")
        object.__setattr__(self, "matrices", mats)

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_json(),
            "dims": list(self.dims),
            "matrices": {a: mbm.matrix_to_json(M) for a, M in self.matrices.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Representation":
        Q = Quiver.from_json(data["quiver"])
        mats = {a: mbm.matrix_from_json(data["matrices"][a]) for a, _, _ in Q.arrows}
        return cls(Q, tuple(data["dims"]), mats)


@dataclass(frozen=True)
class Isometry:
    """Per-vertex unitaries T with T_dst A_arrow = B_arrow T_src."""

    S: tuple


def apply_isometry(A: Representation, T: Isometry) -> Representation:
    mats = {}
    for a, s, d in A.quiver.arrows:
        mats[a] = T.S[d - 1] @ A.matrices[a] @ T.S[s - 1].conj().T
    return Representation(A.quiver, A.dims, mats)


# ---------------------------------------------------------------------------
# packing


def pack(A: Representation):
    """Pack a representation into a marked block matrix.

    Column strips are the vertices in order.  Row strips are one per arrow,
    stacked in reversed arrow order (so the first arrow forms the bottom
    strip and is reduced first).  The matrix of an arrow i -> j sits where
    its row strip meets the column strip of i; a mark at the column strip of
    j forces the row transformation to equal S_j, so the admissible
    transformations of the packed matrix are exactly the vertex-wise
    unitaries.  Returns M; :func:`unpack` reads it with the quiver."""
    Q = A.quiver
    arrows = Q.arrows[::-1]
    row_strips = tuple(A.dims[d - 1] for _, _, d in arrows)
    ro, co = mbm._offsets(row_strips), mbm._offsets(A.dims)
    entries = np.zeros((int(ro[-1]), int(co[-1])), dtype=complex)
    marked = set()
    for k, (aid, s, d) in enumerate(arrows):
        entries[ro[k] : ro[k + 1], co[s - 1] : co[s]] += A.matrices[aid]
        marked.add((k, d - 1))
    return MarkedBlockMatrix(row_strips, A.dims, entries, frozenset(marked))


def unpack(M: MarkedBlockMatrix, Q: Quiver) -> Representation:
    """Inverse of :func:`pack` for representations of Q (grids may have
    different strip sizes, e.g. for summands)."""
    ro, co = mbm._offsets(M.row_strips), mbm._offsets(M.col_strips)
    mats = {}
    for k, (aid, s, _) in enumerate(Q.arrows[::-1]):
        mats[aid] = M.entries[ro[k] : ro[k + 1], co[s - 1] : co[s]].copy()
    return Representation(Q, M.col_strips, mats)


# ---------------------------------------------------------------------------
# canonical representations


def _canonical(A: Representation, tol: Tolerance):
    """The canonical representation of A, the isometry onto it, and the
    packed canonical form and trace they come from."""
    canonical, T, trace = mbm.canonicalize(pack(A), tol)
    iso = Isometry(tuple(T.S[v].conj().T for v in range(A.quiver.p)))
    return unpack(canonical, A.quiver), iso, canonical, trace


def rep_canonical(A: Representation, tol: Tolerance = Tolerance()):
    """Canonical representation, the isometry onto it, and per-arrow schemes.

    ``isometric(A, B)`` holds exactly when the canonical representations
    agree entrywise."""
    Ainf, iso, C, trace = _canonical(A, tol)
    eps = tol.threshold(C.entries)  # every arrow's symbols at the packed matrix's threshold
    ro, co = mbm._offsets(C.row_strips).tolist(), mbm._offsets(C.col_strips).tolist()
    schemes = {}
    for k, (aid, s, d) in enumerate(A.quiver.arrows[::-1]):  # the arrow of every row strip
        rows, cols = slice(ro[k], ro[k + 1]), slice(co[s - 1], co[s])
        schemes[aid] = _scheme(C.entries[rows, cols], trace.zones_in(rows, cols), eps,
                               (ro[k + 1] - ro[k],), (co[s] - co[s - 1],), {(0, 0)} if s == d else ())
    return Ainf, iso, schemes


def rep_params(A: Representation, tol: Tolerance = Tolerance()):
    """Real and complex parameter counts of the canonical form of A.

    Sums circles and stars over the per-arrow schemes; the coupling cells of
    the packed block matrix carry no parameters and are excluded."""
    _, _, schemes = rep_canonical(A, tol)
    counts = [count_params(S) for S in schemes.values()]
    return sum(nr for nr, _ in counts), sum(nc for _, nc in counts)


def _isometry(A: Representation, B: Representation, tol: Tolerance = Tolerance()):
    """``(T, reduced_B)``: an isometry T from A onto B (``apply_isometry(A,
    T)`` is B) composed from the two reduction transcripts, or None when the
    packed canonical forms differ (their coupling blocks are exact zeros, so
    each is its representation's packing); and ``mbm.canonicalize`` of B's
    packing.  The two packings are reduced as one batch
    (:func:`mbm._canonicalize_batch`), and T is checked against the limit of
    :func:`_residual`: a T that fails it raises
    :class:`mbm.CertificationError`.  When the invariants of the packings
    already differ (:func:`mbm._invariants_differ`), neither is reduced:
    ``(None, None)``."""
    if A.quiver != B.quiver:
        raise QuiverMismatchError("different quivers")
    if A.dims != B.dims:
        raise DimMismatchError(f"dims {A.dims} vs {B.dims}")
    MA, MB = pack(A), pack(B)
    if mbm._invariants_differ(MA, MB, tol):
        return None, None
    (CA, TA, _), reduced_B = mbm._canonicalize_batch((MA, MB), tol)
    if not mbm.same_canonical(CA, reduced_B[0], tol):
        return None, reduced_B
    T = Isometry(tuple(SB @ SA.conj().T for SA, SB in zip(TA.S, reduced_B[1].S)))
    resid, limit = _residual(A, B, T, MA, tol)
    if not resid <= limit:
        raise mbm.CertificationError(
            f"isometry does not map A onto B: ||T_d A_a - B_a T_s||_F = {resid:.2e} > {limit:.2e}")
    return T, reduced_B


def isometric(A: Representation, B: Representation, tol: Tolerance = Tolerance()) -> bool:
    """Whether some vertex-wise unitaries map A onto B: the packed canonical
    forms are the same (:func:`mbm.same_canonical`).  Representations of
    different quivers or dimension vectors raise.  When the invariants of
    the two packings differ (:func:`mbm._invariants_differ`: Gram matrices
    of the blocks per pair of vertices, traces of loops), the answer is
    False without a reduction; otherwise both are reduced once, as one
    batch, and a True answer's isometry is checked (:func:`_isometry`)."""
    return _isometry(A, B, tol)[0] is not None


def _residual(A: Representation, B: Representation, T: Isometry, M: MarkedBlockMatrix,
              tol: Tolerance) -> tuple:
    """``‖T_d A_a - B_a T_s‖_F`` over all arrows a: s -> d, and the limit an
    isometry's residual is checked against: ``tol.bound`` of M, A's packing."""
    return frobenius([frobenius(T.S[d - 1] @ A.matrices[a] - B.matrices[a] @ T.S[s - 1])
                      for a, s, d in A.quiver.arrows]), tol.bound(M.entries)


def direct_sum(A: Representation, B: Representation) -> Representation:
    if A.quiver != B.quiver:
        raise QuiverMismatchError("different quivers")
    return unpack(mbm.block_direct_sum(pack(A), pack(B)), A.quiver)


def decompose_rep(A: Representation, tol: Tolerance = Tolerance()):
    """Krull-Schmidt decomposition into pairwise non-isometric canonical
    indecomposable representations with multiplicities."""
    return [(unpack(P, A.quiver), mult) for P, mult in mbm.decompose(pack(A), tol)]


def is_indecomposable_rep(A: Representation, tol: Tolerance = Tolerance()) -> bool:
    if all(d == 0 for d in A.dims):
        raise ZeroDimError("the zero dimension vector is not indecomposable")
    return mbm.is_indecomposable(pack(A), tol)


def reverse_arrow(A: Representation, arrow_id) -> Representation:
    """Flip one arrow and replace its matrix by the conjugate transpose;
    isometry classes correspond one-to-one."""
    aid, s, d = A.quiver.arrow(arrow_id)
    arrows = tuple(
        (a, dd, ss) if a == aid else (a, ss, dd) for a, ss, dd in A.quiver.arrows
    )
    Q2 = Quiver(A.quiver.p, arrows)
    mats = dict(A.matrices)
    mats[aid] = A.matrices[aid].conj().T
    return Representation(Q2, A.dims, mats)


def random_rep(Q: Quiver, d, seed=None) -> Representation:
    """Representation with complex standard-Gaussian entries."""
    rng = np.random.default_rng(seed)
    d = _dims(Q, d)  # before the arrows index it
    mats = {}
    for a, s, dst in Q.arrows:
        shape = (d[dst - 1], d[s - 1])
        mats[a] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Representation(Q, d, mats)
