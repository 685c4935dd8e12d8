"""Quivers and their unitary representations.

A representation assigns a matrix of shape d_dst x d_src to every arrow.
Representations are classified up to isometry (vertex-wise unitary basis
changes); the classification reduces to marked block matrices by packing all
arrow matrices into one grid whose admissible transformations are exactly the
vertex-wise unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numcore import Tolerance, same_form
from . import mbm
from .mbm import MarkedBlockMatrix
from .scheme import Scheme, count_params, scheme_of

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
        object.__setattr__(
            self,
            "arrows",
            tuple((str(a), int(s), int(d)) for a, s, d in self.arrows),
        )
        ids = [a for a, _, _ in self.arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("arrow ids must be unique")
        for a, s, d in self.arrows:
            if not (1 <= s <= self.p and 1 <= d <= self.p):
                raise ValueError(f"arrow {a}: endpoints out of range")

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
            p=int(data["vertices"]),
            arrows=tuple((a["id"], a["src"], a["dst"]) for a in data["arrows"]),
        )


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    dims: tuple
    matrices: dict = field(default_factory=dict)  # arrow id -> ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) != self.quiver.p:
            raise DimMismatchError("dims length != number of vertices")
        mats = {
            a: mbm._shaped(self.matrices[a], (self.dims[d - 1], self.dims[s - 1]),
                           DimMismatchError, f"arrow {a}")
            for a, s, d in self.quiver.arrows
        }
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
    unitaries.  Returns ``(M, layout)``; a NaN or infinite entry raises
    ValueError naming the arrow and the entry's cell in the arrow's matrix."""
    Q = A.quiver
    col_strips = tuple(A.dims)
    row_order = [a for a, _, _ in reversed(Q.arrows)]
    row_strips = tuple(A.dims[Q.arrow(a)[2] - 1] for a in row_order)
    ro, co = mbm._offsets(row_strips), mbm._offsets(col_strips)
    entries = np.zeros((int(ro[-1]), int(co[-1])), dtype=complex)
    marked = set()
    for k, aid in enumerate(row_order):
        _, s, d = Q.arrow(aid)
        mbm._check_finite(A.matrices[aid], f"arrow {aid}: entry")
        entries[ro[k] : ro[k + 1], co[s - 1] : co[s]] += A.matrices[aid]
        marked.add((k, d - 1))
    M = MarkedBlockMatrix(row_strips, col_strips, entries, frozenset(marked))
    layout = {"row_order": row_order, "quiver": Q}
    return M, layout


def unpack(M: MarkedBlockMatrix, layout) -> Representation:
    """Inverse of :func:`pack` on the same layout (grids may have different
    strip sizes, e.g. for summands)."""
    Q = layout["quiver"]
    dims = tuple(M.col_strips)
    ro, co = mbm._offsets(M.row_strips), mbm._offsets(M.col_strips)
    mats = {}
    for k, aid in enumerate(layout["row_order"]):
        _, s, _ = Q.arrow(aid)
        mats[aid] = M.entries[ro[k] : ro[k + 1], co[s - 1] : co[s]].copy()
    return Representation(Q, dims, mats)


# ---------------------------------------------------------------------------
# canonical representations


def _canonical(A: Representation, tol: Tolerance):
    """The canonical representation of A, the isometry onto it, and the
    packed canonical form, trace and layout they come from."""
    M, layout = pack(A)
    canonical, T, trace = mbm.canonicalize(M, tol)
    iso = Isometry(tuple(T.S[v].conj().T for v in range(A.quiver.p)))
    return unpack(canonical, layout), iso, canonical, trace, layout


def rep_canonical(A: Representation, tol: Tolerance = Tolerance()):
    """Canonical representation, the isometry onto it, and per-arrow schemes.

    ``isometric(A, B)`` holds exactly when the canonical representations
    agree entrywise."""
    Ainf, iso, C, trace, layout = _canonical(A, tol)
    full = scheme_of(C, trace.zones, tol)
    ro, co = mbm._offsets(C.row_strips).tolist(), mbm._offsets(C.col_strips).tolist()
    sources = [A.quiver.arrow(aid)[1] for aid in layout["row_order"]]
    strip_of = [k for k, h in enumerate(C.row_strips) for _ in range(h)]  # per row
    # a zone never crosses a strip boundary, so it lies in the rectangle of
    # the arrow whose row strip holds its block, or in a coupling block
    arrow_zones = [[] for _ in sources]
    for z in full.zones:
        k = strip_of[z.block[0]]
        if co[sources[k] - 1] <= z.block[2] < co[sources[k]]:
            arrow_zones[k].append(z)
    schemes = {}
    for k, aid in enumerate(layout["row_order"]):
        _, s, d = A.quiver.arrow(aid)
        r0, r1, c0, c1 = ro[k], ro[k + 1], co[s - 1], co[s]

        def shift(cells):  # packed cells -> cells of the arrow's rectangle
            return tuple((r - r0, c - c0) for r, c in cells)

        schemes[aid] = Scheme(
            rows=r1 - r0,
            cols=c1 - c0,
            symbols=tuple(tuple(full.symbols[r][c0:c1]) for r in range(r0, r1)),
            links=frozenset(frozenset(shift(p)) for p in full.links
                            if all(r0 <= r < r1 and c0 <= c < c1 for r, c in p)),
            # at offset (0, 0) a zone that absorbed no blocks is its own copy
            zones=tuple(
                z if not (r0 or c0 or z.merged_blocks) else mbm.Zone(
                    z.depth, z.kind, z.block, frozenset(shift(z.cells)),
                    tuple(shift(st) for st in z.stairs))
                for z in arrow_zones[k]
            ),
            row_strips=(r1 - r0,),
            col_strips=(c1 - c0,),
            marked=frozenset({(0, 0)} if s == d else ()),
        )
    return Ainf, iso, schemes


def rep_params(A: Representation, tol: Tolerance = Tolerance()):
    """Real and complex parameter counts of the canonical form of A.

    Sums circles and stars over the per-arrow schemes; the coupling cells of
    the packed block matrix carry no parameters and are excluded."""
    _, _, schemes = rep_canonical(A, tol)
    counts = [count_params(S) for S in schemes.values()]
    return sum(nr for nr, _ in counts), sum(nc for _, nc in counts)


def same_canonical(Ac: Representation, Bc: Representation, tol: Tolerance = Tolerance()) -> bool:
    """Whether two canonical representations of one quiver are the same:
    equal dimensions and :func:`numcore.same_form` on the packed matrices,
    so every arrow is compared at the threshold of the whole representation."""
    return Ac.dims == Bc.dims and same_form(pack(Ac)[0].entries, pack(Bc)[0].entries, tol)


def _isometry(A: Representation, B: Representation, tol: Tolerance = Tolerance()):
    """``(T, Bc)``: an isometry T from A onto B (``apply_isometry(A, T)`` is
    B), composed from the two reduction transcripts, or None when A and B
    are not isometric; and the canonical representation Bc of B."""
    if A.quiver.arrows != B.quiver.arrows or A.quiver.p != B.quiver.p:
        raise QuiverMismatchError("different quivers")
    if A.dims != B.dims:
        raise DimMismatchError(f"dims {A.dims} vs {B.dims}")
    Ac, TA, *_ = _canonical(A, tol)
    Bc, TB, *_ = _canonical(B, tol)
    if not same_canonical(Ac, Bc, tol):
        return None, Bc
    return Isometry(tuple(TB.S[v].conj().T @ TA.S[v] for v in range(A.quiver.p))), Bc


def isometric(A: Representation, B: Representation, tol: Tolerance = Tolerance()) -> bool:
    return _isometry(A, B, tol)[0] is not None


def direct_sum(A: Representation, B: Representation) -> Representation:
    if A.quiver.arrows != B.quiver.arrows or A.quiver.p != B.quiver.p:
        raise QuiverMismatchError("different quivers")
    dims = tuple(a + b for a, b in zip(A.dims, B.dims))
    mats = {}
    for aid, s, d in A.quiver.arrows:
        X, Y = A.matrices[aid], B.matrices[aid]
        Z = np.zeros((dims[d - 1], dims[s - 1]), dtype=complex)
        Z[: X.shape[0], : X.shape[1]] = X
        Z[X.shape[0] :, X.shape[1] :] = Y
        mats[aid] = Z
    return Representation(A.quiver, dims, mats)


def decompose_rep(A: Representation, tol: Tolerance = Tolerance()):
    """Krull-Schmidt decomposition into pairwise non-isometric canonical
    indecomposable representations with multiplicities."""
    M, layout = pack(A)
    parts = mbm.decompose(M, tol)
    return [(unpack(P, layout), mult) for P, mult in parts]


def is_indecomposable_rep(A: Representation, tol: Tolerance = Tolerance()) -> bool:
    if all(d == 0 for d in A.dims):
        raise ZeroDimError("the zero dimension vector is not indecomposable")
    parts = decompose_rep(A, tol)
    return len(parts) == 1 and parts[0][1] == 1


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
    d = tuple(int(x) for x in d)
    mats = {}
    for a, s, dst in Q.arrows:
        shape = (d[dst - 1], d[s - 1])
        mats[a] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Representation(Q, d, mats)
