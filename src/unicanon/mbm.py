"""Marked block matrices and their canonical forms.

A marked block matrix is a complex block matrix with strip partitions of the
rows and columns and a set of marked square blocks.  Admissible
transformations are blockwise A -> R^-1 A S with block-diagonal unitaries
R, S whose blocks agree on strips tied by marks (and by marks added during
the reduction).  The reduction repeatedly locates the first block, in the
order "bottom strip row first, left to right within a strip row", that still
changes under admissible transformations, reduces it by unitary equivalence
or unitary similarity, refines the strips into substrips, and propagates
divisions classwide through all tied strips until a fixpoint is reached.
The fixpoint is the canonical matrix: every block between tied substrips is
a scalar multiple of the identity and every other block is zero.

Each substrip carries an integer tie-class label; a step gives the pieces it
cuts fresh labels.  Each step decides "is this block canonical" for the
substrip grid, down to the row where its scan resumes, in one array pass
(:meth:`ReductionState._grid`): the tied-block mask, the diagonal mean of
every tied block, every block's residual against its canonical part and the
zone owning it, all as numpy arrays.

The engine's bookkeeping rests on three invariants, which the tests check:

* blocks before the last target, in scan order, stay canonical under every
  later admissible transformation (the stabilizer property), so each scan
  resumes at a cursor instead of the first block;
* zones are disjoint unions of current blocks, so the owner map's entry
  (zone id per cell) at a block's first cell tells whether a zone holds it;
* a phase step (a 1x1 target that ties its two classes) divides nothing,
  and admissible transformations keep ``‖B‖_F`` of untied blocks and
  ``‖B - λI‖_F`` of tied ones, so every block but the target and the 1x1
  blocks the step ties keeps its flag: the next scan updates the last grid.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .numcore import (
    Tolerance, _svd, cluster_complex, frobenius, random_unitary, same_form, simil_step,
)

__all__ = [
    "MarkedBlockMatrix",
    "Transcript",
    "ReductionTrace",
    "Zone",
    "MarkedBlockNotSquareError",
    "DimensionMismatchError",
    "ShapeMismatchError",
    "MarkMismatchError",
    "TieViolationError",
    "NoConvergenceError",
    "CertificationError",
    "ZeroSizeError",
    "validate",
    "tie_closure",
    "apply_admissible",
    "random_transcript",
    "canonicalize",
    "block_direct_sum",
    "decompose",
    "is_indecomposable",
    "matrix_to_json",
    "matrix_from_json",
]


class MarkedBlockNotSquareError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


class MarkMismatchError(ValueError):
    pass


class TieViolationError(ValueError):
    pass


class NoConvergenceError(RuntimeError):
    pass


class CertificationError(RuntimeError):
    """A reduction's transcript is not unitary or does not map the input
    onto the returned canonical form within the certificate bound."""


class ZeroSizeError(ValueError):
    pass


def _offsets(sizes):
    return np.concatenate(([0], np.cumsum(sizes))).astype(int)


@dataclass(frozen=True)
class MarkedBlockMatrix:
    """Block matrix with strip partitions and marked (square) blocks.

    ``marked`` holds 0-based ``(i, j)`` block indices; the JSON form is
    1-based."""

    row_strips: tuple[int, ...]
    col_strips: tuple[int, ...]
    entries: np.ndarray
    marked: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "row_strips", tuple(int(s) for s in self.row_strips))
        object.__setattr__(self, "col_strips", tuple(int(s) for s in self.col_strips))
        e = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", e)
        object.__setattr__(
            self, "marked", frozenset((int(i), int(j)) for i, j in self.marked)
        )

    @property
    def shape(self):
        return self.entries.shape

    def to_json(self) -> dict:
        return {
            "row_strips": list(self.row_strips),
            "col_strips": list(self.col_strips),
            "marked": sorted([i + 1, j + 1] for i, j in self.marked),
            "entries": matrix_to_json(self.entries),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkedBlockMatrix":
        unknown = set(data) - {"row_strips", "col_strips", "marked", "entries"}
        if unknown:
            raise KeyError(f"unknown keys {sorted(unknown)}")
        rows = tuple(data["row_strips"])
        cols = tuple(data["col_strips"])
        entries = _shaped(matrix_from_json(data["entries"]), (sum(rows), sum(cols)))
        marked = frozenset((i - 1, j - 1) for i, j in data.get("marked", []))
        return cls(rows, cols, entries, marked)


def matrix_to_json(A) -> list:
    """A matrix as JSON: a list of rows of ``[re, im]`` pairs."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(A, dtype=complex).tolist()]


def matrix_from_json(rows) -> np.ndarray:
    """The matrix of a list of rows of ``[re, im]`` pairs; a bare number is
    a real entry."""
    return np.array(
        [[complex(p) if isinstance(p, (int, float)) else complex(p[0], p[1]) for p in row]
         for row in rows],
        dtype=complex,
    )


def _shaped(A, shape, error=DimensionMismatchError, what="entries") -> np.ndarray:
    """A as a complex matrix of the given shape.  Only an empty A is
    reshaped, and only to a shape with a zero side (``[]`` in JSON is a
    0 x k matrix); any other shape raises ``error``."""
    A = np.asarray(A, dtype=complex)
    if A.shape != shape and (A.size or 0 not in shape):
        raise error(f"{what}: shape {A.shape} does not match {shape}")
    return A.reshape(shape)


def _check_finite(E: np.ndarray, what: str = "entry") -> None:
    """Raise ValueError naming the first NaN or infinite entry of E (1-based)."""
    bad = np.argwhere(~np.isfinite(E))
    if bad.size:
        r, c = bad[0].tolist()
        raise ValueError(f"{what} ({r + 1},{c + 1}) is not finite: {E[r, c]}")


def validate(M: MarkedBlockMatrix) -> None:
    m, n = M.entries.shape
    if m != sum(M.row_strips) or n != sum(M.col_strips):
        raise DimensionMismatchError(
            f"entries shape {M.entries.shape} does not match strips "
            f"{M.row_strips} x {M.col_strips}"
        )
    _check_finite(M.entries)
    for i, j in M.marked:
        if not (0 <= i < len(M.row_strips) and 0 <= j < len(M.col_strips)):
            raise DimensionMismatchError(f"marked block ({i},{j}) out of range")
        if M.row_strips[i] != M.col_strips[j]:
            raise MarkedBlockNotSquareError(
                f"marked block ({i},{j}) has shape "
                f"{M.row_strips[i]}x{M.col_strips[j]}"
            )


class DisjointSet:
    """Union-find over hashable items, with path halving.

    An item joins as a singleton the first time it is used.  ``groups``
    lists the classes of the given items, each in the order of the items,
    ordered by their first member."""

    def __init__(self, items=()):
        self._parent = {x: x for x in items}

    def find(self, x):
        p = self._parent
        p.setdefault(x, x)
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def groups(self, items=None) -> list:
        out: dict = {}
        for x in list(self._parent) if items is None else items:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def tie_closure(M: MarkedBlockMatrix) -> tuple[frozenset, ...]:
    """Partition of the row and column strip slots ``('r', i)`` and
    ``('c', j)`` into classes: two slots share a class iff a chain of marks
    ties them.  Validates M."""
    validate(M)
    slots = [("r", i) for i in range(len(M.row_strips))] + [
        ("c", j) for j in range(len(M.col_strips))
    ]
    ties = DisjointSet(slots)
    for i, j in M.marked:
        ties.union(("r", i), ("c", j))
    return tuple(frozenset(g) for g in ties.groups(slots))


@dataclass(frozen=True)
class Transcript:
    """Per-strip unitaries (R, S) with R^-1 A S the transformed matrix."""

    R: tuple
    S: tuple

    def full_matrices(self):
        R = _blockdiag(self.R)
        S = _blockdiag(self.S)
        return R, S


def _blockdiag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    o = 0
    for b in blocks:
        k = b.shape[0]
        out[o : o + k, o : o + k] = b
        o += k
    return out


def apply_admissible(
    M: MarkedBlockMatrix, T: Transcript, tol: Tolerance = Tolerance()
) -> MarkedBlockMatrix:
    validate(M)
    if len(T.R) != len(M.row_strips) or len(T.S) != len(M.col_strips):
        raise DimensionMismatchError("transcript does not match strip counts")
    for k, (b, s) in enumerate(zip(T.R, M.row_strips)):
        if b.shape != (s, s):
            raise DimensionMismatchError(f"R[{k}] has shape {b.shape}, expected {s}")
    for k, (b, s) in enumerate(zip(T.S, M.col_strips)):
        if b.shape != (s, s):
            raise DimensionMismatchError(f"S[{k}] has shape {b.shape}, expected {s}")
    for i, j in M.marked:
        # unitaries have spectral norm 1: the bound of a unit scalar, at size
        if np.linalg.norm(T.R[i] - T.S[j]) > tol.bound(1.0, M.row_strips[i]):
            raise TieViolationError(f"R[{i}] != S[{j}] on marked block ({i},{j})")
    R, S = _blockdiag(T.R), _blockdiag(T.S)
    return MarkedBlockMatrix(
        M.row_strips, M.col_strips, R.conj().T @ M.entries @ S, M.marked
    )


def random_transcript(M: MarkedBlockMatrix, seed=None) -> Transcript:
    """Random tie-respecting admissible transformation."""
    rng = np.random.default_rng(seed)
    unitaries = {}
    for c in tie_closure(M):
        slot = sorted(c)[0]
        size = (
            M.row_strips[slot[1]] if slot[0] == "r" else M.col_strips[slot[1]]
        )
        U = random_unitary(size, seed=rng.integers(0, 2**32))
        for s in c:
            unitaries[s] = U
    R = tuple(unitaries[("r", i)] for i in range(len(M.row_strips)))
    S = tuple(unitaries[("c", j)] for j in range(len(M.col_strips)))
    return Transcript(R=R, S=S)


# ---------------------------------------------------------------------------
# reduction engine


class _Sub:
    """A substrip: a run of rows or columns inside one strip, and its tie-class label."""

    __slots__ = ("axis", "strip", "start", "size", "label")

    def __init__(self, axis, strip, start, size, label=-1):
        self.axis = axis
        self.strip = strip
        self.start = start
        self.size = size
        self.label = label

    def __repr__(self):  # pragma: no cover
        return f"Sub({self.axis}{self.strip}@{self.start}+{self.size}#{self.label})"


@dataclass
class Zone:
    """Canonical part installed at one point of the reduction."""

    depth: int
    kind: str  # "equivalence" | "similarity"
    block: tuple  # (row_start, row_size, col_start, col_size) of Bl(Z)
    cells: frozenset = field(default_factory=frozenset)
    stairs: tuple = ()  # for similarity zones: groups of diagonal cells
    merged_blocks: tuple = ()  # blocks absorbed by the merge rule


@dataclass
class StepRecord:
    kind: str
    row_block: tuple  # (start, size)
    col_block: tuple
    values: tuple  # (value, size) per piece (equivalence: positive reals
    # then optional (0, leftover); similarity: eigenvalues)
    row_pieces: tuple
    col_pieces: tuple


@dataclass
class ReductionTrace:
    """A reduction's steps in order and its zones, sorted by ``(depth, block)``."""

    steps: list
    zones: list  # sorted by (depth, block)
    row_substrips: list  # per original strip: list of (start, size, class label)
    col_substrips: list
    num_classes: int


_start = attrgetter("start")


class _Grid(NamedTuple):
    """The substrip grid of one scan; ``(i, j)`` indexes ``rows`` x ``cols``,
    and the grid may stop after a prefix of ``rows``."""

    rstart: np.ndarray  # first row of every row substrip
    rsize: np.ndarray
    cstart: np.ndarray
    csize: np.ndarray
    tied: np.ndarray  # (i, j) -> row and column substrip share a tie class
    canonical: np.ndarray  # block equals its canonical part within tolerance
    snapped: np.ndarray | None  # A with every block replaced by that part; None if carried
    owner: np.ndarray  # zone id of every block, -1 if none


class ReductionState:
    """Single-owner mutable state of the derived-matrix iteration.

    It reduces the matrix it is given and decides at the absolute
    ``tol.abs``; :func:`canonicalize` is the scale-relative entry point,
    which hands it the unit-norm matrix.  While the reduction runs, a zone
    is a record ``(depth, kind, block, stairs, merged_blocks)`` and the
    owner map (zone id per cell) holds the cells it owns; :meth:`trace`
    builds the :class:`Zone` objects and their cell sets."""

    def __init__(self, M: MarkedBlockMatrix, tol: Tolerance = Tolerance()):
        classes = tie_closure(M)  # validates M
        label = {slot: k for k, c in enumerate(classes) for slot in c}
        self.M = M
        self.tol = tol
        self.A = M.entries.astype(complex).copy()
        m, n = self.A.shape
        self.R = np.eye(m, dtype=complex)
        self.S = np.eye(n, dtype=complex)
        ro, co = _offsets(M.row_strips), _offsets(M.col_strips)
        self.rows = [_Sub("r", i, int(ro[i]), s, label["r", i])
                     for i, s in enumerate(M.row_strips) if s > 0]
        self.cols = [_Sub("c", j, int(co[j]), s, label["c", j])
                     for j, s in enumerate(M.col_strips) if s > 0]
        self.labels = len(classes)  # labels handed out; the next one is fresh
        self.steps: list[StepRecord] = []
        # zone ids index ``zones``; a zone merged into another becomes None
        self.zones: list[tuple | None] = []
        self.owner = np.full((m, n), -1, dtype=np.intp)  # zone id per cell
        self._zero_candidates: list[int] = []
        self.cursor = (-m, 0)  # scan key (-row start, col start) of the next scan
        # per axis, offsets of boundaries cut in substrips other than the target's
        self.propagated = {"r": set(), "c": set()}
        self.grid: _Grid | None = None  # the next scan's grid, if carried over
        self.done = False

    def _members(self, label) -> list:
        """Substrips of tie class ``label``: row substrips, then columns."""
        return [s for s in self.rows if s.label == label] + [
            s for s in self.cols if s.label == label
        ]

    def _relabel(self, classes) -> None:
        """Give every list of substrips in ``classes`` a fresh label."""
        for subs in classes:
            for s in subs:
                s.label = self.labels
            self.labels += 1

    # -- block helpers -------------------------------------------------
    def _block(self, rs: _Sub, cs: _Sub) -> np.ndarray:
        return self.A[rs.start : rs.start + rs.size, cs.start : cs.start + cs.size]

    def _snap(self, nrows=None):
        """The canonical part of the first ``nrows`` row substrips (all by
        default): ``(A, rstart, rsize, cstart, csize, tied, snapped)``, with A
        the rows of ``self.A`` they cover, the substrip arrays, the tied-block
        mask, and A with every tied block replaced by the mean of its diagonal
        times I and every other block by zero."""
        rows, cols = self.rows[:nrows], self.cols
        A = self.A[: rows[-1].start + rows[-1].size if rows else 0]
        rstart, rsize, row_labels = np.array(
            [[s.start for s in rows], [s.size for s in rows], [s.label for s in rows]], np.intp
        ).reshape(3, -1)
        cstart, csize, col_labels = np.array(
            [[s.start for s in cols], [s.size for s in cols], [s.label for s in cols]], np.intp
        ).reshape(3, -1)
        tied = row_labels[:, None] == col_labels
        # tied blocks are square; summing the diagonals of equal-sized ones
        # as rows adds in np.mean's order, so each λ is bit-identical to it
        means = np.zeros(tied.shape, dtype=complex)
        eye = np.zeros(A.shape)  # 1 on the diagonal of every tied block
        ti, tj = np.nonzero(tied)
        for k in set(rsize[ti].tolist()):
            at = np.flatnonzero(rsize[ti] == k)
            i, j, t = ti[at], tj[at], np.arange(k)
            r, c = rstart[i, None] + t, cstart[j, None] + t
            means[i, j] = np.add.reduce(A[r, c], axis=1) / k
            eye[r, c] = 1.0
        snapped = np.repeat(np.repeat(means, rsize, axis=0), csize, axis=1) * eye
        return A, rstart, rsize, cstart, csize, tied, snapped

    def _grid(self, nrows=None) -> _Grid:
        """Decide, for every block of the first ``nrows`` row substrips (all
        by default) at once, whether it is canonical.

        A block between tied substrips is canonical when ``‖B - λI‖_F <=
        tol.abs * max(1, size)`` with λ the mean of its diagonal; any other
        block when ``‖B‖_F <= tol.abs * max(1, sqrt(rows * cols))``."""
        A, rstart, rsize, cstart, csize, tied, snapped = self._snap(nrows)
        D = A - snapped
        sq = np.add.reduceat(
            np.add.reduceat(D.real**2 + D.imag**2, rstart, axis=0), cstart, axis=1
        )
        # a tied block is square, so its limit is tol.abs * max(1, size)
        limit = self.tol.abs * np.maximum(1.0, np.sqrt(rsize[:, None] * csize))
        canonical = np.sqrt(sq) <= limit
        # zones are unions of blocks, so a block's first cell names its zone
        owner = self.owner[rstart[:, None], cstart]
        return _Grid(rstart, rsize, cstart, csize, tied, canonical, snapped, owner)

    def _carry(self, grid: _Grid, i: int, label: int) -> _Grid:
        """The grid of the scan after a phase step on row ``i`` that tied its
        classes into ``label``: the 1x1 blocks between members of ``label``
        become tied and canonical, every other flag stays, owners are reread."""
        n = i + 1  # the next scan resumes on row i
        rows = np.array([s.label == label for s in self.rows[:n]])
        both = rows[:, None] & np.array([s.label == label for s in self.cols])
        return grid._replace(
            rstart=grid.rstart[:n], rsize=grid.rsize[:n], tied=grid.tied[:n] | both,
            canonical=grid.canonical[:n] | both, snapped=None,
            owner=self.owner[grid.rstart[:n, None], grid.cstart],
        )

    def first_changing_block(self, grid: _Grid, depth: int):
        """Index pair ``(i, j)`` into ``rows`` and ``cols`` of the first
        block, in scan order from the cursor on, that is not canonical, or
        None.  ``grid`` covers the rows up to the cursor's (the scan never
        goes below it).  The canonical blocks passed on the way that no zone
        holds yet become zones of their own, in one batch."""
        row, col = self.cursor
        i0 = grid.canonical.shape[0] - 1
        on_row = i0 >= 0 and self.rows[i0].start == -row
        j0 = bisect.bisect_left(self.cols, col, key=_start) if on_row else 0
        nc = len(self.cols)
        # flags of rows i0, i0 - 1, ..., 0 in turn, each left to right
        canonical = grid.canonical[i0::-1].ravel()
        changing = np.flatnonzero(~canonical[j0:])
        stop = j0 + int(changing[0]) if changing.size else canonical.size
        passed = j0 + np.flatnonzero(grid.owner[i0::-1].ravel()[j0:stop] < 0)
        if passed.size:
            self._install(grid, i0 - passed // nc, passed % nc, depth)
        if stop == canonical.size:
            return None
        i, j = divmod(stop, nc)
        return i0 - i, j

    # -- zone bookkeeping ----------------------------------------------
    def _install(self, grid: _Grid, i, j, depth) -> None:
        """Give each block ``(i[k], j[k])``, none of them owned yet, a zone of
        its own: a similarity zone with one stair down its diagonal if it is
        tied (and so square), else an equivalence zone."""
        zid = len(self.zones)
        ids = np.full(grid.tied.shape, -1, dtype=np.intp)
        ids[i, j] = np.arange(zid, zid + i.size)
        # the new ids exceed every id in use and the blocks are unowned (-1)
        cells = np.repeat(np.repeat(ids, grid.rsize, axis=0), grid.csize, axis=1)
        top = self.owner[: cells.shape[0]]
        np.maximum(top, cells, out=top)
        tied = grid.tied[i, j].tolist()
        self.zones += [
            (depth, "similarity", (r, k, c, w),
             (((r, c),),) if k == 1 else (tuple(zip(range(r, r + k), range(c, c + k))),), [])
            if t else (depth, "equivalence", (r, k, c, w), (), [])
            for r, k, c, w, t in zip(grid.rstart[i].tolist(), grid.rsize[i].tolist(),
                                     grid.cstart[j].tolist(), grid.csize[j].tolist(), tied)
        ]
        self._zero_candidates += [zid + k for k, t in enumerate(tied) if not t]

    # -- transformations -----------------------------------------------
    def _apply(self, row_updates, col_updates):
        """Apply per-substrip unitaries; accumulate transcripts.  In a phase
        step (every unitary 1x1) the rows and columns are scaled by the
        phases instead of multiplied by dense matrices."""
        m, n = self.A.shape
        if all(U.shape == (1, 1) for _, U in chain(row_updates, col_updates)):
            p = np.ones(m, dtype=complex)
            q = np.ones(n, dtype=complex)
            for x, updates in ((p, row_updates), (q, col_updates)):
                x[[sub.start for sub, _ in updates]] = [U[0, 0] for _, U in updates]
            self.A = p.conj()[:, None] * self.A * q
            self.R = self.R * p
            self.S = self.S * q
            return
        P = np.eye(m, dtype=complex)
        Q = np.eye(n, dtype=complex)
        for sub, U in row_updates:
            P[sub.start : sub.start + sub.size, sub.start : sub.start + sub.size] = U
        for sub, U in col_updates:
            Q[sub.start : sub.start + sub.size, sub.start : sub.start + sub.size] = U
        self.A = P.conj().T @ self.A @ Q
        self.R = self.R @ P
        self.S = self.S @ Q

    def _divide(self, groups, direct: set):
        """Divide substrips into pieces.

        ``groups``: list of (subs, piece_sizes).  Returns a dict sub -> list
        of its pieces; a sub of one piece is kept as its own piece.  Updates
        positional lists and records the boundaries of subs not in
        ``direct`` (the subs of the reduced block) as propagated."""
        pieces = {}
        for subs, sizes in groups:
            sizes = [s for s in sizes if s > 0]
            for sub in subs:
                assert sum(sizes) == sub.size
                if len(sizes) == 1:
                    pieces[sub] = [sub]
                    continue
                new = []
                off = sub.start
                for k, s in enumerate(sizes):
                    if k > 0 and sub not in direct:
                        self.propagated[sub.axis].add(off)
                    new.append(_Sub(sub.axis, sub.strip, off, s))
                    off += s
                pieces[sub] = new
                lst = self.rows if sub.axis == "r" else self.cols
                at = bisect.bisect_left(lst, sub.start, key=_start)
                lst[at : at + 1] = new
        return pieces

    # -- reduction steps -----------------------------------------------
    def _reduce_equivalence(self, rs: _Sub, cs: _Sub, depth: int, rmem, cmem):
        tol = self.tol
        B = self._block(rs, cs)
        U, s, Vh = _svd(B)
        V = Vh.conj().T
        self._apply(
            [(x, U) for x in rmem if x.axis == "r"]
            + [(x, V) for x in cmem if x.axis == "r"],
            [(x, U) for x in rmem if x.axis == "c"]
            + [(x, V) for x in cmem if x.axis == "c"],
        )
        nonzero = s[s > tol.abs]
        clusters = [(rep.real, len(mem)) for rep, mem in cluster_complex(nonzero, tol)]
        r = len(nonzero)
        # snap the block to its canonical part
        D = np.zeros((rs.size, cs.size), dtype=complex)
        D.flat[: r * (cs.size + 1) : cs.size + 1] = [rep for rep, m in clusters for _ in range(m)]
        self.A[rs.start : rs.start + rs.size, cs.start : cs.start + cs.size] = D
        self.owner[rs.start : rs.start + rs.size, cs.start : cs.start + cs.size] = len(self.zones)
        self.zones.append((depth, "equivalence", (rs.start, rs.size, cs.start, cs.size), (), []))
        row_sizes = [m for _, m in clusters] + [rs.size - r]
        col_sizes = [m for _, m in clusters] + [cs.size - r]
        pieces = self._divide([(rmem, row_sizes), (cmem, col_sizes)], direct={rs, cs})
        k = len(clusters)
        # marks: piece alpha of the row class is tied to piece alpha of the
        # column class for every singular-value cluster; leftover pieces stay
        # tied within their own former class
        self._relabel(
            [[pieces[x][a] for x in rmem + cmem] for a in range(k)]
            + [[pieces[x][k] for x in group if len(pieces[x]) > k] for group in (rmem, cmem)]
        )
        self.steps.append(
            StepRecord(
                kind="equivalence",
                row_block=(rs.start, rs.size),
                col_block=(cs.start, cs.size),
                values=tuple(clusters) + (((0.0, rs.size - r),) if rs.size > r else ()),
                row_pieces=tuple(s_ for s_ in row_sizes if s_ > 0),
                col_pieces=tuple(s_ for s_ in col_sizes if s_ > 0),
            )
        )

    def _reduce_similarity(self, rs: _Sub, cs: _Sub, depth: int, mem):
        tol = self.tol
        B = self._block(rs, cs)
        lams, sizes, S = simil_step(B, tol)
        self._apply(
            [(x, S) for x in mem if x.axis == "r"],
            [(x, S) for x in mem if x.axis == "c"],
        )
        offs = _offsets(sizes)
        # snap diagonal blocks and the zero blocks below them
        stairs = []
        for a in range(len(sizes)):
            r0, r1 = rs.start + offs[a], rs.start + offs[a + 1]
            c0, c1 = cs.start + offs[a], cs.start + offs[a + 1]
            self.A[r0:r1, c0:c1] = lams[a] * np.eye(sizes[a])
            self.A[r1 : rs.start + rs.size, c0:c1] = 0.0
            stairs.append(tuple(zip(range(r0, r1), range(c0, c1))))
            # the zone is a staircase: piece row a against column pieces 0..a
            self.owner[r0:r1, cs.start : c1] = len(self.zones)
        self.zones.append(
            (depth, "similarity", (rs.start, rs.size, cs.start, cs.size), tuple(stairs), [])
        )
        pieces = self._divide([(mem, sizes)], direct={rs, cs})
        self._relabel([[pieces[x][a] for x in mem] for a in range(len(sizes))])
        self.steps.append(
            StepRecord(
                kind="similarity",
                row_block=(rs.start, rs.size),
                col_block=(cs.start, cs.size),
                values=tuple((lams[a], sizes[a]) for a in range(len(sizes))),
                row_pieces=tuple(sizes),
                col_pieces=tuple(sizes),
            )
        )

    def derive(self) -> bool:
        """One step of the iteration.  Returns False at the fixpoint."""
        if self.done:
            return False
        depth = len(self.steps)
        # blocks below the cursor's row stay canonical: the grid stops there
        grid = self.grid or self._grid(bisect.bisect_right(self.rows, -self.cursor[0], key=_start))
        self.grid = None
        target = self.first_changing_block(grid, depth)
        if target is None:
            self._merge_zero_zones()
            self.A = self._snap()[-1]
            self.done = True
            return False
        i, j = target
        rs, cs = self.rows[i], self.cols[j]
        rmem = self._members(rs.label)
        if grid.tied[i, j]:
            self._reduce_similarity(rs, cs, depth, rmem)
        else:
            cmem = self._members(cs.label)
            self._reduce_equivalence(rs, cs, depth, rmem, cmem)
            if rs.size == cs.size == 1 and rs.label == cs.label:
                self.grid = self._carry(grid, i, rs.label)
        # resume at the block of the last row piece and the first column
        # piece of the target: every block before it preceded the target
        self.cursor = (self.steps[-1].row_pieces[-1] - rs.start - rs.size, cs.start)
        return True

    def _merge_zero_zones(self):
        """Merge rule: an all-zero block that was never itself reduced joins
        the zone of its neighbour across a propagated division boundary.
        Chains of such blocks settle in repeated passes."""
        zones, n = self.zones, self.owner.shape[1]
        rows, cols, owner = self.propagated["r"], self.propagated["c"], self.owner.ravel().tolist()
        # (zone id, owners of the neighbour cells left, right, above and below
        # across propagated boundaries, which lie strictly inside the matrix)
        probes = []
        for zid in self._zero_candidates:
            r0, h, c0, w = zones[zid][2]
            at = r0 * n + c0
            tids = [owner[cell] for across, cell in (
                (c0 in cols, at - 1), (c0 + w in cols, at + w),
                (r0 in rows, at - n), (r0 + h in rows, at + h * n),
            ) if across]
            if tids:
                probes.append((zid, tids))
        # an absorbed zone points at the zone that absorbed it; the owners are
        # read through the pointers and the map is repainted once, at the end
        into, gone = DisjointSet(), []
        changed = True
        while changed:
            changed = False
            for zid, tids in probes:
                z = zones[zid]
                if z is None:
                    continue
                for tid in map(into.find, tids):
                    if tid < 0 or tid == zid:
                        continue
                    _, _, block, _, absorbed = z
                    zones[tid][4].extend([block, *absorbed])
                    into.union(zid, tid)
                    zones[zid] = None
                    gone.append(zid)
                    changed = True
                    break
        if gone:
            lut = np.append(np.arange(len(self.zones)), -1)  # unowned (-1) stays so
            lut[gone] = [into.find(zid) for zid in gone]
            self.owner = lut[self.owner]

    def trace(self) -> ReductionTrace:
        # classes are numbered from 1 in order of first appearance
        labels: dict = {}
        row_info = [[] for _ in self.M.row_strips]
        col_info = [[] for _ in self.M.col_strips]
        for sub in self.rows + self.cols:
            info = row_info if sub.axis == "r" else col_info
            k = labels.setdefault(sub.label, len(labels) + 1)
            info[sub.strip].append((sub.start, sub.size, k))
        # zones partition the cells they own: group the cells by owner once
        order = np.argsort(self.owner, axis=None, kind="stable")
        bounds = np.searchsorted(
            self.owner.ravel()[order], np.arange(len(self.zones) + 1)
        ).tolist()
        cells = list(zip(*(x.tolist() for x in np.unravel_index(order, self.owner.shape))))
        zones = [
            Zone(z[0], z[1], z[2], frozenset(cells[a:b]), z[3], tuple(z[4]))
            for z, a, b in zip(self.zones, bounds, bounds[1:]) if z is not None
        ]
        zones.sort(key=attrgetter("depth", "block"))
        return ReductionTrace(
            steps=list(self.steps),
            zones=zones,
            row_substrips=row_info,
            col_substrips=col_info,
            num_classes=len(labels),
        )


def _certify(A, R, S, C, tol: Tolerance) -> None:
    """Raise CertificationError unless R and S are unitary,
    ``||U^H U - I||_F <= 10 * n * tol.abs``, and
    ``||R^H A S - C||_F <= tol.bound(A) = 10 * n * tol.abs * ||A||_F``, n the
    larger side of A."""
    limit = tol.bound(1.0, max(1, *A.shape))
    for name, U in (("R", R), ("S", S)):
        defect = frobenius(U.conj().T @ U - np.eye(U.shape[0]))
        if not defect <= limit:
            raise CertificationError(
                f"transcript {name} is not unitary: ||U^H U - I||_F = {defect:.2e} > {limit:.2e}"
            )
    resid = frobenius(R.conj().T @ A @ S - C)
    limit = tol.bound(A)
    if not resid <= limit:
        raise CertificationError(
            f"transcript does not reproduce the form: ||R^H A S - C||_F = {resid:.2e} > {limit:.2e}"
        )


def canonicalize(M: MarkedBlockMatrix, tol: Tolerance = Tolerance()):
    """Reduce M to its canonical matrix.

    Returns ``(canonical, transcript, trace)``.  The engine reduces M divided
    by s = ``||M.entries||_F`` (unless s is 0), so every decision is relative
    to s and the form of ``c * M`` is c times the form of M; the form and the
    step values are scaled back by s.  ``apply_admissible(M, transcript)``
    equals ``canonical`` within ``10 * n * tol.abs * s`` in the Frobenius
    norm (n the larger side); every call checks this certificate and raises
    :class:`CertificationError` when it fails."""
    validate(M)  # before the division by the norm: entries must be finite
    s = frobenius(M.entries)
    unit = MarkedBlockMatrix(M.row_strips, M.col_strips, M.entries / (s or 1.0), M.marked)
    state = ReductionState(unit, tol)
    limit = 4 * max(1, M.entries.size) + 8
    steps = 0
    while state.derive():
        steps += 1
        if steps > limit:
            raise NoConvergenceError(
                f"reduction did not converge after {steps} steps"
            )
    C = s * state.A
    _certify(M.entries, state.R, state.S, C, tol)
    canonical = MarkedBlockMatrix(M.row_strips, M.col_strips, C, M.marked)
    T = Transcript(
        R=_diagonal_blocks(state.R, M.row_strips),
        S=_diagonal_blocks(state.S, M.col_strips),
    )
    trace = state.trace()
    for step in trace.steps:
        step.values = tuple((v * s, k) for v, k in step.values)
    return canonical, T, trace


def _diagonal_blocks(X: np.ndarray, sizes) -> tuple:
    o = _offsets(sizes)
    return tuple(X[o[k] : o[k + 1], o[k] : o[k + 1]].copy() for k in range(len(sizes)))


def block_direct_sum(M: MarkedBlockMatrix, N: MarkedBlockMatrix) -> MarkedBlockMatrix:
    validate(M)
    validate(N)
    if len(M.row_strips) != len(N.row_strips) or len(M.col_strips) != len(
        N.col_strips
    ):
        raise ShapeMismatchError("block grids differ")
    if M.marked != N.marked:
        raise MarkMismatchError("marked sets differ")
    rows = tuple(a + b for a, b in zip(M.row_strips, N.row_strips))
    cols = tuple(a + b for a, b in zip(M.col_strips, N.col_strips))
    out = np.zeros((sum(rows), sum(cols)), dtype=complex)
    ro, co = _offsets(rows), _offsets(cols)
    mro, mco = _offsets(M.row_strips), _offsets(M.col_strips)
    nro, nco = _offsets(N.row_strips), _offsets(N.col_strips)
    for i in range(len(rows)):
        for j in range(len(cols)):
            mb = M.entries[mro[i] : mro[i + 1], mco[j] : mco[j + 1]]
            nb = N.entries[nro[i] : nro[i + 1], nco[j] : nco[j + 1]]
            out[ro[i] : ro[i] + mb.shape[0], co[j] : co[j] + mb.shape[1]] = mb
            out[ro[i] + mb.shape[0] : ro[i + 1], co[j] + mb.shape[1] : co[j + 1]] = nb
    return MarkedBlockMatrix(rows, cols, out, M.marked)


def decompose(M: MarkedBlockMatrix, tol: Tolerance = Tolerance()):
    """Krull-Schmidt decomposition into canonical indecomposable summands
    with multiplicities."""
    canonical, _, trace = canonicalize(M, tol)
    lr, lc = len(M.row_strips), len(M.col_strips)
    by_class: dict = {}
    for key, strips in (("rows", trace.row_substrips), ("cols", trace.col_substrips)):
        for i, subs in enumerate(strips):
            for start, size, label in subs:
                info = by_class.setdefault(label, {"rows": [[] for _ in range(lr)],
                                                   "cols": [[] for _ in range(lc)],
                                                   "size": size})
                info[key][i].append(start)
    summands = []
    for label in sorted(by_class):
        info = by_class[label]
        row_counts = tuple(len(v) for v in info["rows"])
        col_counts = tuple(len(v) for v in info["cols"])
        row_starts = [s for v in info["rows"] for s in v]
        col_starts = [s for v in info["cols"] for s in v]
        P = canonical.entries[np.ix_(row_starts, col_starts)]
        summand = MarkedBlockMatrix(row_counts, col_counts, P, M.marked)
        summands.append((summand, info["size"]))
    # merge equal summands (equal canonical matrices are the same class)
    out = []
    for P, mult in summands:
        for k, (Q, qm) in enumerate(out):
            if (
                P.row_strips == Q.row_strips
                and P.col_strips == Q.col_strips
                and same_form(P.entries, Q.entries, tol)
            ):
                out[k] = (Q, qm + mult)
                break
        else:
            out.append((P, mult))
    return out


def is_indecomposable(M: MarkedBlockMatrix, tol: Tolerance = Tolerance()) -> bool:
    if M.entries.shape == (0, 0):
        raise ZeroSizeError("the 0x0 matrix is not considered indecomposable")
    parts = decompose(M, tol)
    return len(parts) == 1 and parts[0][1] == 1
