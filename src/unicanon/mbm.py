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
Both kinds of step share one body (:meth:`ReductionState._reduce`): only the
kernel (an SVD of an untied block, :func:`simil_step` of a tied one) and the
zone it snaps (the whole block, or the staircase below the eigenvalues)
depend on the kind.
The fixpoint is the canonical matrix: every block between tied substrips is
a scalar multiple of the identity and every other block is zero.

The substrips of each axis are four integer arrays: first row or column,
size, strip and tie-class label.  A step replaces them, and gives the pieces
it cuts fresh labels.  Each step decides "is this block canonical" for the
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
  blocks the step ties keeps its flag: one grid names all targets of a run
  of phase steps, which the run reduces in one pass and carries over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
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
        marked = frozenset(_cell(x, "mark ") for x in data.get("marked", []))
        return cls(rows, cols, entries, marked)


def _cell(x, holder: str) -> tuple:
    """The 1-based JSON cell x as a 0-based pair; a ValueError names x and its holder if not."""
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise ValueError(f"{holder}{x!r} is not a [row, col] pair")
    return x[0] - 1, x[1] - 1


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


class _Subs(NamedTuple):
    """The substrips of one axis in order: runs of rows (or columns) inside
    one strip, which tile the axis.  Steps replace these arrays and never
    write into them, so a run of phase steps can keep the labels of each
    step."""

    start: np.ndarray  # first row or column
    size: np.ndarray
    strip: np.ndarray  # the strip it lies in
    label: np.ndarray  # its tie class


def _substrips(sizes, labels) -> _Subs:
    """One substrip for every nonempty strip of ``sizes``, of its label."""
    sizes = np.array(sizes, np.intp)
    keep = np.flatnonzero(sizes)
    return _Subs(_offsets(sizes)[keep], sizes[keep], keep, np.array(labels, np.intp)[keep])


class _Grid(NamedTuple):
    """The substrip grid of one scan; ``(i, j)`` indexes ``rows`` x ``cols``,
    and the grid may stop after a prefix of ``rows``."""

    rstart: np.ndarray  # first row of every row substrip
    rsize: np.ndarray
    cstart: np.ndarray
    csize: np.ndarray
    tied: np.ndarray  # (i, j) -> row and column substrip share a tie class
    canonical: np.ndarray  # block equals its canonical part within tolerance
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
        self.rows = _substrips(M.row_strips, [label["r", i] for i in range(len(M.row_strips))])
        self.cols = _substrips(M.col_strips, [label["c", j] for j in range(len(M.col_strips))])
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

    # -- block helpers -------------------------------------------------
    def _snap(self, nrows=None):
        """The canonical part of the first ``nrows`` row substrips (all by
        default): ``(A, rstart, rsize, cstart, csize, tied, snapped)``, with A
        the rows of ``self.A`` they cover, the substrip arrays, the tied-block
        mask, and A with every tied block replaced by the mean of its diagonal
        times I and every other block by zero."""
        rstart, rsize = self.rows.start[:nrows], self.rows.size[:nrows]
        cstart, csize = self.cols.start, self.cols.size
        A = self.A[: rstart[-1] + rsize[-1] if rstart.size else 0]
        tied = self.rows.label[:nrows, None] == self.cols.label
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
        return _Grid(rstart, rsize, cstart, csize, tied, canonical, owner)

    def first_changing_block(self, grid: _Grid, depth: int):
        """Index pair ``(i, j)`` into ``rows`` and ``cols`` of the first
        block, in scan order from the cursor on, that is not canonical, or
        None.  ``grid`` covers the rows up to the cursor's (the scan never
        goes below it).  The canonical blocks passed on the way that no zone
        holds yet become zones of their own, in one batch."""
        row, col = self.cursor
        i0 = grid.canonical.shape[0] - 1
        on_row = i0 >= 0 and grid.rstart[i0] == -row
        j0 = int(np.searchsorted(grid.cstart, col)) if on_row else 0
        nc = grid.cstart.size
        # flags of rows i0, i0 - 1, ..., 0 in turn, each left to right
        canonical = grid.canonical[i0::-1].ravel()
        changing = np.flatnonzero(~canonical[j0:])
        stop = j0 + int(changing[0]) if changing.size else canonical.size
        passed = j0 + np.flatnonzero(grid.owner[i0::-1].ravel()[j0:stop] < 0)
        if passed.size:
            i, j = i0 - passed // nc, passed % nc
            self._install(grid, i, j, [depth] * i.size, grid.tied[i, j])
        if stop == canonical.size:
            return None
        i, j = divmod(stop, nc)
        return i0 - i, j

    # -- zone bookkeeping ----------------------------------------------
    def _install(self, grid: _Grid, i, j, depths, tied, reduced=False) -> None:
        """Give each block ``(i[k], j[k])``, none of them owned yet, a zone of
        its own at ``depths[k]``: a similarity zone with one stair down its
        diagonal if ``tied[k]`` (the block is then square), else an
        equivalence zone, which the merge rule considers unless ``reduced[k]``."""
        zid = len(self.zones)
        ids = np.full(grid.tied.shape, -1, dtype=np.intp)
        ids[i, j] = np.arange(zid, zid + i.size)
        # the new ids exceed every id in use and the blocks are unowned (-1)
        cells = np.repeat(np.repeat(ids, grid.rsize, axis=0), grid.csize, axis=1)
        top = self.owner[: cells.shape[0]]
        np.maximum(top, cells, out=top)
        self.zones += [
            (d, "similarity", (r, k, c, w),
             (((r, c),),) if k == 1 else (tuple(zip(range(r, r + k), range(c, c + k))),), [])
            if t else (d, "equivalence", (r, k, c, w), (), [])
            for r, k, c, w, d, t in zip(grid.rstart[i].tolist(), grid.rsize[i].tolist(),
                                        grid.cstart[j].tolist(), grid.csize[j].tolist(),
                                        depths, tied.tolist())
        ]
        self._zero_candidates += (zid + np.flatnonzero(~tied & ~reduced)).tolist()

    # -- transformations -----------------------------------------------
    def _apply(self, classes):
        """Apply, for each ``(label, W)`` in ``classes``, the unitary W to
        every substrip of tie class ``label``; accumulate transcripts."""
        m, n = self.A.shape
        P = np.eye(m, dtype=complex)
        Q = np.eye(n, dtype=complex)
        unitary = dict(classes)
        for X, subs in ((P, self.rows), (Q, self.cols)):
            for s, k, label in zip(*(v.tolist() for v in (subs.start, subs.size, subs.label))):
                if label in unitary:
                    X[s : s + k, s : s + k] = unitary[label]
        self.A = P.conj().T @ self.A @ Q
        self.R = self.R @ P
        self.S = self.S @ Q

    def _divide(self, classes, sizes, i, j) -> list:
        """Cut every substrip of each tie class ``(label, W)`` in ``classes``
        into pieces of ``sizes`` and, where they fall short of W's size, a
        leftover piece.  Piece a gets the fresh label ``base + a`` and the
        leftover of the q-th class ``base + k + q`` (k pieces).  Records the
        cuts in substrips other than row i and column j (the reduced block)
        as propagated.  Returns the piece sizes of each class, as tuples."""
        k, base = len(sizes), self.labels
        self.labels += k + len(classes)
        cuts = {}  # class label -> (size, label) of every piece
        for q, (label, W) in enumerate(classes):
            left = W.shape[0] - sum(sizes)
            labels = [*range(base, base + k), base + k + q][: k + (left > 0)]
            cuts[label] = list(zip(sizes + [left] * (left > 0), labels))
        out = []
        for axis, subs, target in (("r", self.rows, i), ("c", self.cols, j)):
            new = []  # (start, size, strip, label) of every piece, in order
            for x, (start, size, strip, label) in enumerate(zip(*(v.tolist() for v in subs))):
                for a, (piece, fresh) in enumerate(cuts.get(label, [(size, label)])):
                    if a and x != target:  # a cut outside the reduced block
                        self.propagated[axis].add(start)
                    new.append((start, piece, strip, fresh))
                    start += piece
            out.append(_Subs(*np.array(new, np.intp).reshape(-1, 4).T))
        self.rows, self.cols = out
        return [tuple(piece for piece, _ in cuts[label]) for label, _ in classes]

    # -- reduction step ------------------------------------------------
    def _reduce(self, i: int, j: int, depth: int, tied: bool):
        """Reduce block ``(i, j)`` of the substrip grid to its canonical
        form.  Only the kernel and the zone depend on the kind: a tied block
        keeps its one class, with S of :func:`simil_step`, and snaps the
        staircase of pieces ``a >= b``; an untied block transforms its row
        class by U and its column class by V of the SVD, each with a leftover
        piece for the zero singular values, and snaps the whole block.  Piece
        a is then tied across all classes, and each leftover within its own
        class."""
        r0, h = int(self.rows.start[i]), int(self.rows.size[i])
        c0, w = int(self.cols.start[j]), int(self.cols.size[j])
        rows, cols = slice(r0, r0 + h), slice(c0, c0 + w)
        B = self.A[rows, cols]
        if tied:
            kind = "similarity"
            lams, sizes, S = simil_step(B, self.tol)
            values = list(zip(lams, sizes))
            classes = [(int(self.rows.label[i]), S)]
            piece = np.repeat(np.arange(len(sizes)), sizes)
            zone = piece[:, None] >= piece
            diagonal = zip(range(r0, r0 + h), range(c0, c0 + w))
            stairs = tuple(tuple(islice(diagonal, k)) for k in sizes)
        else:
            U, s, Vh = _svd(B)
            clusters = cluster_complex(s[s > self.tol.abs], self.tol)
            values = [(rep.real, len(m)) for rep, m in clusters]
            classes = [(int(self.rows.label[i]), U), (int(self.cols.label[j]), Vh.conj().T)]
            kind, zone, stairs = "equivalence", ..., ()
        sizes = [k for _, k in values]
        r = sum(sizes)
        self._apply(classes)
        self.A[rows, cols][zone] = 0.0
        n = self.A.shape[1]  # the block's diagonal: every (n + 1)-th entry from its corner
        at = r0 * n + c0
        self.A.flat[at : at + r * (n + 1) : n + 1] = [v for v, k in values for _ in range(k)]
        self.owner[rows, cols][zone] = len(self.zones)
        self.zones.append((depth, kind, (r0, h, c0, w), stairs, []))
        values = tuple(values) + (((0.0, h - r),) if h > r else ())
        pieces = self._divide(classes, sizes, i, j)  # a tied block's one class cuts both sides
        self.steps.append(StepRecord(kind, (r0, h), (c0, w), values, pieces[0], pieces[-1]))

    def _phase_run(self, grid: _Grid, i: int, j: int, depth: int) -> bool:
        """Reduce the run of phase steps from the untied 1x1 target ``(i, j)``
        in one pass; False, changing nothing, if its value is at the threshold.

        The run's targets are the next non-canonical 1x1 blocks in scan order
        whose classes it has not yet joined.  Each value b is read through
        the phases so far, the row class's phases are multiplied by b / |b|
        (the U of its SVD; V is 1) and the classes are joined.  A larger
        block or a value at the threshold ends the run and goes to
        :meth:`_reduce`.  A, R and S are scaled once; a block passed between
        targets k and k + 1 gets its zone at ``depth + k + 1``, with the ties
        of that moment, and the grid is carried to the next scan."""
        nc, i0 = grid.cstart.size, grid.canonical.shape[0] - 1
        rl, cl = self.rows.label, self.cols.label
        pr, pc = np.ones(rl.size, complex), np.ones(cl.size, complex)
        rstart, rsize = grid.rstart.tolist(), grid.rsize.tolist()
        cstart, csize = grid.cstart.tolist(), grid.csize.tolist()
        f0 = (i0 - i) * nc + j
        history = [(rl, cl)]  # the labels before every step, and after the run
        run = []  # (scan position, |b|) per target
        for f in (f0 + np.flatnonzero(~grid.canonical[i0::-1].ravel()[f0:])).tolist():
            i, j = i0 - f // nc, f % nc
            if rsize[i] != 1 or csize[j] != 1:
                break
            a, c = rl[i], cl[j]
            if a == c:  # tied by this run, so canonical
                continue
            b = pr[i].conjugate() * self.A[rstart[i], cstart[j]] * pc[j]
            s = abs(b)
            if not s > self.tol.abs:
                break
            rows, cols = rl == a, cl == a
            pr[rows] *= b / s
            pc[cols] *= b / s
            rl = np.where(rows | (rl == c), self.labels, rl)
            cl = np.where(cols | (cl == c), self.labels, cl)
            self.labels += 1
            history.append((rl, cl))
            run.append((f, float(s)))
        if not run:
            return False
        p, q = np.repeat(pr, self.rows.size), np.repeat(pc, self.cols.size)
        self.A = p.conj()[:, None] * self.A * q
        self.R, self.S = self.R * p, self.S * q
        targets, values = zip(*run)
        tf = np.array(targets)
        ti, tj = i0 - tf // nc, tf % nc
        self.A[grid.rstart[ti], grid.cstart[tj]] = values
        # unowned blocks from first target to last: no zone holds a target
        at = f0 + np.flatnonzero(grid.owner[i0::-1].ravel()[f0 : tf[-1] + 1] < 0)
        k = np.searchsorted(tf, at)  # steps of the run made before each
        i, j = i0 - at // nc, at % nc
        rls, cls = (np.array(x) for x in zip(*history))
        tied = rls[k, i] == cls[k, j]
        self._install(grid, i, j, (depth + k).tolist(), tied, tf[k] == at)
        self.rows, self.cols = self.rows._replace(label=rl), self.cols._replace(label=cl)
        self.steps += [
            StepRecord("equivalence", (r, 1), (c, 1), ((v, 1),), (1,), (1,))
            for r, c, v in zip(grid.rstart[ti].tolist(), grid.cstart[tj].tolist(), values)
        ]
        # the run ties 1x1 blocks only, and a tied 1x1 block is canonical
        n = int(ti[-1]) + 1  # the next scan resumes on the last target's row
        tied = rl[:n, None] == cl
        self.grid = grid._replace(
            rstart=grid.rstart[:n], rsize=grid.rsize[:n], tied=tied,
            canonical=grid.canonical[:n] | (tied & ~grid.tied[:n]),
            owner=self.owner[grid.rstart[:n, None], grid.cstart])
        self.cursor = (-rstart[ti[-1]], cstart[tj[-1]])
        return True

    def derive(self) -> bool:
        """One step, or one run of phase steps, of the iteration.  Returns
        False at the fixpoint."""
        if self.done:
            return False
        depth = len(self.steps)
        # blocks below the cursor's row stay canonical: the grid stops there
        grid = self.grid or self._grid(np.searchsorted(self.rows.start, -self.cursor[0], "right"))
        self.grid = None
        target = self.first_changing_block(grid, depth)
        if target is None:
            self._merge_zero_zones()
            self.A = self._snap()[-1]
            self.done = True
            return False
        i, j = target
        # a tied 1x1 block is canonical, so a 1x1 target starts a phase run
        if grid.rsize[i] == grid.csize[j] == 1 and self._phase_run(grid, i, j, depth):
            return True
        self._reduce(i, j, depth, bool(grid.tied[i, j]))
        # resume at the block of the last row piece and the first column
        # piece of the target: every block before it preceded the target
        step = self.steps[-1]
        self.cursor = (step.row_pieces[-1] - sum(step.row_block), step.col_block[0])
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
        for subs, info in ((self.rows, row_info), (self.cols, col_info)):
            for start, size, strip, label in zip(*(x.tolist() for x in subs)):
                info[strip].append((start, size, labels.setdefault(label, len(labels) + 1)))
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
    while state.derive():
        if len(state.steps) > limit:
            raise NoConvergenceError(
                f"reduction did not converge after {len(state.steps)} steps"
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
    # per class, in order of first appearance (the order of its label): its
    # size, and the starts of its substrips per axis and strip
    by_class: dict = {}
    for axis, strips in enumerate((trace.row_substrips, trace.col_substrips)):
        for i, subs in enumerate(strips):
            for start, size, label in subs:
                _, starts = by_class.setdefault(
                    label, (size, ([[] for _ in M.row_strips], [[] for _ in M.col_strips]))
                )
                starts[axis][i].append(start)
    out = []
    for mult, starts in by_class.values():
        rows, cols = ([s for v in side for s in v] for side in starts)
        P = MarkedBlockMatrix(*(tuple(map(len, side)) for side in starts),
                              canonical.entries[np.ix_(rows, cols)], M.marked)
        # equal canonical matrices are the same class: merge them
        for k, (Q, qm) in enumerate(out):
            if (P.row_strips, P.col_strips) == (Q.row_strips, Q.col_strips) and same_form(
                P.entries, Q.entries, tol
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
