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
it cuts fresh labels.  Each scan decides "is this block canonical" for the
substrip grid, down to the row where it resumes, in one array pass
(:meth:`ReductionState._grid`): the tied-block mask, the diagonal mean of
every tied block, every block's residual against its canonical part and the
zone owning it, all as numpy arrays.

Zones are records ``(depth, row, height, col, width, stairs)`` with the
stairs as sizes, expanded into cells only when a :class:`Zone` is built.

The engine's bookkeeping rests on three invariants, which the tests check:

* blocks before the last target, in scan order, stay canonical under every
  later admissible transformation (the stabilizer property), so each scan
  resumes at a cursor instead of the first block;
* zones are disjoint unions of current blocks, so the owner map's entry
  (zone id per cell) at a block's first cell tells whether a zone holds it;
* a phase step (a 1x1 target that ties its two classes) divides nothing,
  and admissible transformations keep ``‖B‖_F`` of untied blocks and
  ``‖B - λI‖_F`` of tied ones, so every block but the target and the 1x1
  blocks the step ties keeps its flag: one grid serves a whole scan, which
  makes the phase steps on its way in one pass, skips the blocks they tie
  and stops at the next block that still changes.

The engine reduces a batch of matrices of one problem (equal strips and
marks) at once, and :func:`canonicalize` is the batch of one.  The members
share every decision: each canonical flag, each phase step's threshold test
and each kernel's piece sizes must agree, so the substrips, labels, zones,
owner map, cursor and scan are the batch's, and only the entries, the
transcripts and the step values are the members' own (stacked, so each
array pass runs once for the batch).  At the first decision on which the
members differ, each member is reduced on its own instead, from its input,
and its result is exactly that of a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product
from operator import index
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
    "tie_closure",
    "apply_admissible",
    "random_transcript",
    "canonicalize",
    "block_direct_sum",
    "decompose",
    "same_canonical",
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


def _integers(values, error, what: str) -> tuple:
    """``values`` as a tuple of ints; an int or a numpy integer passes, and
    any other value (1.9, 2.0, "2") raises ``error`` naming ``what``."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise error(f"{what} {values}: a value is not an integer") from None


@dataclass(frozen=True)
class MarkedBlockMatrix:
    """Block matrix with strip partitions and marked (square) blocks.

    ``marked`` holds 0-based ``(i, j)`` block indices; the JSON form is
    1-based.  Construction raises on a strip size that is not a non-negative
    integer, on strips that do not match the shape of the entries, on a NaN
    or infinite entry, and on a mark that is not two integers, is out of
    range or is not square."""

    row_strips: tuple[int, ...]
    col_strips: tuple[int, ...]
    entries: np.ndarray
    marked: frozenset = frozenset()

    def __post_init__(self):
        for name, axis in (("row_strips", "row"), ("col_strips", "column")):
            sizes = _integers(getattr(self, name), DimensionMismatchError, f"{axis} strips")
            if any(k < 0 for k in sizes):
                raise DimensionMismatchError(f"{axis} strips {sizes}: a strip size is negative")
            object.__setattr__(self, name, sizes)
        rows, cols = self.row_strips, self.col_strips
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (sum(rows), sum(cols)):
            raise DimensionMismatchError(
                f"entries shape {e.shape} does not match strips {rows} x {cols}"
            )
        _check_finite(e)
        object.__setattr__(self, "entries", e)
        marked = frozenset(_integers(x, DimensionMismatchError, "marked block")
                           for x in self.marked)
        for i, j in marked:
            if not (0 <= i < len(rows) and 0 <= j < len(cols)):
                raise DimensionMismatchError(f"marked block ({i},{j}) out of range")
            if rows[i] != cols[j]:
                raise MarkedBlockNotSquareError(
                    f"marked block ({i},{j}) has shape {rows[i]}x{cols[j]}"
                )
        object.__setattr__(self, "marked", marked)

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
        rows = _integers(data["row_strips"], DimensionMismatchError, "row strips")
        cols = _integers(data["col_strips"], DimensionMismatchError, "column strips")
        entries = _shaped(matrix_from_json(data["entries"]), (sum(rows), sum(cols)))
        marked = frozenset(_cell(x, "mark ") for x in data.get("marked", []))
        return cls(rows, cols, entries, marked)


def _cell(x, holder: str) -> tuple:
    """The 1-based JSON cell x as a 0-based pair; a ValueError names x and its holder if not."""
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise ValueError(f"{holder}{x!r} is not a [row, col] pair")
    return tuple(v - 1 for v in _integers(x, ValueError, holder.strip()))


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
    finite = np.isfinite(E)
    if not finite.all():
        r, c = np.argwhere(~finite)[0].tolist()
        raise ValueError(f"{what} ({r + 1},{c + 1}) is not finite: {E[r, c]}")


def _find(parent, x):
    """The root of x in the union-find ``parent``, a list or a dict that maps
    every item to its parent (a root to itself), with path halving."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _classes(items, pairs) -> list:
    """The classes of ``items`` under the equivalence the ``pairs`` of items
    generate, each a list in the order of ``items``, ordered by their first
    member."""
    parent = {x: x for x in items}
    for a, b in pairs:
        parent[_find(parent, a)] = _find(parent, b)
    classes: dict = {}
    for x in items:
        classes.setdefault(_find(parent, x), []).append(x)
    return list(classes.values())


def tie_closure(M: MarkedBlockMatrix) -> tuple[frozenset, ...]:
    """Partition of the row and column strip slots ``('r', i)`` and
    ``('c', j)`` into classes: two slots share a class iff a chain of marks
    ties them."""
    slots = [("r", i) for i in range(len(M.row_strips))] + [
        ("c", j) for j in range(len(M.col_strips))
    ]
    marks = [(("r", i), ("c", j)) for i, j in M.marked]
    return tuple(map(frozenset, _classes(slots, marks)))


@dataclass(frozen=True)
class Transcript:
    """Per-strip unitaries (R, S) with R^-1 A S the transformed matrix."""

    R: tuple
    S: tuple

    def full_matrices(self):
        return _blockdiag(self.R), _blockdiag(self.S)


def _blockdiag(blocks):
    o = _offsets([len(b) for b in blocks])
    out = np.zeros((o[-1], o[-1]), dtype=complex)
    for b, start, stop in zip(blocks, o, o[1:]):
        out[start:stop, start:stop] = b
    return out


def apply_admissible(
    M: MarkedBlockMatrix, T: Transcript, tol: Tolerance = Tolerance()
) -> MarkedBlockMatrix:
    if len(T.R) != len(M.row_strips) or len(T.S) != len(M.col_strips):
        raise DimensionMismatchError("transcript does not match strip counts")
    for name, blocks, sizes in (("R", T.R, M.row_strips), ("S", T.S, M.col_strips)):
        for k, (b, s) in enumerate(zip(blocks, sizes)):
            if b.shape != (s, s):
                raise DimensionMismatchError(f"{name}[{k}] has shape {b.shape}, expected {s}")
    for i, j in M.marked:
        # unitaries have spectral norm 1: the bound of a unit scalar, at size
        if np.linalg.norm(T.R[i] - T.S[j]) > tol.bound(1.0, M.row_strips[i]):
            raise TieViolationError(f"R[{i}] != S[{j}] on marked block ({i},{j})")
    R, S = T.full_matrices()
    return MarkedBlockMatrix(
        M.row_strips, M.col_strips, R.conj().T @ M.entries @ S, M.marked
    )


def random_transcript(M: MarkedBlockMatrix, seed=None) -> Transcript:
    """Random tie-respecting admissible transformation."""
    rng = np.random.default_rng(seed)
    unitaries = {}
    for c in tie_closure(M):
        axis, k = min(c)  # the first slot of the class sets its size
        size = (M.row_strips if axis == "r" else M.col_strips)[k]
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
    """Canonical part installed at one point of the reduction: its block
    Bl(Z) and every cell it owns, which include the blocks the merge rule
    gave it."""

    depth: int
    kind: str  # "equivalence" | "similarity"
    block: tuple  # (row_start, row_size, col_start, col_size) of Bl(Z)
    cells: frozenset = field(default_factory=frozenset)
    stairs: tuple = ()  # for similarity zones: groups of diagonal cells


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
    """A reduction's steps in order, its substrips and its zones.

    The trace holds what the zones are built from: the zone records (stairs
    as sizes, see :class:`ReductionState`), the owner map, the propagated
    boundaries and a mask of the merge candidates by zone id.  Zones are
    read per rectangle of whole strips by :meth:`zones_in`; ``zones``, the
    whole matrix read this way, is cached."""

    steps: list
    row_substrips: list  # per original strip: list of (start, size, class label)
    col_substrips: list
    num_classes: int
    # (records, owner, propagated, whether a zone id is a merge candidate)
    _book: tuple = field(repr=False, compare=False)

    @cached_property
    def zones(self) -> list:
        return self.zones_in(slice(None), slice(None))

    def zones_in(self, rows: slice, cols: slice) -> list:
        """The zones of ``rows`` x ``cols``, a rectangle of whole strips (a
        zone lies in one block of the strip grid), sorted by ``(depth,
        block)``, their blocks, cells and stairs in its coordinates.  One
        stable sort groups the cells of every owner; the merge rule runs
        over the candidates inside the rectangle, and not at all if it
        holds none (a merge never leaves its strip block, so no other
        candidate changes them), and each absorbed zone's cells join its
        root's."""
        records, owner, propagated, candidate = self._book
        owner, r0, c0 = owner[rows, cols], rows.start or 0, cols.start or 0
        ids, shape = owner.ravel(), owner.shape
        if not ids.size:
            return []
        order = ids.argsort(kind="stable")  # the cells of every owner, in row-major order
        ids = ids[order]
        first = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()]  # where an owner begins
        heads = ids[first]  # the owners, ascending
        if len(first) == ids.size:  # one cell per owner
            cells = dict(zip(owner.ravel().tolist(), map(frozenset, zip(product(*map(range, shape))))))
        else:
            owned = list(zip(*(x.tolist() for x in np.divmod(order, shape[1]))))
            cells = dict(zip(heads.tolist(), map(frozenset, map(
                owned.__getitem__, map(slice, first, [*first[1:], ids.size])))))
        candidates = heads[candidate[heads]].tolist()  # a candidate owns its block
        if candidates:
            into = _merge_zero_zones(records, owner, (r0, c0), propagated, candidates)
            # an absorbed zone's cells join its root's, built in row-major
            # order as grouped ones are: fill_general_position iterates them
            for zid in candidates:
                if (root := _find(into, zid)) != zid:
                    cells[root] = frozenset(sorted(cells[root] | cells.pop(zid)))
        cells.pop(-1, None)  # the unowned cells
        zones = []
        # records (depth, row, height, col, width, stairs) sort by (depth,
        # block); the blocks of one rectangle differ, so stairs never compare
        for zid in sorted(cells, key=records.__getitem__):
            depth, r, h, c, w, stairs = records[zid]
            r, c = r - r0, c - c0
            if stairs is False:
                kind, stairs = "equivalence", ()
            elif h == 1:
                kind, stairs = "similarity", (((r, c),),)
            else:  # stair sizes down the diagonal; True is one stair
                diagonal = zip(range(r, r + h), range(c, c + w))
                kind, stairs = "similarity", tuple(
                    tuple(islice(diagonal, k)) for k in ((h,) if stairs is True else stairs))
            zones.append(Zone(depth, kind, (r, h, c, w), cells[zid], stairs))
        return zones


def _merge_zero_zones(zones, owner, corner, propagated, candidates) -> list:
    """Merge rule on ``owner``, the unmerged owner map of a rectangle of
    whole strips whose first cell is ``corner``, which it only reads: an
    all-zero block that was never itself reduced (a candidate, in zone
    order) joins the zone of its neighbour across a propagated division
    boundary; one pass in zone order settles chains.  A propagated boundary
    lies strictly inside a strip, so the neighbour, and every zone a
    candidate joins, lies in the candidate's strip block: the candidates of
    the rectangle settle it.  Returns the pointers ``into``: an absorbed
    zone points at the zone that absorbed it, and ``_find(into, zid)`` is
    the root that holds zid's cells."""
    (r0, c0), n = corner, owner.shape[1]
    rows, cols, flat = propagated["r"], propagated["c"], owner.ravel().tolist()
    # the owners of the unmerged map are read through the pointers
    into = list(range(len(zones)))
    for zid in candidates:
        r, h, c, w = zones[zid][1:5]
        at = (r - r0) * n + c - c0
        # the neighbour cells left, right, above and below across
        # propagated boundaries, which lie strictly inside the strip block
        for cell in (at - 1 if c in cols else None, at + w if c + w in cols else None,
                     at - n if r in rows else None, at + h * n if r + h in rows else None):
            tid = -1 if cell is None else flat[cell]
            if tid >= 0 and (tid := _find(into, tid)) != zid:
                into[zid] = tid
                break
    return into


class _Subs(NamedTuple):
    """The substrips of one axis in order: runs of rows (or columns) inside
    one strip, which tile the axis.  Steps replace these arrays and never
    write into them, so a scan can keep the labels before each of its phase
    steps."""

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


class _Diverged(Exception):
    """The members of a batch decide a step differently."""


class ReductionState:
    """Single-owner mutable state of the derived-matrix iteration, for a
    batch ``Ms`` of matrices of one problem (equal strips and marks).

    It reduces copies of the members' entries, stacked as ``A`` (K x m x n,
    with the transcripts ``R`` and ``S`` likewise), and decides at the
    absolute ``tol.abs``; :func:`canonicalize` is the scale-relative entry
    point, which divides each member by its input's norm before the first
    step.  The members share every decision, and everything but ``A``,
    ``R``, ``S`` and the step values: ``steps`` holds one list per member,
    equal but for the values.  A step on which the members decide
    differently (a canonical flag of the grid, a phase step's threshold
    test, a kernel's piece sizes) raises :class:`_Diverged`, on which
    :func:`_canonicalize_batch` drops the state and reduces each member on
    its own.  A zone is a record ``(depth, row, height, col, width,
    stairs)``, stairs False for an equivalence zone, True for one stair
    down a square block's diagonal, else the stair sizes of a similarity
    step; the owner map (zone id per cell) holds the cells it owns.
    :meth:`trace` hands both, unmerged, to the members' traces, which run
    the merge rule and build the :class:`Zone` objects, stairs as cells,
    per rectangle read."""

    def __init__(self, Ms, tol: Tolerance = Tolerance()):
        M = Ms[0]
        problem = (M.row_strips, M.col_strips, M.marked)
        if any((N.row_strips, N.col_strips, N.marked) != problem for N in Ms[1:]):
            raise ShapeMismatchError("a batch holds matrices of one problem")
        classes = tie_closure(M)
        label = {slot: k for k, c in enumerate(classes) for slot in c}
        self.M = M  # the first member; the others share its strips and marks
        self.tol = tol
        self.A = np.array([N.entries for N in Ms])  # copies, complex as construction makes them
        K, m, n = self.A.shape
        # identity stacks, which _apply copies; R and S start as them, and
        # every step replaces R and S, never writing into them
        self._eye = self.R, self.S = tuple(np.eye(k, dtype=complex)[None].repeat(K, 0) for k in (m, n))
        self.rows = _substrips(M.row_strips, [label["r", i] for i in range(len(M.row_strips))])
        self.cols = _substrips(M.col_strips, [label["c", j] for j in range(len(M.col_strips))])
        self.labels = len(classes)  # labels handed out; the next one is fresh
        self.steps: list[list[StepRecord]] = [[] for _ in Ms]
        self.zones: list[tuple] = []  # zone records, indexed by zone id
        self.owner = np.full((m, n), -1, dtype=np.intp)  # zone id per cell
        self._zero_candidates: list[int] = []
        self.cursor = (-m, 0)  # scan key (-row start, col start) of the next scan
        # per axis, offsets of boundaries cut in substrips other than the target's
        self.propagated = {"r": set(), "c": set()}
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
        A = self.A[:, : rstart[-1] + rsize[-1] if rstart.size else 0]
        tied = self.rows.label[:nrows, None] == self.cols.label
        # tied blocks are square; summing the diagonals of equal-sized ones
        # as rows adds in np.mean's order, so each λ is bit-identical to it
        means = np.zeros((len(A), *tied.shape), dtype=complex)
        eye = np.zeros(A.shape[1:])  # 1 on the diagonal of every tied block
        ti, tj = np.nonzero(tied)
        for k in set(rsize[ti].tolist()):
            at = np.flatnonzero(rsize[ti] == k)
            i, j, t = ti[at], tj[at], np.arange(k)
            r, c = rstart[i, None] + t, cstart[j, None] + t
            means[:, i, j] = np.add.reduce(A[:, r, c], axis=2) / k
            eye[r, c] = 1.0
        snapped = np.repeat(np.repeat(means, rsize, axis=1), csize, axis=2) * eye
        return A, rstart, rsize, cstart, csize, tied, snapped

    def _grid(self, nrows=None) -> _Grid:
        """Decide, for every block of the first ``nrows`` row substrips (all
        by default) at once, whether it is canonical; raise
        :class:`_Diverged` unless every member decides every block alike.

        A block between tied substrips is canonical when ``‖B - λI‖_F <=
        tol.abs * max(1, size)`` with λ the mean of its diagonal; any other
        block when ``‖B‖_F <= tol.abs * max(1, sqrt(rows * cols))``."""
        A, rstart, rsize, cstart, csize, tied, snapped = self._snap(nrows)
        D = A - snapped
        sq = np.add.reduceat(
            np.add.reduceat(D.real**2 + D.imag**2, rstart, axis=1), cstart, axis=2
        )
        # a tied block is square, so its limit is tol.abs * max(1, size)
        limit = self.tol.abs * np.maximum(1.0, np.sqrt(rsize[:, None] * csize))
        canonical = np.sqrt(sq) <= limit
        if len(canonical) > 1 and (canonical[1:] != canonical[0]).any():
            raise _Diverged
        # zones are unions of blocks, so a block's first cell names its zone
        owner = self.owner[rstart[:, None], cstart]
        return _Grid(rstart, rsize, cstart, csize, tied, canonical[0], owner)

    # -- zone bookkeeping ----------------------------------------------
    def _install(self, grid: _Grid, i, j, depths, tied, reduced) -> None:
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
        self.zones += zip(depths, grid.rstart[i].tolist(), grid.rsize[i].tolist(),
                          grid.cstart[j].tolist(), grid.csize[j].tolist(), tied.tolist())
        self._zero_candidates += (zid + np.flatnonzero(~tied & ~reduced)).tolist()

    # -- transformations -----------------------------------------------
    def _apply(self, classes):
        """Apply, for each ``(label, W)`` in ``classes``, the unitary W[k] to
        every substrip of tie class ``label`` of member k; accumulate
        transcripts."""
        P, Q = (I.copy() for I in self._eye)
        unitary = dict(classes)
        for X, subs in ((P, self.rows), (Q, self.cols)):
            for s, k, label in zip(*(v.tolist() for v in (subs.start, subs.size, subs.label))):
                if label in unitary:
                    X[:, s : s + k, s : s + k] = unitary[label]
        self.A = P.conj().transpose(0, 2, 1) @ self.A @ Q
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
            left = W.shape[-1] - sum(sizes)
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
        form, by the kernel of each member; raise :class:`_Diverged` unless
        their piece sizes agree.  Only the kernel and the zone depend on the
        kind: a tied block keeps its one class, with S of
        :func:`simil_step`, and snaps the staircase of pieces ``a >= b``; an
        untied block transforms its row class by U and its column class by V
        of the SVD, each with a leftover piece for the zero singular values,
        and snaps the whole block.  Piece a is then tied across all classes,
        and each leftover within its own class."""
        r0, h = int(self.rows.start[i]), int(self.rows.size[i])
        c0, w = int(self.cols.start[j]), int(self.cols.size[j])
        rows, cols = slice(r0, r0 + h), slice(c0, c0 + w)
        values, unitaries = [], []  # per member
        for X in self.A:
            B = X[rows, cols]
            if tied:
                lams, sizes, S = simil_step(B, self.tol)
                values.append(list(zip(lams, sizes)))
                unitaries.append((S,))
            else:
                U, s, Vh = _svd(B)
                clusters = cluster_complex(s[s > self.tol.abs], self.tol)
                values.append([(rep.real, len(m)) for rep, m in clusters])
                unitaries.append((U, Vh))
        sizes = [k for _, k in values[0]]
        if any([k for _, k in v] != sizes for v in values[1:]):
            raise _Diverged
        W = [np.array(w) for w in zip(*unitaries)]  # per factor, the members' stack
        if tied:
            kind, classes = "similarity", [(int(self.rows.label[i]), W[0])]
            piece = np.repeat(np.arange(len(sizes)), sizes)
            zone, stairs = piece[:, None] >= piece, tuple(sizes)
        else:
            kind, zone, stairs = "equivalence", ..., False
            classes = [(int(self.rows.label[i]), W[0]),
                       (int(self.cols.label[j]), W[1].conj().transpose(0, 2, 1))]
        r = sum(sizes)
        self._apply(classes)
        n = self.A.shape[2]  # the block's diagonal: every (n + 1)-th entry from its corner
        at = r0 * n + c0
        for X, vals in zip(self.A, values):
            X[rows, cols][zone] = 0.0
            X.flat[at : at + r * (n + 1) : n + 1] = [v for v, k in vals for _ in range(k)]
        self.owner[rows, cols][zone] = len(self.zones)
        self.zones.append((depth, r0, h, c0, w, stairs))
        left = ((0.0, h - r),) if h > r else ()
        pieces = self._divide(classes, sizes, i, j)  # a tied block's one class cuts both sides
        for steps, vals in zip(self.steps, values):
            steps.append(StepRecord(kind, (r0, h), (c0, w), (*vals, *left), pieces[0], pieces[-1]))

    def _scan(self, grid: _Grid, depth: int):
        """Walk ``grid`` in scan order from the cursor on, making every phase
        step on the way, and return the first other non-canonical block as
        ``(i, j)``, or None at the end.

        A phase step's target is a non-canonical 1x1 block whose classes the
        scan has not yet joined.  Its value b is read through the phases so
        far, the row class's phases are multiplied by b / |b| (the U of its
        SVD; V is 1) and the classes are joined; each member does this with
        its own b, and :class:`_Diverged` is raised unless every |b| is on
        the same side of the threshold.  A larger block, or a value at the
        threshold, ends the scan; the 1x1 blocks it has tied are passed, the
        rest of a long run of them in one array pass.  A, R and S are scaled
        once, and every unowned block passed gets its zone, in one batch, at
        ``depth + k`` (k steps made before it) with the ties of that moment.
        ``grid`` covers the rows up to the cursor's (the scan never goes
        below it)."""
        row, col = self.cursor
        nc, i0 = grid.cstart.size, grid.canonical.shape[0] - 1
        on_row = i0 >= 0 and grid.rstart[i0] == -row
        f0 = int(np.searchsorted(grid.cstart, col)) if on_row else 0
        # the tie-class label of every row substrip, then of every column
        # substrip (column j at nr + j), and each member's phases of them
        nr = self.rows.label.size
        label = np.concatenate((self.rows.label, self.cols.label))
        phase = np.ones((len(self.A), label.size), complex)
        rstart, rsize = grid.rstart.tolist(), grid.rsize.tolist()
        cstart, csize = grid.cstart.tolist(), grid.csize.tolist()
        # flags of rows i0, i0 - 1, ..., 0 in turn, each left to right
        canonical = grid.canonical[i0::-1].ravel()
        history = [label]  # the labels before every step, and after the scan
        targets, values = [], [[] for _ in self.steps]  # scan positions; each member's |b| per target
        # each member's entries, its row of phases (its phase steps scale it
        # in place) and its values
        members = list(zip(self.A, phase, values))
        stops = f0 + np.flatnonzero(~canonical[f0:])
        walk, run = enumerate(stops.tolist()), 0
        for k, stop in walk:
            i, j = i0 - stop // nc, stop % nc
            if rsize[i] != 1 or csize[j] != 1:
                break
            a, c = label[i], label[nr + j]
            if a == c:  # tied by this scan, so canonical
                run += 1
                if run == 8:  # a long run: pass its other 1x1 blocks in one array pass
                    rest = stops[k + 1 :]
                    ri, cj = i0 - rest // nc, rest % nc
                    left = np.flatnonzero((label[ri] != label[nr + cj])
                                          | (grid.rsize[ri] * grid.csize[cj] != 1))
                    for _ in islice(walk, int(left[0]) if left.size else rest.size):
                        pass
                continue
            run = 0
            joined, over = label == a, None
            for X, p, v in members:
                b = p[i].conjugate() * X[rstart[i], cstart[j]] * p[nr + j]
                s = abs(b)
                if over is None:
                    over = s > self.tol.abs
                elif over != (s > self.tol.abs):
                    raise _Diverged  # the state is dropped, phases scaled so far included
                if over:
                    p[joined] *= b / s
                    v.append(float(s))
            if not over:
                break
            label = np.where(joined | (label == c), self.labels, label)
            self.labels += 1
            history.append(label)
            targets.append(stop)
        else:
            stop = canonical.size  # the scan reached the end
        tf = np.array(targets, np.intp)
        at = f0 + np.flatnonzero(grid.owner[i0::-1].ravel()[f0:stop] < 0)
        if at.size:
            k = np.searchsorted(tf, at)  # steps made before each passed block
            i, j = i0 - at // nc, at % nc
            labels = np.array(history)
            reduced = np.searchsorted(tf, at, "right") > k
            self._install(grid, i, j, (depth + k).tolist(), labels[k, i] == labels[k, nr + j], reduced)
        if targets:
            p = np.repeat(phase[:, :nr], self.rows.size, axis=1)
            q = np.repeat(phase[:, nr:], self.cols.size, axis=1)
            self.A = p.conj()[:, :, None] * self.A * q[:, None]
            self.R, self.S = self.R * p[:, None], self.S * q[:, None]
            ti, tj = i0 - tf // nc, tf % nc
            rows, cols = grid.rstart[ti], grid.cstart[tj]
            self.A[:, rows, cols] = values
            self.rows = self.rows._replace(label=label[:nr])
            self.cols = self.cols._replace(label=label[nr:])
            blocks = list(zip(rows.tolist(), cols.tolist()))
            for steps, vals in zip(self.steps, values):
                steps += [StepRecord("equivalence", (r, 1), (c, 1), ((v, 1),), (1,), (1,))
                          for (r, c), v in zip(blocks, vals)]
        return None if stop == canonical.size else (i0 - stop // nc, stop % nc)

    def derive(self) -> bool:
        """One scan of the iteration: the phase steps on its way and the
        reduction of the block it stops at, or, if it reaches the end, the
        final snap.  Returns whether the call made a step; False at the fixpoint."""
        if self.done:
            return False
        depth = len(self.steps[0])
        # blocks below the cursor's row stay canonical: the grid stops there
        grid = self._grid(np.searchsorted(self.rows.start, -self.cursor[0], "right"))
        target = self._scan(grid, depth)
        if target is None:
            self.A = self._snap()[-1]
            self.done = True
            return len(self.steps[0]) > depth
        i, j = target
        self._reduce(i, j, len(self.steps[0]), bool(grid.tied[i, j]))
        # resume at the block of the last row piece and the first column
        # piece of the target: every block before it preceded the target
        step = self.steps[0][-1]
        self.cursor = (step.row_pieces[-1] - sum(step.row_block), step.col_block[0])
        return True

    def trace(self) -> list:
        """The members' traces, in order; they share the substrips and the
        zone book, which only they read."""
        # classes are numbered from 1 in order of first appearance
        labels: dict = {}
        row_info = [[] for _ in self.M.row_strips]
        col_info = [[] for _ in self.M.col_strips]
        for subs, info in ((self.rows, row_info), (self.cols, col_info)):
            for start, size, strip, label in zip(*(x.tolist() for x in subs)):
                info[strip].append((start, size, labels.setdefault(label, len(labels) + 1)))
        candidate = np.zeros(len(self.zones) + 1, bool)  # by zone id; -1 (unowned) is none
        candidate[self._zero_candidates] = True
        book = (list(self.zones), self.owner.copy(), {k: set(v) for k, v in self.propagated.items()},
                candidate)  # a snapshot: the engine grows these in place
        return [ReductionTrace(list(steps), row_info, col_info, len(labels), book)
                for steps in self.steps]


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

    Returns ``(canonical, transcript, trace)``.  The engine reduces its copy
    of M's entries divided by s = ``||M.entries||_F`` (unless s is 0; M's
    entries are finite, as its construction checks, so s is too), so no
    second matrix is built or checked, and every decision is relative
    to s and the form of ``c * M`` is c times the form of M; the form and the
    step values are scaled back by s.  ``apply_admissible(M, transcript)``
    equals ``canonical`` within ``10 * n * tol.abs * s`` in the Frobenius
    norm (n the larger side); every call checks this certificate and raises
    :class:`CertificationError` when it fails.  It is the batch of one of
    :func:`_canonicalize_batch`."""
    return _canonicalize_batch((M,), tol)[0]


def _canonicalize_batch(Ms, tol: Tolerance) -> list:
    """:func:`canonicalize` of every member of ``Ms``, matrices of one
    problem, in order, from one reduction of the batch: each member is
    divided by its own norm, certified and scaled back on its own.  When the
    members decide a step differently, each member is reduced as a batch of
    one instead, so every result is that of :func:`canonicalize`."""
    scales = [frobenius(M.entries) for M in Ms]
    state = ReductionState(Ms, tol)
    for X, s in zip(state.A, scales):
        X /= s or 1.0
    limit = 4 * max(1, Ms[0].entries.size) + 8
    try:
        while state.derive():
            if len(state.steps[0]) > limit:
                raise NoConvergenceError(
                    f"reduction did not converge after {len(state.steps[0])} steps"
                )
    except _Diverged:
        return [out for M in Ms for out in _canonicalize_batch((M,), tol)]
    out = []
    for M, s, A, R, S, trace in zip(Ms, scales, state.A, state.R, state.S, state.trace()):
        C = s * A
        _certify(M.entries, R, S, C, tol)
        T = Transcript(R=_diagonal_blocks(R, M.row_strips), S=_diagonal_blocks(S, M.col_strips))
        for step in trace.steps:
            step.values = tuple((v * s, k) for v, k in step.values)
        out.append((MarkedBlockMatrix(M.row_strips, M.col_strips, C, M.marked), T, trace))
    return out


def _diagonal_blocks(X: np.ndarray, sizes) -> tuple:
    o = _offsets(sizes)
    return tuple(X[o[k] : o[k + 1], o[k] : o[k + 1]].copy() for k in range(len(sizes)))


def block_direct_sum(M: MarkedBlockMatrix, N: MarkedBlockMatrix) -> MarkedBlockMatrix:
    axes = ((M.row_strips, N.row_strips), (M.col_strips, N.col_strips))
    if any(len(m) != len(n) for m, n in axes):
        raise ShapeMismatchError("block grids differ")
    if M.marked != N.marked:
        raise MarkMismatchError("marked sets differ")
    # every strip of the sum holds its rows (columns) of M, then those of N
    r, c = (np.repeat(np.tile([True, False], len(m)), [k for mn in zip(m, n) for k in mn])
            for m, n in axes)
    out = np.zeros((r.size, c.size), dtype=complex)
    out[np.ix_(r, c)] = M.entries
    out[np.ix_(~r, ~c)] = N.entries
    rows, cols = (tuple(map(sum, zip(m, n))) for m, n in axes)
    return MarkedBlockMatrix(rows, cols, out, M.marked)


def _summands(canonical: MarkedBlockMatrix, trace: ReductionTrace, tol: Tolerance) -> list:
    """The summands of one reduction: per class of equal canonical matrices,
    in order of first appearance, the packed summand and the canonical
    column indices of each of its copies (copy k takes column k of every
    substrip of its tie classes)."""
    # per class, in order of first appearance (the order of its label): its
    # size, and the starts of its substrips per axis and strip
    by_class: dict = {}
    for axis, strips in enumerate((trace.row_substrips, trace.col_substrips)):
        for i, subs in enumerate(strips):
            for start, size, label in subs:
                _, starts = by_class.setdefault(label, (size, (
                    [[] for _ in canonical.row_strips], [[] for _ in canonical.col_strips])))
                starts[axis][i].append(start)
    out = []
    for mult, starts in by_class.values():
        rows, cols = ([s for v in side for s in v] for side in starts)
        P = MarkedBlockMatrix(*(tuple(map(len, side)) for side in starts),
                              canonical.entries[np.ix_(rows, cols)], canonical.marked)
        copies = [np.array(cols, np.intp) + k for k in range(mult)]
        # equal canonical matrices are the same class: merge them
        for Q, qcopies in out:
            if same_canonical(P, Q, tol):
                qcopies += copies
                break
        else:
            out.append((P, copies))
    return out


def decompose(M: MarkedBlockMatrix, tol: Tolerance = Tolerance()):
    """Krull-Schmidt decomposition into canonical indecomposable summands
    with multiplicities."""
    canonical, _, trace = canonicalize(M, tol)
    return [(P, len(copies)) for P, copies in _summands(canonical, trace, tol)]


def same_canonical(C: MarkedBlockMatrix, D: MarkedBlockMatrix, tol: Tolerance = Tolerance()) -> bool:
    """Whether two canonical forms are the same: the same strip grid and
    marked blocks (the same problem), and :func:`numcore.same_form` on the
    entries, so every block is compared at the threshold of the whole
    matrix."""
    problem = (C.row_strips, C.col_strips, C.marked) == (D.row_strips, D.col_strips, D.marked)
    return problem and same_form(C.entries, D.entries, tol)


def _invariants_differ(M: MarkedBlockMatrix, N: MarkedBlockMatrix, tol: Tolerance = Tolerance()) -> bool:
    """Whether invariants of the admissible transformations show, without a
    reduction, that :func:`same_canonical` of the certified forms of M and N
    is False; a False answer decides nothing.  Matrices of different
    problems differ, as their forms do.

    A transformation maps the block X between row strip i and column strip
    j to U_aᴴ X U_b, a and b the tie classes of i and j.  So the Gram matrix
    ``tr(X_pᴴ X_q)`` of the blocks of each pair (a, b), and ``tr(X)`` of
    every tied block (a = b), are invariants; they are compared on M and N
    divided by ``s = max(‖M‖_F, ‖N‖_F)``, where every block has norm at
    most 1.

    The margin.  With n the larger side and δ = 10·n·tol.abs, a certified
    reduction's transcripts lie within δ of unitaries (their polar factors:
    ``|σ - 1| <= |σ² - 1|``), equal on tied strips, and ``‖RᴴMS - C‖_F <=
    δ‖M‖_F``; so its form C lies within ε‖M‖_F of an exact admissible image
    of M, ε = 3δ + δ².  ``same_form`` calls the forms equal within
    ``tol.abs · max(‖C_M‖, ‖C_N‖) <= tol.abs (1 + ε) s``.  Then exact images
    of M and N lie within Δs of each other, Δ = 2ε + tol.abs (1 + ε), and
    on them, divided by s, a Gram entry moves by at most
    ``‖X_p‖ Δ + Δ ‖Y_q‖ <= 2Δ`` and the trace of a k x k block by at most
    √k Δ.  An invariant differs only beyond max(2, √n) Δ, plus
    10·n·(size + 1)·eps for rounding: the invariants sum at most ``size``
    (M's entry count) products of numbers at most 1, and tied transcript
    blocks agree to a few eps per step."""
    if (M.row_strips, M.col_strips, M.marked) != (N.row_strips, N.col_strips, N.marked):
        return True
    s = max(frobenius(M.entries), frobenius(N.entries))
    if s == 0.0:
        return False
    n = max(1, *M.shape)
    d = 10 * n * tol.abs  # tol.bound(1.0, n)
    e = 3 * d + d * d
    margin = (max(2.0, np.sqrt(n)) * (2 * e + tol.abs * (1 + e))
              + 10 * n * (M.entries.size + 1) * np.finfo(float).eps)
    XY = np.stack((M.entries, N.entries)) / s
    # the tie class of every strip, then of every row and column
    label = {slot: k for k, c in enumerate(tie_closure(M)) for slot in c}
    rlab = [label["r", i] for i in range(len(M.row_strips))]
    clab = [label["c", j] for j in range(len(M.col_strips))]
    row_class, col_class = np.repeat(rlab, M.row_strips), np.repeat(clab, M.col_strips)
    for a in sorted(set(rlab)):
        rows, h = np.flatnonzero(row_class == a), M.row_strips[rlab.index(a)]
        for b in sorted(set(clab)):
            cols, w = np.flatnonzero(col_class == b), M.col_strips[clab.index(b)]
            if not (rows.size and cols.size):
                continue
            # V[0 or 1, p, q]: block (p, q) of the pair in M or in N
            V = XY[:, rows[:, None], cols].reshape(2, rows.size // h, h, cols.size // w, w)
            V = V.transpose(0, 1, 3, 2, 4)
            B = V.reshape(2, -1, h * w)  # one block per row
            G = B.conj() @ B.transpose(0, 2, 1)
            if np.abs(G[0] - G[1]).max() > margin:
                return True
            if a == b:
                t = np.trace(V, axis1=3, axis2=4)
                if np.abs(t[0] - t[1]).max() > margin:
                    return True
    return False


def _one_summand(trace: ReductionTrace) -> bool:
    """Whether the reduction behind ``trace`` found one summand of
    multiplicity 1 (:func:`decompose`'s rule): one tie class, of size 1."""
    subs = (*trace.row_substrips, *trace.col_substrips)
    return trace.num_classes == 1 and all(size == 1 for s in subs for _, size, _ in s)


def is_indecomposable(M: MarkedBlockMatrix, tol: Tolerance = Tolerance()) -> bool:
    if M.entries.shape == (0, 0):
        raise ZeroSizeError("the 0x0 matrix is not considered indecomposable")
    return _one_summand(canonicalize(M, tol)[2])
