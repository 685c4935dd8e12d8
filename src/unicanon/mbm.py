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

The engine's bookkeeping rests on two invariants, which the tests check:

* blocks before the last target, in scan order, stay canonical under every
  later admissible transformation (the stabilizer property), so each scan
  resumes at a cursor instead of the first block;
* zones are disjoint unions of current blocks, so an owner map from cells to
  zone ids answers "is this block inside a zone" with one slice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter

import numpy as np

from .numcore import Tolerance, cluster_values, random_unitary, same_form, simil_step

__all__ = [
    "MarkedBlockMatrix",
    "TieTable",
    "Transcript",
    "ReductionTrace",
    "ReductionState",
    "Zone",
    "MarkedBlockNotSquareError",
    "DimensionMismatchError",
    "ShapeMismatchError",
    "MarkMismatchError",
    "TieViolationError",
    "NoConvergenceError",
    "ZeroSizeError",
    "validate",
    "tie_closure",
    "apply_admissible",
    "random_transcript",
    "canonicalize",
    "block_direct_sum",
    "decompose",
    "is_indecomposable",
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

    def block(self, i: int, j: int) -> np.ndarray:
        ro = _offsets(self.row_strips)
        co = _offsets(self.col_strips)
        return self.entries[ro[i] : ro[i + 1], co[j] : co[j + 1]]

    def to_json(self) -> dict:
        return {
            "row_strips": list(self.row_strips),
            "col_strips": list(self.col_strips),
            "marked": sorted([i + 1, j + 1] for i, j in self.marked),
            "entries": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.entries
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkedBlockMatrix":
        rows = tuple(data["row_strips"])
        cols = tuple(data["col_strips"])
        entries = np.array(
            [[complex(p[0], p[1]) for p in row] for row in data["entries"]],
            dtype=complex,
        ).reshape(sum(rows), sum(cols))
        marked = frozenset((i - 1, j - 1) for i, j in data.get("marked", []))
        return cls(rows, cols, entries, marked)


def validate(M: MarkedBlockMatrix) -> None:
    m, n = M.entries.shape
    if m != sum(M.row_strips) or n != sum(M.col_strips):
        raise DimensionMismatchError(
            f"entries shape {M.entries.shape} does not match strips "
            f"{M.row_strips} x {M.col_strips}"
        )
    for i, j in M.marked:
        if not (0 <= i < len(M.row_strips) and 0 <= j < len(M.col_strips)):
            raise DimensionMismatchError(f"marked block ({i},{j}) out of range")
        if M.row_strips[i] != M.col_strips[j]:
            raise MarkedBlockNotSquareError(
                f"marked block ({i},{j}) has shape "
                f"{M.row_strips[i]}x{M.col_strips[j]}"
            )


@dataclass(frozen=True)
class TieTable:
    """Partition of the row and column strip slots into classes.

    Slots are ``('r', i)`` and ``('c', j)``; two slots share a class iff a
    chain of marks ties them."""

    classes: tuple[frozenset, ...]

    def cls_of(self, slot):
        for c in self.classes:
            if slot in c:
                return c
        raise KeyError(slot)

    def tied(self, i: int, j: int) -> bool:
        return self.cls_of(("r", i)) is self.cls_of(("c", j))


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


def tie_closure(M: MarkedBlockMatrix) -> TieTable:
    validate(M)
    slots = [("r", i) for i in range(len(M.row_strips))] + [
        ("c", j) for j in range(len(M.col_strips))
    ]
    ties = DisjointSet(slots)
    for i, j in M.marked:
        ties.union(("r", i), ("c", j))
    return TieTable(classes=tuple(frozenset(g) for g in ties.groups(slots)))


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
    check = max(tol.abs, 1e-8)
    for i, j in M.marked:
        if np.linalg.norm(T.R[i] - T.S[j]) > check * max(1, M.row_strips[i]):
            raise TieViolationError(f"R[{i}] != S[{j}] on marked block ({i},{j})")
    R, S = _blockdiag(T.R), _blockdiag(T.S)
    return MarkedBlockMatrix(
        M.row_strips, M.col_strips, R.conj().T @ M.entries @ S, M.marked
    )


def random_transcript(M: MarkedBlockMatrix, seed=None) -> Transcript:
    """Random tie-respecting admissible transformation."""
    table = tie_closure(M)
    rng = np.random.default_rng(seed)
    unitaries = {}
    for c in table.classes:
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
    """A substrip: a contiguous run of rows or columns inside one strip."""

    __slots__ = ("axis", "strip", "start", "size")

    def __init__(self, axis, strip, start, size):
        self.axis = axis
        self.strip = strip
        self.start = start
        self.size = size

    def __repr__(self):  # pragma: no cover
        return f"Sub({self.axis}{self.strip}@{self.start}+{self.size})"


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
    steps: list
    zones: list
    row_substrips: list  # per original strip: list of (start, size, class label)
    col_substrips: list
    num_classes: int
    canonical_entries: np.ndarray = None


_start = attrgetter("start")


class ReductionState:
    """Single-owner mutable state of the derived-matrix iteration."""

    def __init__(self, M: MarkedBlockMatrix, tol: Tolerance = Tolerance()):
        validate(M)
        self.M = M
        self.tol = tol
        self.A = M.entries.astype(complex).copy()
        m, n = self.A.shape
        self.R = np.eye(m, dtype=complex)
        self.S = np.eye(n, dtype=complex)
        self.rows: list[_Sub] = []
        self.cols: list[_Sub] = []
        ro = _offsets(M.row_strips)
        co = _offsets(M.col_strips)
        strip_sub = {}
        for i, s in enumerate(M.row_strips):
            if s > 0:
                sub = _Sub("r", i, int(ro[i]), s)
                self.rows.append(sub)
                strip_sub[("r", i)] = sub
        for j, s in enumerate(M.col_strips):
            if s > 0:
                sub = _Sub("c", j, int(co[j]), s)
                self.cols.append(sub)
                strip_sub[("c", j)] = sub
        self.ties = DisjointSet(self.rows + self.cols)
        for i, j in M.marked:
            a = strip_sub.get(("r", i))
            b = strip_sub.get(("c", j))
            if a is not None and b is not None:
                self.ties.union(a, b)
        self.steps: list[StepRecord] = []
        # zone ids index ``zones``; a zone merged into another becomes None
        self.zones: list[Zone | None] = []
        self.owner = np.full((m, n), -1, dtype=np.intp)  # zone id per cell
        self._zero_candidates: list[int] = []
        self.cursor = (-m, 0)  # scan key (-row start, col start) of the next scan
        self.boundaries: dict = {}  # (axis, offset) -> "direct" | "propagated"
        self.done = False

    def _tied(self, a: _Sub, b: _Sub) -> bool:
        return self.ties.find(a) is self.ties.find(b)

    def _members(self, s: _Sub):
        root = self.ties.find(s)
        return [x for x in self.rows + self.cols if self.ties.find(x) is root]

    # -- block helpers -------------------------------------------------
    def _block(self, rs: _Sub, cs: _Sub) -> np.ndarray:
        return self.A[rs.start : rs.start + rs.size, cs.start : cs.start + cs.size]

    def _is_canonical(self, rs: _Sub, cs: _Sub) -> bool:
        B = self._block(rs, cs)
        if self._tied(rs, cs):
            lam = np.mean(np.diagonal(B))
            return np.linalg.norm(B - lam * np.eye(rs.size)) <= self.tol.abs * max(
                1.0, rs.size
            )
        return np.linalg.norm(B) <= self.tol.abs * max(1.0, (rs.size * cs.size) ** 0.5)

    def _blocks_from_cursor(self):
        """Blocks in scan order (bottom substrip row first, left to right),
        starting at the cursor."""
        row, col = self.cursor
        last = bisect.bisect_right(self.rows, -row, key=_start)
        first = bisect.bisect_left(self.cols, col, key=_start)
        for rs in reversed(self.rows[:last]):
            for cs in self.cols[first if rs.start == -row else 0 :]:
                yield rs, cs

    def first_changing_block(self, depth: int):
        """The first block from the cursor on that is not canonical, or None.

        Every canonical block passed on the way is put into a zone."""
        for rs, cs in self._blocks_from_cursor():
            if not self._is_canonical(rs, cs):
                return rs, cs
            self._candidate_zone(rs, cs, depth)
        return None

    # -- zone bookkeeping ----------------------------------------------
    def _contained(self, rs: _Sub, cs: _Sub) -> bool:
        o = self.owner[rs.start : rs.start + rs.size, cs.start : cs.start + cs.size]
        return o[0, 0] >= 0 and bool((o == o[0, 0]).all())

    def _add_zone(self, rects, **fields) -> int:
        """Install a zone owning the cells of ``rects`` ((r0, r1, c0, c1)
        each) and return its id."""
        zid = len(self.zones)
        cells = set()
        for r0, r1, c0, c1 in rects:
            self.owner[r0:r1, c0:c1] = zid
            cells.update(product(range(r0, r1), range(c0, c1)))
        self.zones.append(Zone(cells=frozenset(cells), **fields))
        return zid

    def _candidate_zone(self, rs: _Sub, cs: _Sub, depth: int):
        if self._contained(rs, cs):
            return
        block = (rs.start, rs.size, cs.start, cs.size)
        rect = [(rs.start, rs.start + rs.size, cs.start, cs.start + cs.size)]
        if self._tied(rs, cs):
            stair = tuple(
                (rs.start + t, cs.start + t) for t in range(rs.size)
            )
            self._add_zone(rect, depth=depth, kind="similarity", block=block,
                           stairs=(stair,))
        else:
            zid = self._add_zone(rect, depth=depth, kind="equivalence", block=block)
            self._zero_candidates.append(zid)

    # -- transformations -----------------------------------------------
    def _apply(self, row_updates, col_updates):
        """Apply per-substrip unitaries; accumulate transcripts."""
        m, n = self.A.shape
        P = np.eye(m, dtype=complex)
        Q = np.eye(n, dtype=complex)
        for sub, U in row_updates:
            P[sub.start : sub.start + sub.size, sub.start : sub.start + sub.size] = U
        for sub, U in col_updates:
            Q[sub.start : sub.start + sub.size, sub.start : sub.start + sub.size] = U
        self.A = P.conj().T @ self.A @ Q
        self.R = self.R @ P
        self.S = self.S @ Q

    def _divide(self, member_sizes, direct: set):
        """Divide substrips into pieces.

        ``member_sizes``: list of (sub, piece_sizes).  Returns a dict
        sub -> list of new subs.  Updates positional lists and boundary
        provenance (``direct`` holds the subs of the reduced block)."""
        pieces = {}
        for sub, sizes in member_sizes:
            sizes = [s for s in sizes if s > 0]
            assert sum(sizes) == sub.size
            new = []
            off = sub.start
            for k, s in enumerate(sizes):
                if k > 0:
                    self.boundaries[(sub.axis, off)] = (
                        "direct" if sub in direct else "propagated"
                    )
                new.append(_Sub(sub.axis, sub.strip, off, s))
                off += s
            pieces[sub] = new
            lst = self.rows if sub.axis == "r" else self.cols
            at = lst.index(sub)
            lst[at : at + 1] = new
        return pieces

    # -- reduction steps -----------------------------------------------
    def _reduce_equivalence(self, rs: _Sub, cs: _Sub, depth: int):
        tol = self.tol
        B = self._block(rs, cs)
        U, s, Vh = np.linalg.svd(B)
        V = Vh.conj().T
        rmem = self._members(rs)
        cmem = self._members(cs)
        self._apply(
            [(x, U) for x in rmem if x.axis == "r"]
            + [(x, V) for x in cmem if x.axis == "r"],
            [(x, U) for x in rmem if x.axis == "c"]
            + [(x, V) for x in cmem if x.axis == "c"],
        )
        nonzero = s[s > tol.abs]
        clusters = [(rep, len(mem)) for rep, mem in cluster_values(nonzero, tol)]
        r = len(nonzero)
        # snap the block to its canonical part
        D = np.zeros((rs.size, cs.size), dtype=complex)
        pos = 0
        for rep, mult in clusters:
            for _ in range(mult):
                D[pos, pos] = rep
                pos += 1
        self.A[rs.start : rs.start + rs.size, cs.start : cs.start + cs.size] = D
        self._add_zone(
            [(rs.start, rs.start + rs.size, cs.start, cs.start + cs.size)],
            depth=depth,
            kind="equivalence",
            block=(rs.start, rs.size, cs.start, cs.size),
        )
        row_sizes = [m for _, m in clusters] + [rs.size - r]
        col_sizes = [m for _, m in clusters] + [cs.size - r]
        member_sizes = [(x, row_sizes) for x in rmem] + [(x, col_sizes) for x in cmem]
        pieces = self._divide(member_sizes, direct={rs, cs})
        k = len(clusters)
        # marks: piece alpha of the row class is tied to piece alpha of the
        # column class for every singular-value cluster
        for a in range(k):
            anchor = None
            for x in rmem + cmem:
                px = pieces[x]
                if a < len(px):
                    if anchor is None:
                        anchor = px[a]
                    else:
                        self.ties.union(anchor, px[a])
        # leftover pieces stay tied within their own former class
        for group in (rmem, cmem):
            anchor = None
            for x in group:
                px = pieces[x]
                if len(px) == k + 1:
                    if anchor is None:
                        anchor = px[k]
                    else:
                        self.ties.union(anchor, px[k])
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

    def _reduce_similarity(self, rs: _Sub, cs: _Sub, depth: int):
        tol = self.tol
        B = self._block(rs, cs)
        lams, sizes, S = simil_step(B, tol)
        mem = self._members(rs)
        self._apply(
            [(x, S) for x in mem if x.axis == "r"],
            [(x, S) for x in mem if x.axis == "c"],
        )
        offs = _offsets(sizes)
        # snap diagonal blocks and the zero blocks below them
        stairs, rects = [], []
        for a in range(len(sizes)):
            r0, r1 = rs.start + offs[a], rs.start + offs[a + 1]
            c0, c1 = cs.start + offs[a], cs.start + offs[a + 1]
            self.A[r0:r1, c0:c1] = lams[a] * np.eye(sizes[a])
            self.A[r1 : rs.start + rs.size, c0:c1] = 0.0
            stairs.append(tuple((r0 + t, c0 + t) for t in range(sizes[a])))
            # the zone is a staircase: piece row a against column pieces 0..a
            rects.append((r0, r1, cs.start, c1))
        self._add_zone(
            rects,
            depth=depth,
            kind="similarity",
            block=(rs.start, rs.size, cs.start, cs.size),
            stairs=tuple(stairs),
        )
        pieces = self._divide([(x, sizes) for x in mem], direct={rs, cs})
        for a in range(len(sizes)):
            anchor = None
            for x in mem:
                px = pieces[x]
                if anchor is None:
                    anchor = px[a]
                else:
                    self.ties.union(anchor, px[a])
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
        target = self.first_changing_block(depth)
        if target is None:
            self._merge_zero_zones()
            self._final_snap()
            self.done = True
            return False
        rs, cs = target
        if self._tied(rs, cs):
            self._reduce_similarity(rs, cs, depth)
        else:
            self._reduce_equivalence(rs, cs, depth)
        # resume at the block of the last row piece and the first column
        # piece of the target: every block before it preceded the target
        self.cursor = (self.steps[-1].row_pieces[-1] - rs.start - rs.size, cs.start)
        return True

    def _merge_zero_zones(self):
        """Merge rule: an all-zero block that was never itself reduced joins
        the zone of its neighbour across a propagated division boundary.
        Chains of such blocks settle in repeated passes."""
        m, n = self.owner.shape
        changed = True
        while changed:
            changed = False
            for zid in self._zero_candidates:
                z = self.zones[zid]
                if z is None:
                    continue
                r0, rs_, c0, cs_ = z.block
                r1, c1 = r0 + rs_, c0 + cs_
                probes = [
                    (("c", c0), (r0, c0 - 1)),
                    (("c", c1), (r0, c1)),
                    (("r", r0), (r0 - 1, c0)),
                    (("r", r1), (r1, c0)),
                ]
                for key, (r, c) in probes:
                    if self.boundaries.get(key) != "propagated" or not (
                        0 <= r < m and 0 <= c < n
                    ):
                        continue
                    tid = int(self.owner[r, c])
                    if tid < 0 or tid == zid:
                        continue
                    target = self.zones[tid]
                    target.cells = target.cells | z.cells
                    target.merged_blocks = target.merged_blocks + (z.block,)
                    self.owner[self.owner == zid] = tid
                    self.zones[zid] = None
                    changed = True
                    break

    def _final_snap(self):
        for rs in self.rows:
            for cs in self.cols:
                r0, r1 = rs.start, rs.start + rs.size
                c0, c1 = cs.start, cs.start + cs.size
                if self._tied(rs, cs):
                    lam = np.mean(np.diagonal(self.A[r0:r1, c0:c1]))
                    self.A[r0:r1, c0:c1] = lam * np.eye(rs.size)
                else:
                    self.A[r0:r1, c0:c1] = 0.0

    def trace(self) -> ReductionTrace:
        classes = self.ties.groups(self.rows + self.cols)
        labels = {sub: k for k, g in enumerate(classes, 1) for sub in g}
        row_info = [[] for _ in self.M.row_strips]
        col_info = [[] for _ in self.M.col_strips]
        for sub in self.rows:
            row_info[sub.strip].append((sub.start, sub.size, labels[sub]))
        for sub in self.cols:
            col_info[sub.strip].append((sub.start, sub.size, labels[sub]))
        return ReductionTrace(
            steps=list(self.steps),
            zones=[z for z in self.zones if z is not None],
            row_substrips=row_info,
            col_substrips=col_info,
            num_classes=len(classes),
            canonical_entries=self.A.copy(),
        )


def canonicalize(M: MarkedBlockMatrix, tol: Tolerance = Tolerance()):
    """Reduce M to its canonical matrix.

    Returns ``(canonical, transcript, trace)`` with
    ``apply_admissible(M, transcript)`` equal to ``canonical`` within
    tolerance."""
    state = ReductionState(M, tol)
    limit = 4 * max(1, M.entries.size) + 8
    steps = 0
    while state.derive():
        steps += 1
        if steps > limit:
            raise NoConvergenceError(
                f"reduction did not converge after {steps} steps"
            )
    canonical = MarkedBlockMatrix(M.row_strips, M.col_strips, state.A, M.marked)
    ro = _offsets(M.row_strips)
    co = _offsets(M.col_strips)
    T = Transcript(
        R=tuple(
            state.R[ro[i] : ro[i + 1], ro[i] : ro[i + 1]].copy()
            for i in range(len(M.row_strips))
        ),
        S=tuple(
            state.S[co[j] : co[j + 1], co[j] : co[j + 1]].copy()
            for j in range(len(M.col_strips))
        ),
    )
    return canonical, T, state.trace()


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
            mb = M.block(i, j)
            nb = N.block(i, j)
            out[
                ro[i] : ro[i] + mb.shape[0], co[j] : co[j] + mb.shape[1]
            ] = mb
            out[
                ro[i] + mb.shape[0] : ro[i + 1], co[j] + mb.shape[1] : co[j + 1]
            ] = nb
    return MarkedBlockMatrix(rows, cols, out, M.marked)


def decompose(M: MarkedBlockMatrix, tol: Tolerance = Tolerance()):
    """Krull-Schmidt decomposition into canonical indecomposable summands
    with multiplicities."""
    canonical, _, trace = canonicalize(M, tol)
    lr, lc = len(M.row_strips), len(M.col_strips)
    by_class: dict = {}
    for i in range(lr):
        for start, size, label in trace.row_substrips[i]:
            by_class.setdefault(label, {"rows": [[] for _ in range(lr)],
                                        "cols": [[] for _ in range(lc)],
                                        "size": size})
            by_class[label]["rows"][i].append(start)
    for j in range(lc):
        for start, size, label in trace.col_substrips[j]:
            by_class.setdefault(label, {"rows": [[] for _ in range(lr)],
                                        "cols": [[] for _ in range(lc)],
                                        "size": size})
            by_class[label]["cols"][j].append(start)
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
