import warnings
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unicanon.numcore import Tolerance
from unicanon import mbm
from unicanon.mbm import (
    MarkedBlockMatrix,
    MarkedBlockNotSquareError,
    DimensionMismatchError,
    MarkMismatchError,
    ShapeMismatchError,
    TieViolationError,
    ZeroSizeError,
    tie_closure,
    apply_admissible,
    random_transcript,
    canonicalize,
    block_direct_sum,
    decompose,
    is_indecomposable,
)

from unicanon.quiverrep import Quiver, Representation, direct_sum, pack, random_rep

from conftest import D4, KRONECKER, example_8x12, random_mbm


def packed(Q, d, seed):
    """Packed MBM of a complex Gaussian representation of Q."""
    rng = np.random.default_rng(seed)
    mats = {
        a: rng.standard_normal((d[t - 1], d[s - 1]))
        + 1j * rng.standard_normal((d[t - 1], d[s - 1]))
        for a, s, t in Q.arrows
    }
    return pack(Representation(Q, d, mats))


def engine_inputs():
    rng = np.random.default_rng(21)
    return [random_mbm(rng) for _ in range(20)] + [
        packed(KRONECKER, (16, 16), 1),
        packed(D4, (6, 6, 6, 12), 2),
    ]


def sums_of_packings():
    """Packings of P, P + P and P + Q for indecomposable Kronecker and D4
    representations P and Q, and of loops with equal and distinct blocks."""
    out = []
    for Q, dp, dq, seed in ((KRONECKER, (2, 3), (1, 2), 30), (D4, (1, 1, 1, 2), (0, 1, 1, 1), 31),
                            (Quiver(1, [("a", 1, 1)]), (2,), (1,), 32)):
        P, R = random_rep(Q, dp, seed=seed), random_rep(Q, dq, seed=seed + 10)
        out += [pack(P), pack(direct_sum(P, P)), pack(direct_sum(P, R))]
    return out


def rect_cells(r0, rows, c0, cols):
    return {(r, c) for r in range(r0, r0 + rows) for c in range(c0, c0 + cols)}


def reference_inputs():
    """Inputs on which the engine is compared with the reference versions
    of its steps: the engine inputs and packed Kronecker and D4
    representations, whose reductions are mostly phase steps and merges."""
    return engine_inputs() + [
        packed(KRONECKER, (8, 8), 3),
        packed(KRONECKER, (16, 16), 4),
        packed(D4, (4, 4, 4, 8), 5),
    ]


def one_target_scan(state, grid, depth):
    """The reference of ``_scan``: no phase step on the way.  It installs
    the blocks passed from the cursor on, at ``depth`` with ``grid.tied``,
    and returns the first non-canonical block, which ``derive`` then
    reduces by ``_reduce`` (a 1x1 one by an SVD and ``_apply``'s dense
    products): one step per call, each on a fresh grid."""
    row, col = state.cursor
    i0 = grid.canonical.shape[0] - 1
    on_row = i0 >= 0 and grid.rstart[i0] == -row
    j0 = int(np.searchsorted(grid.cstart, col)) if on_row else 0
    nc = grid.cstart.size
    canonical = grid.canonical[i0::-1].ravel()
    changing = np.flatnonzero(~canonical[j0:])
    stop = j0 + int(changing[0]) if changing.size else canonical.size
    passed = j0 + np.flatnonzero(grid.owner[i0::-1].ravel()[j0:stop] < 0)
    if passed.size:
        i, j = i0 - passed // nc, passed % nc
        state._install(grid, i, j, [depth] * i.size, grid.tied[i, j], np.zeros(i.size, bool))
    if stop == canonical.size:
        return None
    i, j = divmod(stop, nc)
    return i0 - i, j


def repaint_merge(zones, owner, corner, propagated, candidates):
    """``mbm._merge_zero_zones`` with the owner map repainted on every merge
    instead of read through pointers: same probes, same order, passes until
    none merges.  ``owner`` is the map of a rectangle whose first cell is
    ``corner``."""
    rows, cols = propagated["r"], propagated["c"]
    probes = []
    for zid in candidates:
        r0, rs, c0, cs = zones[zid][1:5]
        cells = [(r - corner[0], c - corner[1]) for across, (r, c) in (
            (c0 in cols, (r0, c0 - 1)), (c0 + cs in cols, (r0, c0 + cs)),
            (r0 in rows, (r0 - 1, c0)), (r0 + rs in rows, (r0 + rs, c0)),
        ) if across]
        probes.append((zid, cells))
    owner, merged, gone = owner.copy(), {}, set()
    changed = True
    while changed:
        changed = False
        for zid, cells in probes:
            if zid in gone:
                continue
            for r, c in cells:
                tid = int(owner[r, c])
                if tid < 0 or tid == zid:
                    continue
                merged.setdefault(tid, []).extend([zones[zid][1:5], *merged.pop(zid, ())])
                owner[owner == zid] = tid
                gone.add(zid)
                changed = True
                break
    return owner, merged


def repaint_pointers(zones, owner, corner, propagated, candidates):
    """``repaint_merge`` in ``mbm._merge_zero_zones``'s shape: every
    candidate points at its root, its repainted owner at its first cell."""
    repainted, _ = repaint_merge(zones, owner, corner, propagated, candidates)
    into = list(range(len(zones)))
    for zid in candidates:
        into[zid] = int(repainted[zones[zid][1] - corner[0], zones[zid][3] - corner[1]])
    return into


def absorbed_blocks(trace):
    """The blocks the reference ``repaint_merge`` gives every zone of the
    whole matrix, by the block of the zone that absorbs them."""
    records, owner, propagated, candidate = trace._book
    _, merged = repaint_merge(records, owner, (0, 0), propagated, np.flatnonzero(candidate).tolist())
    return {records[zid][1:5]: blocks for zid, blocks in merged.items()}


def record_stairs(record):
    """The kind and stairs of a zone record ``(depth, r, h, c, w, stairs)``:
    ``stairs`` False for an equivalence zone, True for one stair down the
    diagonal, else the sizes of consecutive diagonal stairs."""
    _, r, h, c, _, stairs = record
    if stairs is False:
        return "equivalence", ()
    sizes = (h,) if stairs is True else stairs
    offsets = np.concatenate(([0], np.cumsum(sizes))).tolist()
    return "similarity", tuple(tuple((r + t, c + t) for t in range(a, b))
                               for a, b in zip(offsets, offsets[1:]))


def eager_zones(state):
    """The zones as ``trace()`` built them at once: the merge rule (here
    its repaint reference), then the cells of every zone grouped from one
    stable sort of the owner map, in zone id order, every zone but the
    absorbed ones, sorted by (depth, block)."""
    owner, merged = repaint_merge(state.zones, state.owner, (0, 0), state.propagated, state._zero_candidates)
    absorbed = {block for blocks in merged.values() for block in blocks}  # blocks are distinct
    order = np.argsort(owner, axis=None, kind="stable")
    bounds = np.searchsorted(owner.ravel()[order], np.arange(len(state.zones) + 1)).tolist()
    cells = list(zip(*(x.tolist() for x in np.unravel_index(order, owner.shape))))
    zones = []
    for z, a, b in zip(state.zones, bounds, bounds[1:]):
        if z[1:5] not in absorbed:
            kind, stairs = record_stairs(z)
            zones.append(mbm.Zone(z[0], kind, z[1:5], frozenset(cells[a:b]), stairs))
    return sorted(zones, key=lambda z: (z.depth, z.block))


def reduce_fully(M, tol):
    state = mbm.ReductionState([M], tol)
    while state.derive():
        pass
    return state


def rank_deficient_inputs():
    """Blocks of rank at most one, so that equivalence steps leave pieces
    over on both sides of the reduced block."""
    rng = np.random.default_rng(22)
    out = [example_8x12()]
    for _ in range(6):
        M = random_mbm(rng, max_strips=3, max_size=3)
        ro, co = mbm._offsets(M.row_strips), mbm._offsets(M.col_strips)
        E = np.zeros(M.entries.shape, dtype=complex)
        for i in range(len(M.row_strips)):
            for j in range(len(M.col_strips)):
                u = rng.standard_normal(ro[i + 1] - ro[i])
                v = rng.standard_normal(co[j + 1] - co[j])
                E[ro[i] : ro[i + 1], co[j] : co[j + 1]] = np.outer(u, v)
        out.append(MarkedBlockMatrix(M.row_strips, M.col_strips, E, M.marked))
    return out


def reference_block(state, i, j, tol):
    """The per-block rule the engine's grid implements, one block at a time,
    for row substrip i and column substrip j: ``(tied, diagonal mean or None,
    canonical)``."""
    r0, h = state.rows.start[i], state.rows.size[i]
    c0, w = state.cols.start[j], state.cols.size[j]
    B = state.A[0, r0 : r0 + h, c0 : c0 + w]
    if state.rows.label[i] == state.cols.label[j]:
        lam = np.mean(np.diagonal(B))
        residual = np.linalg.norm(B - lam * np.eye(h))
        return True, lam, residual <= tol.abs * max(1.0, h)
    limit = tol.abs * max(1.0, (h * w) ** 0.5)
    return False, None, np.linalg.norm(B) <= limit


def union_all(ties, items):
    """Join every item of the list ``items`` to the class of the first."""
    for x in items[1:]:
        ties[mbm._find(ties, x)] = mbm._find(ties, items[0])


def substrips(state):
    """The current substrips, rows then columns, each keyed by ``(axis,
    start, size)``, with their labels: a division gives every piece a new
    key, and a substrip left whole keeps its key."""
    return {
        (axis, start, size): label
        for axis, subs in (("r", state.rows), ("c", state.cols))
        for start, size, label in zip(*(x.tolist() for x in (subs.start, subs.size, subs.label)))
    }


def partition(subs, class_of):
    """The classes of the substrip keys ``subs`` under ``class_of``, as sets
    of (axis, start)."""
    classes = {}
    for s in subs:
        classes.setdefault(class_of(s), set()).add(s[:2])
    return {frozenset(c) for c in classes.values()}


def replay_ties(state):
    """Run ``state`` to its fixpoint and yield after every ``derive`` call a
    union-find over the current substrips (a parent dict for ``mbm._find``),
    built without the engine's labels, and the number of steps replayed so
    far: the marks first, then for every step the call recorded, in order,
    the pieces joined the way the reduction ties them (piece alpha of every
    member of the reduced classes; for equivalence also the leftover pieces
    within each former class)."""
    M = state.M
    ties = {s: s for s in substrips(state)}
    strips = [("r", k) for k in state.rows.strip.tolist()] + [
        ("c", k) for k in state.cols.strip.tolist()]
    first = dict(zip(strips, substrips(state)))  # one substrip per nonempty strip
    for i, j in M.marked:
        if ("r", i) in first and ("c", j) in first:  # size-0 strips have none
            union_all(ties, [first["r", i], first["c", j]])
    yield ties, 0
    while True:
        before, done = list(substrips(state)), len(state.steps[0])
        if not state.derive():
            return
        after = list(substrips(state))
        for s in after:  # every new piece joins as a singleton
            ties.setdefault(s, s)

        def old(axis, start):
            return next(s for s in before if s[:2] == (axis, start))

        def members(x):
            return [s for s in before if mbm._find(ties, s) == mbm._find(ties, x)]

        def pieces(x):
            axis, start, size = x
            return sorted(s for s in after if s[0] == axis and start <= s[1] < start + size)

        for step in state.steps[0][done:]:  # a run of phase steps divides nothing
            rmem = members(old("r", step.row_block[0]))
            if step.kind == "similarity":
                for a in range(len(step.row_pieces)):
                    union_all(ties, [pieces(x)[a] for x in rmem])
            else:
                cmem = members(old("c", step.col_block[0]))
                k = sum(1 for value, _ in step.values if value != 0)
                for a in range(k):
                    union_all(ties, [pieces(x)[a] for x in rmem + cmem])
                for group in (rmem, cmem):
                    union_all(ties, [pieces(x)[k] for x in group if len(pieces(x)) > k])
        yield ties, len(state.steps[0])


def closure_classes(items, pairs):
    """The classes of ``items`` under the pairs, by brute force: grow every
    item's set of reachable items until no set grows; each class in item
    order, ordered by first member."""
    reach = {x: {x} for x in items}
    for a, b in pairs:
        reach[a].add(b)
        reach[b].add(a)
    grown = True
    while grown:
        grown = False
        for x in items:
            wider = set().union(*(reach[y] for y in reach[x]))
            grown, reach[x] = grown or wider != reach[x], wider
    classes = []
    for x in items:
        c = [y for y in items if y in reach[x]]
        if c not in classes:
            classes.append(c)
    return classes


class TestUnionFind:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_classes_match_transitive_closure(self, data):
        # the items in drawn order, not sorted; pairs may repeat and may join
        # an item to itself
        items = data.draw(st.lists(st.integers(0, 40), unique=True, max_size=14))
        member = st.sampled_from(items or [None])
        pairs = data.draw(st.lists(st.tuples(member, member), max_size=24 if items else 0))
        for p in (pairs, pairs + pairs[::-1] + [(x, x) for x in items[:2]]):
            assert mbm._classes(items, p) == closure_classes(items, p)


class TestValidation:
    # an invalid matrix raises when it is built, not when it is first used

    def test_marked_block_must_be_square(self):
        with pytest.raises(MarkedBlockNotSquareError, match=r"marked block \(0,0\) has shape 2x3"):
            MarkedBlockMatrix((2,), (3,), np.zeros((2, 3)), {(0, 0)})

    def test_entries_shape(self):
        with pytest.raises(DimensionMismatchError, match=r"entries shape \(2, 3\) does not match"):
            MarkedBlockMatrix((2,), (2,), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "rows, cols, axis",
        [((3, -1), (2,), "row"), ((-1, 2), (2,), "row"), ((2,), (2, -1, 1), "column")],
    )
    def test_negative_strip(self, rows, cols, axis):
        # before: numpy's broadcast and "repeats may not contain negative
        # values" errors; size-0 strips stay valid (TestEmptyStrips)
        message = rf"{axis} strips \({', '.join(map(str, rows if axis == 'row' else cols))}\)"
        with pytest.raises(DimensionMismatchError, match=message + ": a strip size is negative"):
            MarkedBlockMatrix(rows, cols, np.zeros((sum(rows), sum(cols))))

    @pytest.mark.parametrize("mark", [(0.9, 0.2), (1, 0.5)])
    def test_non_integer_mark(self, mark):
        # before: int() truncated (0.9, 0.2) to the mark (0, 0)
        with pytest.raises(DimensionMismatchError, match="marked block .*: a value is not an integer"):
            MarkedBlockMatrix((2,), (2,), np.eye(2), {mark})

    def test_mark_out_of_range(self):
        with pytest.raises(DimensionMismatchError, match=r"marked block \(1,0\) out of range"):
            MarkedBlockMatrix((2,), (2,), np.eye(2), {(1, 0)})

    @pytest.mark.parametrize(
        "rows, cols, axis",
        [((2.7,), (1,), "row"), ((2.0,), (1,), "row"), (("2",), (1,), "row"),
         ((2,), (1, 0.5), "column")],
        ids=["2.7", "2.0", "text", "column"],
    )
    def test_non_integer_strip(self, rows, cols, axis):
        # before: int() truncated (2.7,) to (2,) and the matrix reduced
        with pytest.raises(DimensionMismatchError, match=f"{axis} strips .*: a value is not an integer"):
            MarkedBlockMatrix(rows, cols, np.ones((2, 1)))

    def test_numpy_integer_strips(self):
        M = MarkedBlockMatrix((np.int64(2),), (np.int32(1),), np.ones((2, 1)))
        assert M.row_strips == (2,) and M.col_strips == (1,)
        assert all(type(k) is int for k in M.row_strips + M.col_strips)

    def test_json_non_integer_strip(self):
        # before: a TypeError from numpy's reshape
        data = {"row_strips": [1.5, 0.5], "col_strips": [2], "entries": np.eye(2).tolist()}
        with pytest.raises(DimensionMismatchError, match=r"row strips \[1.5, 0.5\]"):
            MarkedBlockMatrix.from_json(data)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
    )
    def test_non_finite_entry(self, bad):
        E = np.ones((2, 3), dtype=complex)
        E[1, 2] = E[0, 1] = bad
        # raised before any use could divide by the norm: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entry \(1,2\) is not finite"):
                MarkedBlockMatrix((2,), (3,), E)

    def test_tie_closure_chains(self):
        # marks (0,0) and (0,1) force both column strips into one class
        M = MarkedBlockMatrix((2,), (2, 2), np.zeros((2, 4)), {(0, 0), (0, 1)})
        assert {("r", 0), ("c", 0), ("c", 1)} in tie_closure(M)

    def test_json_round_trip(self):
        M = example_8x12()
        M2 = MarkedBlockMatrix.from_json(M.to_json())
        assert M2.row_strips == M.row_strips
        assert M2.marked == M.marked
        assert np.allclose(M2.entries, M.entries)

    def test_json_unknown_key(self):
        data = example_8x12().to_json()
        data["marks"] = data.pop("marked")
        with pytest.raises(KeyError, match="marks"):
            MarkedBlockMatrix.from_json(data)

    def test_json_mark_not_a_pair(self):
        data = example_8x12().to_json()
        data["marked"] = [[1, 1], [1]]
        with pytest.raises(ValueError, match=r"mark \[1\] is not a \[row, col\] pair"):
            MarkedBlockMatrix.from_json(data)

    def test_json_wrong_shape_rejected(self):
        # strips 4 x 3 take 4 x 3 entries, not 3 x 4 read row by row
        data = MarkedBlockMatrix((4,), (3,), np.zeros((4, 3))).to_json()
        data["entries"] = np.ones((3, 4)).tolist()
        with pytest.raises(DimensionMismatchError, match=r"shape \(3, 4\)"):
            MarkedBlockMatrix.from_json(data)

    def test_json_empty_entries(self):
        data = MarkedBlockMatrix((0,), (3,), np.zeros((0, 3))).to_json()
        assert data["entries"] == []
        assert MarkedBlockMatrix.from_json(data).entries.shape == (0, 3)

    def test_json_plain_numbers(self):
        M = MarkedBlockMatrix((2,), (2,), [[1.0, 2.0], [3.0, 4.0]], {(0, 0)})
        data = dict(M.to_json(), entries=[[1, 2], [3, 4]])
        assert np.array_equal(MarkedBlockMatrix.from_json(data).entries, M.entries)


class TestApplyAdmissible:
    def test_tie_violation(self):
        M = MarkedBlockMatrix((2,), (2,), np.eye(2), {(0, 0)})
        T = mbm.Transcript(
            R=(np.eye(2, dtype=complex),),
            S=(np.diag([1.0, -1.0]).astype(complex),),
        )
        with pytest.raises(TieViolationError):
            apply_admissible(M, T)

    def test_non_finite_transcript_violates_the_tie(self):
        # a NaN norm fails the tie check; before, it passed, and the NaN
        # entries it made were reported as the matrix's
        M = MarkedBlockMatrix((1,), (1,), [[1.0]], {(0, 0)})
        T = mbm.Transcript(R=(np.array([[np.nan]], dtype=complex),), S=(np.eye(1, dtype=complex),))
        with pytest.raises(TieViolationError):
            apply_admissible(M, T)

    def test_random_transcript_respects_ties(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            M = random_mbm(rng)
            T = random_transcript(M, seed=k)
            apply_admissible(M, T)  # must not raise


class TestCanonicalize:
    def test_fixpoint_on_example(self, tol, M8x12):
        C, _, _ = canonicalize(M8x12, tol)
        assert np.abs(C.entries - M8x12.entries).max() < 1e-9

    def test_scramble_recovery_example(self, tol, M8x12):
        T = random_transcript(M8x12, seed=7)
        C, _, _ = canonicalize(apply_admissible(M8x12, T), tol)
        assert np.abs(C.entries - M8x12.entries).max() < 1e-6

    def test_example_zone_depths(self, tol, M8x12):
        _, _, trace = canonicalize(M8x12, tol)
        depths = sorted(z.depth for z in trace.zones)
        assert depths == [0, 1, 2, 3, 3, 4, 5, 6, 7, 7]

    def test_example_zone_kinds_and_merge(self, tol, M8x12):
        _, _, trace = canonicalize(M8x12, tol)
        by_depth = {}
        for z in trace.zones:
            by_depth.setdefault(z.depth, []).append(z)
        assert by_depth[0][0].kind == "similarity"
        assert by_depth[1][0].kind == "equivalence"
        # the depth-2 zone holds its block and the two the merge rule gave it
        z = by_depth[2][0]
        assert z.cells == rect_cells(*z.block) | rect_cells(3, 1, 7, 1) | rect_cells(0, 3, 7, 1)

    def test_transcript_residual(self, tol, M8x12):
        T = random_transcript(M8x12, seed=3)
        Ms = apply_admissible(M8x12, T)
        C, T2, _ = canonicalize(Ms, tol)
        R, S = T2.full_matrices()
        resid = np.abs(R.conj().T @ Ms.entries @ S - C.entries).max()
        assert resid < 1e-9 * (1 + np.linalg.norm(Ms.entries))

    def test_completeness_random(self, tol):
        rng = np.random.default_rng(11)
        for k in range(25):
            M = random_mbm(rng)
            C1, _, _ = canonicalize(M, tol)
            T = random_transcript(M, seed=1000 + k)
            C2, _, _ = canonicalize(apply_admissible(M, T), tol)
            assert np.abs(C1.entries - C2.entries).max() < 1e-6

    def test_idempotent(self, tol):
        rng = np.random.default_rng(2)
        M = random_mbm(rng)
        C, _, _ = canonicalize(M, tol)
        C2, _, _ = canonicalize(C, tol)
        assert np.abs(C.entries - C2.entries).max() < 1e-9

    def test_monotone_refinement(self, tol):
        rng = np.random.default_rng(4)
        M = random_mbm(rng)
        state = mbm.ReductionState([M], tol)
        prev_rows = len(state.rows.start)
        prev_cols = len(state.cols.start)
        while state.derive():
            assert len(state.rows.start) >= prev_rows
            assert len(state.cols.start) >= prev_cols
            prev_rows, prev_cols = len(state.rows.start), len(state.cols.start)


class TestEngineInvariants:
    """The invariants the reduction engine's bookkeeping relies on."""

    @pytest.mark.parametrize("M", engine_inputs())
    def test_zones_partition_cells(self, tol, M):
        _, _, trace = canonicalize(M, tol)
        m, n = M.entries.shape
        covered = [cell for z in trace.zones for cell in z.cells]
        assert len(covered) == m * n
        assert set(covered) == {(r, c) for r in range(m) for c in range(n)}
        # a zone is its block (equivalence) or the staircase under its stairs
        # (similarity), plus every block the reference merge gives it
        absorbed = absorbed_blocks(trace)
        for z in trace.zones:
            if z.kind == "equivalence":
                own = rect_cells(*z.block)
            else:
                c0 = z.block[2]
                own = {(r, c) for st in z.stairs for r, _ in st for c in range(c0, st[-1][1] + 1)}
            assert z.cells == own.union(*(rect_cells(*b) for b in absorbed.get(z.block, ())))

    @pytest.mark.parametrize("M", engine_inputs() + rank_deficient_inputs())
    def test_labels_match_union_find_replay(self, tol, M):
        state = mbm.ReductionState([M], tol)
        for ties, replayed in replay_ties(state):
            subs = substrips(state)
            find = partial(mbm._find, ties)
            assert partition(subs, subs.get) == partition(subs, find)
        assert replayed == len(state.steps[0])
        trace = state.trace()[0]
        assert trace.num_classes == len(partition(subs, find))

    @pytest.mark.parametrize("M", engine_inputs())
    def test_blocks_before_cursor_stay_canonical(self, tol, M):
        state = mbm.ReductionState([M], tol)
        while state.derive():
            for i, r0 in enumerate(state.rows.start.tolist()):
                for j, c0 in enumerate(state.cols.start.tolist()):
                    if (-r0, c0) < state.cursor:
                        assert reference_block(state, i, j, tol)[2]

    @pytest.mark.parametrize("M", engine_inputs())
    def test_grid_matches_per_block_reference(self, tol, M):
        state = mbm.ReductionState([M], tol)
        running = True
        while running:
            grid, snapped = state._grid(), state._snap()[-1][0]
            for i, r0 in enumerate(state.rows.start.tolist()):
                for j, c0 in enumerate(state.cols.start.tolist()):
                    tied, lam, canonical = reference_block(state, i, j, tol)
                    assert grid.tied[i, j] == tied
                    assert grid.canonical[i, j] == canonical
                    if tied:
                        mean = snapped[r0, c0]
                        assert np.isclose(mean, lam, rtol=1e-12, atol=0)
            running = state.derive()

    def test_grid_decides_at_the_thresholds(self):
        # strips (2, 3) x (2, 3), only block (0, 0) tied; each block sits 10 %
        # inside or outside its limit, 1e-3 * max(1, sqrt(rows * cols))
        tol = Tolerance(1e-3)
        d = 0.9 * 2e-3 * 2**0.5  # diag(5, 5 + d) is d / sqrt(2) from its λI
        A = np.zeros((5, 5), dtype=complex)
        A[:2, :2] = np.diag([5.0, 5.0 + d])
        A[:2, 2:] = 0.9e-3  # Frobenius norm 0.9 * sqrt(6) * 1e-3
        A[2:, :2] = 1.1e-3
        A[2:, 2:] = 1.1e-3
        state = mbm.ReductionState([MarkedBlockMatrix((2, 3), (2, 3), A, {(0, 0)})], tol)
        grid, snapped = state._grid(), state._snap()[-1][0]
        assert grid.canonical.tolist() == [[True, True], [False, False]]
        assert grid.tied.tolist() == [[True, False], [False, False]]
        for i in range(len(state.rows.start)):
            for j in range(len(state.cols.start)):
                assert grid.canonical[i, j] == reference_block(state, i, j, tol)[2]
        assert snapped[0, 0] == snapped[1, 1] == np.mean([5.0, 5.0 + d])
        assert not snapped[:, 2:].any() and not snapped[2:].any()


class TestReferenceSteps:
    """The engine's scans, with their phase steps on the way, and its
    pointer merges against what they replace: one step per call on a fresh
    grid, a 1x1 target reduced through ``_reduce`` and ``_apply``'s dense
    products (reference ``_apply``), and the repaint-per-merge loop."""

    @pytest.mark.parametrize("reference", ["_apply", "_merge_zero_zones"])
    @pytest.mark.parametrize("M", reference_inputs() + [
        packed(KRONECKER, (24, 24), 6), packed(KRONECKER, (48, 48), 7),
        packed(D4, (12, 12, 12, 24), 8),
    ])
    def test_same_reduction(self, tol, M, reference, monkeypatch):
        state = reduce_fully(M, tol)
        got = state.trace()[0]
        got.zones  # the engine's merge rule runs here, before the patch
        # the pointer merge and the repaint: every candidate's root is its
        # repainted owner
        book = (state.zones, state.owner, (0, 0), state.propagated, state._zero_candidates)
        into = mbm._merge_zero_zones(*book)
        want_into = repaint_pointers(*book)
        assert [mbm._find(into, z) for z in book[-1]] == [want_into[z] for z in book[-1]]
        owner, method, replacement = {
            "_apply": (mbm.ReductionState, "_scan", one_target_scan),
            "_merge_zero_zones": (mbm, "_merge_zero_zones", repaint_pointers),
        }[reference]
        monkeypatch.setattr(owner, method, replacement)
        ref = reduce_fully(M, tol)
        want = ref.trace()[0]
        # zone records, owner map, merges, zones, substrips: identical
        assert state.zones == ref.zones
        assert np.array_equal(state.owner, ref.owner)
        assert state._zero_candidates == ref._zero_candidates
        assert want.zones == got.zones
        assert (got.row_substrips, got.col_substrips, got.num_classes) == (
            want.row_substrips, want.col_substrips, want.num_classes)
        assert len(got.steps) == len(want.steps)
        scale = np.linalg.norm(M.entries)
        for a, b in zip(got.steps, want.steps):
            assert (a.kind, a.row_block, a.col_block, a.row_pieces, a.col_pieces) == (
                b.kind, b.row_block, b.col_block, b.row_pieces, b.col_pieces)
            assert [k for _, k in a.values] == [k for _, k in b.values]
            va = np.array([v for v, _ in a.values], dtype=complex)
            vb = np.array([v for v, _ in b.values], dtype=complex)
            assert np.abs(va - vb).max() <= 1e-14 * scale
        # numbers within 1e-14 relative
        assert np.linalg.norm(state.A - ref.A) <= 1e-14 * scale
        for X, Y in ((state.R, ref.R), (state.S, ref.S)):
            assert np.linalg.norm(X - Y) <= 1e-14 * np.linalg.norm(Y)

    @pytest.mark.parametrize("M", reference_inputs() + [example_8x12()])
    def test_lazy_zones_match_eager_build(self, tol, M):
        state = reduce_fully(M, tol)
        trace = state.trace()[0]
        assert trace.zones is trace.zones  # built once, then cached
        assert trace.zones == eager_zones(state)

    def test_references_are_exercised(self, tol):
        # the Kronecker reduction has phase steps (1x1 blocks) and merges
        state = reduce_fully(packed(KRONECKER, (16, 16), 4), tol)
        phase = [s for s in state.steps[0] if s.row_block[1] == s.col_block[1] == 1]
        assert len(phase) > len(state.steps[0]) // 2
        # every zone the merge rule absorbs leaves the trace's zones
        assert len(state.zones) - len(state.trace()[0].zones) > 100
        # and merges chain: a candidate joins a zone that is itself absorbed
        into = mbm._merge_zero_zones(state.zones, state.owner, (0, 0), state.propagated,
                                     state._zero_candidates)
        assert sum(into[z] != z and into[into[z]] != into[z] for z in state._zero_candidates) > 50


def zero_one(M):
    """M with every entry 1 where its real part is positive, else 0:
    rank-deficient blocks, on which the merge rule acts."""
    return MarkedBlockMatrix(M.row_strips, M.col_strips, (M.entries.real > 0) + 0j, M.marked)


def rectangle_inputs():
    """The tests' random marked block matrices and packed representations,
    each also with zero-one entries."""
    rng = np.random.default_rng(27)
    loops = Quiver(1, [("a", 1, 1), ("b", 1, 1)])
    mbms = [random_mbm(rng) for _ in range(12)] + [
        packed(KRONECKER, (3, 3), 0), packed(KRONECKER, (8, 8), 1),
        packed(D4, (2, 3, 1, 4), 2), packed(D4, (1, 0, 2, 3), 3), packed(D4, (4, 4, 4, 8), 4),
        packed(loops, (4,), 5),
    ]
    return mbms + [zero_one(M) for M in mbms]


class TestZonesPerRectangle:
    """``zones_in`` runs the merge rule over its rectangle's candidates only:
    for every rectangle of whole strips it returns the zones of
    ``trace.zones`` that lie there, shifted to its corner."""

    @pytest.mark.parametrize("M", rectangle_inputs())
    def test_zones_in_is_zones_restricted(self, tol, M):
        trace = canonicalize(M, tol)[2]
        ro, co = (mbm._offsets(s).tolist() for s in (M.row_strips, M.col_strips))
        for (i0, i1), (j0, j1) in product(combinations(range(len(ro)), 2),
                                          combinations(range(len(co)), 2)):
            r0, r1, c0, c1 = ro[i0], ro[i1], co[j0], co[j1]

            def shift(cells):
                return tuple((r - r0, c - c0) for r, c in cells)

            want = [mbm.Zone(z.depth, z.kind, (z.block[0] - r0, z.block[1], z.block[2] - c0, z.block[3]),
                             frozenset(shift(z.cells)), tuple(map(shift, z.stairs)))
                    for z in trace.zones if r0 <= z.block[0] < r1 and c0 <= z.block[2] < c1]
            assert trace.zones_in(slice(r0, r1), slice(c0, c1)) == want

    def test_rectangles_merge(self, tol, monkeypatch):
        # so the comparison above covers merges inside proper rectangles:
        # count the reads of one strip block whose merge absorbs a block
        absorbed = []
        original = mbm._merge_zero_zones

        def counted(zones, owner, corner, propagated, candidates):
            into = original(zones, owner, corner, propagated, candidates)
            absorbed.append(any(into[z] != z for z in candidates) and corner != (0, 0))
            return into

        monkeypatch.setattr(mbm, "_merge_zero_zones", counted)
        for M in rectangle_inputs():
            trace = canonicalize(M, tol)[2]
            ro, co = (mbm._offsets(s).tolist() for s in (M.row_strips, M.col_strips))
            for i, j in product(range(len(ro) - 1), range(len(co) - 1)):
                trace.zones_in(slice(ro[i], ro[i + 1]), slice(co[j], co[j + 1]))
        assert sum(absorbed) >= 20


def generic_similarity(n, seed):
    """A generic complex n x n matrix as one marked strip."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return MarkedBlockMatrix((n,), (n,), X, {(0, 0)})


def scans_stopped_after_phase_steps(M, tol, monkeypatch):
    """Reduce M and list, for every call whose scan makes phase steps and
    then stops at a block: the grid the scan walked, a fresh ``_grid`` over
    the same rows, taken just before ``_reduce``, and the grid indices of
    the last phase target and of the stop."""
    scan, out = mbm.ReductionState._scan, []

    def recording(state, grid, depth):
        stop = scan(state, grid, depth)
        if stop is not None and len(state.steps[0]) > depth:
            last = state.steps[0][-1]
            at = (int(np.searchsorted(grid.rstart, last.row_block[0])),
                  int(np.searchsorted(grid.cstart, last.col_block[0])))
            out.append((grid, state._grid(grid.rstart.size), at, stop))
        return stop

    monkeypatch.setattr(mbm.ReductionState, "_scan", recording)
    reduce_fully(M, tol)
    return out


class TestCarriedGrid:
    """A phase step divides nothing and changes only the flags of the 1x1
    blocks it ties, which the scan skips, so one grid is carried through a
    whole scan; the fresh ``_grid`` is the reference."""

    @pytest.mark.parametrize("M", engine_inputs() + [generic_similarity(16, 23)])
    def test_carried_grid_matches_fresh(self, tol, M, monkeypatch):
        # from the last phase target on, a fresh grid stops the scan where the
        # carried one did, at a block of the same tie
        for grid, fresh, last, stop in scans_stopped_after_phase_steps(M, tol, monkeypatch):
            for name in ("rstart", "rsize", "cstart", "csize"):
                assert np.array_equal(getattr(grid, name), getattr(fresh, name)), name
            i0, nc = grid.rstart.size - 1, grid.cstart.size
            a, b = ((i0 - i) * nc + j for i, j in (last, stop))
            flags = fresh.canonical[i0::-1].ravel()
            assert a < b and flags[a:b].all()
            assert not fresh.canonical[stop]
            assert fresh.tied[stop] == grid.tied[stop]

    def test_scans_stop_after_phase_steps(self, tol, monkeypatch):
        # the case above is exercised: a D4 reduction has such scans
        assert scans_stopped_after_phase_steps(packed(D4, (6, 6, 6, 12), 2), tol, monkeypatch)

    def test_inputs_have_phase_steps(self, tol):
        # most steps of these reductions are phase steps, made by the scans
        # on their way: every step of a call but the block it stops at
        for M in (packed(KRONECKER, (16, 16), 1), packed(D4, (6, 6, 6, 12), 2),
                  generic_similarity(16, 23)):
            state = mbm.ReductionState([M], tol)
            in_runs, before = 0, 0
            while state.derive():
                made = len(state.steps[0]) - before
                in_runs += made if state.done else made - 1
                before = len(state.steps[0])
            assert in_runs >= len(state.steps[0]) // 2

    def test_stop_at_a_value_at_the_threshold(self, tol):
        # a 1x1 zero block flagged non-canonical: its phase b / |b| is 0 / 0,
        # so the scan stops there and makes no step
        A = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
        state = mbm.ReductionState([MarkedBlockMatrix((1, 1), (1, 1), A)], tol)
        grid = state._grid()
        canonical = grid.canonical.copy()
        canonical[1, 0] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state._scan(grid._replace(canonical=canonical), 0) == (1, 0)
        assert state.steps[0] == []
        assert np.array_equal(state.A[0], A)

    def test_kronecker_run_in_one_call(self, tol):
        # an SVD step on the first arrow's block, then its run of 23 phase steps
        state = mbm.ReductionState([packed(KRONECKER, (24, 24), 9)], tol)
        calls = []
        while state.derive():
            calls.append(state.steps[0][sum(map(len, calls)):])
        assert [len(c) for c in calls] == [1, 23]
        assert calls[0][0].row_block[1] == 24
        assert all(s.row_block[1] == s.col_block[1] == 1 for s in calls[1])


class TestEmptyStrips:
    """Strips of size 0 leave rows or columns of the substrip grid empty."""

    def test_no_rows(self, tol):
        M = MarkedBlockMatrix((0,), (3,), np.zeros((0, 3)))
        C, T, trace = canonicalize(M, tol)
        assert C.entries.shape == (0, 3)
        assert T.R[0].shape == (0, 0)
        assert np.array_equal(T.S[0], np.eye(3))
        assert trace.steps == [] and trace.zones == []
        assert trace.row_substrips == [[]]
        assert trace.col_substrips == [[(0, 3, 1)]]
        assert trace.num_classes == 1
        [(P, mult)] = decompose(M, tol)
        assert (P.row_strips, P.col_strips, mult) == ((0,), (1,), 3)

    def test_empty_strip_beside_marked_block(self, tol):
        M = MarkedBlockMatrix(
            (0, 2), (0, 2), np.array([[1.0, 2.0], [0.0, 3.0]]), {(1, 1)}
        )
        C, T, trace = canonicalize(M, tol)
        assert np.allclose(C.entries, [[3.0, 2.0], [0.0, 1.0]], atol=1e-12)
        assert T.R[0].shape == (0, 0) and T.S[0].shape == (0, 0)
        assert np.allclose(T.R[1], T.S[1])
        assert [(s.kind, s.row_block, s.col_block) for s in trace.steps] == [
            ("similarity", (0, 2), (0, 2)),
            ("equivalence", (0, 1), (1, 1)),
        ]
        assert [(z.depth, z.kind, z.block, z.cells) for z in trace.zones] == [
            (0, "similarity", (0, 2, 0, 2), {(0, 0), (1, 0), (1, 1)}),
            (1, "equivalence", (0, 1, 1, 1), {(0, 1)}),
        ]
        assert trace.zones[0].stairs == (((0, 0),), ((1, 1),))
        assert trace.row_substrips == [[], [(0, 1, 1), (1, 1, 1)]]
        assert trace.col_substrips == trace.row_substrips
        assert trace.num_classes == 1
        assert is_indecomposable(M, tol)


class TestDecompose:
    def test_diagonal_clusters(self, tol):
        M = MarkedBlockMatrix((3,), (3,), np.diag([2.0, 2.0, 1.0]))
        parts = decompose(M, tol)
        got = sorted(
            (round(P.entries[0, 0].real), m) for P, m in parts
        )
        assert got == [(1, 1), (2, 2)]

    def test_indecomposable_single(self, tol):
        M = MarkedBlockMatrix((2,), (2,), [[1, 3], [0, 2]], {(0, 0)})
        parts = decompose(M, tol)
        assert len(parts) == 1 and parts[0][1] == 1
        assert is_indecomposable(M, tol)

    def test_direct_sum_doubles(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([2.0, 1.0]))
        parts = decompose(block_direct_sum(M, M), tol)
        base = decompose(M, tol)
        assert sorted(m for _, m in parts) == sorted(2 * m for _, m in base)
        with pytest.raises(ShapeMismatchError):  # the block grids differ
            block_direct_sum(M, MarkedBlockMatrix((1, 1), (2,), np.eye(2)))
        with pytest.raises(MarkMismatchError):  # the mark sets differ
            block_direct_sum(M, MarkedBlockMatrix((2,), (2,), np.eye(2), {(0, 0)}))

    def test_krull_schmidt_union(self, tol):
        rng = np.random.default_rng(6)
        M = random_mbm(rng, max_strips=2, max_size=3)
        N = MarkedBlockMatrix(
            M.row_strips,
            M.col_strips,
            rng.standard_normal(M.entries.shape)
            + 1j * rng.standard_normal(M.entries.shape),
            M.marked,
        )
        both = decompose(block_direct_sum(M, N), tol)
        total = sum(m for _, m in both)
        single = sum(m for _, m in decompose(M, tol)) + sum(
            m for _, m in decompose(N, tol)
        )
        assert total == single

    def test_zero_size_error(self, tol):
        M = MarkedBlockMatrix((), (), np.zeros((0, 0)))
        with pytest.raises(ZeroSizeError):
            is_indecomposable(M, tol)

    def test_not_indecomposable(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([2.0, 1.0]))
        assert not is_indecomposable(M, tol)

    @pytest.mark.parametrize("M", engine_inputs() + sums_of_packings())
    def test_indecomposable_from_the_trace(self, tol, M):
        # the reference rule: one summand, of multiplicity 1
        parts = decompose(M, tol)
        assert is_indecomposable(M, tol) == (len(parts) == 1 and parts[0][1] == 1)

    def test_both_verdicts_are_exercised(self, tol):
        verdicts = [is_indecomposable(M, tol) for M in engine_inputs() + sums_of_packings()]
        assert any(verdicts) and not all(verdicts)



class TestSameCanonical:
    def test_grid_marks_and_entries(self, tol):
        # the same entries as a similarity and as an equivalence problem;
        # before, only the strip grid and the entries were compared
        marked = MarkedBlockMatrix((1,), (1,), [[1]], {(0, 0)})
        assert not mbm.same_canonical(marked, MarkedBlockMatrix((1,), (1,), [[1]]), tol)
        assert mbm.same_canonical(marked, MarkedBlockMatrix((1,), (1,), [[1]], {(0, 0)}), tol)
        M = MarkedBlockMatrix((1, 1), (2,), [[1, 0], [0, 2]])
        assert not mbm.same_canonical(M, MarkedBlockMatrix((2,), (1, 1), M.entries), tol)
        assert not mbm.same_canonical(M, MarkedBlockMatrix((1, 1), (2,), [[1, 0], [0, 3]]), tol)
