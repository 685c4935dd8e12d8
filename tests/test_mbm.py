import warnings

import numpy as np
import pytest

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
    validate,
    tie_closure,
    apply_admissible,
    random_transcript,
    canonicalize,
    block_direct_sum,
    decompose,
    is_indecomposable,
)

from unicanon.quiverrep import Quiver, Representation, pack

from conftest import D4, KRONECKER, example_8x12, random_mbm


def packed(Q, d, seed):
    """Packed MBM of a complex Gaussian representation of Q."""
    rng = np.random.default_rng(seed)
    mats = {
        a: rng.standard_normal((d[t - 1], d[s - 1]))
        + 1j * rng.standard_normal((d[t - 1], d[s - 1]))
        for a, s, t in Q.arrows
    }
    return pack(Representation(Q, d, mats))[0]


def engine_inputs():
    rng = np.random.default_rng(21)
    return [random_mbm(rng) for _ in range(20)] + [
        packed(KRONECKER, (16, 16), 1),
        packed(D4, (6, 6, 6, 12), 2),
    ]


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


def phase_step(state, grid, i, j, depth):
    """The reference of ``_phase_run``: one phase step per ``derive`` call,
    made by ``_reduce`` (an SVD and ``_apply``'s dense products).  The next
    scan's grid is then carried over the step: the 1x1 blocks between
    members of the joined class become tied and canonical, every other flag
    stays, owners are reread.  A 1x1 target is not divided, so the indices
    of every substrip stay."""
    state._reduce(i, j, depth, False)
    label = state.rows.label[i]
    if label == state.cols.label[j]:  # the value was above the threshold
        n = i + 1  # the next scan resumes on row i
        both = (state.rows.label[:n, None] == label) & (state.cols.label == label)
        state.grid = grid._replace(
            rstart=grid.rstart[:n], rsize=grid.rsize[:n], tied=grid.tied[:n] | both,
            canonical=grid.canonical[:n] | both,
            owner=state.owner[grid.rstart[:n, None], grid.cstart],
        )
    state.cursor = (-int(grid.rstart[i]), int(grid.cstart[j]))
    return True


def repaint_merge(state):
    """``_merge_zero_zones`` with the owner map repainted on every merge
    instead of read through pointers: same probes, same order."""
    rows, cols = state.propagated["r"], state.propagated["c"]
    probes = []
    for zid in state._zero_candidates:
        r0, rs, c0, cs = state.zones[zid][2]
        cells = [cell for across, cell in (
            (c0 in cols, (r0, c0 - 1)), (c0 + cs in cols, (r0, c0 + cs)),
            (r0 in rows, (r0 - 1, c0)), (r0 + rs in rows, (r0 + rs, c0)),
        ) if across]
        probes.append((zid, cells))
    changed = True
    while changed:
        changed = False
        for zid, cells in probes:
            z = state.zones[zid]
            if z is None:
                continue
            for r, c in cells:
                tid = int(state.owner[r, c])
                if tid < 0 or tid == zid:
                    continue
                _, _, block, _, absorbed = z
                state.zones[tid][4].extend([block, *absorbed])
                state.owner[state.owner == zid] = tid
                state.zones[zid] = None
                changed = True
                break


def reduce_fully(M, tol):
    state = mbm.ReductionState(M, tol)
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
    B = state.A[r0 : r0 + h, c0 : c0 + w]
    if state.rows.label[i] == state.cols.label[j]:
        lam = np.mean(np.diagonal(B))
        residual = np.linalg.norm(B - lam * np.eye(h))
        return True, lam, residual <= tol.abs * max(1.0, h)
    limit = tol.abs * max(1.0, (h * w) ** 0.5)
    return False, None, np.linalg.norm(B) <= limit


def union_all(ties, items):
    """Join every item of the list ``items`` to the class of the first."""
    for x in items[1:]:
        ties.union(items[0], x)


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
    union-find over the current substrips, built without the engine's labels,
    and the number of steps replayed so far: the marks first, then for every
    step the call recorded, in order, the pieces joined the way the reduction
    ties them (piece alpha of every member of the reduced classes; for
    equivalence also the leftover pieces within each former class)."""
    M = state.M
    ties = mbm.DisjointSet(substrips(state))
    strips = [("r", k) for k in state.rows.strip.tolist()] + [
        ("c", k) for k in state.cols.strip.tolist()]
    first = dict(zip(strips, substrips(state)))  # one substrip per nonempty strip
    for i, j in M.marked:
        if ("r", i) in first and ("c", j) in first:  # size-0 strips have none
            ties.union(first["r", i], first["c", j])
    yield ties, 0
    while True:
        before, done = list(substrips(state)), len(state.steps)
        if not state.derive():
            return
        after = list(substrips(state))

        def old(axis, start):
            return next(s for s in before if s[:2] == (axis, start))

        def members(x):
            return [s for s in before if ties.find(s) == ties.find(x)]

        def pieces(x):
            axis, start, size = x
            return sorted(s for s in after if s[0] == axis and start <= s[1] < start + size)

        for step in state.steps[done:]:  # a run of phase steps divides nothing
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
        yield ties, len(state.steps)


class TestValidation:
    def test_marked_block_must_be_square(self):
        with pytest.raises(MarkedBlockNotSquareError):
            validate(
                MarkedBlockMatrix((2,), (3,), np.zeros((2, 3)), {(0, 0)})
            )

    def test_entries_shape(self):
        with pytest.raises(DimensionMismatchError):
            validate(MarkedBlockMatrix((2,), (2,), np.zeros((2, 3))))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]
    )
    def test_non_finite_entry(self, bad):
        E = np.ones((2, 3), dtype=complex)
        E[1, 2] = E[0, 1] = bad
        M = MarkedBlockMatrix((2,), (3,), E)
        with pytest.raises(ValueError, match=r"entry \(1,2\) is not finite"):
            validate(M)
        # canonicalize checks before it divides by the norm: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                canonicalize(M)

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
        merged = by_depth[2][0].merged_blocks
        assert set(merged) == {(3, 1, 7, 1), (0, 3, 7, 1)}

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
        state = mbm.ReductionState(M, tol)
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
        # (similarity), plus every block the merge rule gave it
        for z in trace.zones:
            if z.kind == "equivalence":
                own = rect_cells(*z.block)
            else:
                c0 = z.block[2]
                own = {(r, c) for st in z.stairs for r, _ in st for c in range(c0, st[-1][1] + 1)}
            assert z.cells == own.union(*(rect_cells(*b) for b in z.merged_blocks))

    @pytest.mark.parametrize("M", engine_inputs() + rank_deficient_inputs())
    def test_labels_match_union_find_replay(self, tol, M):
        state = mbm.ReductionState(M, tol)
        for ties, replayed in replay_ties(state):
            subs = substrips(state)
            assert partition(subs, subs.get) == partition(subs, ties.find)
        assert replayed == len(state.steps)
        trace = state.trace()
        assert trace.num_classes == len(partition(subs, ties.find))

    @pytest.mark.parametrize("M", engine_inputs())
    def test_blocks_before_cursor_stay_canonical(self, tol, M):
        state = mbm.ReductionState(M, tol)
        while state.derive():
            for i, r0 in enumerate(state.rows.start.tolist()):
                for j, c0 in enumerate(state.cols.start.tolist()):
                    if (-r0, c0) < state.cursor:
                        assert reference_block(state, i, j, tol)[2]

    @pytest.mark.parametrize("M", engine_inputs())
    def test_grid_matches_per_block_reference(self, tol, M):
        state = mbm.ReductionState(M, tol)
        running = True
        while running:
            grid, snapped = state._grid(), state._snap()[-1]
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
        state = mbm.ReductionState(MarkedBlockMatrix((2, 3), (2, 3), A, {(0, 0)}), tol)
        grid, snapped = state._grid(), state._snap()[-1]
        assert grid.canonical.tolist() == [[True, True], [False, False]]
        assert grid.tied.tolist() == [[True, False], [False, False]]
        for i in range(len(state.rows.start)):
            for j in range(len(state.cols.start)):
                assert grid.canonical[i, j] == reference_block(state, i, j, tol)[2]
        assert snapped[0, 0] == snapped[1, 1] == np.mean([5.0, 5.0 + d])
        assert not snapped[:, 2:].any() and not snapped[2:].any()


class TestReferenceSteps:
    """The engine's runs of phase steps and pointer merges against what they
    replace: one phase step per call through ``_reduce`` and ``_apply``'s
    dense products (reference ``_apply``), and the repaint-per-merge loop."""

    @pytest.mark.parametrize("reference", ["_apply", "_merge_zero_zones"])
    @pytest.mark.parametrize("M", reference_inputs() + [
        packed(KRONECKER, (24, 24), 6), packed(KRONECKER, (48, 48), 7),
        packed(D4, (12, 12, 12, 24), 8),
    ])
    def test_same_reduction(self, tol, M, reference, monkeypatch):
        state = reduce_fully(M, tol)
        method, replacement = {
            "_apply": ("_phase_run", phase_step),
            "_merge_zero_zones": ("_merge_zero_zones", repaint_merge),
        }[reference]
        monkeypatch.setattr(mbm.ReductionState, method, replacement)
        ref = reduce_fully(M, tol)
        # merges, merged blocks, owner map, zones, substrips: identical
        assert state.zones == ref.zones
        assert np.array_equal(state.owner, ref.owner)
        got, want = state.trace(), ref.trace()
        assert got.zones == want.zones
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

    def test_references_are_exercised(self, tol):
        # the Kronecker reduction has phase steps (1x1 blocks) and merges
        state = reduce_fully(packed(KRONECKER, (16, 16), 4), tol)
        phase = [s for s in state.steps if s.row_block[1] == s.col_block[1] == 1]
        assert len(phase) > len(state.steps) // 2
        assert sum(z is None for z in state.zones) > 100


def generic_similarity(n, seed):
    """A generic complex n x n matrix as one marked strip."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return MarkedBlockMatrix((n,), (n,), X, {(0, 0)})


def carried_grids(state):
    """Run ``state`` to its fixpoint and yield ``(carried, fresh)`` before
    every call that starts from a grid carried over a run of phase steps:
    that grid and a fresh ``_grid`` over the rows up to the cursor's."""
    while True:
        if state.grid is not None:
            nrows = np.searchsorted(state.rows.start, -state.cursor[0], "right")
            yield state.grid, state._grid(nrows)
        if not state.derive():
            return


class TestCarriedGrid:
    """A run of phase steps divides nothing, so the scan after it updates
    the run's grid; the fresh ``_grid`` is the reference."""

    @pytest.mark.parametrize("M", engine_inputs() + [generic_similarity(16, 23)])
    def test_carried_grid_matches_fresh(self, tol, M):
        for carried, fresh in carried_grids(mbm.ReductionState(M, tol)):
            for name in ("rstart", "rsize", "cstart", "csize", "tied", "canonical", "owner"):
                assert np.array_equal(getattr(carried, name), getattr(fresh, name)), name

    def test_inputs_have_phase_steps(self, tol):
        # most steps of these reductions are made in runs, each of which
        # carries its grid to the next scan
        for M in (packed(KRONECKER, (16, 16), 1), packed(D4, (6, 6, 6, 12), 2),
                  generic_similarity(16, 23)):
            state = mbm.ReductionState(M, tol)
            in_runs, before = 0, 0
            while state.derive():
                if state.grid is not None:  # the call made a run
                    in_runs += len(state.steps) - before
                before = len(state.steps)
            assert in_runs >= len(state.steps) // 2

    def test_kronecker_run_in_one_call(self, tol):
        # an SVD step on the first arrow's block, then its run of 23 phase steps
        state = mbm.ReductionState(packed(KRONECKER, (24, 24), 9), tol)
        calls = []
        while state.derive():
            calls.append(state.steps[sum(map(len, calls)):])
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
