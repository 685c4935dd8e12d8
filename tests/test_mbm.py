import numpy as np
import pytest

from unicanon.numcore import Tolerance
from unicanon import mbm
from unicanon.mbm import (
    MarkedBlockMatrix,
    MarkedBlockNotSquareError,
    DimensionMismatchError,
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

from conftest import KRONECKER, example_8x12, random_mbm

D4 = Quiver(4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)])


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


class TestValidation:
    def test_marked_block_must_be_square(self):
        with pytest.raises(MarkedBlockNotSquareError):
            validate(
                MarkedBlockMatrix((2,), (3,), np.zeros((2, 3)), {(0, 0)})
            )

    def test_entries_shape(self):
        with pytest.raises(DimensionMismatchError):
            validate(MarkedBlockMatrix((2,), (2,), np.zeros((2, 3))))

    def test_tie_closure_chains(self):
        # marks (0,0) and (0,1) force both column strips into one class
        M = MarkedBlockMatrix((2,), (2, 2), np.zeros((2, 4)), {(0, 0), (0, 1)})
        t = tie_closure(M)
        assert t.tied(0, 0) and t.tied(0, 1)

    def test_json_round_trip(self):
        M = example_8x12()
        M2 = MarkedBlockMatrix.from_json(M.to_json())
        assert M2.row_strips == M.row_strips
        assert M2.marked == M.marked
        assert np.allclose(M2.entries, M.entries)


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
        prev_rows = len(state.rows)
        prev_cols = len(state.cols)
        while state.derive():
            assert len(state.rows) >= prev_rows
            assert len(state.cols) >= prev_cols
            prev_rows, prev_cols = len(state.rows), len(state.cols)


class TestEngineInvariants:
    """The invariants the reduction engine's bookkeeping relies on."""

    @pytest.mark.parametrize("M", engine_inputs())
    def test_zones_partition_cells(self, tol, M):
        _, _, trace = canonicalize(M, tol)
        m, n = M.entries.shape
        covered = [cell for z in trace.zones for cell in z.cells]
        assert len(covered) == m * n
        assert set(covered) == {(r, c) for r in range(m) for c in range(n)}
        for z in trace.zones:
            for r0, rs, c0, cs in z.merged_blocks:
                assert {
                    (r, c) for r in range(r0, r0 + rs) for c in range(c0, c0 + cs)
                } <= z.cells

    @pytest.mark.parametrize("M", engine_inputs())
    def test_blocks_before_cursor_stay_canonical(self, tol, M):
        state = mbm.ReductionState(M, tol)
        while state.derive():
            for rs in state.rows:
                for cs in state.cols:
                    if (-rs.start, cs.start) < state.cursor:
                        assert state._is_canonical(rs, cs)


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
