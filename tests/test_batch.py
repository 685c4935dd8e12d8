"""A batch of matrices of one problem is reduced as each member alone would be.

``mbm._canonicalize_batch`` shares every decision of the reduction between
its members and keeps their entries, transcripts and step values apart; at
the first decision on which they differ, each member is reduced on its own."""

import numpy as np
import pytest

from unicanon import mbm, wildness
from unicanon.mbm import MarkedBlockMatrix, canonicalize
from unicanon.numcore import random_unitary
from unicanon.quiverrep import Isometry, Quiver, Representation, apply_isometry, isometric, pack, random_rep

from conftest import D4, KRONECKER, LOOP, TWO_LOOPS

LOOP_ARROW = Quiver(2, [("l", 1, 1), ("x", 1, 2)])


def scrambled_packings(Q, d, seed):
    """The packings of a complex Gaussian representation of Q and of its
    image under Haar-random unitaries per vertex."""
    A = random_rep(Q, d, seed=seed)
    T = Isometry(tuple(random_unitary(n, seed=seed + 1 + v) for v, n in enumerate(d)))
    return pack(A), pack(apply_isometry(A, T))


def scrambled_similarity(n, seed):
    """A generic complex n x n matrix on one marked strip, and U^H X U."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U = random_unitary(n, seed=seed + 1)
    return (MarkedBlockMatrix((n,), (n,), Y, {(0, 0)}) for Y in (X, U.conj().T @ X @ U))


def scrambled_gadgets(kind, seed):
    """gadget(kind, X) and gadget(kind, U^H X U), packed if representations."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U = random_unitary(2, seed=seed + 1)
    G = (wildness.gadget(kind, Y) for Y in (X, U.conj().T @ X @ U))
    return tuple(pack(g) if isinstance(g, Representation) else g for g in G)


PAIRS = {
    "kronecker (3,3)": lambda: scrambled_packings(KRONECKER, (3, 3), 1),
    "kronecker (8,8)": lambda: scrambled_packings(KRONECKER, (8, 8), 2),
    "d4 (2,2,2,3)": lambda: scrambled_packings(D4, (2, 2, 2, 3), 3),
    "two loops (4,)": lambda: scrambled_packings(TWO_LOOPS, (4,), 4),
    "loop+arrow (4,3)": lambda: scrambled_packings(LOOP_ARROW, (4, 3), 5),
    "similarity n=12": lambda: scrambled_similarity(12, 6),
    **{f"gadget {kind}": (lambda kind=kind: scrambled_gadgets(kind, 7)) for kind in wildness.GADGET_KINDS},
}


def assert_same_reduction(got, want):
    """Two results of ``canonicalize`` agree bit for bit: entries, transcripts,
    every step's kind, blocks, values and pieces, and the zones."""
    (C, T, trace), (D, S, ref) = got, want
    assert np.array_equal(C.entries, D.entries)
    for X, Y in zip((*T.R, *T.S), (*S.R, *S.S)):
        assert np.array_equal(X, Y)
    assert len(trace.steps) == len(ref.steps)
    for a, b in zip(trace.steps, ref.steps):
        assert (a.kind, a.row_block, a.col_block, a.row_pieces, a.col_pieces) == (
            b.kind, b.row_block, b.col_block, b.row_pieces, b.col_pieces)
        assert [k for _, k in a.values] == [k for _, k in b.values]
        assert np.array_equal([v for v, _ in a.values], [v for v, _ in b.values])
    assert trace.zones == ref.zones
    assert (trace.row_substrips, trace.col_substrips, trace.num_classes) == (
        ref.row_substrips, ref.col_substrips, ref.num_classes)


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", PAIRS)
    def test_batch_of_two_is_two_reductions(self, tol, reductions, name):
        M, N = PAIRS[name]()
        assert not mbm._invariants_differ(M, N, tol)
        batch = mbm._canonicalize_batch((M, N), tol)
        assert len(reductions) == 2  # one batch, which did not diverge
        assert mbm.same_canonical(batch[0][0], batch[1][0], tol)
        for got, X in zip(batch, (M, N)):
            assert_same_reduction(got, canonicalize(X, tol))

    def test_members_of_different_problems_raise(self, tol):
        M, _ = scrambled_packings(KRONECKER, (3, 3), 1)
        N = MarkedBlockMatrix(M.row_strips, M.col_strips, M.entries)  # no marks
        with pytest.raises(mbm.ShapeMismatchError):
            mbm._canonicalize_batch((M, N), tol)


def same_spectrum_loops(n, seed):
    """Loops A = U(Λ + T₁)Uᴴ and B = W(Λ + T₂)Wᴴ with ‖T₁‖ = ‖T₂‖ for
    strictly upper triangular T: their traces and Gram matrices agree.  Λ is
    ordered as the similarity step orders it, so the Schur forms are Λ + T
    up to phases, and T₁ is zero where the first phase step of B's
    reduction lies: A's block there is canonical and B's is not."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = lam[np.argsort(-lam.real)]
    T1, T2 = (np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1) for _ in "12")
    T1[n - 2, n - 1] = 0.0
    T2 *= np.linalg.norm(T1) / np.linalg.norm(T2)
    U, W = random_unitary(n, seed=seed + 1), random_unitary(n, seed=seed + 2)
    return (Representation(LOOP, (n,), {"a": V @ (np.diag(lam) + T) @ V.conj().T})
            for V, T in ((U, T1), (W, T2)))


class TestBatchDivergence:
    @pytest.mark.parametrize("seed", range(3))
    def test_diverged_pair_is_reduced_member_by_member(self, tol, reductions, seed):
        A, B = same_spectrum_loops(16, 10 * seed)
        M, N = pack(A), pack(B)
        assert not mbm._invariants_differ(M, N, tol)
        assert not isometric(A, B, tol)
        # the batch of two, then each member again on its own
        assert len(reductions) == 4
        for got, X in zip(mbm._canonicalize_batch((M, N), tol), (M, N)):
            assert_same_reduction(got, canonicalize(X, tol))
        assert not mbm.same_canonical(canonicalize(M, tol)[0], canonicalize(N, tol)[0], tol)

    def test_kernel_piece_sizes_differ(self, tol, reductions):
        # both 2x2 blocks are non-canonical, so the grids agree; the SVD puts
        # both singular values of the first in one piece, and only one of the
        # second's, which has rank 1
        M, N = (MarkedBlockMatrix((2,), (2,), np.diag(d)) for d in ((1.0, 1.0), (1.0, 0.0)))
        got = mbm._canonicalize_batch((M, N), tol)
        assert len(reductions) == 4
        for g, X in zip(got, (M, N)):
            assert_same_reduction(g, canonicalize(X, tol))

    def test_phase_step_threshold_differs(self, tol):
        # a 1x1 block that the grid flags non-canonical in both members, zero
        # in the first and not in the second: the scan's threshold test
        # decides the phase step differently, and the scan raises
        A = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
        M = MarkedBlockMatrix((1, 1), (1, 1), A)
        state = mbm.ReductionState([M, M], tol)
        grid = state._grid()
        canonical = grid.canonical.copy()
        canonical[1, 0] = False
        state.A[1, 1, 0] = 1.0
        with pytest.raises(mbm._Diverged):
            state._scan(grid._replace(canonical=canonical), 0)
