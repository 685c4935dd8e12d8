"""End-to-end acceptance checks exercising every module together."""

import numpy as np
import pytest

from unicanon.numcore import Tolerance, random_unitary
from unicanon import mbm
from unicanon.mbm import MarkedBlockMatrix
from unicanon import scheme as sm
from unicanon import quiverrep as qr
from unicanon import dims as dm
from unicanon import euclid as eu
from unicanon import wildness as wd

from conftest import (
    example_8x12,
    interleaved_J,
    random_mbm,
    simil_canonical,
    LOOP,
    KRONECKER,
    TWO_ARROWS_IN,
    FOUR_ARROWS,
)

QUIVERS = (LOOP, KRONECKER, TWO_ARROWS_IN, FOUR_ARROWS)


def rep_scheme(R, tol):
    M = qr.pack(R)
    C, _, trace = mbm.canonicalize(M, tol)
    return sm.scheme_of(C, trace.zones, tol)


class TestCanonicalCompleteness:
    def test_200_random_scrambles(self, tol):
        rng = np.random.default_rng(100)
        for k in range(200):
            M = random_mbm(rng)
            C1, _, _ = mbm.canonicalize(M, tol)
            T = mbm.random_transcript(M, seed=3000 + k)
            C2, _, _ = mbm.canonicalize(mbm.apply_admissible(M, T), tol)
            assert np.abs(C1.entries - C2.entries).max() < 1e-6


class TestWorkedExample:
    def test_scramble_recovery(self, tol, M8x12):
        T = mbm.random_transcript(M8x12, seed=77)
        C, _, _ = mbm.canonicalize(mbm.apply_admissible(M8x12, T), tol)
        assert np.abs(C.entries - M8x12.entries).max() < 1e-6

    def test_ten_zones_with_depths(self, tol, M8x12):
        _, _, trace = mbm.canonicalize(M8x12, tol)
        zs = trace.zones
        assert len(zs) == 10
        assert sorted(z.depth for z in zs) == [0, 1, 2, 3, 3, 4, 5, 6, 7, 7]

    def test_scheme_placement(self, tol, M8x12):
        C, _, trace = mbm.canonicalize(M8x12, tol)
        S = sm.scheme_of(C, trace.zones, tol)
        stars = {(r + 1, c + 1) for r, c in S.star_cells()}
        circles = {(r + 1, c + 1) for r, c in S.circle_cells()}
        assert stars == {(k, k) for k in range(1, 9)} | {
            (1, 9), (2, 10), (3, 11), (1, 12),
        }
        assert circles == {
            (1, 5), (2, 6), (3, 7),
            (5, 9), (6, 10), (7, 11), (8, 12),
            (4, 12), (3, 12), (1, 11),
        }


class TestKrullSchmidt:
    def test_shuffled_triple_sum(self, tol):
        P1 = qr.Representation(
            LOOP, (2,), {"a": np.array([[1.0, 3.0], [0.0, 2.0]])}
        )
        P2 = qr.Representation(LOOP, (1,), {"a": np.array([[5.0]])})
        assert qr.is_indecomposable_rep(P1, tol)
        assert qr.is_indecomposable_rep(P2, tol)
        S = qr.direct_sum(qr.direct_sum(P1, P1), P2)
        W = qr.Isometry((random_unitary(5, seed=42),))
        parts = qr.decompose_rep(qr.apply_isometry(S, W), tol)
        assert sorted(m for _, m in parts) == [1, 2]
        for P, m in parts:
            target = P1 if m == 2 else P2
            assert qr.isometric(P, target, tol)


class TestDimensionSet:
    def test_construct_iff_member(self, tol):
        for Q in QUIVERS:
            for z in self._all_vectors(Q, 5):
                member = dm.in_D(Q, z)
                if member:
                    R = dm.construct_indecomposable(Q, z, seed=0, tol=tol)
                    assert R.dims == z
                    assert qr.is_indecomposable_rep(R, tol)
                else:
                    with pytest.raises(dm.NotInDError):
                        dm.construct_indecomposable(Q, z, seed=0, tol=tol)

    def test_non_members_always_decompose(self, tol):
        for Q in QUIVERS:
            for z in self._all_vectors(Q, 5):
                if dm.in_D(Q, z):
                    continue
                for k in range(50):
                    A = qr.random_rep(Q, z, seed=10_000 + 97 * k)
                    out = dm.zero_summand_witness(A, tol)
                    if out is None:
                        parts = qr.decompose_rep(A, tol)
                        assert (
                            len(parts) > 1 or parts[0][1] > 1
                        ), f"{Q} {z} seed {k}: expected a decomposition"

    @staticmethod
    def _all_vectors(Q, bound):
        import itertools

        return [
            z
            for z in itertools.product(range(bound + 1), repeat=Q.p)
            if 1 <= sum(z) <= bound
        ]


class TestParameterCounts:
    def _sampled(self):
        out = []
        for Q in QUIVERS:
            for z in dm.enumerate_D(Q, 4):
                out.append((Q, z))
        rng = np.random.default_rng(5)
        idx = rng.choice(len(out), size=20, replace=False)
        return [out[i] for i in idx]

    def test_general_position_counts(self, tol):
        for Q, d in self._sampled():
            R = dm.construct_indecomposable(Q, d, seed=0, tol=tol)
            assert qr.rep_params(R, tol) == dm.max_params(Q, d)

    def test_decomposable_strictly_smaller(self, tol):
        # decomposable instances fall strictly below the indecomposable
        # parameter counts
        A = np.zeros((3, 3), dtype=complex)
        A[0, 2] = 4.0
        N = qr.Representation(LOOP, (3,), {"a": A})
        assert not qr.is_indecomposable_rep(N, tol)
        nr, nc = qr.rep_params(N, tol)
        mr, mc = dm.max_params(LOOP, (3,))
        assert nr < mr and nc < mc

        K = qr.Representation(
            KRONECKER,
            (2, 2),
            {"a": np.eye(2, dtype=complex), "b": np.diag([5.0, 7.0])},
        )
        assert not qr.is_indecomposable_rep(K, tol)
        nr, nc = qr.rep_params(K, tol)
        mr, mc = dm.max_params(KRONECKER, (2, 2))
        assert nr < mr and nc < mc

    def test_two_loops_at_size(self, tol):
        # a general-position two-loop representation of dimension 16
        two_loops = qr.Quiver(1, [("a", 1, 1), ("b", 1, 1)])
        A = qr.random_rep(two_loops, (16,), seed=16)
        assert qr.rep_params(A, tol) == dm.max_params(two_loops, (16,)) == (15, 377)

    def test_loop_orbit_totals(self):
        for n in (2, 3):
            nr, nc = dm.max_params(LOOP, (n,))
            assert nr + 2 * nc == n * n + 1


class TestIntegerFill:
    def test_integer_fixpoints(self, tol):
        rng = np.random.default_rng(6)
        count = 0
        for Q in QUIVERS:
            for z in dm.enumerate_D(Q, 3):
                if count >= 20:
                    return
                R = qr.random_rep(Q, z, seed=int(rng.integers(1 << 30)))
                M = qr.pack(R)
                C, _, trace = mbm.canonicalize(M, tol)
                S = sm.scheme_of(C, trace.zones, tol)
                F = sm.fill_general_position(S, "integer", seed=0, tol=tol)
                vals = set(np.unique(F.entries.real)) | set(
                    np.unique(F.entries.imag)
                )
                assert vals <= set(float(x) for x in range(max(z) + 1))
                if F.entries.size:
                    C2, _, _ = mbm.canonicalize(F, tol)
                    assert np.abs(C2.entries - F.entries).max() < 1e-9
                count += 1


class TestEuclideanSuite:
    def test_realify_identity_100(self, tol):
        rng = np.random.default_rng(7)
        cases = [(LOOP, (1,)), (LOOP, (2,)), (KRONECKER, (1, 1)),
                 (KRONECKER, (1, 2)), (TWO_ARROWS_IN, (1, 1, 1))]
        for k in range(100):
            Q, d = cases[k % len(cases)]
            A = qr.random_rep(Q, d, seed=20_000 + k)
            assert qr.isometric(
                eu.realify(A), qr.direct_sum(A, eu.conj_rep(A)), tol
            )

    def test_takagi_100(self, tol):
        rng = np.random.default_rng(8)
        for k in range(100):
            n = int(rng.integers(1, 7))
            V = random_unitary(n, seed=30_000 + k)
            D = np.diag(np.exp(2j * np.pi * rng.uniform(size=n)))
            S = V.T @ D @ V
            U = eu.takagi_symmetric(S, tol)
            assert np.abs(U.T @ U - S).max() < 1e-9

    def test_skew_100(self, tol):
        rng = np.random.default_rng(9)
        J = interleaved_J
        for k in range(100):
            n = 2 * int(rng.integers(1, 4))
            V = random_unitary(n, seed=40_000 + k)
            S = V.T @ J(n) @ V
            U = eu.skew_canonical(S, tol)
            assert np.abs(U.T @ J(n) @ U - S).max() < 1e-9

    def test_real_matrices_50(self, tol):
        rng = np.random.default_rng(10)
        done = 0
        k = 0
        while done < 50:
            k += 1
            n = 2 + done % 2
            B = rng.standard_normal((n, n))
            R = qr.Representation(LOOP, (n,), {"a": B.astype(complex)})
            if not qr.is_indecomposable_rep(R, tol):
                continue
            U = random_unitary(n, seed=50_000 + k)
            flag, W = eu.matrix_real_test(U.conj().T @ B @ U, tol)
            assert flag
            assert np.abs(np.asarray(W).imag).max(initial=0.0) < 1e-8
            assert qr.isometric(
                R,
                qr.Representation(
                    LOOP, (n,), {"a": np.asarray(W, dtype=complex)}
                ),
                tol,
            )
            done += 1
        flag, W = eu.matrix_real_test([[1j]], tol)
        assert not flag and W is None

    def test_real_isometry_50(self, tol):
        rng = np.random.default_rng(11)
        for k in range(50):
            n = 2 + k % 2
            M = rng.standard_normal((n, n))
            A = qr.Representation(LOOP, (n,), {"a": M.astype(complex)})
            O, _ = np.linalg.qr(rng.standard_normal((n, n)))
            B = qr.Representation(
                LOOP, (n,), {"a": (O.T @ M @ O).astype(complex)}
            )
            T = eu.real_isometry(A, B, tol)
            assert T is not None
            T0 = T.S[0]
            assert np.abs(T0.imag).max() < 1e-8
            assert (
                np.abs(T0 @ A.matrices["a"] - B.matrices["a"] @ T0).max()
                < 1e-8 * (1 + np.linalg.norm(M))
            )


class TestWildnessGadgets:
    def base_equal(self, X, Y, tol):
        cx, _, _ = simil_canonical(X, tol)
        cy, _, _ = simil_canonical(Y, tol)
        return bool(np.allclose(cx, cy, atol=1e-6))

    @pytest.mark.parametrize("kind", wd.GADGET_KINDS)
    def test_faithfulness_50_pairs(self, kind, tol):
        rng = np.random.default_rng(12)
        for k in range(50):
            n = 2 if k % 2 else 3
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if k % 3 == 0:
                U = random_unitary(n, seed=60_000 + k)
                Y = U.conj().T @ X @ U
            else:
                Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal(
                    (n, n)
                )
            assert wd.gadget_faithful(kind, X, Y, tol) == self.base_equal(
                X, Y, tol
            )

    def test_tame_forms_match_reduction(self, tol):
        rng = np.random.default_rng(13)
        for k in range(5):
            n, r = 4, 2
            B = rng.standard_normal((r, n - r)) + 1j * rng.standard_normal(
                (r, n - r)
            )
            A = np.zeros((n, n), dtype=complex)
            A[:r, r:] = B
            U = random_unitary(n, seed=70_000 + k)
            A = U.conj().T @ A @ U
            C = wd.tame_canonical("Nilpotent2", A, tol)
            M = MarkedBlockMatrix((n,), (n,), A, {(0, 0)})
            O, _, _ = mbm.canonicalize(M, tol)
            assert np.abs(C - O.entries).max() < 1e-6

            P = np.zeros((n, n), dtype=complex)
            P[:r, :r] = np.eye(r)
            P[:r, r:] = np.diag(rng.uniform(0.2, 2.0, size=r))
            P = U.conj().T @ P @ U
            C = wd.tame_canonical("Projector", P, tol)
            O, _, _ = mbm.canonicalize(
                MarkedBlockMatrix((n,), (n,), P, {(0, 0)}), tol
            )
            assert np.abs(C - O.entries).max() < 1e-6

    def test_subspace_pair_angle_vs_reduction(self, tol):
        # one line against one line at angle t: the canonical block matrix
        # carries cos t and sin t, ratio alpha
        t = 0.4
        A1 = np.array([[1.0], [0.0]])
        A2 = np.array([[np.cos(t)], [np.sin(t)]])
        out = wd.tame_canonical("SubspacePair", (A1, A2), tol)
        E = np.concatenate([A1, A2], axis=1)
        M = MarkedBlockMatrix((2,), (1, 1), E.astype(complex))
        C, _, _ = mbm.canonicalize(M, tol)
        # canonical shape [[1, cos t], [0, sin t]]; alpha = cos t / sin t
        assert abs(C.entries[0, 0] - 1.0) < 1e-9
        alpha = C.entries[0, 1].real / C.entries[1, 1].real
        assert abs(alpha - out["angle"][0]) < 1e-7
