import numpy as np
import pytest

from unicanon.numcore import Tolerance, random_unitary
from unicanon import mbm
from unicanon.mbm import MarkedBlockMatrix
from unicanon.quiverrep import Representation
from unicanon.wildness import (
    GADGET_KINDS,
    ShapeMismatchError,
    RelationViolatedError,
    gadget,
    gadget_faithful,
    tame_canonical,
)

from conftest import simil_canonical


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestGadgetRelations:
    def test_nilpotent3_on_zero(self):
        G = gadget("Nilpotent3", np.zeros((1, 1)))
        M = G.matrices["a"]
        assert np.allclose(M, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert np.abs(np.linalg.matrix_power(M, 3)).max() == 0

    def test_nilpotent3_cube_zero(self):
        rng = np.random.default_rng(0)
        M = gadget("Nilpotent3", rand_matrix(rng, 3)).matrices["a"]
        assert np.abs(np.linalg.matrix_power(M, 3)).max() == 0

    def test_projector_pair_idempotent(self):
        rng = np.random.default_rng(1)
        G = gadget("ProjectorPair", rand_matrix(rng, 2))
        for a in ("a", "b"):
            P = G.matrices[a]
            assert np.abs(P @ P - P).max() < 1e-12

    def test_square_zero_pair(self):
        rng = np.random.default_rng(2)
        G = gadget("SquareZeroPair", rand_matrix(rng, 2))
        A, B = G.matrices["a"], G.matrices["b"]
        for M in (A, B, A @ B, B @ A):
            assert np.abs(M @ M).max() < 1e-12

    def test_arrow_pair_dims(self):
        rng = np.random.default_rng(3)
        G = gadget("ArrowPair", rand_matrix(rng, 2))
        assert G.dims == (6, 6, 4)
        assert G.matrices["a"].shape == (6, 6)
        assert G.matrices["b"].shape == (6, 4)

    def test_subspace_triple_zero(self, tol):
        G = gadget("SubspaceTriple", np.zeros((2, 2)))
        assert isinstance(G, MarkedBlockMatrix)
        assert np.allclose(G.entries, np.eye(6)[:, [0, 1, 2, 3, 4, 5]])
        assert not mbm.is_indecomposable(G, tol)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            gadget("Nilpotent3", np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError):
            gadget("SubspaceTriple", np.zeros((2, 2)), np.zeros((3, 3)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gadget("nope", np.zeros((1, 1)))


class TestFaithful:
    def base_equal(self, X, Y, tol):
        cx, _, _ = simil_canonical(X, tol)
        cy, _, _ = simil_canonical(Y, tol)
        return bool(np.allclose(cx, cy, atol=1e-6))

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_conjugate_pairs_true(self, kind, tol):
        rng = np.random.default_rng(4)
        for k in range(3):
            n = 2 if k < 2 else 3
            X = rand_matrix(rng, n)
            U = random_unitary(n, seed=50 + k)
            Y = U.conj().T @ X @ U
            assert gadget_faithful(kind, X, Y, tol)

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_independent_pairs_match_base(self, kind, tol):
        rng = np.random.default_rng(5)
        for k in range(3):
            X = rand_matrix(rng, 2)
            Y = rand_matrix(rng, 2)
            assert gadget_faithful(kind, X, Y, tol) == self.base_equal(
                X, Y, tol
            )

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_size_mismatch(self, kind, tol):
        # before: DimMismatchError for four kinds, False for SubspaceTriple
        with pytest.raises(ShapeMismatchError, match="equal sizes"):
            gadget_faithful(kind, np.eye(2), np.eye(3), tol)

    def test_size_mismatch_is_the_engines_error(self, tol):
        # before: wildness raised a class of its own, which
        # ``except mbm.ShapeMismatchError`` missed
        assert ShapeMismatchError is mbm.ShapeMismatchError
        with pytest.raises(mbm.ShapeMismatchError):
            gadget_faithful("Nilpotent3", np.eye(2), np.eye(3), tol)

    @pytest.mark.parametrize("kind", GADGET_KINDS)
    def test_scalars(self, kind, tol):
        one = np.array([[1.0]])
        two = np.array([[2.0]])
        assert not gadget_faithful(kind, one, two, tol)
        assert gadget_faithful(kind, one, one, tol)


class TestTameNilpotent2:
    def test_already_canonical(self, tol):
        C = tame_canonical("Nilpotent2", [[0.0, 5.0], [0.0, 0.0]], tol)
        assert np.allclose(C, [[0, 5], [0, 0]])

    def test_matches_block_reduction(self, tol):
        rng = np.random.default_rng(6)
        for k in range(10):
            n, r = 4, 2
            B = rng.standard_normal((r, n - r)) + 1j * rng.standard_normal(
                (r, n - r)
            )
            A = np.zeros((n, n), dtype=complex)
            A[:r, r:] = B
            U = random_unitary(n, seed=60 + k)
            A = U.conj().T @ A @ U
            C = tame_canonical("Nilpotent2", A, tol)
            # oracle: canonicalize A as a marked 1x1 block problem
            M = MarkedBlockMatrix((n,), (n,), A, {(0, 0)})
            O, _, _ = mbm.canonicalize(M, tol)
            assert np.abs(C - O.entries).max() < 1e-6

    def test_relation_checked(self, tol):
        with pytest.raises(RelationViolatedError):
            tame_canonical("Nilpotent2", np.eye(2), tol)


class TestTameProjector:
    def test_orthoprojector(self, tol):
        C = tame_canonical("Projector", np.diag([1.0, 0.0]), tol)
        assert np.allclose(C, np.diag([1.0, 0.0]))

    def test_matches_block_reduction(self, tol):
        rng = np.random.default_rng(7)
        for k in range(10):
            n, r = 4, 2
            D = rng.uniform(0.2, 2.0, size=r)
            P = np.zeros((n, n), dtype=complex)
            P[:r, :r] = np.eye(r)
            P[:r, r:] = np.diag(D)
            U = random_unitary(n, seed=70 + k)
            P = U.conj().T @ P @ U
            C = tame_canonical("Projector", P, tol)
            M = MarkedBlockMatrix((n,), (n,), P, {(0, 0)})
            O, _, _ = mbm.canonicalize(M, tol)
            assert np.abs(C - O.entries).max() < 1e-6

    def test_relation_checked(self, tol):
        with pytest.raises(RelationViolatedError):
            tame_canonical("Projector", 2 * np.eye(2), tol)


class TestTameAtExtremeScales:
    """The relations are decided at unit norm, where no square over- or
    underflows."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, c", [
        ("Nilpotent2", 1e-200), ("Nilpotent2", 1e200),
        ("Projector", 1e-200), ("Projector", 1e155), ("Projector", 1e200),
    ])
    def test_scaled_identity_is_rejected(self, tol, kind, c):
        with pytest.raises(RelationViolatedError):
            tame_canonical(kind, c * np.eye(2), tol)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_nilpotent_form_scales(self, tol, c):
        A = np.zeros((4, 4), dtype=complex)
        A[:2, 2:] = [[1.0, 2j], [0.5, 3.0]]
        U = random_unitary(4, seed=5)
        A = U.conj().T @ A @ U
        C = tame_canonical("Nilpotent2", A, tol)
        Cc = tame_canonical("Nilpotent2", c * A, tol)
        assert np.linalg.norm(Cc / c - C) <= 1e-12 * np.linalg.norm(C)


class TestTameSubspacePair:
    def test_single_angle(self, tol):
        c, s = np.cos(0.4), np.sin(0.4)
        out = tame_canonical(
            "SubspacePair", ([[1.0], [0.0]], [[c], [s]]), tol
        )
        assert out["both"] == 0 and out["neither"] == 0
        assert out["first"] == 0 and out["second"] == 0
        assert len(out["angle"]) == 1
        assert abs(out["angle"][0] - c / s) < 1e-9

    def test_counts(self, tol):
        A1 = np.eye(3)[:, :2]
        A2 = np.eye(3)[:, :1]
        out = tame_canonical("SubspacePair", (A1, A2), tol)
        assert out == {
            "angle": [],
            "both": 1,
            "first": 1,
            "second": 0,
            "neither": 1,
        }

    def test_invariance(self, tol):
        rng = np.random.default_rng(8)
        n, k1, k2 = 5, 2, 2
        A1 = rng.standard_normal((n, k1)) + 1j * rng.standard_normal((n, k1))
        A2 = rng.standard_normal((n, k2)) + 1j * rng.standard_normal((n, k2))
        base = tame_canonical("SubspacePair", (A1, A2), tol)
        U = random_unitary(n, seed=80)
        G1 = rng.standard_normal((k1, k1)) + np.eye(k1) * 3
        G2 = rng.standard_normal((k2, k2)) + np.eye(k2) * 3
        out = tame_canonical("SubspacePair", (U @ A1 @ G1, U @ A2 @ G2), tol)
        for key in ("both", "first", "second", "neither"):
            assert out[key] == base[key]
        assert np.allclose(out["angle"], base["angle"], atol=1e-7)

    def test_rank_deficient_rejected(self, tol):
        A1 = np.zeros((3, 1))
        with pytest.raises(RelationViolatedError):
            tame_canonical("SubspacePair", (A1, np.eye(3)[:, :1]), tol)

    def test_ambient_mismatch(self, tol):
        with pytest.raises(ShapeMismatchError):
            tame_canonical(
                "SubspacePair", (np.eye(2)[:, :1], np.eye(3)[:, :1]), tol
            )

    def test_unknown_kind(self, tol):
        with pytest.raises(ValueError):
            tame_canonical("nope", np.eye(1), tol)
