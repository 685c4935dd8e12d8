import numpy as np
import pytest

from unicanon.numcore import Tolerance
from unicanon import quiverrep as qr
from unicanon.dims import (
    NotInDError,
    m_matrix,
    delta,
    tits,
    in_D,
    enumerate_D,
    successor,
    growth_path,
    construct_indecomposable,
    max_params,
    zero_summand_witness,
)

from conftest import LOOP, KRONECKER, SINGLE_ARROW, TWO_ARROWS_IN, FOUR_ARROWS
from oracle import d_set

SINGLE_VERTEX = qr.Quiver(1, [])


class TestMatrixAndForms:
    def test_m_matrix(self):
        assert m_matrix(SINGLE_ARROW).tolist() == [[0, 1], [1, 0]]
        assert m_matrix(KRONECKER).tolist() == [[0, 2], [2, 0]]
        assert m_matrix(LOOP).tolist() == [[1]]

    def test_delta(self):
        assert delta((0, 0), KRONECKER) == (0, 0)
        assert delta((1, 3), KRONECKER) == (6, 2)
        assert delta((4,), LOOP) == (4,)

    def test_tits(self):
        assert tits(SINGLE_ARROW, (1, 1)) == 1
        assert tits(LOOP, (5,)) == 0
        assert tits(FOUR_ARROWS, (1, 0, 0)) == 0  # the loop vertex
        assert tits(SINGLE_ARROW, (1, 0)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            delta((1,), KRONECKER)


class TestMembership:
    def test_unit_vectors(self):
        for Q in (LOOP, KRONECKER, TWO_ARROWS_IN):
            for v in range(Q.p):
                e = tuple(1 if u == v else 0 for u in range(Q.p))
                assert in_D(Q, e)

    def test_kronecker(self):
        assert not in_D(KRONECKER, (1, 3))
        for n in range(1, 5):
            assert in_D(KRONECKER, (n, n))

    def test_enumerations(self):
        assert enumerate_D(SINGLE_VERTEX, 3) == [(1,)]
        assert enumerate_D(LOOP, 3) == [(1,), (2,), (3,)]
        assert enumerate_D(SINGLE_ARROW, 2) == [(0, 1), (1, 0), (1, 1)]

    def test_growth_property(self):
        # vectors whose support is bigger than a vertex, one arrow or one
        # loop satisfy z M_Q >= z with z M_Q != z
        for Q in (KRONECKER, TWO_ARROWS_IN, FOUR_ARROWS):
            M = m_matrix(Q)
            for z in enumerate_D(Q, 5):
                supp = [v for v in range(1, Q.p + 1) if z[v - 1]]
                inner = [(s, d) for _, s, d in Q.arrows if s in supp and d in supp]
                if len(supp) == 1 and not inner:
                    continue  # a single vertex without loops
                if len(supp) == 2 and len(inner) == 1 and inner[0][0] != inner[0][1]:
                    continue  # two vertices joined by exactly one arrow
                if any(M[v, v] and z[v] for v in range(Q.p)):
                    continue  # a supported loop allows z M_Q = z
                d = np.asarray(z) @ M
                assert np.all(d >= np.asarray(z))
                assert np.any(d > np.asarray(z))

    def test_two_vertex_support_joined_only_by_a_loop(self):
        # the support's one inner arrow is a loop: it is not connected
        for Q in (qr.Quiver(2, [("l", 1, 1)]), qr.Quiver(2, [("l", 1, 1), ("m", 2, 2)])):
            for z in ((1, 1), (2, 1), (1, 2)):
                assert not in_D(Q, z)
                assert z not in d_set(Q, 3)
            assert in_D(Q, (2, 0))

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_on_random_quivers(self, seed):
        # up to five arrows on up to four vertices, loops and parallel
        # arrows included
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 5))
        arrows = [
            (f"a{k}", int(rng.integers(1, p + 1)), int(rng.integers(1, p + 1)))
            for k in range(int(rng.integers(0, 6)))
        ]
        Q = qr.Quiver(p, arrows)
        bound = 6 if p <= 2 else 4
        assert enumerate_D(Q, bound) == d_set(Q, bound)


class TestPaths:
    def test_loop_path(self):
        assert growth_path(LOOP, (3,)) == [(1,), (2,), (3,)]

    def test_trivial_path(self):
        assert growth_path(SINGLE_ARROW, (0, 1)) == [(0, 1)]

    def test_kronecker_path(self):
        path = growth_path(KRONECKER, (2, 2))
        assert path[-1] == (2, 2)
        assert len(path) == 4
        for a, b in zip(path, path[1:]):
            diff = tuple(y - x for x, y in zip(a, b))
            assert sorted(diff) == [0, 1]
            assert in_D(KRONECKER, b)

    def test_successor_support_growth(self):
        i = successor((0, 1, 0), (1, 1, 1), TWO_ARROWS_IN)
        assert i in (1, 3)

    def test_not_in_D(self):
        with pytest.raises(NotInDError):
            growth_path(KRONECKER, (1, 3))


class TestParams:
    def test_loop(self):
        assert max_params(LOOP, (2,)) == (1, 2)
        assert max_params(LOOP, (3,)) == (2, 4)

    def test_single_arrow(self):
        assert max_params(SINGLE_ARROW, (1, 1)) == (1, 0)

    def test_loop_orbit_dimension(self):
        # total real parameter count n^2 + 1 for n x n similarity
        for n in (2, 3):
            nr, nc = max_params(LOOP, (n,))
            assert nr + 2 * nc == n * n + 1

    def test_rejects_non_member(self):
        with pytest.raises(NotInDError):
            max_params(KRONECKER, (1, 3))


class TestZeroSummand:
    def test_kronecker_unbalanced(self, tol):
        A = qr.random_rep(KRONECKER, (1, 3), seed=0)
        out = zero_summand_witness(A, tol)
        assert out is not None
        l, T, B = out
        assert l == 2
        for a in ("a", "b"):
            assert np.abs(B.matrices[a][2:, :]).max() < 1e-12

    def test_kronecker_outgoing_only(self, tol):
        # vertex 1 has only outgoing arrows: read reversed, they point into it
        A = qr.random_rep(KRONECKER, (3, 1), seed=0)
        l, T, B = zero_summand_witness(A, tol)
        assert l == 1
        for a in ("a", "b"):
            assert np.abs(B.matrices[a][:, 2]).max() < 1e-12
        assert qr.isometric(A, B, tol)

    def test_zero_rep_none(self, tol):
        A = qr.Representation(SINGLE_ARROW, (1, 0), {"a": np.zeros((0, 1))})
        assert zero_summand_witness(A, tol) is None

    def test_loop_none(self, tol):
        A = qr.random_rep(LOOP, (3,), seed=1)
        assert zero_summand_witness(A, tol) is None


class TestConstruct:
    def test_unit_vector_zero_rep(self, tol):
        R = construct_indecomposable(TWO_ARROWS_IN, (0, 1, 0), seed=0, tol=tol)
        assert R.dims == (0, 1, 0)
        assert qr.is_indecomposable_rep(R, tol)

    def test_loop_2(self, tol):
        R = construct_indecomposable(LOOP, (2,), seed=0, tol=tol)
        assert qr.is_indecomposable_rep(R, tol)

    def test_kronecker_pair(self, tol):
        R = construct_indecomposable(KRONECKER, (1, 1), seed=0, tol=tol)
        assert qr.is_indecomposable_rep(R, tol)

    def test_rejects_non_member(self, tol):
        with pytest.raises(NotInDError):
            construct_indecomposable(KRONECKER, (1, 3), seed=0, tol=tol)
