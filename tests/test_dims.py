import numpy as np
import pytest

from unicanon.numcore import Tolerance
from unicanon import dims, mbm, quiverrep as qr
from unicanon.quiverrep import DimMismatchError
from unicanon.dims import (
    NotInDError,
    m_matrix,
    delta,
    tits,
    in_D,
    enumerate_D,
    growth_path,
    construct_indecomposable,
    max_params,
    zero_summand_witness,
)

from conftest import LOOP, KRONECKER, SINGLE_ARROW, TWO_ARROWS_IN, FOUR_ARROWS, NON_INTEGER_DIMS
from oracle import d_set

SINGLE_VERTEX = qr.Quiver(1, [])


def star(arms):
    """``arms`` arrows into the last of arms + 1 vertices."""
    return qr.Quiver(arms + 1, [(f"a{k}", k, arms + 1) for k in range(1, arms + 1)])


def random_quiver(seed):
    """Up to five arrows on up to four vertices, loops and parallel arrows
    included, with the component-sum bound its D(Q) is listed to."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    arrows = [
        (f"a{k}", int(rng.integers(1, p + 1)), int(rng.integers(1, p + 1)))
        for k in range(int(rng.integers(0, 6)))
    ]
    return qr.Quiver(p, arrows), 6 if p <= 2 else 4


# (quiver, bound): the 60 random quivers, then stars with 205 and 268 members
D_CASES = [pytest.param(*random_quiver(seed), id=str(seed)) for seed in range(60)] + [
    pytest.param(star(4), 8, id="star4-bound8"),
    pytest.param(star(5), 7, id="star5-bound7"),
]


def minus_unit(z, v):
    """z - e_v, v 0-based."""
    return z[:v] + (z[v] - 1,) + z[v + 1 :]


class TestMatrixAndForms:
    def test_m_matrix(self):
        assert m_matrix(SINGLE_ARROW).tolist() == [[0, 1], [1, 0]]
        assert m_matrix(KRONECKER).tolist() == [[0, 2], [2, 0]]
        assert m_matrix(LOOP).tolist() == [[1]]

    def test_m_matrix_built_once_and_read_only(self):
        Q = qr.Quiver(2, [("a", 1, 2)])
        M = m_matrix(Q)
        assert m_matrix(Q) is M and not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 5
        assert Q == qr.Quiver(2, [("a", 1, 2)])  # the cache is not a field

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


class TestIntegerVectors:
    """Every function taking a dimension vector applies the integer rule of
    strips and dims: 1.9, 2.0 and "1" raise instead of being truncated."""

    FUNCTIONS = {
        "max_params": lambda d: max_params(KRONECKER, d),
        "construct_indecomposable": lambda d: construct_indecomposable(KRONECKER, d, seed=0),
        "growth_path": lambda d: growth_path(KRONECKER, d),
        "in_D": lambda d: in_D(KRONECKER, d),
        "delta": lambda d: delta(d, KRONECKER),
        "tits": lambda d: tits(KRONECKER, d),
    }

    @pytest.mark.parametrize("d", NON_INTEGER_DIMS)
    @pytest.mark.parametrize("name", FUNCTIONS)
    def test_non_integer_rejected(self, name, d):
        # before: max_params(KRONECKER, (1.9, 1)) returned (1, 1), delta
        # gave (2, 2) and tits 0
        with pytest.raises(DimMismatchError, match="vector .*: a value is not an integer"):
            self.FUNCTIONS[name](d)

    def test_numpy_integers(self):
        d = np.array([1, 1])
        assert max_params(KRONECKER, d) == max_params(KRONECKER, (1, 1))
        assert delta(d, KRONECKER) == (2, 2) and tits(KRONECKER, d) == 0
        assert growth_path(KRONECKER, d) == growth_path(KRONECKER, (1, 1))

    def test_negative_entry_is_not_in_D(self):
        assert not in_D(KRONECKER, (-1, 2))

    def test_length_mismatch_everywhere(self):
        for fn in self.FUNCTIONS.values():
            with pytest.raises(ValueError, match="length 2"):
                fn((1, 1, 1))

    def test_one_length_rule(self):
        # before: dims said "dimension vector must have length 2", quiverrep
        # "dims length != number of vertices"
        calls = (lambda: construct_indecomposable(KRONECKER, (1,), seed=0),
                 lambda: max_params(KRONECKER, (1,)),
                 lambda: qr.random_rep(KRONECKER, (1,), seed=0),
                 lambda: qr.Representation(KRONECKER, (1,), {}))
        messages = set()
        for call in calls:
            with pytest.raises(DimMismatchError) as raised:
                call()
            messages.add(str(raised.value))
        assert messages == {"dims length != number of vertices: expected length 2, got 1"}


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

    @pytest.mark.parametrize("Q, bound", D_CASES)
    def test_matches_reference_on_random_quivers(self, Q, bound):
        assert enumerate_D(Q, bound) == d_set(Q, bound)

    @pytest.mark.parametrize("Q, bound", D_CASES)
    def test_every_member_grows_from_a_member(self, Q, bound):
        # the lemma enumerate_D rests on, against the reference D(Q)
        members = set(d_set(Q, bound))
        for z in members:
            assert sum(z) == 1 or any(minus_unit(z, v) in members for v in range(Q.p) if z[v])

    @pytest.mark.parametrize(
        "Q, bound", ((KRONECKER, 4), (FOUR_ARROWS, 5), (TWO_ARROWS_IN, 5), (star(4), 6)),
        ids=("kronecker", "four-arrows", "two-arrows-in", "star4"),
    )
    def test_enumerate_asks_only_about_grown_members(self, monkeypatch, Q, bound):
        # before: the scan of every vector asked about (3, 0) on Kronecker at
        # bound 4, whose one predecessor (2, 0) is not in D(Q)
        asked = []

        def recording_in_D(Q, z):
            asked.append(tuple(z))
            return in_D(Q, z)

        monkeypatch.setattr(dims, "in_D", recording_in_D)
        members = set(dims.enumerate_D(Q, bound))
        for z in asked:
            assert sum(z) == 1 or any(minus_unit(z, v) in members for v in range(Q.p) if z[v])
        assert len(asked) <= Q.p * len(members)


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

    @pytest.mark.parametrize("Q, bound", D_CASES)
    def test_paths_on_random_quivers(self, Q, bound):
        for z in d_set(Q, bound):
            path = growth_path(Q, z)
            assert sum(path[0]) == 1 and path[-1] == z
            for a, b in zip(path, path[1:]):
                assert sorted(y - x for x, y in zip(a, b)) == [0] * (Q.p - 1) + [1]
            assert all(in_D(Q, u) for u in path)

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

    @pytest.mark.parametrize(
        "n, seed", [(16, 15)] + [(32, s) for s in (14, 16, 24, 38, 61, 65, 68)]
    )
    def test_output_is_a_fixpoint(self, tol, n, seed):
        # the seeds where the unreduced real-random refill returned before
        # moved by 1.7e-6 to 6.0e-5 relative (ill-conditioned fillings)
        M = qr.pack(construct_indecomposable(LOOP, (n,), seed=seed, tol=tol))[0]
        assert mbm.same_canonical(mbm.canonicalize(M, tol)[0], M, tol)
