import numpy as np
import pytest

from unicanon.numcore import Tolerance, random_unitary
from unicanon import mbm
from unicanon import quiverrep as qr
from unicanon.scheme import scheme_of
from unicanon.quiverrep import (
    Quiver,
    Representation,
    Isometry,
    QuiverMismatchError,
    DimMismatchError,
    UnknownArrowError,
    ZeroDimError,
    pack,
    unpack,
    rep_canonical,
    isometric,
    apply_isometry,
    direct_sum,
    decompose_rep,
    is_indecomposable_rep,
    reverse_arrow,
    random_rep,
)

from conftest import D4, LOOP, KRONECKER, SINGLE_ARROW, FOUR_ARROWS


D4 = Quiver(4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)])
TWO_LOOPS = Quiver(1, [("a", 1, 1), ("b", 1, 1)])
LOOP_ARROW = Quiver(2, [("l", 1, 1), ("x", 1, 2)])


def reference_arrow_zones(A, tol):
    """Per-arrow zones of ``rep_canonical`` by the per-cell rule: a zone
    belongs to every arrow whose rectangle in the packed matrix holds one of
    its cells, with those cells and the stairs lying wholly inside, shifted
    to the rectangle's corner."""
    M, layout = pack(A)
    canonical, _, trace = mbm.canonicalize(M, tol)
    full = scheme_of(canonical, trace.zones, tol)
    ro, co = mbm._offsets(M.row_strips), mbm._offsets(M.col_strips)
    out = {}
    for k, aid in enumerate(layout["row_order"]):
        _, s, _ = A.quiver.arrow(aid)
        r0, r1, c0, c1 = int(ro[k]), int(ro[k + 1]), int(co[s - 1]), int(co[s])

        def inside(cell):
            return r0 <= cell[0] < r1 and c0 <= cell[1] < c1

        out[aid] = []
        for z in full.zones:
            cells = frozenset((r - r0, c - c0) for r, c in filter(inside, z.cells))
            if cells:
                stairs = tuple(
                    tuple((r - r0, c - c0) for r, c in st)
                    for st in z.stairs if all(map(inside, st))
                )
                out[aid].append((z.depth, z.kind, z.block, cells, stairs))
    return out


def loop_rep(A):
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return Representation(LOOP, (A.shape[0],), {"a": A})


class TestQuiver:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Quiver(1, [("a", 1, 1), ("a", 1, 1)])

    def test_endpoint_range(self):
        with pytest.raises(ValueError):
            Quiver(2, [("a", 1, 3)])

    def test_json_round_trip(self):
        Q2 = Quiver.from_json(FOUR_ARROWS.to_json())
        assert Q2 == FOUR_ARROWS


class TestRepresentationShape:
    # arrow a: 1 -> 2 of dims (3, 2) takes a 2 x 3 matrix
    def test_transposed_matrix_rejected(self):
        with pytest.raises(DimMismatchError, match=r"arrow a: shape \(3, 2\)"):
            Representation(SINGLE_ARROW, (3, 2), {"a": np.ones((3, 2))})

    def test_flat_matrix_rejected(self):
        with pytest.raises(DimMismatchError):
            Representation(SINGLE_ARROW, (3, 2), {"a": np.ones(6)})

    def test_json_transposed_matrix_rejected(self):
        data = Representation(SINGLE_ARROW, (3, 2), {"a": np.ones((2, 3))}).to_json()
        data["dims"] = [2, 3]
        with pytest.raises(DimMismatchError):
            Representation.from_json(data)

    @pytest.mark.parametrize("d", [(3, 0), (0, 3)])
    def test_empty_arrow(self, d):
        A = Representation(SINGLE_ARROW, d, {"a": []})
        assert A.matrices["a"].shape == (d[1], d[0])
        assert Representation.from_json(A.to_json()).matrices["a"].shape == (d[1], d[0])


class TestPack:
    def test_single_arrow_layout(self):
        A = Representation(SINGLE_ARROW, (1, 1), {"a": [[1.0]]})
        M, layout = pack(A)
        assert M.row_strips == (1,)
        assert M.col_strips == (1, 1)
        assert M.marked == frozenset({(0, 1)})
        assert M.entries[0, 0] == 1.0

    def test_loop_is_marked_similarity(self):
        A = loop_rep([[1, 2], [3, 4]])
        M, _ = pack(A)
        assert M.marked == frozenset({(0, 0)})
        assert np.allclose(M.entries, [[1, 2], [3, 4]])

    def test_four_arrow_grid(self):
        A = random_rep(FOUR_ARROWS, (2, 1, 1), seed=0)
        M, layout = pack(A)
        assert len(M.row_strips) == 4
        assert M.col_strips == (2, 1, 1)
        # bottom row strip holds the first arrow (the loop at vertex 1)
        assert layout["row_order"][-1] == "l"

    def test_round_trip(self):
        A = random_rep(FOUR_ARROWS, (2, 3, 1), seed=1)
        M, layout = pack(A)
        B = unpack(M, layout)
        assert B.dims == A.dims
        for a in A.matrices:
            assert np.allclose(B.matrices[a], A.matrices[a])


class TestCanonical:
    def test_zero_rep_unchanged(self, tol):
        A = loop_rep(np.zeros((2, 2)))
        Ainf, T, _ = rep_canonical(A, tol)
        assert np.allclose(Ainf.matrices["a"], 0)

    def test_loop_similarity(self, tol):
        U = random_unitary(2, seed=2)
        A = loop_rep(U.conj().T @ np.array([[1, 3], [0, 2]]) @ U)
        Ainf, T, _ = rep_canonical(A, tol)
        assert np.allclose(Ainf.matrices["a"], [[2, 3], [0, 1]], atol=1e-7)

    def test_arrow_svd(self, tol):
        A = random_rep(SINGLE_ARROW, (3, 2), seed=3)
        Ainf, _, _ = rep_canonical(A, tol)
        s = np.linalg.svd(A.matrices["a"], compute_uv=False)
        D = np.zeros((2, 3))
        D[0, 0], D[1, 1] = s
        assert np.allclose(Ainf.matrices["a"], D, atol=1e-8)

    def test_isometry_transcript(self, tol):
        A = random_rep(FOUR_ARROWS, (2, 2, 2), seed=4)
        Ainf, T, _ = rep_canonical(A, tol)
        B = apply_isometry(A, T)
        for a in A.matrices:
            assert np.allclose(B.matrices[a], Ainf.matrices[a], atol=1e-8)

    def test_idempotent(self, tol):
        A = random_rep(KRONECKER, (2, 2), seed=5)
        Ainf, _, _ = rep_canonical(A, tol)
        again, _, _ = rep_canonical(Ainf, tol)
        for a in A.matrices:
            assert np.allclose(again.matrices[a], Ainf.matrices[a], atol=1e-8)

    def test_per_arrow_schemes(self, tol):
        A = loop_rep([[1, 3], [0, 2]])
        _, _, schemes = rep_canonical(A, tol)
        S = schemes["a"]
        assert sum(row.count("*") for row in S.symbols) == 2
        assert sum(row.count("o") for row in S.symbols) == 1


    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "Q, d",
        [(KRONECKER, (4, 5)), (KRONECKER, (8, 8)), (D4, (2, 2, 2, 4)), (D4, (2, 3, 1, 4)),
         (TWO_LOOPS, (3,)), (LOOP_ARROW, (3, 2))],
        ids=["kronecker-4-5", "kronecker-8-8", "d4-2-2-2-4", "d4-2-3-1-4", "two-loops-3",
             "loop-arrow-3-2"],
    )
    def test_arrow_zones_match_per_cell_reference(self, tol, Q, d, scale):
        A = random_rep(Q, d, seed=sum(d))
        A = Representation(Q, d, {a: scale * X for a, X in A.matrices.items()})
        _, _, schemes = rep_canonical(A, tol)
        want = reference_arrow_zones(A, tol)
        assert set(schemes) == set(want)
        for aid, S in schemes.items():
            got = [(z.depth, z.kind, z.block, z.cells, z.stairs) for z in S.zones]
            assert got == want[aid]
            assert {c for z in S.zones for c in z.cells} <= {
                (r, c) for r in range(S.rows) for c in range(S.cols)
            }


class TestIsometric:
    def test_reflexive(self, tol):
        A = random_rep(KRONECKER, (2, 3), seed=6)
        assert isometric(A, A, tol)

    def test_conjugate_invariance(self, tol):
        A = random_rep(FOUR_ARROWS, (2, 2, 1), seed=7)
        T = Isometry(
            tuple(random_unitary(d, seed=10 + k) for k, d in enumerate(A.dims))
        )
        assert isometric(A, apply_isometry(A, T), tol)

    def test_distinct_values(self, tol):
        assert not isometric(loop_rep([[1.0]]), loop_rep([[2.0]]), tol)

    def test_dim_mismatch(self, tol):
        with pytest.raises(DimMismatchError):
            isometric(loop_rep([[1.0]]), loop_rep(np.eye(2)), tol)

    def test_quiver_mismatch(self, tol):
        A = random_rep(SINGLE_ARROW, (1, 1), seed=0)
        B = loop_rep([[1.0]])
        with pytest.raises(QuiverMismatchError):
            isometric(A, B, tol)


class TestDirectSumDecompose:
    def test_dims_add(self):
        A = random_rep(KRONECKER, (1, 2), seed=0)
        B = random_rep(KRONECKER, (2, 1), seed=1)
        assert direct_sum(A, B).dims == (3, 3)

    def test_loop_diagonal(self, tol):
        A = loop_rep(np.diag([5.0, 5.0, 2.0]))
        parts = decompose_rep(A, tol)
        got = sorted(
            (round(P.matrices["a"][0, 0].real), m) for P, m in parts
        )
        assert got == [(2, 1), (5, 2)]

    def test_indecomposable_cases(self, tol):
        assert is_indecomposable_rep(loop_rep([[1, 3], [0, 2]]), tol)
        assert not is_indecomposable_rep(loop_rep(np.diag([2.0, 1.0])), tol)

    def test_zero_rep_unit_vector(self, tol):
        A = Representation(
            SINGLE_ARROW, (1, 0), {"a": np.zeros((0, 1))}
        )
        assert is_indecomposable_rep(A, tol)

    @pytest.mark.parametrize(
        "Q, d",
        (
            (Quiver(3, ()), (2, 0, 3)),
            (Quiver(3, ()), (0, 0, 0)),
            (KRONECKER, (3, 0)),
            (KRONECKER, (0, 0)),
            (D4, (1, 1, 2, 0)),
            (LOOP, (0,)),
        ),
        ids=("arrowless", "arrowless-zero", "kronecker", "kronecker-zero", "d4", "loop-zero"),
    )
    def test_empty_packing(self, tol, Q, d):
        # every arrow ends at a vertex of dimension 0, so the packed matrix
        # has no rows: each vertex v splits into d_v copies of the simple e_v
        parts = decompose_rep(random_rep(Q, d, seed=0), tol)
        want = [(tuple(int(u == v) for u in range(Q.p)), n) for v, n in enumerate(d) if n]
        assert [(P.dims, m) for P, m in parts] == want
        assert all(M.size == 0 for P, _ in parts for M in P.matrices.values())

    def test_zero_dim_error(self, tol):
        A = Representation(LOOP, (0,), {"a": np.zeros((0, 0))})
        with pytest.raises(ZeroDimError):
            is_indecomposable_rep(A, tol)

    def test_double_multiplicities(self, tol):
        A = random_rep(KRONECKER, (1, 1), seed=8)
        both = decompose_rep(direct_sum(A, A), tol)
        single = decompose_rep(A, tol)
        assert sorted(m for _, m in both) == sorted(2 * m for _, m in single)

    def test_krull_schmidt_shuffled(self, tol):
        P1 = loop_rep([[1, 3], [0, 2]])
        P2 = loop_rep([[5.0]])
        S = direct_sum(direct_sum(P1, P1), P2)
        W = Isometry((random_unitary(5, seed=12),))
        parts = decompose_rep(apply_isometry(S, W), tol)
        assert sorted(m for _, m in parts) == [1, 2]


class TestReverse:
    def test_twice_identity(self):
        A = random_rep(SINGLE_ARROW, (2, 3), seed=9)
        B = reverse_arrow(reverse_arrow(A, "a"), "a")
        assert B.quiver == A.quiver
        assert np.allclose(B.matrices["a"], A.matrices["a"])

    def test_scalar(self):
        A = Representation(SINGLE_ARROW, (1, 1), {"a": [[2.0]]})
        B = reverse_arrow(A, "a")
        assert B.quiver.arrows[0][1:] == (2, 1)
        assert B.matrices["a"][0, 0] == 2.0

    def test_unknown_arrow(self):
        A = random_rep(LOOP, (1,), seed=0)
        with pytest.raises(UnknownArrowError):
            reverse_arrow(A, "zz")

    def test_isometry_correspondence(self, tol):
        A = random_rep(SINGLE_ARROW, (2, 2), seed=14)
        T = Isometry(
            (random_unitary(2, seed=15), random_unitary(2, seed=16))
        )
        B = apply_isometry(A, T)
        assert isometric(reverse_arrow(A, "a"), reverse_arrow(B, "a"), tol)


class TestRandomRep:
    def test_shapes(self):
        A = random_rep(FOUR_ARROWS, (2, 3, 1), seed=0)
        assert A.matrices["m"].shape == (2, 3)
        assert A.matrices["x"].shape == (1, 3)

    def test_reproducible(self):
        A = random_rep(KRONECKER, (2, 2), seed=4)
        B = random_rep(KRONECKER, (2, 2), seed=4)
        assert np.allclose(A.matrices["a"], B.matrices["a"])

    def test_json_round_trip(self):
        A = random_rep(FOUR_ARROWS, (2, 1, 2), seed=5)
        B = Representation.from_json(A.to_json())
        for a in A.matrices:
            assert np.allclose(B.matrices[a], A.matrices[a])
