import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unicanon.numcore import Tolerance, random_unitary
from unicanon import dims, euclid, mbm, wildness
from unicanon.cli import dispatch
from unicanon.mbm import MarkedBlockMatrix
from unicanon import quiverrep as qr
from unicanon.scheme import Scheme, scheme_of
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

from conftest import (D4, LOOP, KRONECKER, SINGLE_ARROW, FOUR_ARROWS, TWO_ARROWS_IN, NON_INTEGER_DIMS,
                      random_mbm)


D4 = Quiver(4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)])
TWO_LOOPS = Quiver(1, [("a", 1, 1), ("b", 1, 1)])
LOOP_ARROW = Quiver(2, [("l", 1, 1), ("x", 1, 2)])


def reference_arrow_zones(A, tol):
    """Per-arrow zones of ``rep_canonical`` by the per-cell rule: a zone
    belongs to every arrow whose rectangle in the packed matrix holds one of
    its cells, with its block, those cells and the stairs lying wholly
    inside, shifted to the rectangle's corner."""
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
                block = (z.block[0] - r0, z.block[1], z.block[2] - c0, z.block[3])
                out[aid].append((z.depth, z.kind, block, cells, stairs))
    return out


def beyond_block(z):
    """Whether zone z holds a cell outside its block: a block the merge
    rule gave it."""
    r, h, c, w = z.block
    return any(not (r <= x < r + h and c <= y < c + w) for x, y in z.cells)


def shifted_arrow_schemes(A, tol):
    """Per-arrow schemes built from the packed scheme, as ``rep_canonical``
    built them before it read the owner map: every packed zone whose block
    lies in the arrow's rectangle, with its block, cells and stairs shifted
    by the rectangle's corner, and the packed scheme's symbols and links
    inside the rectangle."""
    M, layout = pack(A)
    C, _, trace = mbm.canonicalize(M, tol)
    full = scheme_of(C, trace.zones, tol)
    ro, co = mbm._offsets(C.row_strips).tolist(), mbm._offsets(C.col_strips).tolist()
    out = {}
    for k, aid in enumerate(layout["row_order"]):
        _, s, d = A.quiver.arrow(aid)
        r0, r1, c0, c1 = ro[k], ro[k + 1], co[s - 1], co[s]

        def shift(cells):
            return tuple((r - r0, c - c0) for r, c in cells)

        zones = tuple(
            mbm.Zone(z.depth, z.kind, (z.block[0] - r0, z.block[1], z.block[2] - c0, z.block[3]),
                     frozenset(shift(z.cells)),
                     tuple(shift(st) for st in z.stairs))
            for z in full.zones if r0 <= z.block[0] < r1 and c0 <= z.block[2] < c1
        )
        links = frozenset(frozenset(shift(p)) for p in full.links
                          if all(r0 <= r < r1 and c0 <= c < c1 for r, c in p))
        symbols = tuple(tuple(row[c0:c1]) for row in full.symbols[r0:r1])
        marked = frozenset({(0, 0)} if s == d else ())
        out[aid] = Scheme(r1 - r0, c1 - c0, symbols, links, zones, (r1 - r0,), (c1 - c0,), marked)
    return out


def zero_one(A):
    """A with every entry replaced by 1 where its real part is positive,
    else 0: rank-deficient blocks, on which the merge rule acts inside the
    arrows' rectangles too."""
    return Representation(A.quiver, A.dims, {a: (X.real > 0) + 0j for a, X in A.matrices.items()})


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

    @pytest.mark.parametrize("p", [2.5, 2.0, "2"])
    def test_non_integer_vertex_count(self, p):
        # before: Quiver kept p = 2.5, and from_json truncated it to 2
        with pytest.raises(ValueError, match=r"vertices .*: a value is not an integer"):
            Quiver(p, ())
        with pytest.raises(ValueError, match=r"vertices .*: a value is not an integer"):
            Quiver.from_json({"vertices": p, "arrows": []})

    def test_negative_vertex_count(self):
        # before: Quiver(-2, ()) was built, and params reported "expected length -2"
        with pytest.raises(ValueError, match=r"vertices -2: the count is negative"):
            Quiver(-2, ())
        with pytest.raises(ValueError, match=r"vertices -2: the count is negative"):
            Quiver.from_json({"vertices": -2, "arrows": []})

    @pytest.mark.parametrize("src", [1.7, 1.0, "1"])
    def test_non_integer_endpoint(self, src):
        # before: the endpoint 1.7 became 1
        with pytest.raises(ValueError, match=r"arrow a: endpoints .*: a value is not an integer"):
            Quiver(2, [("a", src, 2)])

    def test_numpy_integers(self):
        Q = Quiver(np.int64(2), [("a", np.int32(1), np.int64(2))])
        assert Q == SINGLE_ARROW and type(Q.p) is int


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

    @pytest.mark.parametrize(
        "Q, mats",
        [(Quiver(2, [("a", 1, 1)]), {"a": [[2.0]]}), (Quiver(2, []), {})],
        ids=["loop", "no-arrows"],
    )
    def test_negative_dim_rejected(self, tol, Q, mats):
        # before: is_indecomposable_rep raised IndexError and numpy's ValueError
        with pytest.raises(DimMismatchError, match=r"dims \(1, -1\): a dimension is negative"):
            is_indecomposable_rep(Representation(Q, (1, -1), mats), tol)

    @pytest.mark.parametrize("d", NON_INTEGER_DIMS)
    def test_non_integer_dim_rejected(self, d):
        # before: int() truncated (1.9, 1) to (1, 1)
        with pytest.raises(DimMismatchError, match=r"dims .*: a value is not an integer"):
            Representation(SINGLE_ARROW, d, {"a": [[1.0]]})

    @pytest.mark.parametrize("d", NON_INTEGER_DIMS)
    def test_random_rep_non_integer_dim_rejected(self, d):
        # before: random_rep(SINGLE_ARROW, (1.9, 1)) had dims (1, 1)
        with pytest.raises(DimMismatchError, match=r"dims .*: a value is not an integer"):
            random_rep(SINGLE_ARROW, d, seed=0)

    @pytest.mark.parametrize("d", [(1,), (1, 2, 3)], ids=["short", "long"])
    def test_random_rep_dims_length(self, d):
        # before: the short vector raised a bare IndexError
        with pytest.raises(DimMismatchError, match="dims length"):
            random_rep(KRONECKER, d, seed=0)

    def test_random_rep_negative_dim(self):
        # before: numpy's "negative dimensions are not allowed", a plain ValueError
        with pytest.raises(DimMismatchError, match=r"dims \(-1, 2\): a dimension is negative"):
            random_rep(KRONECKER, (-1, 2), seed=0)

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

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "Q, d",
        [(KRONECKER, (3, 4)), (D4, (2, 2, 2, 4)), (TWO_LOOPS, (3,)), (LOOP_ARROW, (3, 2))],
        ids=["kronecker", "d4", "two-loops", "loop-arrow"],
    )
    def test_canonical_packing_round_trips(self, tol, Q, d, scale):
        # a packed canonical form has coupling blocks of exact zeros, so it
        # is the packing of its canonical representation: isometric and
        # decompose_real compare packed forms for that reason
        A = random_rep(Q, d, seed=sum(d))
        A = Representation(Q, d, {a: scale * X for a, X in A.matrices.items()})
        _, _, C, _ = qr._canonical(A, tol)
        layout = pack(A)[1]
        assert np.array_equal(pack(unpack(C, layout))[0].entries, C.entries)

    @pytest.mark.parametrize(
        "Q, da, db",
        [(KRONECKER, (1, 2), (2, 1)), (FOUR_ARROWS, (2, 1, 0), (1, 2, 2)),
         (D4, (1, 0, 1, 2), (0, 1, 1, 1)), (LOOP, (2,), (0,))],
        ids=["kronecker", "four-arrows", "d4", "loop-empty"],
    )
    def test_direct_sum_packs_to_block_direct_sum(self, Q, da, db):
        A, B = random_rep(Q, da, seed=2), random_rep(Q, db, seed=3)
        got = pack(direct_sum(A, B))[0]
        want = mbm.block_direct_sum(pack(A)[0], pack(B)[0])
        assert (got.row_strips, got.col_strips, got.marked) == (
            want.row_strips, want.col_strips, want.marked)
        assert np.array_equal(got.entries, want.entries)


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

    def test_witness_is_checked(self, tol, monkeypatch):
        # the isometry composed from the two transcripts maps A onto B; with
        # A's transcript corrupted (its first vertex's unitary negated) it
        # does not, and isometric raises instead of answering
        A = random_rep(FOUR_ARROWS, (2, 2, 1), seed=7)
        B = apply_isometry(A, Isometry(tuple(random_unitary(d, seed=10 + k) for k, d in enumerate(A.dims))))
        T, _ = qr._isometry(A, B, tol)
        resid, limit = qr._residual(A, B, T, pack(A)[0], tol)
        assert resid <= limit
        batch = mbm._canonicalize_batch

        def corrupted(Ms, tol):
            (C, S, trace), *rest = batch(Ms, tol)
            return [(C, mbm.Transcript(S.R, (-S.S[0], *S.S[1:])), trace), *rest]

        monkeypatch.setattr(mbm, "_canonicalize_batch", corrupted)
        with pytest.raises(mbm.CertificationError, match="isometry does not map A onto B"):
            isometric(A, B, tol)

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


class TestReductionsPerCall:
    """One reduction per input: the layer compares and splits the packed
    forms of the reductions it makes, and makes none twice."""

    def test_isometric(self, tol, reductions):
        A = random_rep(KRONECKER, (2, 3), seed=6)
        assert isometric(A, A, tol) and len(reductions) == 2

    def test_is_indecomposable_rep(self, tol, reductions):
        assert is_indecomposable_rep(random_rep(KRONECKER, (2, 3), seed=6), tol)
        assert len(reductions) == 1

    def test_classify_real(self, tol, reductions):
        assert euclid.classify_real(loop_rep([[1.0, 3.0], [0.0, 2.0]]), tol).kind == "Real"
        assert len(reductions) == 2

    def test_matrix_real_test(self, tol, reductions):
        # R and conj(R) once each; indecomposability is read from conj(R)'s
        # reduction (three reductions before: one more for that)
        assert euclid.matrix_real_test([[1.0, 3.0], [0.0, 2.0]], tol)[0]
        assert len(reductions) == 2

    @pytest.mark.parametrize("kind", wildness.GADGET_KINDS)
    def test_gadget_faithful(self, tol, reductions, kind):
        X = random_rep(LOOP, (2,), seed=7).matrices["a"]
        assert wildness.gadget_faithful(kind, X, X, tol)
        assert len(reductions) == 2

    def test_construct_indecomposable(self, tol, reductions):
        # the random representation, whose canonical form is returned
        R = dims.construct_indecomposable(KRONECKER, (2, 3), seed=0, tol=tol)
        assert len(reductions) == 1
        assert is_indecomposable_rep(R, tol)

    # pairs whose invariants differ are answered without a reduction

    def test_isometric_rejected(self, tol, reductions):
        A = random_rep(KRONECKER, (2, 3), seed=6)
        assert not isometric(A, scale_arrow(A, 1.5), tol) and len(reductions) == 0

    @pytest.mark.parametrize("kind", wildness.GADGET_KINDS)
    def test_gadget_faithful_rejected(self, tol, reductions, kind):
        X = random_rep(LOOP, (2,), seed=7).matrices["a"]
        Y = random_rep(LOOP, (2,), seed=8).matrices["a"]  # not similar to X
        assert not wildness.gadget_faithful(kind, X, Y, tol)
        assert len(reductions) == 0

    def test_real_isometry_rejected(self, tol, reductions):
        A = Representation(KRONECKER, (2, 3), {a: M.real + 0j for a, M in
                                               random_rep(KRONECKER, (2, 3), seed=6).matrices.items()})
        assert euclid.real_isometry(A, scale_arrow(A, 1.5), tol) is None
        assert len(reductions) == 0

    def test_classify_real_complex_type(self, tol, reductions):
        # tr(A) is not real, so A and conj(A) differ in their invariants
        assert euclid.classify_real(loop_rep([[1j, 1.0], [0.0, 2.0]]), tol).kind == "Complex"
        assert len(reductions) == 0

    def test_matrix_real_test_complex_type(self, tol, reductions):
        # conj(A) alone is reduced, for the indecomposability check
        assert euclid.matrix_real_test([[1j, 1.0], [0.0, 2.0]], tol) == (False, None)
        assert len(reductions) == 1


def scale_arrow(A, c):
    """A with its first arrow's matrix times c."""
    first = A.quiver.arrows[0][0]
    return Representation(A.quiver, A.dims, {**A.matrices, first: c * A.matrices[first]})


def scaled_first_strip(M, c):
    """M with its first row strip (a packing's last arrow) times c."""
    E = M.entries.copy()
    E[: M.row_strips[0]] *= c
    return MarkedBlockMatrix(M.row_strips, M.col_strips, E, M.marked)


SWEEP_REPS = {"kronecker": (KRONECKER, (3, 3)), "d4": (D4, (2, 2, 2, 3)), "loop": (LOOP, (4,)),
              "two-loops": (TWO_LOOPS, (3,)), "loop+arrow": (LOOP_ARROW, (3, 2)),
              "two-arrows-in": (TWO_ARROWS_IN, (2, 3, 1))}


def sweep_matrix(case, rng):
    """A packed Gaussian representation, a packed gadget of a 2 x 2 X, or a
    random marked block matrix."""
    if case in SWEEP_REPS:
        return pack(random_rep(*SWEEP_REPS[case], seed=int(rng.integers(2**31))))[0]
    if case == "random-mbm":
        return random_mbm(rng)
    G = wildness.gadget(case, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return pack(G)[0] if isinstance(G, Representation) else G


class TestInvariantRejection:
    """``mbm._invariants_differ`` never contradicts the full comparison:
    Haar-scrambled copies, at every scale and also with one arrow scaled by
    1 + 1e-12, are never rejected; with the arrow scaled by 1.5 they are,
    and their forms differ."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-6, 1.0, 1e6, 1e300])
    @pytest.mark.parametrize("case", [*SWEEP_REPS, *wildness.GADGET_KINDS, "random-mbm"])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sweep(self, case, scale, seed):
        tol = Tolerance()
        rng = np.random.default_rng(seed)
        M = sweep_matrix(case, rng)
        M = MarkedBlockMatrix(M.row_strips, M.col_strips, scale * M.entries, M.marked)
        N = mbm.apply_admissible(M, mbm.random_transcript(M, seed=int(rng.integers(2**32))))
        form = mbm.canonicalize(M, tol)[0]
        for X, same in ((N, True), (scaled_first_strip(N, 1 + 1e-12), True),
                        (scaled_first_strip(N, 1.5), False)):
            assert mbm._invariants_differ(M, X, tol) != same
            assert mbm.same_canonical(form, mbm.canonicalize(X, tol)[0], tol) == same

    def test_empty(self, tol):
        # no blocks, and blocks of an empty vertex beside filled ones
        M = pack(Representation(Quiver(0, ()), (), {}))[0]
        assert not mbm._invariants_differ(M, M, tol)
        A = random_rep(TWO_ARROWS_IN, (0, 2, 1), seed=3)
        B = apply_isometry(A, Isometry(tuple(random_unitary(d, seed=d) for d in A.dims)))
        assert isometric(A, B, tol)
        C = Representation(TWO_ARROWS_IN, A.dims, {**B.matrices, "b": 1.5 * B.matrices["b"]})
        assert mbm._invariants_differ(pack(A)[0], pack(C)[0], tol) and not isometric(A, C, tol)

    def test_other_problem_differs(self, tol):
        M = pack(random_rep(KRONECKER, (2, 3), seed=6))[0]
        N = MarkedBlockMatrix(M.row_strips, M.col_strips, M.entries)  # no marks
        assert mbm._invariants_differ(M, N, tol)
        assert not mbm.same_canonical(mbm.canonicalize(M, tol)[0], mbm.canonicalize(N, tol)[0], tol)


class TestZonesWhenRead:
    """The merge rule and the zone objects run when a caller reads the
    zones, and only then; what they build is what was built before."""

    def test_not_built_when_not_read(self, tol, merges):
        A = random_rep(KRONECKER, (2, 3), seed=6)
        real = Representation(KRONECKER, (2, 3), {a: M.real + 0j for a, M in A.matrices.items()})
        X = random_rep(LOOP, (2,), seed=7).matrices["a"]
        assert isometric(A, A, tol)
        assert decompose_rep(A, tol)
        assert is_indecomposable_rep(A, tol)
        assert euclid.classify_real(loop_rep([[1.0, 3.0], [0.0, 2.0]]), tol).kind == "Real"
        assert euclid.decompose_real(real, tol)
        for kind in wildness.GADGET_KINDS:
            assert wildness.gadget_faithful(kind, X, X, tol)
        mbm.canonicalize(pack(A)[0], tol)
        dims.construct_indecomposable(KRONECKER, (2, 3), seed=0, tol=tol)
        assert merges == []

    def test_built_when_read(self, tol, merges, tmp_path, capsys):
        # the merge rule runs per rectangle read that holds merge candidates:
        # none of the 6 of this input lies in an arrow
        A = random_rep(KRONECKER, (2, 3), seed=6)
        _, _, schemes = rep_canonical(A, tol)
        assert all(S.zones for S in schemes.values()) and merges == []
        # the zero-one inputs hold 3 candidates in Kronecker's b and 2 in
        # D4's c, and none in their other arrows: one run each
        for Q, d, runs in ((KRONECKER, (3, 3), 1), (D4, (2, 3, 1, 4), 2)):
            rep_canonical(zero_one(random_rep(Q, d, seed=0)), tol)
            assert len(merges) == runs
        # canon-mbm reads trace.zones, the whole matrix: one run
        path = tmp_path / "m.json"
        path.write_text(json.dumps(pack(A)[0].to_json()))
        assert dispatch(["canon-mbm", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["zones"] and len(merges) == 3

    @pytest.mark.parametrize("Q, d", [(KRONECKER, (8, 8)), (KRONECKER, (24, 24)),
                                      (D4, (2, 2, 2, 4)), (D4, (6, 6, 6, 12))])
    def test_gaussian_arrows_run_no_merge(self, tol, merges, Q, d):
        # the merge candidates of these packings lie in the coupling blocks,
        # which no arrow reads
        for seed in range(2):
            assert rep_canonical(random_rep(Q, d, seed=seed), tol)[2]
        assert merges == []

    def test_read_twice_is_the_same_list(self, tol, merges):
        trace = mbm.canonicalize(pack(random_rep(KRONECKER, (3, 3), seed=1))[0], tol)[2]
        assert trace.zones is trace.zones and len(merges) == 1

    @pytest.mark.parametrize("entries", ["gaussian", "zero-one"])
    @pytest.mark.parametrize(
        "Q, d",
        [(KRONECKER, (3, 3)), (KRONECKER, (24, 24)), (D4, (2, 3, 1, 4)), (D4, (1, 0, 2, 3)),
         (D4, (6, 6, 6, 12)), (TWO_LOOPS, (3,)), (TWO_LOOPS, (24,)), (LOOP_ARROW, (4, 2)),
         (LOOP_ARROW, (24, 24))],
        ids=["kronecker-3-3", "kronecker-24-24", "d4-2-3-1-4", "d4-1-0-2-3", "d4-6-6-6-12",
             "two-loops-3", "two-loops-24", "loop-arrow-4-2", "loop-arrow-24-24"],
    )
    def test_arrow_schemes_match_shifted_packed_zones(self, tol, Q, d, entries):
        for seed in range(2):
            A = random_rep(Q, d, seed=seed)
            A = zero_one(A) if entries == "zero-one" else A
            assert rep_canonical(A, tol)[2] == shifted_arrow_schemes(A, tol)

    def test_zero_one_entries_merge_inside_arrows(self, tol):
        # so the comparison above covers arrow zones that absorbed blocks, at
        # offset (0, 0) (Kronecker's b) and away from it (D4's c at (0, 5))
        for Q, d, rows, cols in ((KRONECKER, (3, 3), 3, (0, 3)), (D4, (2, 3, 1, 4), 4, (5, 6))):
            trace = mbm.canonicalize(pack(zero_one(random_rep(Q, d, seed=0)))[0], tol)[2]
            assert any(beyond_block(z) for z in trace.zones
                       if z.block[0] < rows and cols[0] <= z.block[2] < cols[1])
