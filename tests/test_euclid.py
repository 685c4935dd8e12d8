import numpy as np
import pytest

from unicanon.numcore import random_unitary
from unicanon import euclid as eu
from unicanon import mbm
from unicanon import quiverrep as qr
from unicanon.quiverrep import Quiver, Representation, Isometry
from unicanon.euclid import (
    NotSymmetricError,
    NotUnitaryError,
    NotSkewError,
    OddDimensionError,
    DecomposableError,
    ConjugatePairingFailure,
    realify,
    conj_rep,
    transpose_rep,
    adjoint_rep,
    self_conj_isometry,
    classify_real,
    takagi_symmetric,
    skew_canonical,
    to_real_form,
    to_quaternionic_form,
    real_isometry,
    decompose_real,
    matrix_real_test,
)

from conftest import D4, LOOP, KRONECKER, SINGLE_ARROW, TWO_LOOPS, interleaved_J
import oracle


def loop_rep(A):
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return Representation(LOOP, (A.shape[0],), {"a": A})


def quaternionic_loop(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    M = np.block([[X, Y], [-Y.conj(), X.conj()]])
    return loop_rep(M)


def quaternionic_two_loops(seed):
    """Two loops, each [[x, y], [-conj(y), conj(x)]] with Gaussian x, y."""
    rng = np.random.default_rng(seed)
    mats = {}
    for a in "ab":
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mats[a] = np.array([[x, y], [-np.conj(y), np.conj(x)]])
    return Representation(TWO_LOOPS, (2,), mats)


class TestRealify:
    def test_entry_blocks(self):
        R = realify(loop_rep([[1j]]))
        assert np.allclose(R.matrices["a"], [[0, 1], [-1, 0]])
        R = realify(loop_rep([[1.0]]))
        assert np.allclose(R.matrices["a"], np.eye(2))

    def test_dims_double(self):
        A = qr.random_rep(KRONECKER, (2, 3), seed=0)
        assert realify(A).dims == (4, 6)

    def test_splits_as_rep_plus_conjugate(self, tol):
        for Q, d, seed in ((LOOP, (2,), 1), (KRONECKER, (1, 2), 2)):
            A = qr.random_rep(Q, d, seed=seed)
            assert qr.isometric(
                realify(A), qr.direct_sum(A, conj_rep(A)), tol
            )


class TestDualities:
    def test_conj_involution(self):
        A = qr.random_rep(KRONECKER, (2, 2), seed=3)
        B = conj_rep(conj_rep(A))
        for a in A.matrices:
            assert np.allclose(B.matrices[a], A.matrices[a])

    def test_real_rep_selfconjugate(self):
        A = loop_rep([[1.0, 2.0], [0.0, 3.0]])
        B = conj_rep(A)
        assert np.allclose(B.matrices["a"], A.matrices["a"])

    def test_transpose_reverses_arrows(self):
        A = qr.random_rep(SINGLE_ARROW, (2, 3), seed=4)
        B = transpose_rep(A)
        assert B.quiver.arrows[0][1:] == (2, 1)
        assert B.matrices["a"].shape == (2, 3)

    def test_adjoint_involution(self):
        A = qr.random_rep(SINGLE_ARROW, (2, 3), seed=5)
        B = adjoint_rep(adjoint_rep(A))
        assert B.quiver == A.quiver
        assert np.allclose(B.matrices["a"], A.matrices["a"])


class TestSelfConj:
    def test_real_input_has_isometry(self, tol):
        A = loop_rep([[1.0, 3.0], [0.0, 2.0]])
        S = self_conj_isometry(A, tol)
        assert S is not None
        M = A.matrices["a"]
        assert np.abs(S.S[0] @ M - M.conj() @ S.S[0]).max() < 1e-8

    def test_scalar_i_has_none(self, tol):
        assert self_conj_isometry(loop_rep([[1j]]), tol) is None

    def test_mixed_eigs_symmetric(self, tol):
        A = loop_rep([[1j, 1.0], [0.0, -1j]])
        S = self_conj_isometry(A, tol)
        assert S is not None
        S0 = S.S[0]
        assert np.linalg.norm(S0 - S0.T) < 1e-8
        # entrywise magnitudes of (1/sqrt 5)[[1,2i],[2i,1]]
        assert np.allclose(
            np.abs(S0), np.array([[1, 2], [2, 1]]) / np.sqrt(5), atol=1e-7
        )


class TestClassify:
    def test_real_type(self, tol):
        rt = classify_real(loop_rep([[1j, 1.0], [0.0, -1j]]), tol)
        assert rt.kind == "Real" and rt.lam == 1
        W = rt.form.matrices["a"]
        assert np.abs(W.imag).max() < 1e-7
        assert abs(np.trace(W)) < 1e-7
        assert abs(np.linalg.det(W) - 1) < 1e-7

    def test_complex_type(self, tol):
        assert classify_real(loop_rep([[1j]]), tol).kind == "Complex"

    def test_zero_dims(self, tol):
        # before: kind "Real", lam 1
        for Q, d in ((LOOP, (0,)), (KRONECKER, (0, 0))):
            with pytest.raises(qr.ZeroDimError):
                classify_real(qr.random_rep(Q, d, seed=0), tol)

    def test_quaternionic_type(self, tol):
        for seed in range(5):
            A = quaternionic_loop(seed)
            if not qr.is_indecomposable_rep(A, tol):
                continue
            rt = classify_real(A, tol)
            assert rt.kind == "Quaternionic" and rt.lam == -1
            M = rt.form.matrices["a"]
            X, Y = M[:2, :2], M[:2, 2:]
            assert np.abs(M[2:, :2] + Y.conj()).max() < 1e-7
            assert np.abs(M[2:, 2:] - X.conj()).max() < 1e-7
            break
        else:
            pytest.fail("no indecomposable quaternionic sample found")


class TestTakagi:
    def test_identity(self, tol):
        U = takagi_symmetric(np.eye(3), tol)
        assert np.abs(U.T @ U - np.eye(3)).max() < 1e-12

    def test_swap(self, tol):
        S = np.array([[0, 1], [1, 0]], dtype=complex)
        U = takagi_symmetric(S, tol)
        assert np.abs(U.T @ U - S).max() < 1e-12

    def test_random_symmetric_unitaries(self, tol):
        rng = np.random.default_rng(6)
        for k in range(20):
            n = int(rng.integers(1, 6))
            V = random_unitary(n, seed=100 + k)
            D = np.diag(np.exp(2j * np.pi * rng.uniform(size=n)))
            S = V.T @ D @ V
            U = takagi_symmetric(S, tol)
            assert np.abs(U.T @ U - S).max() < 1e-9
            assert np.abs(U.conj().T @ U - np.eye(n)).max() < 1e-9

    def test_rejects_nonsymmetric(self, tol):
        with pytest.raises(NotSymmetricError):
            takagi_symmetric(np.array([[0, 1], [-1, 0]], dtype=complex), tol)

    def test_rejects_nonunitary(self, tol):
        with pytest.raises(NotUnitaryError):
            takagi_symmetric(2 * np.eye(2), tol)

    def test_rejects_non_finite(self, tol):
        # before: a warning, then numpy's "SVD did not converge"
        with pytest.raises(ValueError, match=r"entry \(1,1\) is not finite"):
            takagi_symmetric([[np.nan]], tol)

    def test_rejects_overflowing_product(self, tol):
        # S^H S of these finite entries overflows to inf - inf = NaN, which
        # failed no ``>`` test: before, the zero matrix was returned
        S = np.array([[1e200, 1e200], [1e200, -1e200]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotUnitaryError):
            takagi_symmetric(S, tol)


class TestSkew:
    def J(self, n):
        return interleaved_J(n)

    def test_j_itself(self, tol):
        J = self.J(4)
        U = skew_canonical(J, tol)
        assert np.abs(U.T @ J @ U - J).max() < 1e-12

    def test_minus_j(self, tol):
        J = self.J(2)
        U = skew_canonical(-J, tol)
        assert np.abs(U.T @ J @ U + J).max() < 1e-12

    def test_random_skew_unitaries(self, tol):
        for k in range(20):
            n = 2 * (1 + k % 3)
            V = random_unitary(n, seed=200 + k)
            S = V.T @ self.J(n) @ V
            U = skew_canonical(S, tol)
            assert np.abs(U.T @ self.J(n) @ U - S).max() < 1e-9
            assert np.abs(U.conj().T @ U - np.eye(n)).max() < 1e-9

    def test_rejects_odd(self, tol):
        with pytest.raises(OddDimensionError):
            skew_canonical(np.zeros((3, 3)), tol)

    def test_rejects_nonskew(self, tol):
        with pytest.raises(NotSkewError):
            skew_canonical(np.eye(2), tol)

    def test_rejects_non_finite(self, tol):
        # before: the identity, though U^T J U = J is not S
        with pytest.raises(ValueError, match=r"entry \(2,2\) is not finite"):
            skew_canonical([[0, 1], [-1, np.nan]], tol)


class TestForms:
    def test_real_form_of_real_input(self, tol):
        A = loop_rep([[1.0, 3.0], [0.0, 2.0]])
        S = Isometry((np.eye(2, dtype=complex),))
        B = to_real_form(A, S, tol)
        assert np.allclose(B.matrices["a"], A.matrices["a"])

    def test_real_form_roundtrip(self, tol):
        rt = classify_real(loop_rep([[1j, 1.0], [0.0, -1j]]), tol)
        again = classify_real(rt.form, tol)
        assert again.kind == "Real"

    def test_quaternionic_even_dims(self, tol):
        for seed in range(5):
            A = quaternionic_loop(seed)
            if qr.is_indecomposable_rep(A, tol):
                rt = classify_real(A, tol)
                assert all(d % 2 == 0 for d in rt.form.dims)
                break


class TestRealIsometry:
    def test_identity_case(self, tol):
        A = loop_rep([[1.0, 3.0], [0.0, 2.0]])
        T = real_isometry(A, A, tol)
        assert T is not None
        assert np.abs(T.S[0].imag).max() < 1e-10

    def test_orthogonal_conjugate(self, tol):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((3, 3))
        A = loop_rep(M)
        O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        B = loop_rep(O.T @ M @ O)
        T = real_isometry(A, B, tol)
        assert T is not None
        T0 = T.S[0]
        assert np.abs(T0.imag).max() < 1e-8
        assert np.abs(T0 @ A.matrices["a"] - B.matrices["a"] @ T0).max() < 1e-7
        assert np.abs(T0.conj().T @ T0 - np.eye(3)).max() < 1e-8

    def test_distinct_scalars_none(self, tol):
        assert real_isometry(loop_rep([[1.0]]), loop_rep([[2.0]]), tol) is None

    def test_quiver_without_vertices(self, tol):
        A = Representation(Quiver(0, []), (), {})
        assert real_isometry(A, A, tol) == Isometry(())

    def test_zero_dimensions(self, tol):
        A = Representation(ZERO_VERTEX, (0, 0, 0), {a: np.zeros((0, 0)) for a in "abc"})
        assert [U.shape for U in real_isometry(A, A, tol).S] == [(0, 0)] * 3

    def test_complex_input_rejected_before_reduction(self, tol, reductions):
        # before: both were reduced, and the polar-factor witness failed its
        # certificate (CertificationError, residual 1.88 > 9.7e-8)
        A = qr.random_rep(KRONECKER, (2, 2), seed=0)
        B = qr.apply_isometry(A, Isometry((random_unitary(2, seed=1), random_unitary(2, seed=2))))
        with pytest.raises(ValueError, match="A is not real: arrow a has") as info:
            real_isometry(A, B, tol)
        assert not isinstance(info.value, mbm.CertificationError) and reductions == []
        real = loop_rep([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(ValueError, match="B is not real: arrow a has"):
            real_isometry(real, loop_rep([[1.0, 2.0], [0.0, 3.0 + 1e-6j]]), tol)
        assert reductions == []

    def test_witness_limit(self, tol, monkeypatch):
        # real_isometry checks its residual against the limit that
        # isometric checks its isometry at: tol.bound of A's packing, whose
        # larger side is 6 for Kronecker (3,3) (the largest d_v, 3, before);
        # a witness beyond it raises
        A = real_rep(KRONECKER, (3, 3), np.random.default_rng(3))
        M = qr.pack(A)
        T = real_isometry(A, A, tol)
        resid, limit = qr._residual(A, A, T, M, tol)
        assert M.shape == (6, 6) and limit == tol.bound(M.entries, 6) and resid <= limit
        monkeypatch.setattr(eu, "_residual", lambda A, B, T, M, tol: (limit, limit))
        assert real_isometry(A, A, tol) is not None
        monkeypatch.setattr(eu, "_residual", lambda A, B, T, M, tol: ((1.0 + 2**-40) * limit, limit))
        with pytest.raises(mbm.CertificationError, match="real isometry does not map A onto B"):
            real_isometry(A, A, tol)

    # (quiver, dims of P, dims of R); P is realify of a complex Gaussian
    # representation (a complex-type pair) when the dims of P are halved
    SUMMANDS = {
        "kronecker (3,3)": (KRONECKER, (3, 3), (1, 2)),
        "kronecker (1,2)": (KRONECKER, (1, 2), (2, 3)),
        "loop (4,)": (LOOP, (4,), (2,)),
        "two loops (3,)": (TWO_LOOPS, (3,), (2,)),
        "complex-type loop (2,)": (LOOP, (2,), (3,)),
    }

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("copies", ["P+P", "P+P+R", "P+P+P"])
    @pytest.mark.parametrize("name", SUMMANDS)
    def test_scrambled_repeated_summands(self, tol, name, copies, seed):
        # repeated summands leave S free up to a unitary between the copies,
        # so S is not a phase times a real matrix: the angle taken from the
        # eigenvalues of N_v = S_vᴴ conj(S_v) keeps Re(e^{it} S_v) invertible
        rng = np.random.default_rng(seed)
        Q, dp, dr = self.SUMMANDS[name]
        P = complex_pair(Q, dp, rng) if name.startswith("complex") else real_rep(Q, dp, rng)
        A = qr.direct_sum(P, P)
        if copies != "P+P":
            A = qr.direct_sum(A, P if copies == "P+P+P" else real_rep(Q, dr, rng))
        O = tuple(oracle.haar_orthogonal(n, rng) + 0j for n in A.dims)
        B = qr.apply_isometry(A, Isometry(O))
        oracle.check_real_isometry(A, B, real_isometry(A, B, tol))


class TestDecomposeReal:
    def test_rotation_block(self, tol):
        A = loop_rep([[0.0, 1.0], [-1.0, 0.0]])
        parts = decompose_real(A, tol)
        assert len(parts) == 1 and parts[0][1] == 1
        P = parts[0][0]
        assert P.dims == (2,)
        assert qr.isometric(P, realify(loop_rep([[1j]])), tol)

    def test_real_diagonal(self, tol):
        parts = decompose_real(loop_rep(np.diag([2.0, 1.0])), tol)
        vals = sorted(round(P.matrices["a"][0, 0].real) for P, _ in parts)
        assert vals == [1, 2]

    def test_real_type_single_summand(self, tol):
        rt = classify_real(loop_rep([[1j, 1.0], [0.0, -1j]]), tol)
        parts = decompose_real(rt.form, tol)
        assert len(parts) == 1 and parts[0][1] == 1
        assert parts[0][0].dims == (2,)

    def test_quaternionic_summand_pairs_with_itself(self, tol):
        Q = quaternionic_two_loops(1)
        assert classify_real(Q, tol).kind == "Quaternionic"
        parts = decompose_real(realify(Q), tol)
        assert [(P.dims, m) for P, m in parts] == [((4,), 1)]

    @pytest.mark.parametrize("Q, d", [(Quiver(0, []), ()), (KRONECKER, (0, 0))],
                             ids=["no-vertices", "zero-dims"])
    def test_empty(self, tol, Q, d):
        A = Representation(Q, d, {a: np.zeros((0, 0)) for a, _, _ in Q.arrows})
        assert decompose_real(A, tol) == []

    def test_quaternionic_odd_multiplicity(self, tol):
        # complex-entried input fails the real-input certificate before the
        # multiplicity check is reached
        with pytest.raises(ConjugatePairingFailure, match="input is not real"):
            decompose_real(quaternionic_two_loops(1), tol)

    @pytest.mark.parametrize("make", [
        lambda: quaternionic_two_loops(1),
        lambda: qr.random_rep(KRONECKER, (1, 2), seed=11),
    ], ids=["quaternionic", "kronecker"])
    def test_non_real_input_rejected(self, tol, make):
        with pytest.raises(ConjugatePairingFailure, match="input is not real"):
            decompose_real(make(), tol)


ZERO_VERTEX = Quiver(3, [("a", 1, 2), ("b", 1, 2), ("c", 2, 3)])


def real_rep(Q, d, rng):
    mats = {a: rng.standard_normal((d[t - 1], d[s - 1])) + 0j for a, s, t in Q.arrows}
    return Representation(Q, d, mats)


def complex_pair(Q, d, rng):
    """realify(P) for a complex Gaussian P: a complex-type pair over C."""
    return realify(qr.random_rep(Q, d, seed=int(rng.integers(2**31))))


def real_sum_case(name, rng):
    """``(A, expected)``: a real-entried direct sum and its summands over the
    reals with multiplicities, one case per branch of ``decompose_real``."""
    if name.startswith("real-type x2"):
        # on the loop, the similarity step's complex Schur vectors mix the
        # two copies, so G's blocks between copies are not unitary
        R = real_rep(*((LOOP, (3,)) if name.endswith("loop") else (KRONECKER, (2, 3))), rng)
        return qr.direct_sum(R, R), [(R, 2)]
    if name == "complex pairs x2":
        C = complex_pair(KRONECKER, (1, 1), rng)
        return qr.direct_sum(C, C), [(C, 2)]
    if name == "quaternionic + real":
        H, R = realify(quaternionic_two_loops(1)), real_rep(TWO_LOOPS, (2,), rng)
        return qr.direct_sum(H, R), [(H, 1), (R, 1)]
    Q, d = {"d4": (D4, (1, 1, 1, 2)), "zero vertex": (ZERO_VERTEX, (1, 2, 0))}[name]
    R, C = real_rep(Q, d, rng), complex_pair(Q, d, rng)
    return qr.direct_sum(R, C), [(R, 1), (C, 1)]


def scaled_rep(A, c):
    return Representation(A.quiver, A.dims, {a: c * X for a, X in A.matrices.items()})


class TestDecomposeRealBranches:
    """Each branch of ``decompose_real`` on real-orthogonally scrambled sums,
    checked by the engine-independent oracle: summands isometric to the
    ones built, with their multiplicities, and real-entried."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("name", [
        "real-type x2", "real-type x2 loop", "complex pairs x2", "quaternionic + real", "d4",
        "zero vertex"])
    def test_summands(self, tol, name, scale):
        rng = np.random.default_rng(12)
        A, expected = real_sum_case(name, rng)
        O = tuple(oracle.haar_orthogonal(n, rng) + 0j for n in A.dims)
        parts = decompose_real(scaled_rep(qr.apply_isometry(A, Isometry(O)), scale), tol)
        for P, _ in parts:
            oracle.check_real_entries(P, "summand")
        oracle.check_decomposition(
            parts, [(scaled_rep(R, scale), m) for R, m in expected], indecomposable=False)


class TestMatrixRealTest:
    def test_already_real(self, tol):
        flag, W = matrix_real_test([[1.0, 3.0], [0.0, 2.0]], tol)
        assert flag
        assert np.abs(np.asarray(W).imag).max(initial=0.0) < 1e-10

    def test_scalar_i_false(self, tol):
        flag, W = matrix_real_test([[1j]], tol)
        assert not flag and W is None

    def test_conjugated_real_recovered(self, tol):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((3, 3))
        U = random_unitary(3, seed=9)
        flag, W = matrix_real_test(U.conj().T @ M @ U, tol)
        assert flag
        # the witness is unitarily similar to the original real matrix
        assert np.allclose(
            sorted(np.linalg.eigvals(W).real),
            sorted(np.linalg.eigvals(M).real),
            atol=1e-6,
        )

    def test_decomposable_rejected(self, tol):
        with pytest.raises(DecomposableError):
            matrix_real_test(np.diag([2.0, 1.0]), tol)


class TestReductionCounts:
    """Each canonical form is computed once per request."""

    @pytest.mark.parametrize(
        "name", ["isometric", "self_conj_isometry", "classify_real", "real_isometry"]
    )
    def test_two_reductions(self, tol, reductions, name):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((3, 3))
        O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A, B = loop_rep(M), loop_rep(O.T @ M @ O)
        run = {
            "isometric": lambda: qr.isometric(A, B, tol),
            "self_conj_isometry": lambda: self_conj_isometry(A, tol),
            "classify_real": lambda: classify_real(A, tol),
            "real_isometry": lambda: real_isometry(A, B, tol),
        }[name]
        assert run()
        assert len(reductions) == 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_decompose_real(self, tol, reductions, k):
        rng = np.random.default_rng(20 + k)
        A = qr.random_rep(KRONECKER, (1, 1), seed=30 + k)
        A = Representation(KRONECKER, (1, 1), {a: M.real + 0j for a, M in A.matrices.items()})
        for j in range(k):
            A = qr.direct_sum(A, realify(qr.random_rep(KRONECKER, (1, 1), seed=40 + 10 * k + j)))
        O = []
        for n in A.dims:
            Q_, _ = np.linalg.qr(rng.standard_normal((n, n)))
            O.append(Q_ + 0j)
        A = qr.apply_isometry(A, Isometry(tuple(O)))
        parts = decompose_real(A, tol)
        assert sorted(m for _, m in parts) == [1] * (k + 1)
        # the one reduction of the packing: pairing and classification read
        # its transcript
        assert len(reductions) == 1
