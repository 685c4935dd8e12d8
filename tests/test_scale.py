"""Forms scale with the input.

Every tolerance decision is relative to the Frobenius norm of the input, so
for c from 1e-6 to 1e6 the form of c * M is c times the form of M, and every
discrete answer (ranks, clusters, summands with their multiplicities,
parameter counts, isometry) is the one given at c = 1.  The examples are
drawn deterministically, so the suite runs the same cases every time.  At
the extreme scales 1e-300 to 1e300, where squaring the entries over- or
underflows, fixed examples check the same, with no floating-point warning.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unicanon import euclid as eu
from unicanon import mbm
from unicanon import quiverrep as qr
from unicanon.cli import dispatch
from unicanon.mbm import MarkedBlockMatrix
from unicanon.numcore import Tolerance, random_unitary

from conftest import D4, KRONECKER, LOOP, SQUARE_KINDS, TWO_LOOPS, random_mbm, square
from test_euclid import quaternionic_loop

SCALES = (1e-6, 1e-3, 1e3, 1e6)
CASES = settings(max_examples=25, deadline=None, derandomize=True)
TOL = Tolerance()


def assert_scaled(got, want, c):
    """``got`` is c times ``want`` within 1e-12 relative."""
    assert got.shape == want.shape
    assert np.linalg.norm(got - c * want) <= 1e-12 * c * np.linalg.norm(want)


def scaled_rep(A, c):
    return qr.Representation(A.quiver, A.dims, {a: c * M for a, M in A.matrices.items()})


def scrambled(A, rng):
    T = qr.Isometry(tuple(random_unitary(d, seed=int(rng.integers(2**31))) for d in A.dims))
    return qr.apply_isometry(A, T)


def twice_plus(Q, dp, dr, seed):
    """A scrambled P + P + R with P, R Gaussian representations of Q."""
    rng = np.random.default_rng(seed)
    P = qr.random_rep(Q, dp, seed=int(rng.integers(2**31)))
    R = qr.random_rep(Q, dr, seed=int(rng.integers(2**31)))
    return scrambled(qr.direct_sum(qr.direct_sum(P, P), R), rng)


def summands(A, tol):
    return sorted((P.dims, m) for P, m in qr.decompose_rep(A, tol))


def check_rep(A, c, tol):
    """``rep_canonical``, ``decompose_rep``, ``rep_params`` and ``isometric``
    (with a scrambled copy, and with a copy whose first arrow is scaled by
    1.5) on c * A agree with c = 1."""
    rng = np.random.default_rng(0)
    cA = scaled_rep(A, c)
    want, got = qr.rep_canonical(A, tol)[0], qr.rep_canonical(cA, tol)[0]
    for a in A.matrices:
        assert_scaled(got.matrices[a], want.matrices[a], c)
    assert summands(cA, tol) == summands(A, tol)
    assert qr.rep_params(cA, tol) == qr.rep_params(A, tol)
    B = scrambled(A, rng)
    first = A.quiver.arrows[0][0]
    N = qr.Representation(A.quiver, A.dims, {**B.matrices, first: 1.5 * B.matrices[first]})
    for other, isometric in ((B, True), (N, False)):
        assert qr.isometric(A, other, tol) == isometric
        assert qr.isometric(cA, scaled_rep(other, c), tol) == isometric


@CASES
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 32),
    kind=st.sampled_from(SQUARE_KINDS),
    marked=st.booleans(),
    c=st.sampled_from(SCALES),
)
def test_single_matrix(seed, n, kind, marked, c):
    A = square(kind, n, np.random.default_rng(seed))
    marks = frozenset({(0, 0)}) if marked else frozenset()
    C, _, trace = mbm.canonicalize(MarkedBlockMatrix((n,), (n,), A, marks), TOL)
    Cc, _, trace_c = mbm.canonicalize(MarkedBlockMatrix((n,), (n,), c * A, marks), TOL)
    assert_scaled(Cc.entries, C.entries, c)
    assert [s.row_pieces for s in trace_c.steps] == [s.row_pieces for s in trace.steps]


@CASES
@given(seed=st.integers(0, 2**32 - 1), c=st.sampled_from(SCALES))
def test_marked_block_matrix(seed, c):
    M = random_mbm(np.random.default_rng(seed), max_strips=3, max_size=5)
    C, _, trace = mbm.canonicalize(M, TOL)
    cM = MarkedBlockMatrix(M.row_strips, M.col_strips, c * M.entries, M.marked)
    Cc, _, trace_c = mbm.canonicalize(cM, TOL)
    assert_scaled(Cc.entries, C.entries, c)
    assert trace_c.num_classes == trace.num_classes
    assert [(z.kind, z.block, z.cells) for z in trace_c.zones] == [
        (z.kind, z.block, z.cells) for z in trace.zones
    ]
    for s, sc in zip(trace.steps, trace_c.steps):
        assert [k for _, k in sc.values] == [k for _, k in s.values]
        assert np.allclose([v for v, _ in sc.values], [c * v for v, _ in s.values], rtol=1e-12, atol=0)
    assert [(P.entries.shape, m) for P, m in mbm.decompose(cM, TOL)] == [
        (P.entries.shape, m) for P, m in mbm.decompose(M, TOL)
    ]


QUIVER_DIMS = st.sampled_from((LOOP, KRONECKER, D4, TWO_LOOPS)).flatmap(
    lambda Q: st.tuples(
        st.just(Q),
        st.tuples(*[st.integers(1, 2)] * Q.p),
        st.tuples(*[st.integers(1, 3)] * Q.p),
    )
)


@CASES
@given(qd=QUIVER_DIMS, seed=st.integers(0, 2**32 - 1), c=st.sampled_from(SCALES))
def test_representation(qd, seed, c):
    Q, dp, dr = qd
    check_rep(twice_plus(Q, dp, dr, seed), c, TOL)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("Q, dp, dr", [(KRONECKER, (2, 3), (3, 3)), (TWO_LOOPS, (3,), (4,))])
def test_twice_plus_decomposes_at_every_scale(tol, Q, dp, dr, c):
    A = twice_plus(Q, dp, dr, 0)
    assert summands(scaled_rep(A, c), tol) == sorted([(dp, 2), (dr, 1)])
    check_rep(A, c, tol)


EXTREME = (1e-300, 1e-200, 1e200, 1e300)
BASE = np.array([[1, 3], [0, 2]], dtype=complex)


def assert_divided(got, want, c):
    """``got / c`` equals ``want`` within 1e-12 relative; dividing first keeps
    the comparison in range where ``c * want`` would overflow."""
    assert got.shape == want.shape
    assert np.linalg.norm(got / c - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", EXTREME)
@pytest.mark.parametrize("marks", [frozenset({(0, 0)}), frozenset()], ids=["simil", "equiv"])
def test_single_matrix_at_extreme_scales(tol, c, marks):
    # canonicalize certifies every form it returns, so no check is needed here
    C = mbm.canonicalize(MarkedBlockMatrix((2,), (2,), BASE, marks), tol)[0]
    Cc = mbm.canonicalize(MarkedBlockMatrix((2,), (2,), c * BASE, marks), tol)[0]
    assert_divided(Cc.entries, C.entries, c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", EXTREME)
def test_representation_at_extreme_scales(tol, c):
    A = twice_plus(KRONECKER, (2, 3), (3, 3), 0)
    cA = scaled_rep(A, c)
    want, got = qr.rep_canonical(A, tol)[0], qr.rep_canonical(cA, tol)[0]
    for a in A.matrices:
        assert_divided(got.matrices[a], want.matrices[a], c)
    assert summands(cA, tol) == sorted([((2, 3), 2), ((3, 3), 1)])
    B = scrambled(A, np.random.default_rng(0))
    N = qr.Representation(A.quiver, A.dims, {**B.matrices, "a": 1.5 * B.matrices["a"]})
    assert qr.isometric(cA, scaled_rep(B, c), tol)
    assert not qr.isometric(cA, scaled_rep(N, c), tol)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["simil", "equiv"])
def test_cli_above_norm_overflow(tmp_path, capsys, mode):
    # the sum of the squared entries overflows from about 1e154 on
    c = 1e160
    f = tmp_path / "m.json"
    f.write_text(json.dumps(mbm.matrix_to_json(c * BASE)))
    assert dispatch(["canon-matrix", "--mode", mode, str(f)]) == 0
    got = mbm.matrix_from_json(json.loads(capsys.readouterr().out)["matrix"])
    marks = frozenset({(0, 0)}) if mode == "simil" else frozenset()
    want = mbm.canonicalize(MarkedBlockMatrix((2,), (2,), BASE, marks))[0].entries
    assert_divided(got, want, c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", EXTREME)
@pytest.mark.parametrize("kind", ["Real", "Quaternionic"])
def test_real_types_at_extreme_scales(tol, kind, c):
    # a generic real 4 x 4 loop, or [[X, Y], [-conj(Y), conj(X)]] with 2 x 2 X, Y
    rng = np.random.default_rng(0)
    if kind == "Real":
        A = qr.Representation(LOOP, (4,), {"a": rng.standard_normal((4, 4)).astype(complex)})
        R = A
    else:
        A = quaternionic_loop(0)
        R = eu.realify(A)  # real-entried, for decompose_real and real_isometry
    want, got = eu.classify_real(A, tol), eu.classify_real(scaled_rep(A, c), tol)
    assert (got.kind, got.lam) == (want.kind, want.lam) == (kind, 1 if kind == "Real" else -1)
    F = got.form.matrices["a"] / c
    if kind == "Real":
        assert not F.imag.any()
    else:
        X, Y = F[:2, :2], F[:2, 2:]
        assert np.linalg.norm(F[2:] - np.hstack([-Y.conj(), X.conj()])) <= 1e-12 * np.linalg.norm(F)
    assert qr.isometric(got.form, scaled_rep(A, c), tol)
    assert [(P.dims, m) for P, m in eu.decompose_real(scaled_rep(R, c), tol)] == [
        (P.dims, m) for P, m in eu.decompose_real(R, tol)]
    n = R.dims[0]
    O = np.linalg.qr(rng.standard_normal((n, n)))[0]  # a real orthogonal scramble
    B = qr.apply_isometry(R, qr.Isometry((O.astype(complex),)))
    assert eu.real_isometry(scaled_rep(R, c), scaled_rep(B, c), tol) is not None
