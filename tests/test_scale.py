"""Forms scale with the input.

Every tolerance decision is relative to the Frobenius norm of the input, so
for c from 1e-6 to 1e6 the form of c * M is c times the form of M, and every
discrete answer (ranks, clusters, summands with their multiplicities,
parameter counts, isometry) is the one given at c = 1.  The examples are
drawn deterministically, so the suite runs the same cases every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unicanon import mbm
from unicanon import quiverrep as qr
from unicanon.mbm import MarkedBlockMatrix
from unicanon.numcore import Tolerance, random_unitary

from conftest import D4, KRONECKER, LOOP, SQUARE_KINDS, TWO_LOOPS, random_mbm, square

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
