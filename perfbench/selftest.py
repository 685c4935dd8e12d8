"""Self-test of the benchmark's checks and tracer.

Every workload's check must accept the program's real answer and reject a
deliberately wrong one.  Run with

    python3 -m pytest -q perfbench/selftest.py

(the file is outside the repository's test suite on purpose; it runs in a
few seconds).
"""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import workloads as W  # noqa: E402
from oracle import WrongAnswer  # noqa: E402
from tracer import Tracer  # noqa: E402

from unicanon import mbm, wildness  # noqa: E402
from unicanon.mbm import MarkedBlockMatrix, Transcript  # noqa: E402
from unicanon.quiverrep import Isometry, Representation  # noqa: E402


def rng(k=0):
    return np.random.default_rng([12345, k])


def accepts(op, res):
    op.check(res)


def rejects(op, res):
    with pytest.raises(WrongAnswer):
        op.check(res)


# -- simil-loops and acyclic-pack --------------------------------------------


def test_similarity_certificate_rejects_perturbed_transcript():
    first, second = W.simil_pair("t", W.square_matrix("complex", 6, rng()), rng(1))
    r1, r2 = first.call(), second.call()
    accepts(first, r1)
    accepts(second, r2)
    C, T, trace = r1
    U = oracle.haar_unitary(6, rng(2))
    rejects(first, (C, Transcript(R=(T.R[0] @ U,), S=(T.S[0] @ U,)), trace))  # wrong but unitary
    rejects(first, (C, Transcript(R=(1.01 * T.R[0],), S=(1.01 * T.S[0],)), trace))  # not unitary
    rejects(first, (C, Transcript(R=T.R, S=(T.S[0] @ U,)), trace))  # breaks the tie R = S
    bad = C.entries.copy()
    bad[0, -1] += 1e-3
    rejects(first, (MarkedBlockMatrix(C.row_strips, C.col_strips, bad, C.marked), T, trace))


def test_scrambled_copy_must_give_the_same_form():
    first, second = W.simil_pair("t", W.square_matrix("jordan", 6, rng()), rng(1))
    r1, r2 = first.call(), second.call()
    accepts(first, r1)
    accepts(second, r2)
    # a form that is certified for its own input but differs from the
    # first: canonicalize an unrelated matrix and present it as the answer
    other = MarkedBlockMatrix((6,), (6,), W.square_matrix("complex", 6, rng(3)), frozenset({(0, 0)}))
    other_op = W.simil_pair("t", other.entries, rng(4))[0]
    accepts(other_op, mbm.canonicalize(other))
    accepts(first, r1)
    with pytest.raises(WrongAnswer):
        second.check(mbm.canonicalize(other))


def test_rep_certificate_rejects_wrong_isometry_and_form():
    first, second = W.rep_pair("t", W.random_rep(W.KRONECKER, (4, 4), rng()), rng(1))
    r1, r2 = first.call(), second.call()
    accepts(first, r1)
    accepts(second, r2)
    Ainf, iso, schemes = r1
    U = oracle.haar_unitary(4, rng(2))
    rejects(first, (Ainf, Isometry((iso.S[0] @ U, iso.S[1])), schemes))
    mats = dict(Ainf.matrices)
    mats["a"] = mats["a"] + 1e-4
    rejects(first, (Representation(Ainf.quiver, Ainf.dims, mats), iso, schemes))
    rejects(first, (Ainf, iso, {}))


def test_known_defect_is_counted():
    """A generic 16 x 16 similarity input: the returned transcript does not
    reproduce the form (a defect simil-defects counts)."""
    first, _ = W.simil_pair("t", W.square_matrix("complex", 16, rng()), rng(1))
    rejects(first, first.call())


def test_simil_workloads_split_the_grid():
    """simil-loops and simil-defects hold disjoint cases that together make
    the whole grid, and generic inputs from n=16 are among the defects."""
    loops = {op.label for op in W.simil_loops(rng())}
    defects = {op.label for op in W.simil_defects(rng())}
    grid = len(W.SIMIL_SIZES) * len(W.MATRIX_KINDS) * len(W.SCALES) + len(W.SIMIL_LARGE_KINDS)
    grid += len(W.LOOP_REPS) * len(W.SCALES)
    assert not loops & defects
    assert len(loops) + len(defects) == grid
    assert "simil n=16 complex x1" in defects and "simil n=8 complex x1" in loops


# -- small-reps --------------------------------------------------------------


def test_decomposition_rejects_swapped_multiplicities():
    op = W.decompose_op(W.KRONECKER, (1, 2), (2, 2), rng())
    parts = op.call()
    accepts(op, parts)
    rejects(op, [(P, 3 - m) for P, m in parts])
    rejects(op, parts[:1])


def test_isometric_and_real_isometry_reject_flipped_answers():
    pos, neg = W.isometric_ops(W.TWO_LOOPS, (3,), rng())
    accepts(pos, pos.call())
    accepts(neg, neg.call())
    rejects(pos, False)
    rejects(neg, True)
    rpos, rneg = W.real_isometry_ops(W.KRONECKER, (2, 3), rng(1))
    T = rpos.call()
    accepts(rpos, T)
    accepts(rneg, rneg.call())
    rejects(rpos, None)
    rejects(rpos, Isometry(tuple(2.0 * U for U in T.S)))
    rejects(rneg, T)


def test_construct_params_and_enumerate_reject_wrong_answers():
    op = W.construct_op(W.TWO_LOOPS, (3,), 7)
    R = op.call()
    accepts(op, R)
    P = W.random_rep(W.TWO_LOOPS, (1,), rng())
    Q = W.random_rep(W.TWO_LOOPS, (2,), rng(1))
    rejects(op, oracle.direct_sum(P, Q))  # right dims, decomposable
    params = W.params_op(W.KRONECKER, (2, 3), rng())
    got = params.call()
    accepts(params, got)
    rejects(params, ((got[0][0] - 1, got[0][1]), got[1]))
    enum = W.enumerate_op(W.D4, 5)
    vecs = enum.call()
    accepts(enum, vecs)
    rejects(enum, vecs[1:])
    rejects(enum, vecs + [(9, 9, 9, 9)])


def test_real_types_reject_wrong_kind():
    A = W.scramble_rep(W.random_rep(W.KRONECKER, (2, 3), rng(), real=True), rng(1), real=True)
    op = W.classify_op("t", A, "Real")
    rt = op.call()
    accepts(op, rt)
    rejects(op, type(rt)(kind="Complex"))
    quat = W.classify_op("t", W.quaternionic_pair(2, rng(2)), "Quaternionic")
    accepts(quat, quat.call())
    rejects(quat, rt)
    dec = W.decompose_real_op(W.TWO_LOOPS, (2,), (2,), rng(3))
    parts = dec.call()
    accepts(dec, parts)
    rejects(dec, [(P, m + 1) for P, m in parts])


def test_gadget_rejects_flipped_answer():
    pos, neg = W.gadget_ops("SubspaceTriple", rng())
    accepts(pos, pos.call())
    accepts(neg, neg.call())
    rejects(pos, False)
    rejects(neg, True)


# -- cli-json ----------------------------------------------------------------


def test_cli_checks_reject_wrong_output_and_exit_code():
    with tempfile.TemporaryDirectory() as tmp:
        ops = W.cli_json(rng(), tmp, runner=None, tag="t")
        for op in ops:
            text = W.dispatch_in_process(op.argv)
            accepts(op, W.ChildRun(0, text, "", 0.1, 0.1, 1))
            rejects(op, W.ChildRun(2, text, "error", 0.1, 0.1, 1))
            if "isometric" in op.label:
                flipped = text.replace("true", "@").replace("false", "true").replace("@", "false")
                rejects(op, W.ChildRun(0, flipped, "", 0.1, 0.1, 1))
            elif "dims" in op.label:
                rejects(op, W.ChildRun(0, text + "[9, 9]\n", "", 0.1, 0.1, 1))
            elif "canon-matrix" in op.label:
                rejects(op, W.ChildRun(0, text.replace("0.", "0.9", 1), "", 0.1, 0.1, 1))


# -- tracer ------------------------------------------------------------------


def test_tracer_attributes_by_defining_module_and_restores():
    original = wildness.canonicalize
    tracer = Tracer()
    X = W.gaussian(rng(), (2, 2))
    with tracer.installed():
        assert wildness.canonicalize is not original
        wildness.gadget_faithful("SubspaceTriple", X, X)
    assert wildness.canonicalize is original and mbm.canonicalize is original
    s = tracer.summary()
    assert s["canonicalize_calls"] == 2  # reached through wildness's import
    assert s["derive_calls"] > 0 and s["calls"]["linalg"] > 0
    assert s["self_s"]["mbm"] > 0 and s["self_s"]["wildness"] > 0
    assert abs(sum(s["self_s"].values()) - s["top_level_s"]) < 1e-9


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
