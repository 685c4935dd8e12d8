"""Golden-output fixture: records what the package returns on seeded inputs.

Run from the repository root to (re)write ``tests/golden/golden.json``::

    PYTHONPATH=src python tests/golden/make_golden.py

``tests/test_golden.py`` recomputes :func:`compute` and compares it with the
file: discrete data (shapes, kinds, labels, zones, schemes, multiplicities,
booleans) exactly, numbers within ``1e-10 * max(1, |x|)``.  The fixture
guards refactors against changing any output; it is not a correctness test.
Every similarity result recorded here is certified first (the transcript
reproduces the form), so the fixture does not pin answers that are known to
be wrong.  Generic and scrambled Jordan inputs at n = 16 and 32, scale 1e-3,
cover the sizes and scales where similarity steps built from products of
(A - lambda I) returned uncertified forms.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import example_8x12, jordan_sum  # noqa: E402

from unicanon import dims as dm, euclid, mbm, wildness  # noqa: E402
from unicanon import quiverrep as qr  # noqa: E402
from unicanon import scheme as sm  # noqa: E402
from unicanon.mbm import MarkedBlockMatrix  # noqa: E402
from unicanon.numcore import Tolerance, random_unitary  # noqa: E402
from unicanon.quiverrep import Quiver, Representation  # noqa: E402

GOLDEN = HERE / "golden.json"
TOL = Tolerance()

KRONECKER = Quiver(2, [("a", 1, 2), ("b", 1, 2)])
D4 = Quiver(4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)])
TWO_LOOPS = Quiver(1, [("a", 1, 1), ("b", 1, 1)])
LOOP_ARROW = Quiver(2, [("l", 1, 1), ("x", 1, 2)])
LOOP = Quiver(1, [("a", 1, 1)])
LOOP_AND_VERTEX = Quiver(2, [("l", 1, 1)])
LOOPS_PARALLEL = Quiver(3, [("l", 1, 1), ("a", 1, 2), ("b", 2, 1), ("m", 3, 3)])


def cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def cmat(M):
    return [[cnum(z) for z in row] for row in np.atleast_2d(np.asarray(M))]


def gaussian(rng, shape, real=False):
    X = rng.standard_normal(shape)
    return X + 0j if real else X + 1j * rng.standard_normal(shape)


def rep(Q, d, rng, real=False):
    mats = {a: gaussian(rng, (d[t - 1], d[s - 1]), real) for a, s, t in Q.arrows}
    return Representation(Q, d, mats)


def scramble(A, rng, real=False):
    """Isometric copy of A under random per-vertex unitaries (orthogonal
    matrices when ``real``)."""
    U = []
    for n in A.dims:
        if real:
            Q_, R_ = np.linalg.qr(rng.standard_normal((n, n)))
            U.append((Q_ * np.sign(np.diagonal(R_))) + 0j)
        else:
            U.append(random_unitary(n, seed=int(rng.integers(0, 2**31))))
    return qr.apply_isometry(A, qr.Isometry(tuple(U)))


def realification(A):
    mats = {
        a: np.block([[X.real, -X.imag], [X.imag, X.real]]) + 0j
        for a, X in A.matrices.items()
    }
    return Representation(A.quiver, tuple(2 * n for n in A.dims), mats)


def certified(M, C, T):
    R, S = T.full_matrices()
    resid = np.linalg.norm(R.conj().T @ M.entries @ S - C.entries)
    bound = 1e-8 * max(1.0, float(np.linalg.norm(M.entries)))
    if not resid <= bound:
        raise AssertionError(f"uncertified form: residual {resid:.3g} > {bound:.3g}")


def trace_record(trace):
    return {
        "zones": [
            {
                "depth": z.depth,
                "kind": z.kind,
                "block": list(z.block),
                "cells": sorted([r, c] for r, c in z.cells),
                "stairs": [[list(p) for p in st] for st in z.stairs],
                "merged_blocks": [list(b) for b in z.merged_blocks],
            }
            for z in trace.zones
        ],
        "row_substrips": [[list(t) for t in s] for s in trace.row_substrips],
        "col_substrips": [[list(t) for t in s] for s in trace.col_substrips],
        "num_classes": trace.num_classes,
        "steps": [[st.kind, list(st.row_pieces), list(st.col_pieces)] for st in trace.steps],
    }


def canon_record(M):
    C, T, trace = mbm.canonicalize(M, TOL)
    certified(M, C, T)
    out = {
        "entries": cmat(C.entries),
        "R": [cmat(b) for b in T.R],
        "S": [cmat(b) for b in T.S],
    }
    out.update(trace_record(trace))
    return out


def rep_record(A):
    Ac, iso, schemes = qr.rep_canonical(A, TOL)
    return {
        "dims": list(Ac.dims),
        "matrices": {a: cmat(X) for a, X in Ac.matrices.items()},
        "isometry": [cmat(U) for U in iso.S],
        "schemes": {a: S.to_json() for a, S in schemes.items()},
    }


def canonicalize_cases(out):
    for n, seed in ((1, 1), (2, 2), (3, 3), (5, 4), (8, 5)):
        rng = np.random.default_rng(seed)
        A = gaussian(rng, (n, n), real=(n % 2 == 0))
        out[f"simil n={n}"] = canon_record(
            MarkedBlockMatrix((n,), (n,), A, frozenset({(0, 0)}))
        )
    for (m, n), seed in (((1, 1), 11), ((3, 3), 12), ((4, 6), 13), ((8, 5), 14)):
        rng = np.random.default_rng(seed)
        A = gaussian(rng, (m, n))
        out[f"equiv {m}x{n}"] = canon_record(MarkedBlockMatrix((m,), (n,), A))
    # a normal matrix with repeated eigenvalues, and a scrambled Jordan block
    U = random_unitary(6, seed=22)
    D = np.diag([2.0, 2.0, 1j, 1j, 1j, -1.0])
    out["simil normal n=6"] = canon_record(
        MarkedBlockMatrix((6,), (6,), U @ D @ U.conj().T, frozenset({(0, 0)}))
    )
    J = np.diag(np.ones(3), k=1) + 0.5 * np.eye(4)
    V = random_unitary(4, seed=23)
    out["simil jordan n=4"] = canon_record(
        MarkedBlockMatrix((4,), (4,), V @ J @ V.conj().T, frozenset({(0, 0)}))
    )
    for n, seed in ((16, 26), (32, 27)):
        rng = np.random.default_rng(seed)
        for kind, A in (("generic", gaussian(rng, (n, n))), ("jordan", jordan_sum(n, rng))):
            out[f"simil {kind} n={n} x1e-3"] = canon_record(
                MarkedBlockMatrix((n,), (n,), 1e-3 * A, frozenset({(0, 0)}))
            )
    M = example_8x12()
    out["example 8x12"] = canon_record(M)
    out["example 8x12 scrambled"] = canon_record(
        mbm.apply_admissible(M, mbm.random_transcript(M, seed=77), TOL)
    )
    packed, _ = qr.pack(rep(D4, (4, 4, 4, 8), np.random.default_rng(24)))
    out["packed D4 d=(4, 4, 4, 8)"] = canon_record(packed)


def rep_canonical_cases(out):
    cases = (
        (KRONECKER, (2, 3), 31),
        (KRONECKER, (3, 3), 32),
        (KRONECKER, (5, 6), 33),
        (D4, (1, 1, 1, 2), 34),
        (D4, (2, 2, 2, 4), 35),
        (D4, (2, 3, 1, 4), 36),
        (TWO_LOOPS, (2,), 37),
        (TWO_LOOPS, (4,), 38),
        (TWO_LOOPS, (6,), 39),
        (LOOP_ARROW, (2, 1), 40),
        (LOOP_ARROW, (3, 2), 41),
        (LOOP_ARROW, (4, 3), 42),
        # packings large enough to take many reduction steps and merges
        (KRONECKER, (12, 12), 43),
        (D4, (4, 4, 4, 8), 44),
        (D4, (6, 6, 6, 12), 45),
    )
    for Q, d, seed in cases:
        A = rep(Q, d, np.random.default_rng(seed))
        out[f"rep_canonical q{Q.p}/{len(Q.arrows)} d={d}"] = rep_record(A)
    out["rep_canonical q2/2 d=(3, 3) tied"] = rep_record(tied_kronecker())


def tied_kronecker():
    """A Kronecker representation whose first arrow has singular values
    3, 2, 2: its canonical form has linked and unlinked circles and stairs."""
    rng = np.random.default_rng(3)
    return Representation(
        KRONECKER, (3, 3), {"a": np.diag([3.0, 2.0, 2.0]), "b": gaussian(rng, (3, 3))}
    )


def filling_messages(S, seed):
    """``validate_filling``'s messages on a general-position filling of S and
    on perturbations of it: a circle negated, a linked pair split, an
    unlinked consecutive pair made equal, the last longest stair raised, and
    a stair set to the value of the stair before it."""
    F = sm.fill_general_position(S, "real-random", seed=seed, tol=TOL)
    base = {(r, c): complex(F.entries[r, c]) for r in range(S.rows) for c in range(S.cols)}
    edits = {"none": {}}
    first = S.circle_cells()[0]
    edits["circle negated"] = {first: -base[first]}
    a, b = min(sorted(p) for p in S.links)
    edits["linked pair split"] = {b: base[b] + 0.25}
    for z in S.zones:
        circles = sorted(c for c in z.cells if S.symbols[c[0]][c[1]] == "o")
        for a, b in zip(circles, circles[1:]):
            if (b[0] - a[0], b[1] - a[1]) == (1, 1) and frozenset({a, b}) not in S.links:
                edits.setdefault("unlinked pair equal", {b: base[a]})
        if len(z.stairs) > 1:
            s1, s2 = z.stairs[:2]
            edits.setdefault("stair equal to previous", {c: base[s1[0]] for c in s2})
    stair = max(reversed([st for z in S.zones for st in z.stairs]), key=len)
    edits["stair raised"] = {stair[0]: base[stair[0]] + 10}
    return {name: sm.validate_filling(S, {**base, **e}, TOL) for name, e in edits.items()}


def descriptive_cases(out):
    """The paper's descriptive layer: scheme constraints and D(Q)."""
    C, _, trace = mbm.canonicalize(example_8x12(), TOL)
    out["validate_filling 8x12"] = filling_messages(sm.scheme_of(C, trace.zones, TOL), 121)
    packed, _ = qr.pack(tied_kronecker())
    C, _, trace = mbm.canonicalize(packed, TOL)
    out["validate_filling packed q2/2 d=(3, 3) tied"] = filling_messages(
        sm.scheme_of(C, trace.zones, TOL), 122
    )
    for Q, bound in ((LOOP_ARROW, 6), (TWO_LOOPS, 6), (LOOP_AND_VERTEX, 6), (LOOPS_PARALLEL, 5)):
        out[f"enumerate_D {Q.arrows} bound={bound}"] = [list(z) for z in dm.enumerate_D(Q, bound)]


def decompose_cases(out):
    for Q, dp, dr, seed in (
        (KRONECKER, (1, 2), (2, 1), 51),
        (D4, (1, 1, 1, 2), (0, 1, 1, 1), 52),
        (TWO_LOOPS, (2,), (1,), 53),
        (LOOP_ARROW, (2, 1), (1, 1), 54),
    ):
        rng = np.random.default_rng(seed)
        P, R = rep(Q, dp, rng), rep(Q, dr, rng)
        A = scramble(qr.direct_sum(qr.direct_sum(P, P), R), rng)
        parts = qr.decompose_rep(A, TOL)
        M, _ = qr.pack(A)
        mparts = mbm.decompose(M, TOL)
        out[f"decompose q{Q.p}/{len(Q.arrows)} d={A.dims}"] = {
            "rep": [[list(S.dims), m] for S, m in parts],
            "mbm": [[list(S.row_strips), list(S.col_strips), m] for S, m in mparts],
        }


def euclid_cases(out):
    classify = (
        ("real kronecker", scramble(rep(KRONECKER, (2, 3), np.random.default_rng(61), True), np.random.default_rng(62), True)),
        ("real two-loops", scramble(rep(TWO_LOOPS, (3,), np.random.default_rng(63), True), np.random.default_rng(64), True)),
        ("complex kronecker", rep(KRONECKER, (2, 3), np.random.default_rng(65))),
        ("complex loop", rep(LOOP, (3,), np.random.default_rng(66))),
    )
    rng = np.random.default_rng(67)
    mats = {}
    for a in ("a", "b"):
        X, Y = gaussian(rng, (2, 2)), gaussian(rng, (2, 2))
        mats[a] = np.block([[X, -Y.conj()], [Y, X.conj()]])
    classify += (("quaternionic two-loops", Representation(TWO_LOOPS, (4,), mats)),)
    for label, A in classify:
        rt = euclid.classify_real(A, TOL)
        out[f"classify_real {label}"] = {
            "kind": rt.kind,
            "lam": None if rt.lam is None else cnum(rt.lam),
        }
    for Q, dr, dc, k, seed in (
        (KRONECKER, (1, 1), (1, 1), 1, 71),
        (KRONECKER, (1, 1), (1, 1), 2, 72),
        (LOOP, (1,), (1,), 2, 73),
        (TWO_LOOPS, (1,), (2,), 1, 74),
    ):
        rng = np.random.default_rng(seed)
        A = rep(Q, dr, rng, real=True)
        for _ in range(k):
            A = qr.direct_sum(A, realification(rep(Q, dc, rng)))
        A = scramble(A, rng, real=True)
        parts = euclid.decompose_real(A, TOL)
        out[f"decompose_real q{Q.p}/{len(Q.arrows)} d={A.dims} k={k}"] = [
            [list(P.dims), m] for P, m in parts
        ]
    for Q, d, seed in ((KRONECKER, (2, 2), 81), (LOOP, (3,), 82), (D4, (1, 1, 1, 2), 83)):
        rng = np.random.default_rng(seed)
        A = rep(Q, d, rng, real=True)
        B = scramble(A, rng, real=True)
        first = Q.arrows[0][0]
        N = Representation(
            Q, d, {a: (1.5 * X if a == first else X) for a, X in B.matrices.items()}
        )
        out[f"real_isometry q{Q.p}/{len(Q.arrows)} d={d}"] = [
            euclid.real_isometry(A, B, TOL) is None,
            euclid.real_isometry(A, N, TOL) is None,
        ]


def gadget_cases(out):
    for kind, seed in zip(wildness.GADGET_KINDS, range(91, 96)):
        rng = np.random.default_rng(seed)
        X = gaussian(rng, (2, 2))
        U = random_unitary(2, seed=seed)
        Y = gaussian(rng, (2, 2))
        out[f"gadget_faithful {kind}"] = [
            bool(wildness.gadget_faithful(kind, X, U.conj().T @ X @ U, TOL)),
            bool(wildness.gadget_faithful(kind, X, Y, TOL)),
        ]


def random_cases(out):
    M = example_8x12()
    for seed in (5, 6):
        T = mbm.random_transcript(M, seed=seed)
        out[f"random_transcript 8x12 seed={seed}"] = {
            "R": [cmat(b) for b in T.R],
            "S": [cmat(b) for b in T.S],
        }
    M2 = MarkedBlockMatrix(
        (2, 1, 2), (2, 2, 1), gaussian(np.random.default_rng(101), (5, 5)),
        frozenset({(0, 0), (2, 1), (1, 2)}),
    )
    T = mbm.random_transcript(M2, seed=102)
    out["random_transcript tied 5x5"] = {
        "R": [cmat(b) for b in T.R],
        "S": [cmat(b) for b in T.S],
    }
    C, _, trace = mbm.canonicalize(M, TOL)
    S = sm.scheme_of(C, trace.zones, TOL)
    for mode, seed in (("real-random", 111), ("real-random", 112), ("integer", 0)):
        F = sm.fill_general_position(S, mode, seed=seed, tol=TOL)
        out[f"fill_general_position 8x12 {mode} seed={seed}"] = cmat(F.entries)


def plain(x):
    """The same data with numpy scalars turned into Python numbers."""
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def compute() -> dict:
    out: dict = {}
    canonicalize_cases(out)
    rep_canonical_cases(out)
    decompose_cases(out)
    euclid_cases(out)
    gadget_cases(out)
    random_cases(out)
    descriptive_cases(out)
    return plain(out)


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    text = json.dumps(compute(), sort_keys=True, separators=(",", ":"))
    path.write_text(text + "\n")
    print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
