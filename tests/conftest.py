import numpy as np
import pytest

from unicanon.numcore import Tolerance, _schur_staircase, cluster_complex, random_unitary, simil_step
from unicanon import mbm
from unicanon.mbm import MarkedBlockMatrix, canonicalize
from unicanon.quiverrep import Quiver


@pytest.fixture
def tol():
    return Tolerance()


@pytest.fixture
def reductions(monkeypatch):
    """Count the matrices the engine reduces: every member of every batch
    of ``mbm._canonicalize_batch``, which ``canonicalize`` calls with a
    batch of one (a batch that diverges counts its members again, as each
    is reduced on its own)."""
    calls = []
    original = mbm._canonicalize_batch

    def counted(Ms, *args, **kwargs):
        calls.extend(1 for _ in Ms)
        return original(Ms, *args, **kwargs)

    monkeypatch.setattr(mbm, "_canonicalize_batch", counted)
    return calls


@pytest.fixture
def merges(monkeypatch):
    """Count runs of the merge rule, which a trace makes when a rectangle
    that holds merge candidates is read (``trace.zones`` once, then
    cached)."""
    calls = []
    original = mbm._merge_zero_zones

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(mbm, "_merge_zero_zones", counted)
    return calls


def example_8x12():
    """The 8x12 marked block matrix whose reduction has ten zones."""
    i = 1j
    E = np.array(
        [
            [i, 0, 0, 0, 2, 0, 0, 0, 3, 0, 2, i],
            [0, i, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0],
            [0, 0, i, 0, 0, 0, 2, 0, 0, 0, i, 4],
            [0, 0, 0, i, 0, 0, 0, 0, 0, 0, 0, 4],
            [0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3],
        ],
        dtype=complex,
    )
    return MarkedBlockMatrix((8,), (8, 4), E, frozenset({(0, 0)}))


@pytest.fixture
def M8x12():
    return example_8x12()


LOOP = Quiver(1, [("a", 1, 1)])
KRONECKER = Quiver(2, [("a", 1, 2), ("b", 1, 2)])
SINGLE_ARROW = Quiver(2, [("a", 1, 2)])
TWO_ARROWS_IN = Quiver(3, [("a", 1, 2), ("b", 3, 2)])
D4 = Quiver(4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)])
TWO_LOOPS = Quiver(1, [("a", 1, 1), ("b", 1, 1)])
FOUR_ARROWS = Quiver(
    3,
    [("l", 1, 1), ("m", 2, 1), ("n", 3, 1), ("x", 2, 3)],
)


def random_mbm(rng, max_strips=3, max_size=4):
    """Random marked block matrix with a tie-respecting mark set."""
    nr = int(rng.integers(1, max_strips + 1))
    nc = int(rng.integers(1, max_strips + 1))
    rows = tuple(int(rng.integers(1, max_size + 1)) for _ in range(nr))
    cols = tuple(int(rng.integers(1, max_size + 1)) for _ in range(nc))
    marked = set()
    for i in range(nr):
        for j in range(nc):
            if rows[i] == cols[j] and rng.random() < 0.3:
                marked.add((i, j))
    E = rng.standard_normal((sum(rows), sum(cols))) + 1j * rng.standard_normal(
        (sum(rows), sum(cols))
    )
    return MarkedBlockMatrix(rows, cols, E, frozenset(marked))


def jordan_sum(n, rng):
    """Scrambled direct sum of Jordan blocks of sizes 1 to 3 over three
    eigenvalues, so eigenvalues repeat within and across blocks."""
    lams = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    J = np.zeros((n, n), dtype=complex)
    i = 0
    while i < n:
        k = min(int(rng.integers(1, 4)), n - i)
        J[i : i + k, i : i + k] = lams[rng.integers(0, 3)] * np.eye(k) + np.eye(k, k=1)
        i += k
    U = random_unitary(n, seed=int(rng.integers(2**31)))
    return U @ J @ U.conj().T


# two-vertex dimension vectors with an entry that is not an integer
NON_INTEGER_DIMS = [pytest.param(d, id=i) for d, i in (((1.9, 1), "1.9"), ((1, 2.0), "2.0"),
                                                       (("1", 1), "text"))]

# 2x2 schemes with one malformed zone or symbol, and the start of the
# ValueError each raises: (data, message, id)
_ZONE = {"depth": 0, "kind": "equivalence", "block": [0, 2, 0, 2], "cells": [[1, 2]], "stairs": []}
MALFORMED_SCHEMES = [
    pytest.param({"symbols": [["o", "o"], [".", "o"]], "zones": [{**_ZONE, **zone}],
                  "row_strips": [2], "col_strips": [2]}, message, id=i)
    for zone, message, i in (
        ({"kind": "bogus"}, "zone 0 kind 'bogus' is not equivalence or similarity", "kind"),
        ({"depth": 1.9}, "zone 0 depth [1.9]: a value is not an integer", "depth-float"),
        ({"block": ["a"]}, "zone 0 block ['a']: a value is not an integer", "block-text"),
        ({"block": [0, 2, 0]}, "zone 0 block (0, 2, 0) is not four non-negative", "block-three"),
        ({"block": [0, -1, 0, 2]}, "zone 0 block (0, -1, 0, 2) is not four non-negative",
         "block-negative"),
        ({"cells": [[1.5, 2]]}, "zone 0: cell [1.5, 2]: a value is not an integer", "cell-float"),
    )
] + [pytest.param({"symbols": [["o", "x"], [".", "o"]], "zones": [], "row_strips": [2],
                   "col_strips": [2]}, "scheme symbols must be '.', 'o' or '*'", id="symbol")]

SQUARE_KINDS = ("complex", "real", "jordan", "normal")


def square(kind, n, rng):
    """An n x n test matrix: generic complex or real, a scrambled sum of
    Jordan blocks, or normal with four eigenvalues, each repeated."""
    if kind == "jordan":
        return jordan_sum(n, rng)
    if kind == "normal":
        lams = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        U = random_unitary(n, seed=int(rng.integers(2**31)))
        return (U * lams[rng.integers(0, 4, n)]) @ U.conj().T
    X = rng.standard_normal((n, n))
    return X + 0j if kind == "real" else X + 1j * rng.standard_normal((n, n))


def simil_canonical(A, tol=Tolerance()):
    """Canonical form of A under unitary similarity: ``mbm.canonicalize`` on
    one marked strip.  Returns ``(form, S, trace)`` with S^H A S = form; the
    first step of the trace records the eigenvalue of every diagonal block
    of the similarity step and its size."""
    A = np.asarray(A, dtype=complex)
    M = MarkedBlockMatrix(A.shape[:1], A.shape[1:], A, frozenset({(0, 0)}))
    C, T, trace = canonicalize(M, tol)
    return C.entries, T.S[0], trace


def equiv_canonical(A, tol=Tolerance()):
    """Canonical form of A under unitary equivalence: ``mbm.canonicalize``
    on one unmarked strip.  Returns ``(form, R, S, trace)`` with
    R^H A S = form; the first step of the trace records the singular-value
    clusters with their multiplicities, then ``(0, leftover rows)``."""
    A = np.asarray(A, dtype=complex)
    M = MarkedBlockMatrix(A.shape[:1], A.shape[1:], A)
    C, T, trace = canonicalize(M, tol)
    return C.entries, T.R[0], T.S[0], trace


def interleaved_J(n):
    """The direct sum of 2x2 blocks [[0, 1], [-1, 0]] (n even)."""
    J = np.zeros((n, n), dtype=complex)
    for k in range(0, n - 1, 2):
        J[k, k + 1] = 1.0
        J[k + 1, k] = -1.0
    return J


def reference_simil_step(A, tol):
    """``numcore.simil_step`` as the loop over candidates was first written:
    the eigenvalues clustered at every power of 10 from ``tol.abs`` on,
    and every coarser clustering tried, the one-cluster one included."""
    n = A.shape[0]
    if n == 0:
        return [], [], np.eye(0, dtype=complex)
    w, V = np.linalg.eig(A)
    candidates = [cluster_complex(w, tol)]
    t = 10.0 * tol.abs
    while t > 0 and len(candidates[-1]) > 1:
        clusters = cluster_complex(w, Tolerance(abs=t))
        if len(clusters) < len(candidates[-1]):
            candidates.append(clusters)
        t *= 10.0
    for clusters in reversed(candidates[1:]):
        out = _schur_staircase(A, V, clusters, tol.abs)
        if out is not None:
            return out
    return _schur_staircase(A, V, candidates[0], tol.abs, force=True)


def not_reducing_step(A, tol):
    """A broken similarity step: its basis is unitary but does not reduce A."""
    lams, sizes, _ = simil_step(A, tol)
    return lams, sizes, np.eye(A.shape[0], dtype=complex)

