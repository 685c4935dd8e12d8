"""Dimension-vector combinatorics for unitary quiver representations.

The set D(Q) of dimensions of indecomposables is described by three clauses:
the unit vectors, the sums e_i + e_j over single arrows, and the nonzero
vectors z with connected support (other than a single vertex or a single
arrow between two vertices) satisfying z M_Q >= z.  This module also counts
parameters (Tits form) and constructs verified indecomposables.
"""

from __future__ import annotations

import itertools

import numpy as np

from .numcore import Tolerance
from . import mbm
from .scheme import scheme_of, fill_general_position
from .quiverrep import (
    Quiver,
    Representation,
    Isometry,
    apply_isometry,
    pack,
    unpack,
    random_rep,
    reverse_arrow,
    is_indecomposable_rep,
)

__all__ = [
    "NotInDError",
    "NoSuccessorError",
    "m_matrix",
    "delta",
    "tits",
    "in_D",
    "enumerate_D",
    "successor",
    "growth_path",
    "construct_indecomposable",
    "max_params",
    "zero_summand_witness",
]


class NotInDError(ValueError):
    pass


class NoSuccessorError(RuntimeError):
    pass


def m_matrix(Q: Quiver) -> np.ndarray:
    """Symmetric vertex-adjacency count matrix: m_ij is the number of arrows
    between i and j in either direction; each loop counts once on the
    diagonal."""
    M = np.zeros((Q.p, Q.p), dtype=int)
    for _, s, d in Q.arrows:
        if s == d:
            M[s - 1, s - 1] += 1
        else:
            M[s - 1, d - 1] += 1
            M[d - 1, s - 1] += 1
    return M


def delta(z, Q: Quiver):
    """z M_Q, componentwise."""
    z = np.asarray(z, dtype=int)
    if z.shape != (Q.p,):
        raise ValueError(f"dimension vector must have length {Q.p}")
    return tuple(int(x) for x in z @ m_matrix(Q))


def tits(Q: Quiver, x) -> int:
    """Tits form: sum of squares minus one cross term per arrow."""
    x = np.asarray(x, dtype=int)
    if x.shape != (Q.p,):
        raise ValueError(f"dimension vector must have length {Q.p}")
    out = int(np.sum(x * x))
    for _, s, d in Q.arrows:
        out -= int(x[s - 1] * x[d - 1])
    return out


def _support_connected(Q: Quiver, z) -> bool:
    supp = [v for v in range(1, Q.p + 1) if z[v - 1] != 0]
    if not supp:
        return False
    adj = {v: set() for v in supp}
    for _, s, d in Q.arrows:
        if s in adj and d in adj:
            adj[s].add(d)
            adj[d].add(s)
    seen = {supp[0]}
    stack = [supp[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(supp)


def _support_kind(Q: Quiver, z) -> str:
    """'vertex' for a single vertex without loops, 'arrow' for two vertices
    joined by exactly one arrow, else 'other'."""
    supp = [v for v in range(1, Q.p + 1) if z[v - 1] != 0]
    arrows = [
        (s, d) for _, s, d in Q.arrows if s in supp and d in supp
    ]
    if len(supp) == 1 and not arrows:
        return "vertex"
    if len(supp) == 2 and len(arrows) == 1 and arrows[0][0] != arrows[0][1]:
        return "arrow"
    return "other"


def in_D(Q: Quiver, z) -> bool:
    z = tuple(int(x) for x in z)
    if len(z) != Q.p:
        raise ValueError(f"dimension vector must have length {Q.p}")
    if any(x < 0 for x in z) or all(x == 0 for x in z):
        return False
    nz = [x for x in z if x != 0]
    M = m_matrix(Q)
    # unit vectors
    if sum(z) == 1:
        return True
    # e_i + e_j over a single arrow
    if sorted(nz) == [1, 1]:
        i, j = [v for v in range(Q.p) if z[v] != 0]
        if M[i, j] == 1:
            return True
    if not _support_connected(Q, z):
        return False
    if _support_kind(Q, z) in ("vertex", "arrow"):
        return False
    d = np.asarray(z) @ M
    return bool(np.all(d >= np.asarray(z)))


def enumerate_D(Q: Quiver, bound: int):
    """All members of D(Q) with component sum <= bound, lexicographically."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out = []
    for z in itertools.product(range(bound + 1), repeat=Q.p):
        if 1 <= sum(z) <= bound and in_D(Q, z):
            out.append(z)
    out.sort()
    return out


def successor(z, u, Q: Quiver) -> int:
    """A vertex i (1-based) with z + e_i <= u and z + e_i in D(Q).

    Support growth is preferred: a vertex outside supp(z) adjacent to it is
    tried first."""
    z = tuple(int(x) for x in z)
    u = tuple(int(x) for x in u)
    candidates = [v for v in range(1, Q.p + 1) if z[v - 1] < u[v - 1]]
    M = m_matrix(Q)

    def grows_support(v):
        if z[v - 1] != 0:
            return False
        return any(M[v - 1, w - 1] and z[w - 1] for w in range(1, Q.p + 1)) or sum(
            z
        ) == 0

    ordered = sorted(candidates, key=lambda v: (not grows_support(v), v))
    for v in ordered:
        z2 = tuple(z[k] + (1 if k == v - 1 else 0) for k in range(Q.p))
        if in_D(Q, z2):
            return v
    raise NoSuccessorError(f"no successor of {z} toward {u}")


def growth_path(Q: Quiver, d):
    """Chain e_i = u_1 <= u_2 <= ... <= u_t = d inside D(Q) with unit-vector
    steps."""
    d = tuple(int(x) for x in d)
    if not in_D(Q, d):
        raise NotInDError(f"{d} is not in D(Q)")
    starts = [v for v in range(1, Q.p + 1) if d[v - 1] > 0]
    for v0 in starts:
        z = tuple(1 if v == v0 else 0 for v in range(1, Q.p + 1))
        path = [z]
        try:
            while z != d:
                v = successor(z, d, Q)
                z = tuple(
                    z[k] + (1 if k == v - 1 else 0) for k in range(Q.p)
                )
                path.append(z)
            return path
        except NoSuccessorError:
            continue
    raise NoSuccessorError(f"no growth path to {d}")


def max_params(Q: Quiver, d):
    """Parameter counts of a general-position indecomposable of dimension d:
    (sum d_i - 1) real parameters and 1 - tits + sum d_i (d_i - 1) / 2
    complex ones."""
    d = tuple(int(x) for x in d)
    if not in_D(Q, d):
        raise NotInDError(f"{d} is not in D(Q)")
    n_real = sum(d) - 1
    n_complex = 1 - tits(Q, d) + sum(x * (x - 1) for x in d) // 2
    return n_real, n_complex


def zero_summand_witness(A: Representation, tol: Tolerance = Tolerance()):
    """Split off a zero summand at a vertex with more dimension than its
    neighbourhood supplies.

    If some vertex l has delta_l(dim A) < d_l after reversing the arrows
    leaving l, the matrices meeting l stack into a tall block with a left
    null space; a basis change at l then exhibits
    A isometric to B + (zero representation of dimension e_l).  Returns
    ``(l, T, B)`` or None."""
    d = A.dims
    Q = A.quiver
    if sum(d) <= 1:
        return None  # a single unit-vector zero summand has nothing to shed
    M = m_matrix(Q)
    for l in range(1, Q.p + 1):
        if d[l - 1] == 0:
            continue
        if int(M[l - 1, l - 1]) > 0:
            continue  # a loop at l forces delta_l >= d_l
        need = sum(int(M[l - 1, w]) * d[w] for w in range(Q.p) if w != l - 1)
        if need >= d[l - 1]:
            continue
        # reverse outgoing arrows so every arrow at l points into l
        B = A
        for a, s, dd in Q.arrows:
            if s == l and dd != l:
                B = reverse_arrow(B, a)
        blocks = [
            B.matrices[a] for a, s, dd in B.quiver.arrows if dd == l
        ]
        stacked = (
            np.concatenate(blocks, axis=1)
            if blocks
            else np.zeros((d[l - 1], 0), dtype=complex)
        )
        # the stack has need < d_l columns, so its last left singular vectors
        # span a left null space whatever ``tol``: rotate so the null rows come
        # last; the trailing rows of vertex l are then untouched by every arrow
        U = np.linalg.svd(stacked)[0] if stacked.size else np.eye(d[l - 1], dtype=complex)
        T = Isometry(
            tuple(
                U.conj().T if v == l - 1 else np.eye(d[v], dtype=complex)
                for v in range(Q.p)
            )
        )
        Bt = apply_isometry(A, T)
        return l, T, Bt
    return None


def construct_indecomposable(
    Q: Quiver, d, seed=None, tol: Tolerance = Tolerance()
) -> Representation:
    """A verified indecomposable representation of dimension d.

    Samples a general-position canonical representation (reduce a random
    d-representation, re-fill its packed scheme in general position) and
    verifies indecomposability, retrying over a seed budget."""
    d = tuple(int(x) for x in d)
    if not in_D(Q, d):
        raise NotInDError(f"{d} is not in D(Q)")
    if sum(d) == 1:
        mats = {
            a: np.zeros((d[dd - 1], d[s - 1]), dtype=complex)
            for a, s, dd in Q.arrows
        }
        return Representation(Q, d, mats)
    rng = np.random.default_rng(seed)
    for attempt in range(32):
        sub = int(rng.integers(0, 2**32))
        A = random_rep(Q, d, seed=sub)
        M, layout = pack(A)
        canonical, _, trace = mbm.canonicalize(M, tol)
        S = scheme_of(canonical, trace.zones, tol)
        filled = fill_general_position(S, "real-random", seed=sub, tol=tol)
        cand = unpack(filled, layout)
        try:
            if is_indecomposable_rep(cand, tol):
                return cand
        except (mbm.NoConvergenceError, np.linalg.LinAlgError):
            pass
        # plain random canonical candidate as a second shot
        Ac = unpack(canonical, layout)
        if is_indecomposable_rep(Ac, tol):
            return Ac
    raise RuntimeError(
        f"could not produce an indecomposable of dimension {d} "
        f"within the retry budget"
    )
