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
    _canonical,
    apply_isometry,
    unpack,
    random_rep,
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


def in_D(Q: Quiver, z) -> bool:
    """Whether z is the dimension of an indecomposable, by the paper's three
    clauses: z is a unit vector e_i; or z = e_i + e_j for vertices i, j
    joined by a single arrow; or z is nonzero with connected support, the
    support is neither one loop-free vertex nor two vertices joined by a
    single arrow, and z M_Q >= z componentwise."""
    z = tuple(int(x) for x in z)
    if len(z) != Q.p:
        raise ValueError(f"dimension vector must have length {Q.p}")
    if any(x < 0 for x in z) or not any(z):
        return False
    supp = [v for v in range(1, Q.p + 1) if z[v - 1]]
    inner = [(s, d) for _, s, d in Q.arrows if z[s - 1] and z[d - 1]]
    # on a loop-free vertex or a single arrow only the first two clauses hold
    if (len(supp) == 1 and not inner) or (
        len(supp) == 2 and len(inner) == 1 and inner[0][0] != inner[0][1]
    ):
        return max(z) == 1
    parts = mbm.DisjointSet(supp)
    for s, d in inner:
        parts.union(s, d)
    return len(parts.groups()) == 1 and bool(np.all(np.asarray(z) @ m_matrix(Q) >= z))


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

    If some vertex l has delta_l(dim A) < d_l, the matrices of the arrows at
    l, read as pointing into l (those leaving l conjugate-transposed, as
    reversing the arrow makes them), stack into a tall block with a left
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
        # the stack has need < d_l columns, so its last left singular vectors
        # span a left null space whatever ``tol``: rotate so the null rows come
        # last; the trailing rows of vertex l are then untouched by every arrow
        blocks = [
            A.matrices[a] if dd == l else A.matrices[a].conj().T
            for a, s, dd in Q.arrows
            if l in (s, dd)
        ]
        U = (
            np.linalg.svd(np.concatenate(blocks, axis=1))[0]
            if need
            else np.eye(d[l - 1], dtype=complex)
        )
        T = Isometry(
            tuple(
                U.conj().T if v == l - 1 else np.eye(d[v], dtype=complex)
                for v in range(Q.p)
            )
        )
        return l, T, apply_isometry(A, T)
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
        Ac, _, canonical, trace, layout = _canonical(random_rep(Q, d, seed=sub), tol)
        S = scheme_of(canonical, trace.zones, tol)
        filled = fill_general_position(S, "real-random", seed=sub, tol=tol)
        cand = unpack(filled, layout)
        try:
            if is_indecomposable_rep(cand, tol):
                return cand
        except (mbm.NoConvergenceError, np.linalg.LinAlgError):
            pass
        # plain random canonical candidate as a second shot
        if is_indecomposable_rep(Ac, tol):
            return Ac
    raise RuntimeError(
        f"could not produce an indecomposable of dimension {d} "
        f"within the retry budget"
    )
