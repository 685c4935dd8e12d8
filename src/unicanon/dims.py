"""Dimension-vector combinatorics for unitary quiver representations.

The set D(Q) of dimensions of indecomposables is described by three clauses:
the unit vectors, the sums e_i + e_j over single arrows, and the nonzero
vectors z with connected support (other than a single vertex or a single
arrow between two vertices) satisfying z M_Q >= z.  This module also counts
parameters (Tits form) and constructs verified indecomposables.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .numcore import Tolerance
from . import mbm, quiverrep
from .quiverrep import (
    Quiver,
    Representation,
    Isometry,
    _canonical,
    apply_isometry,
    random_rep,
)

__all__ = [
    "NotInDError",
    "m_matrix",
    "delta",
    "tits",
    "in_D",
    "enumerate_D",
    "growth_path",
    "construct_indecomposable",
    "max_params",
    "zero_summand_witness",
]


class NotInDError(ValueError):
    pass


# z as a dimension vector of Q, entries of any sign: (Q, z) -> tuple
_vector = partial(quiverrep._vector, what="dimension vector")


def _plus_unit(z: tuple, v: int, c: int = 1) -> tuple:
    """z + c e_v, v 0-based."""
    return z[:v] + (z[v] + c,) + z[v + 1 :]


def m_matrix(Q: Quiver) -> np.ndarray:
    """Symmetric vertex-adjacency count matrix: m_ij is the number of arrows
    between i and j in either direction; each loop counts once on the
    diagonal.  Built once per quiver; the array is read-only."""
    return Q._m_matrix


def delta(z, Q: Quiver):
    """z M_Q, componentwise."""
    return tuple(int(x) for x in np.array(_vector(Q, z)) @ m_matrix(Q))


def tits(Q: Quiver, x) -> int:
    """Tits form: sum of squares minus one cross term per arrow."""
    x = _vector(Q, x)
    return sum(v * v for v in x) - sum(x[s - 1] * x[d - 1] for _, s, d in Q.arrows)


def in_D(Q: Quiver, z) -> bool:
    """Whether z is the dimension of an indecomposable, by the paper's three
    clauses: z is a unit vector e_i; or z = e_i + e_j for vertices i, j
    joined by a single arrow; or z is nonzero with connected support, the
    support is neither one loop-free vertex nor two vertices joined by a
    single arrow, and z M_Q >= z componentwise."""
    z = _vector(Q, z)
    if any(x < 0 for x in z) or not any(z):
        return False
    supp = [v for v in range(1, Q.p + 1) if z[v - 1]]
    inner = [(s, d) for _, s, d in Q.arrows if z[s - 1] and z[d - 1]]
    # on a loop-free vertex or a single arrow only the first two clauses hold
    if len(supp) == len(inner) + 1 <= 2 and all(s != d for s, d in inner):
        return max(z) == 1
    connected = len(mbm._classes(supp, inner)) == 1
    return connected and bool((np.asarray(z) @ m_matrix(Q) >= z).all())


def enumerate_D(Q: Quiver, bound: int):
    """All members of D(Q) with component sum <= bound, lexicographically.

    Grown from the unit vectors by adding e_v to members only, about p ``in_D``
    calls per member, by the lemma: each z in D(Q) with sum z >= 2 has a vertex
    i with y = z - e_i in D(Q).  Proof, M = M_Q: yM >= y holds at i and off
    supp(y).  A 0/1 z: take i a leaf of a spanning tree of supp(z); supp(y)
    stays connected, each of its vertices keeps a neighbour in it, so y is a
    unit vector, a single-arrow pair or in clause 3.  Else z is in clause 3:
    take z_i maximal (>= 2), so supp(y) = supp(z).  As (yM)_v = (zM)_v - m_iv,
    yM >= y fails only at a loop-free v with z_v = z_i whose only arrow in
    supp(z) is a single arrow to i; removing e_v then fails only at i, likewise,
    so supp(z) is that arrow, which clause 3 excludes."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    layer = [_plus_unit((0,) * Q.p, v) for v in range(Q.p)]
    out = list(layer)
    for _ in range(bound - 1):
        grown = dict.fromkeys(_plus_unit(z, v) for z in layer for v in range(Q.p))
        layer = [z for z in grown if in_D(Q, z)]
        out += layer
    return sorted(out)


def growth_path(Q: Quiver, d):
    """Chain e_i = u_1 <= u_2 <= ... <= u_t = d inside D(Q) with unit-vector
    steps, walked down from d by ``enumerate_D``'s lemma."""
    path = [_vector(Q, d)]
    if not in_D(Q, path[0]):
        raise NotInDError(f"{path[0]} is not in D(Q)")
    while sum(path[-1]) > 1:
        steps = (_plus_unit(path[-1], v, -1) for v in range(Q.p) if path[-1][v])
        path.append(next(y for y in steps if in_D(Q, y)))
    return path[::-1]


def max_params(Q: Quiver, d):
    """Parameter counts of a general-position indecomposable of dimension d:
    (sum d_i - 1) real parameters and 1 - tits + sum d_i (d_i - 1) / 2
    complex ones."""
    d = _vector(Q, d)
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
    for l, need in enumerate(delta(d, Q), start=1):
        if need >= d[l - 1]:
            continue  # so also when d_l = 0 or a loop is at l
        # no loop is at l, so the stack has need = delta_l < d_l columns: its
        # last left singular vectors span a left null space whatever ``tol``:
        # rotate so the null rows come last; the trailing rows of vertex l are
        # then untouched by every arrow
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
    """A verified indecomposable representation of dimension d, in canonical
    form.

    Reduces seeded random d-representations, one reduction each, and returns
    the canonical representation of the first whose reduction finds one
    summand of multiplicity 1 (:func:`mbm._one_summand`), within a budget of
    32 seeds.  A random representation is in general position with
    probability one, so its form has :func:`max_params` parameters."""
    d = _vector(Q, d)
    if not in_D(Q, d):
        raise NotInDError(f"{d} is not in D(Q)")
    rng = np.random.default_rng(seed)
    for _ in range(32):
        Ac, _, _, trace = _canonical(random_rep(Q, d, seed=int(rng.integers(0, 2**32))), tol)
        if mbm._one_summand(trace):
            return Ac
    raise RuntimeError(
        f"could not produce an indecomposable of dimension {d} "
        f"within the retry budget"
    )
