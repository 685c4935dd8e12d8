"""Correctness checks for the benchmark's operations.

Every check raises ``WrongAnswer`` when an output is wrong.  The checks run
outside the timed interval and are independent of the reduction engine: they
use numpy and the definitions in the paper, never a unicanon routine (only
its ``Representation`` container), so a defect in the engine cannot hide
itself by also corrupting the check.

Bounds (all with unicanon's default absolute tolerance ``TOL``):

* transcript certificate: ``||R^H A S - C||_F <= CERT_C * n * TOL * max(1, ||A||_F)``
  and ``||U^H U - I||_F <= CERT_C * n * TOL`` for every transcript block,
  where n is the larger side of the (packed) matrix;
* two canonical forms are equal when their entries differ by at most
  ``FORM_TOL * max(1, ||A||_F)``;
* ranks of the commutant system are taken relative to its largest singular
  value with ``RANK_REL``.
"""

from __future__ import annotations

import itertools

import numpy as np

from unicanon.quiverrep import Representation

TOL = 1e-9
CERT_C = 10.0
FORM_TOL = 1e-6
RANK_REL = 1e-8


class WrongAnswer(Exception):
    """An operation returned an output that fails its check."""


def require(cond, message):
    if not cond:
        raise WrongAnswer(message)


def blockdiag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    o = 0
    for b in blocks:
        k = b.shape[0]
        out[o : o + k, o : o + k] = b
        o += k
    return out


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary (QR of a complex Gaussian, phases fixed)."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_orthogonal(n, rng):
    if n == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


# ---------------------------------------------------------------------------
# transcripts and canonical forms


def _unitary_defect(U):
    return float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])))


def check_mbm_certificate(M, result):
    """``result = (canonical, transcript, trace)`` from ``mbm.canonicalize``.

    Checks that every transcript block is unitary, that tied strips carry the
    same unitary, and that the transcript maps M onto the returned form."""
    C, T, _ = result
    A = M.entries
    n = max(A.shape) if A.size else 1
    require(C.entries.shape == A.shape, f"form shape {C.entries.shape} != {A.shape}")
    require(
        tuple(C.row_strips) == tuple(M.row_strips)
        and tuple(C.col_strips) == tuple(M.col_strips),
        "form strips differ from the input strips",
    )
    ubound = CERT_C * n * TOL
    for U in tuple(T.R) + tuple(T.S):
        d = _unitary_defect(U)
        require(d <= ubound, f"transcript block not unitary: defect {d:.2e}")
    for i, j in M.marked:
        d = float(np.linalg.norm(T.R[i] - T.S[j]))
        require(d <= ubound, f"marked block ({i},{j}): R != S by {d:.2e}")
    R, S = blockdiag(T.R), blockdiag(T.S)
    scale = max(1.0, float(np.linalg.norm(A)))
    resid = float(np.linalg.norm(R.conj().T @ A @ S - C.entries))
    require(
        resid <= CERT_C * n * TOL * scale,
        f"certificate fails: ||R^H A S - C|| = {resid:.2e}, "
        f"relative {resid / scale:.2e}, n={n}",
    )


def rep_norm(A):
    return float(np.sqrt(sum(np.linalg.norm(X) ** 2 for X in A.matrices.values())))


def check_rep_certificate(A, result):
    """``result = (canonical rep, isometry, schemes)`` from
    ``quiverrep.rep_canonical``: the isometry is unitary per vertex and maps
    A onto the canonical representation."""
    Ainf, iso, schemes = result
    n = max(1, sum(A.dims))
    require(tuple(Ainf.dims) == tuple(A.dims), "canonical dims differ from input")
    require(len(iso.S) == A.quiver.p, "isometry has the wrong number of blocks")
    ubound = CERT_C * n * TOL
    for v, U in enumerate(iso.S):
        require(U.shape == (A.dims[v], A.dims[v]), f"isometry block {v} has shape {U.shape}")
        d = _unitary_defect(U)
        require(d <= ubound, f"isometry block {v} not unitary: defect {d:.2e}")
    scale = max(1.0, rep_norm(A))
    resid = 0.0
    for a, s, d in A.quiver.arrows:
        X = iso.S[d - 1] @ A.matrices[a] @ iso.S[s - 1].conj().T
        resid += float(np.linalg.norm(X - Ainf.matrices[a])) ** 2
    resid = resid**0.5
    require(
        resid <= CERT_C * n * TOL * scale,
        f"certificate fails: ||T A T^H - A_can|| = {resid:.2e}, "
        f"relative {resid / scale:.2e}, n={n}",
    )
    require(set(schemes) == {a for a, _, _ in A.quiver.arrows}, "schemes missing for some arrows")


def check_same_form(X, Y, scale, what="canonical forms"):
    X = np.asarray(X)
    Y = np.asarray(Y)
    require(X.shape == Y.shape, f"{what}: shapes {X.shape} and {Y.shape} differ")
    d = float(np.abs(X - Y).max(initial=0.0))
    require(
        d <= FORM_TOL * max(1.0, scale),
        f"{what} of a scrambled copy differ by {d:.2e}",
    )


# ---------------------------------------------------------------------------
# commutant: isometry classes without the reduction engine


def commutant_dim(A):
    """Dimension of the commutant of the *-algebra generated by A.

    The commutant is the space of vertex-wise matrices X with
    X_dst A_a = A_a X_src and X_src A_a^H = A_a^H X_dst for every arrow.  For
    A isometric to the direct sum of P_i^(m_i) with pairwise non-isometric
    indecomposable P_i it is a sum of full matrix algebras, so its dimension
    is sum m_i^2: 1 exactly when A is indecomposable."""
    dims = A.dims
    offs = np.concatenate(([0], np.cumsum([d * d for d in dims]))).astype(int)
    nvar = int(offs[-1])
    rows = []
    for a, s, d in A.quiver.arrows:
        X = A.matrices[a]  # shape (dims[d-1], dims[s-1])
        m, k = X.shape
        if m == 0 or k == 0:
            continue
        # vec(X_d X) - vec(X X_s) with column-major vec
        E1 = np.zeros((m * k, nvar), dtype=complex)
        E1[:, offs[d - 1] : offs[d]] += np.kron(X.T, np.eye(m))
        E1[:, offs[s - 1] : offs[s]] -= np.kron(np.eye(k), X)
        Xh = X.conj().T
        E2 = np.zeros((k * m, nvar), dtype=complex)
        E2[:, offs[s - 1] : offs[s]] += np.kron(Xh.T, np.eye(k))
        E2[:, offs[d - 1] : offs[d]] -= np.kron(np.eye(m), Xh)
        rows += [E1, E2]
    if not rows:
        return nvar
    E = np.concatenate(rows, axis=0)
    s = np.linalg.svd(E, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return nvar
    return nvar - int(np.sum(s > RANK_REL * s[0]))


def direct_sum(A, B):
    """Direct sum of two representations of one quiver."""
    dims = tuple(x + y for x, y in zip(A.dims, B.dims))
    mats = {}
    for a, s, d in A.quiver.arrows:
        X, Y = A.matrices[a], B.matrices[a]
        Z = np.zeros((dims[d - 1], dims[s - 1]), dtype=complex)
        Z[: X.shape[0], : X.shape[1]] = X
        Z[X.shape[0] :, X.shape[1] :] = Y
        mats[a] = Z
    return Representation(A.quiver, dims, mats)


def check_indecomposable(A, what="representation"):
    c = commutant_dim(A)
    require(c == 1, f"{what} is not indecomposable: commutant dimension {c}")


def check_isometric(A, B, what="representations"):
    """A and B isometric: dim comm(A+B) = 2 dim comm(A) + 2 dim comm(B)."""
    require(tuple(A.dims) == tuple(B.dims), f"{what}: dims {A.dims} and {B.dims} differ")
    ca, cb = commutant_dim(A), commutant_dim(B)
    cab = commutant_dim(direct_sum(A, B))
    require(cab == 2 * ca + 2 * cb, f"{what} are not isometric (commutant {cab} vs {2 * ca + 2 * cb})")


def check_decomposition(parts, expected, indecomposable=True):
    """``parts`` from ``decompose_rep`` / ``decompose_real``: a list of
    ``(summand, multiplicity)``.  ``expected`` is a list of
    ``(reference summand, multiplicity)`` known by construction; summands
    are matched by isometry.  Summands over the reals may split over the
    complexes, so ``decompose_real`` passes ``indecomposable=False``."""
    require(len(parts) == len(expected), f"{len(parts)} summand classes, expected {len(expected)}")
    left = list(expected)
    for P, m in parts:
        if indecomposable:
            check_indecomposable(P, "summand")
        for k, (ref, em) in enumerate(left):
            if tuple(ref.dims) != tuple(P.dims) or em != m:
                continue
            try:
                check_isometric(P, ref)
            except WrongAnswer:
                continue
            del left[k]
            break
        else:
            raise WrongAnswer(f"summand of dims {P.dims} with multiplicity {m} matches no expected summand")


def check_real_entries(A, what="representation"):
    worst = max((float(np.abs(X.imag).max(initial=0.0)) for X in A.matrices.values()), default=0.0)
    require(worst <= CERT_C * TOL * max(1.0, rep_norm(A)), f"{what} has imaginary parts up to {worst:.2e}")


def check_real_isometry(A, B, T):
    """T: real orthogonal vertex-wise matrices with T_dst A_a = B_a T_src."""
    require(T is not None, "no real isometry returned for an isometric pair")
    n = max(1, sum(A.dims))
    scale = max(1.0, rep_norm(A))
    for v, U in enumerate(T.S):
        require(float(np.abs(np.asarray(U).imag).max(initial=0.0)) <= CERT_C * n * TOL, f"block {v} is not real")
        require(_unitary_defect(U) <= CERT_C * n * TOL, f"block {v} is not orthogonal")
    for a, s, d in A.quiver.arrows:
        r = float(np.linalg.norm(T.S[d - 1] @ A.matrices[a] - B.matrices[a] @ T.S[s - 1]))
        require(r <= CERT_C * n * TOL * scale, f"arrow {a}: T does not intertwine ({r:.2e})")


# ---------------------------------------------------------------------------
# dimension vectors


def d_set(quiver, bound):
    """D(Q) with component sum <= bound, straight from the paper's three
    clauses: unit vectors; e_i + e_j over a single arrow i -- j; nonzero z
    with connected support, other than a loop-free single vertex or two
    vertices joined by one arrow, with z M_Q >= z (M_Q the symmetric arrow
    count matrix, loops counted once)."""
    p = quiver.p
    M = np.zeros((p, p), dtype=int)
    for _, s, d in quiver.arrows:
        if s == d:
            M[s - 1, s - 1] += 1
        else:
            M[s - 1, d - 1] += 1
            M[d - 1, s - 1] += 1
    out = []
    for z in itertools.product(range(bound + 1), repeat=p):
        if not 1 <= sum(z) <= bound:
            continue
        supp = [v for v in range(p) if z[v]]
        if sum(z) == 1:
            out.append(z)
            continue
        if sorted(x for x in z if x) == [1, 1] and M[supp[0], supp[1]] == 1:
            out.append(z)
            continue
        seen, stack = {supp[0]}, [supp[0]]
        while stack:
            v = stack.pop()
            for w in supp:
                if w not in seen and M[v, w]:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(supp):
            continue
        if len(supp) == 1 and M[supp[0], supp[0]] == 0:
            continue
        if len(supp) == 2 and M[supp[0], supp[1]] == 1 and M[supp[0], supp[0]] == 0 and M[supp[1], supp[1]] == 0:
            continue
        if np.all(np.asarray(z) @ M >= np.asarray(z)):
            out.append(z)
    return sorted(out)


def tits(quiver, d):
    q = sum(x * x for x in d)
    for _, s, t in quiver.arrows:
        q -= d[s - 1] * d[t - 1]
    return q


def expected_max_params(quiver, d):
    """Parameter counts of a general-position indecomposable of dimension d:
    (sum d - 1) real and 1 - q(d) + sum d_i (d_i - 1) / 2 complex."""
    return sum(d) - 1, 1 - tits(quiver, d) + sum(x * (x - 1) for x in d) // 2
