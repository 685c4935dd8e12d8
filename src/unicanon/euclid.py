"""Euclidean (real) representations and real/quaternionic/complex types.

Realification doubles dimensions by replacing each entry a+bi with the
rotation-scaling block [[a, b], [-b, a]].  An indecomposable unitary
representation A is of real, quaternionic or complex type according to the
self-conjugation isometry S: A -> conj(A): S symmetric (real form exists),
S skew (quaternionic block form exists), or no S at all.  Both forms come
from one congruence split of S (:func:`_congruence`): a Takagi factor when S
is symmetric, a factor onto the standard skew form when it is skew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mbm
from .numcore import Tolerance, frobenius
from .quiverrep import (
    Quiver,
    Representation,
    Isometry,
    ZeroDimError,
    apply_isometry,
    pack,
    unpack,
    _isometry,
    _residual,
)

__all__ = [
    "RealType",
    "NotSymmetricError",
    "NotUnitaryError",
    "NotSkewError",
    "OddDimensionError",
    "NonScalarGaugeError",
    "ConjugatePairingFailure",
    "DecomposableError",
    "realify",
    "conj_rep",
    "transpose_rep",
    "adjoint_rep",
    "self_conj_isometry",
    "classify_real",
    "takagi_symmetric",
    "skew_canonical",
    "to_real_form",
    "to_quaternionic_form",
    "real_isometry",
    "decompose_real",
    "matrix_real_test",
]


class NotSymmetricError(ValueError):
    pass


class NotUnitaryError(ValueError):
    pass


class NotSkewError(ValueError):
    pass


class OddDimensionError(ValueError):
    pass


class NonScalarGaugeError(RuntimeError):
    pass


class ConjugatePairingFailure(RuntimeError):
    pass


class DecomposableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# realification and the three dualities


def _realify_matrix(A: np.ndarray) -> np.ndarray:
    m, n = A.shape
    out = np.zeros((2 * m, 2 * n), dtype=complex)
    re, im = A.real, A.imag
    out[0::2, 0::2] = re
    out[0::2, 1::2] = im
    out[1::2, 0::2] = -im
    out[1::2, 1::2] = re
    return out


def realify(A: Representation) -> Representation:
    """Replace each entry a+bi by [[a, b], [-b, a]]; dimensions double."""
    dims = tuple(2 * d for d in A.dims)
    mats = {a: _realify_matrix(M) for a, M in A.matrices.items()}
    return Representation(A.quiver, dims, mats)


def conj_rep(A: Representation) -> Representation:
    return Representation(
        A.quiver, A.dims, {a: M.conj() for a, M in A.matrices.items()}
    )


def transpose_rep(A: Representation) -> Representation:
    """Transpose every matrix; all arrows reverse (shapes force it)."""
    Q = Quiver(A.quiver.p, tuple((a, d, s) for a, s, d in A.quiver.arrows))
    return Representation(Q, A.dims, {a: M.T for a, M in A.matrices.items()})


def adjoint_rep(A: Representation) -> Representation:
    """Conjugate-transpose every matrix; all arrows reverse."""
    return transpose_rep(conj_rep(A))


# ---------------------------------------------------------------------------
# self-conjugation


def self_conj_isometry(A: Representation, tol: Tolerance = Tolerance()):
    """An isometry S: A -> conj(A) when one exists, else None.

    For indecomposable A the answer is exact: A and conj(A) have equal
    canonical forms iff they are isometric, and composing the two reduction
    transcripts yields S."""
    return _isometry(A, conj_rep(A), tol)[0]


@dataclass(frozen=True)
class RealType:
    """Classification of an indecomposable unitary representation.

    ``kind`` is 'Real', 'Quaternionic' or 'Complex'; ``lam`` is the scalar
    value of conj(S) S (+1, -1, or None); ``S`` the self-conjugation
    isometry; ``form`` the constructed real or quaternionic form."""

    kind: str
    lam: object = None
    S: object = None
    form: object = None


def classify_real(A: Representation, tol: Tolerance = Tolerance()) -> RealType:
    if not any(A.dims):
        raise ZeroDimError("the zero dimension vector is not indecomposable")
    return _classify(A, self_conj_isometry(A, tol), tol)


def _classify(A: Representation, S, tol: Tolerance) -> RealType:
    """classify_real(A) given its self-conjugation isometry S (or None);
    conj(S) S is unitary, so it is checked at the bound of a unit scalar."""
    if S is None:
        return RealType(kind="Complex")
    lams = []
    for v in range(A.quiver.p):
        if A.dims[v] == 0:
            continue
        C = S.S[v].conj() @ S.S[v]
        lam = np.mean(np.diagonal(C))
        if np.linalg.norm(C - lam * np.eye(C.shape[0])) > tol.bound(1.0, C.shape[0]):
            raise NonScalarGaugeError(
                "conj(S) S is not scalar; input is not indecomposable"
            )
        lams.append(lam)
    lam = lams[0] if lams else 1.0
    for x in lams[1:]:
        if abs(x - lam) > tol.bound(1.0):
            raise NonScalarGaugeError("conj(S) S differs between vertices")
    if abs(lam - 1) <= tol.bound(1.0):
        return RealType(kind="Real", lam=1, S=S, form=to_real_form(A, S, tol))
    if abs(lam + 1) <= tol.bound(1.0):
        return RealType(
            kind="Quaternionic", lam=-1, S=S, form=to_quaternionic_form(A, S, tol)
        )
    raise NonScalarGaugeError(f"conj(S) S = {lam}, expected +1 or -1")


# ---------------------------------------------------------------------------
# Takagi-type factorizations


def _congruence(S: np.ndarray, sign: int, tol: Tolerance) -> np.ndarray:
    """U with U^T D U = S for unitary S with S^T = sign * S, where D is the
    identity (sign +1) or J (sign -1), checks already made.

    The antilinear map x -> S conj(x) fixes the unit vector u1 proportional
    to e1 + S e1 (u1 = i e1 when S e1 is close to -e1) when sign is +1, and
    swaps u1 = e1 and u2 = -S e1 up to sign when it is -1.  In a unitary
    basis starting with those columns the problem splits off one 1x1
    identity or one J block, and recurses on the trailing block."""
    n = S.shape[0]
    if n == 0:
        return np.eye(0, dtype=complex)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    if sign > 0:
        w = e1 + S[:, 0]
        nw = np.linalg.norm(w)
        cols = (1j * e1 if nw <= tol.bound(1.0) else w / nw).reshape(n, 1)
    else:
        cols = np.stack([e1, -S[:, 0]], axis=1)
    k = cols.shape[1]
    # a unitary basis whose leading columns are exactly ``cols``
    V = np.concatenate([cols, np.linalg.svd(cols)[0][:, k:]], axis=1)
    T = (V.conj().T @ S @ V.conj())[k:, k:]
    U = np.eye(n, dtype=complex)
    # re-(skew-)symmetrize against roundoff before recursing
    U[k:, k:] = _congruence(0.5 * (T + T.T if sign > 0 else T - T.T), sign, tol)
    return U @ V.T


def _checked_congruence(S: np.ndarray, sign: int, tol: Tolerance) -> np.ndarray:
    """:func:`_congruence` of S once S^T = sign * S and S^H S = I are
    checked, both at the bound of a unitary of its size (a NaN norm fails)."""
    n = S.shape[0]
    if not np.linalg.norm(S - sign * S.T) <= tol.bound(1.0, n):
        if sign > 0:
            raise NotSymmetricError("S is not symmetric")
        raise NotSkewError("S is not skew-symmetric")
    if not np.linalg.norm(S.conj().T @ S - np.eye(n)) <= tol.bound(1.0, n):
        raise NotUnitaryError("S is not unitary")
    return _congruence(S, sign, tol)


def takagi_symmetric(S, tol: Tolerance = Tolerance()) -> np.ndarray:
    """U with U^T U = S, for symmetric unitary S (see :func:`_congruence`);
    S is checked by :func:`mbm._matrix`."""
    return _checked_congruence(mbm._matrix(S), 1, tol)


def skew_canonical(S, tol: Tolerance = Tolerance()) -> np.ndarray:
    """U with U^T J U = S for skew-symmetric unitary S of even size, where
    J is the direct sum of 2x2 blocks [[0, 1], [-1, 0]] (see
    :func:`_congruence`); S is checked by :func:`mbm._matrix`."""
    S = mbm._matrix(S)
    if S.shape[0] % 2:
        raise OddDimensionError("skew unitary matrices have even size")
    return _checked_congruence(S, -1, tol)


# ---------------------------------------------------------------------------
# real and quaternionic forms


def to_real_form(
    A: Representation, S: Isometry, tol: Tolerance = Tolerance()
) -> Representation:
    """Real representation isometric to A, built from the symmetric
    self-conjugation S via per-vertex Takagi factors U_v (U_v^T U_v = S_v)."""
    U = tuple(takagi_symmetric(S.S[v], tol) for v in range(A.quiver.p))
    B = apply_isometry(A, Isometry(U))
    mats = {}
    for a, M in B.matrices.items():
        if frobenius(M.imag) > tol.bound(M):
            raise NonScalarGaugeError("real form has residual imaginary parts")
        mats[a] = M.real.astype(complex)
    return Representation(A.quiver, A.dims, mats)


def to_quaternionic_form(
    A: Representation, S: Isometry, tol: Tolerance = Tolerance()
) -> Representation:
    """Representation isometric to A whose matrices have the block shape
    [[X, Y], [-conj(Y), conj(X)]], built from skew S via per-vertex factors
    V_v with V_v^T J V_v = S_v, rows reordered from interleaved pairs to
    blocks (odd positions first)."""
    W = tuple(
        skew_canonical(S.S[v], tol)[np.r_[0:d:2, 1:d:2]] for v, d in enumerate(A.dims)
    )
    C = apply_isometry(A, Isometry(W))
    for a, s, d in A.quiver.arrows:
        M = C.matrices[a]
        hr, hc = M.shape[0] // 2, M.shape[1] // 2
        X, Y = M[:hr, :hc], M[:hr, hc:]
        resid = np.hypot(frobenius(M[hr:, :hc] + Y.conj()), frobenius(M[hr:, hc:] - X.conj()))
        if resid > tol.bound(M):
            raise NonScalarGaugeError("quaternionic block symmetry violated")
    return C


# ---------------------------------------------------------------------------
# real isometry and real decomposition


def real_isometry(A: Representation, B: Representation, tol: Tolerance = Tolerance()):
    """Real orthogonal intertwiner between real-entried representations, or
    None when they are not complex-isometric.

    Any complex isometry S gives intertwiners ``Φ_v = Re(e^{it} S_v) =
    (e^{it}/2) S_v (I + e^{-2it} N_v)``, with ``N_v = S_vᴴ conj(S_v)``
    unitary, so ``σ_min(Φ_v) = ½ min_k |e^{2it} + λ_k(N_v)|``.  With e^{2it}
    at the middle of the widest gap between the points -λ_k of all vertices,
    every σ_min is at least sin(π / 2Σd), and the polar factors of the Φ_v
    are orthogonal and still intertwine.  They are returned once
    ``||T_d A_a - B_a T_s||_F`` over all arrows is checked within
    ``tol.bound`` of A's packing (:func:`quiverrep._residual`); complex
    isometric real representations are orthogonally isometric, so a failed
    check raises :class:`mbm.CertificationError`.  Input that is not real
    raises ValueError naming the representation and the arrow before
    anything is reduced: an arrow whose imaginary part exceeds, in the
    Frobenius norm, the decision threshold of its representation's packing."""
    for name, R in (("A", A), ("B", B)):
        eps = tol.threshold([frobenius(X) for X in R.matrices.values()])
        for a, X in R.matrices.items():
            if not frobenius(X.imag) <= eps:
                raise ValueError(f"{name} is not real: arrow {a} has ||Im||_F = "
                                 f"{frobenius(X.imag):.2e} > {eps:.2e}")
    S, _ = _isometry(A, B, tol)
    if S is None:
        return None
    N = mbm._blockdiag([U.conj().T @ U.conj() for U in S.S])  # the N_v of all vertices
    angles = np.sort(np.angle(-np.linalg.eig(N)[0]))
    t = 0.0  # any angle when there is no dimension
    if angles.size:
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
        k = gaps.argmax()
        t = (angles[k] + gaps[k] / 2) / 2
    T = []
    for U in S.S:
        W, _, Vh = np.linalg.svd((np.exp(1j * t) * U).real)
        T.append((W @ Vh).astype(complex))
    T = Isometry(tuple(T))
    resid, limit = _residual(A, B, T, pack(A), tol)
    if not resid <= limit:
        raise mbm.CertificationError(
            f"real isometry does not map A onto B: ||T_d A_a - B_a T_s||_F = {resid:.2e} > {limit:.2e}")
    return T


def decompose_real(A: Representation, tol: Tolerance = Tolerance()):
    """Decomposition of a real-entried representation into summands that are
    indecomposable over the reals, from one reduction.

    With C = R^H A S the canonical form, G = S^T S is unitary and symmetric,
    and conj(C) = G C G^H (R^T R on the rows) holds for real A: checked first
    within the bound of the packing, so input that is not real raises
    ConjugatePairingFailure.  G maps each summand's copies onto those of its
    conjugate.  A complex-type summand (paired with another) realifies with
    its partner; a self-paired one is classified by G's largest block between
    two of its copies: real-type summands are emitted as real forms,
    quaternionic ones pair with themselves (even multiplicity)."""
    M = pack(A)
    C, T, trace = mbm.canonicalize(M, tol)
    R, S = T.full_matrices()
    G = S.T @ S
    resid = frobenius(C.entries.conj() - R.T @ R @ C.entries @ G.conj().T)
    limit = tol.bound(M.entries)
    if not resid <= limit:
        raise ConjugatePairingFailure(
            f"input is not real: ||conj(C) - G C G^H||_F = {resid:.2e} > {limit:.2e}"
        )
    parts = mbm._summands(C, trace, tol)
    owner = np.empty(len(G), np.intp)  # the summand of every canonical column
    for i, (_, copies) in enumerate(parts):
        owner[np.concatenate(copies)] = i
    # the partner holds the image of the first column of the first copy, and
    # G is unitary, so all mass outside the partners is stray
    partner = np.array([owner[np.abs(G[:, c[0][0]]).argmax()] for _, c in parts], np.intp)
    stray = frobenius(G[owner[:, None] != partner[owner]])
    if not stray <= tol.bound(1.0, len(G)):
        raise ConjugatePairingFailure(f"G does not pair the summands: stray mass {stray:.2e}")
    out = []
    for i, (P, copies) in enumerate(parts):
        m, P = len(copies), unpack(P, A.quiver)
        if partner[i] != i:  # complex type: emitted with the first of the pair
            if partner[i] > i:
                out.append((realify(P), m))
            continue
        X = max((G[np.ix_(a, b)] for a in copies for b in copies), key=frobenius)
        X *= np.sqrt(len(X)) / frobenius(X)  # a unitary multiple of P's self-conjugation
        rt = _classify(P, Isometry(mbm._diagonal_blocks(X, P.dims)), tol)
        if rt.kind == "Real":
            out.append((rt.form, m))
        elif m % 2:
            raise ConjugatePairingFailure("quaternionic summand with odd multiplicity")
        else:
            out.append((realify(P), m // 2))
    return out


def matrix_real_test(A, tol: Tolerance = Tolerance()):
    """Is the square matrix A unitarily similar to a real matrix?

    Returns ``(flag, witness)``; the witness is the real matrix when it
    exists.  A must be indecomposable under unitary similarity; the reduction
    of conj(A), which the self-conjugation makes unless the invariants reject
    the pair (then it is made here alone), decides it."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    R = Representation(Quiver(1, [("a", 1, 1)]), (n,), {"a": A})
    if n == 0:
        raise ZeroDimError("the zero dimension vector is not indecomposable")
    C = conj_rep(R)
    S, reduced = _isometry(R, C, tol)
    trace = (reduced or mbm.canonicalize(pack(C), tol))[2]
    if not mbm._one_summand(trace):
        raise DecomposableError(
            "matrix is unitarily similar to a direct sum"
        )
    rt = _classify(R, S, tol)
    if rt.kind == "Real":
        return True, rt.form.matrices["a"].real
    return False, None
