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

from .numcore import Tolerance, frobenius
from .quiverrep import (
    Quiver,
    Representation,
    Isometry,
    apply_isometry,
    decompose_rep,
    is_indecomposable_rep,
    same_canonical,
    _isometry,
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


def takagi_symmetric(S, tol: Tolerance = Tolerance()) -> np.ndarray:
    """U with U^T U = S, for symmetric unitary S (see :func:`_congruence`)."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    if n == 0:
        return np.eye(0, dtype=complex)
    if np.linalg.norm(S - S.T) > tol.bound(1.0, n):
        raise NotSymmetricError("S is not symmetric")
    if np.linalg.norm(S.conj().T @ S - np.eye(n)) > tol.bound(1.0, n):
        raise NotUnitaryError("S is not unitary")
    return _congruence(S, 1, tol)


def skew_canonical(S, tol: Tolerance = Tolerance()) -> np.ndarray:
    """U with U^T J U = S for skew-symmetric unitary S of even size, where
    J is the direct sum of 2x2 blocks [[0, 1], [-1, 0]] (see
    :func:`_congruence`)."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    if n % 2:
        raise OddDimensionError("skew unitary matrices have even size")
    if n == 0:
        return np.eye(0, dtype=complex)
    if np.linalg.norm(S + S.T) > tol.bound(1.0, n):
        raise NotSkewError("S is not skew-symmetric")
    if np.linalg.norm(S.conj().T @ S - np.eye(n)) > tol.bound(1.0, n):
        raise NotUnitaryError("S is not unitary")
    return _congruence(S, -1, tol)


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

    Any complex isometry S gives intertwiners Re(e^{i t} S) for every t;
    a generic t makes them invertible, and the polar factor restores
    orthogonality while preserving the intertwining relations.  The first T
    with ``||T_d A_a - B_a T_s||_F`` over all arrows within the bound of A."""
    S, _ = _isometry(A, B, tol)
    if S is None:
        return None
    norm = frobenius([frobenius(M) for M in A.matrices.values()])
    limit = tol.bound(norm, max((1, *A.dims)))
    thetas = [np.pi * k / 24 for k in range(24)]
    rng = np.random.default_rng(0)
    thetas += list(rng.uniform(0, np.pi, size=16))
    for t in thetas:
        phase = np.exp(1j * t)
        T = []
        for v in range(A.quiver.p):
            Phi = (phase * S.S[v]).real
            if Phi.size:
                U_, sv, Vh_ = np.linalg.svd(Phi)
                if sv[-1] <= tol.bound(1.0, len(sv)):
                    break
                # polar factor: orthogonal, still intertwining
                Phi = U_ @ Vh_
            T.append(Phi.astype(complex))
        else:
            resid = frobenius([
                frobenius(T[d - 1] @ A.matrices[a] - B.matrices[a] @ T[s - 1])
                for a, s, d in A.quiver.arrows
            ])
            if resid <= limit:
                return Isometry(tuple(T))
    return None


def decompose_real(A: Representation, tol: Tolerance = Tolerance()):
    """Decomposition of a real-entried representation into summands that are
    indecomposable over the reals.

    Decompose over the complexes and classify each summand: real-type
    summands are emitted as real forms; complex-type summands pair with
    their conjugates and each pair realifies into one real summand;
    quaternionic summands pair with themselves (even multiplicity).  The
    summands are canonical, so a partner is found by comparing it with the
    canonical form of the conjugate computed during classification."""
    parts = decompose_rep(A, tol)
    out = []
    paired = set()
    for i, (P, m) in enumerate(parts):
        if i in paired:
            continue
        S, Pc = _isometry(P, conj_rep(P), tol)
        rt = _classify(P, S, tol)
        if rt.kind == "Real":
            out.append((rt.form, m))
            continue
        if rt.kind == "Quaternionic":
            if m % 2:
                raise ConjugatePairingFailure("quaternionic summand with odd multiplicity")
            out.append((realify(P), m // 2))
            continue
        # complex type: the partner is a later, unpaired summand
        later = (j for j in range(i + 1, len(parts)) if j not in paired)
        j = next((j for j in later if same_canonical(parts[j][0], Pc, tol)), None)
        if j is None or parts[j][1] != m:
            raise ConjugatePairingFailure("complex-type summand without matching conjugate")
        paired.add(j)
        out.append((realify(P), m))
    return out


def matrix_real_test(A, tol: Tolerance = Tolerance()):
    """Is the square matrix A unitarily similar to a real matrix?

    Returns ``(flag, witness)``; the witness is the real matrix when it
    exists.  A must be indecomposable under unitary similarity."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    loop = Quiver(1, [("a", 1, 1)])
    R = Representation(loop, (n,), {"a": A})
    if not is_indecomposable_rep(R, tol):
        raise DecomposableError(
            "matrix is unitarily similar to a direct sum"
        )
    rt = classify_real(R, tol)
    if rt.kind == "Real":
        return True, rt.form.matrices["a"].real
    return False, None
