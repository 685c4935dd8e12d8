"""Every reduction is certified: ``mbm.canonicalize`` returns a unitary
transcript that maps the input onto the form within
``10 * n * tol.abs * ||A||_F``, or raises CertificationError.

The similarity inputs cover the sizes and scales where a wrong similarity
step shows: generic complex and real matrices, scrambled direct sums of
Jordan blocks over repeated eigenvalues, and normal matrices with repeated
eigenvalues, at n = 16, 32, 64 and scales 1e-3, 1, 1e3.
"""

import numpy as np
import pytest

from unicanon import dims, mbm
from unicanon.mbm import CertificationError, MarkedBlockMatrix
from unicanon.numcore import Tolerance, random_unitary, same_form, simil_step

from conftest import LOOP, jordan_sum, not_reducing_step, square
from conftest import SQUARE_KINDS as KINDS


def certify(M, C, T, tol):
    """The certificate, computed here without the engine's own check."""
    A = M.entries
    bound = 10 * max(A.shape) * tol.abs
    R, S = T.full_matrices()
    for U in (R, S):
        assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0])) <= bound
    resid = np.linalg.norm(R.conj().T @ A @ S - C.entries)
    assert resid <= bound * np.linalg.norm(A)


@pytest.mark.parametrize("scale", (1e-3, 1.0, 1e3))
@pytest.mark.parametrize("n", (16, 32, 64))
@pytest.mark.parametrize("kind", KINDS)
def test_similarity_certified_and_scramble_invariant(kind, n, scale, tol):
    rng = np.random.default_rng([KINDS.index(kind), n, round(np.log10(scale)) + 3])
    A = scale * square(kind, n, rng)
    U = random_unitary(n, seed=int(rng.integers(2**31)))
    forms = []
    for X in (A, U @ A @ U.conj().T):
        M = MarkedBlockMatrix((n,), (n,), X, frozenset({(0, 0)}))
        C, T, _ = mbm.canonicalize(M, tol)
        certify(M, C, T, tol)
        forms.append(C.entries)
    assert np.abs(forms[0] - forms[1]).max() <= 1e-6 * max(1.0, np.linalg.norm(A))


def assert_certified_fixed_point(X, tol):
    """The similarity form of X is certified and is its own form."""
    M = MarkedBlockMatrix(X.shape[:1], X.shape[1:], X, frozenset({(0, 0)}))
    C, T, _ = mbm.canonicalize(M, tol)
    certify(M, C, T, tol)
    assert same_form(mbm.canonicalize(C, tol)[0].entries, C.entries, tol)


# eigenvalue 0 four times, its four computed eigenvectors parallel: their QR
# spans an invariant subspace that holds the eigenvector of -1, and only the
# Householder deflation separates the two clusters
INTEGER_5X5 = np.array(
    [[-1, 1, 1, 1, 2], [0, 0, 1, -1, -2], [0, 0, 0, -1, 2], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
    dtype=complex,
)


@pytest.mark.parametrize("transpose", (False, True))
def test_integer_5x5_certified(transpose, tol):
    assert_certified_fixed_point(INTEGER_5X5.T if transpose else INTEGER_5X5, tol)


@pytest.mark.parametrize("seed", range(40))
def test_integer_triangular_certified(seed, tol):
    """Upper triangular integer matrices and their transposes: eigenvalues
    repeat exactly, with Jordan blocks of every size."""
    rng = np.random.default_rng([seed])
    n = int(rng.integers(2, 10))
    A = np.triu(rng.integers(-2, 3, (n, n))).astype(complex)
    for X in (A, A.T):
        for c in (1e-3, 1.0, 1e3):
            assert_certified_fixed_point(c * X, tol)


def not_unitary(A, tol):
    lams, sizes, S = simil_step(A, tol)
    return lams, sizes, 2.0 * S


@pytest.mark.parametrize("step", (not_reducing_step, not_unitary))
def test_broken_step_raises(monkeypatch, tol, step):
    monkeypatch.setattr(mbm, "simil_step", step)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(CertificationError):
        mbm.canonicalize(MarkedBlockMatrix((4,), (4,), A, frozenset({(0, 0)})), tol)


def test_construct_does_not_swallow_certification_error(monkeypatch, tol):
    monkeypatch.setattr(mbm, "simil_step", not_reducing_step)
    with pytest.raises(CertificationError):
        dims.construct_indecomposable(LOOP, (3,), seed=0, tol=tol)


def test_zero_tolerance_terminates():
    # at tol.abs = 0 only equal eigenvalues cluster; the step must still end
    A = np.array([[1.0, 3.0], [0.0, 2.0]], dtype=complex)
    lams, sizes, S = simil_step(A, Tolerance(abs=0.0))
    assert sizes == [1, 1] and np.allclose([lams[0], lams[1]], [2.0, 1.0])
    assert np.allclose(S.conj().T @ S, np.eye(2))


@pytest.mark.parametrize("marked", (False, True))
def test_svd_failure_falls_back_to_the_adjoint(monkeypatch, tol, marked):
    # LAPACK's zgesdd can fail to converge on a finite block whose adjoint it
    # factors; the engine's SVDs then take the factors of the adjoint
    rng = np.random.default_rng(12)
    A = jordan_sum(8, rng) if marked else rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    M = MarkedBlockMatrix(A.shape[:1], A.shape[1:], A, frozenset({(0, 0)}) if marked else frozenset())
    want, _, _ = mbm.canonicalize(M, tol)
    svd, failed = np.linalg.svd, []

    def fails_once(a, *args, **kwargs):
        if not failed and kwargs.get("compute_uv", True):
            failed.append(a.shape)
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fails_once)
    C, T, _ = mbm.canonicalize(M, tol)
    assert failed
    certify(M, C, T, tol)
    assert np.linalg.norm(C.entries - want.entries) <= 1e-9 * np.linalg.norm(A)
