from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unicanon.mbm import MarkedBlockNotSquareError
from unicanon.numcore import (
    Tolerance, _clusters, _far_from_scalar, cluster_complex, lex_cmp, random_unitary, simil_step,
)

from conftest import SQUARE_KINDS, equiv_canonical, reference_simil_step, simil_canonical, square

DERANDOMIZED = settings(max_examples=150, deadline=None, derandomize=True)
THRESHOLDS = st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.1])


def chained_values(seed, n):
    """n complex values near a coarse grid, off it by 1e-12 to 1e-2 or not
    at all, so that chains, ties and near-ties occur at every threshold."""
    rng = np.random.default_rng(seed)
    v = rng.integers(-3, 4, (n, 2)) * 0.5
    v += rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-12, -1, (n, 1)) * (rng.random((n, 1)) < 0.7)
    return v[:, 0] + 1j * v[:, 1]


def cluster_bits(clusters):
    return [(z.real.hex(), z.imag.hex(), m) for z, m in clusters]


class TestTolerance:
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
    def test_rejects_non_finite_or_negative(self, value):
        with pytest.raises(ValueError):
            Tolerance(abs=value)


class TestLexOrder:
    def test_real_part_dominates(self):
        assert lex_cmp(1 + 5j, 2 - 5j) == -1
        assert lex_cmp(3, 2 + 9j) == 1

    def test_imag_breaks_ties(self):
        assert lex_cmp(1 + 1j, 1 - 1j) == 1
        assert lex_cmp(1 - 1j, 1 + 1j) == -1

    def test_equal_within_tolerance(self):
        t = Tolerance(abs=1e-6)
        assert lex_cmp(1.0, 1.0 + 1e-8, t) == 0

    @given(
        st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6),
        st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6),
    )
    def test_antisymmetric(self, a, b):
        assert lex_cmp(a, b, Tolerance(abs=0.0)) == -lex_cmp(b, a, Tolerance(abs=0.0))

    @given(
        st.lists(
            st.complex_numbers(
                allow_nan=False, allow_infinity=False, max_magnitude=1e3
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_sort_key_consistent(self, vals):
        s = sorted(vals, key=lambda z: (z.real, z.imag))
        for a, b in zip(s, s[1:]):
            assert lex_cmp(a, b, Tolerance(abs=0.0)) <= 0


class TestClustering:
    def test_chain_grouping(self):
        t = Tolerance(abs=0.5)
        groups = cluster_complex([1.0, 1.4, 1.8, 5.0], t)
        assert [len(m) for _, m in groups] == [1, 3]
        assert groups[0][0] == 5.0

    def test_representatives_strictly_decreasing(self):
        groups = cluster_complex([3.0, 3.0, 1.0, 2.0], Tolerance())
        reps = [r.real for r, _ in groups]
        assert reps == sorted(reps, reverse=True)

    def test_complex_lex_descending(self):
        groups = cluster_complex([1j, -1j, 2.0, 1j], Tolerance())
        assert [m for _, m in groups] == [[2], [0, 3], [1]]
        assert groups[0][0] == 2.0

    # (value, real part, imaginary part) as float.hex, as the general path
    # returns them; its real-part sum turns a -0.0 real part into +0.0
    SINGLE = [
        (0j, "0x0.0p+0", "0x0.0p+0"),
        (complex(-0.0, 0.0), "0x0.0p+0", "0x0.0p+0"),
        (complex(0.0, -0.0), "0x0.0p+0", "-0x0.0p+0"),
        (complex(-0.0, -0.0), "0x0.0p+0", "-0x0.0p+0"),
        (complex(-1.5, -0.0), "-0x1.8000000000000p+0", "-0x0.0p+0"),
        (complex(-0.0, 2.5), "0x0.0p+0", "0x1.4000000000000p+1"),
        (complex(3.25, -4.0), "0x1.a000000000000p+1", "-0x1.0000000000000p+2"),
        (complex(1e-300, -1e-300), "0x1.56e1fc2f8f359p-997", "-0x1.56e1fc2f8f359p-997"),
    ]

    @pytest.mark.parametrize("t", [Tolerance(), Tolerance(abs=0.0)])
    @pytest.mark.parametrize("z, re, im", SINGLE)
    def test_single_value_bits(self, z, re, im, t):
        ((rep, members),) = cluster_complex([z], t)
        assert (rep.real.hex(), rep.imag.hex(), members) == (re, im, [0])

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=12),
        st.floats(1e-9, 1.0),
    )
    def test_partition(self, vals, eps):
        groups = cluster_complex(vals, Tolerance(abs=eps))
        members = sorted(vals[i] for _, m in groups for i in m)
        assert members == sorted(vals)

    # real non-increasing values, as singular values come, cluster to the
    # bits and the gap of the same values as complex numbers
    REAL_RUNS = {
        "gaps-at-t": ([1.0, 1.0 - 2**-30, 1.0 - 2**-29, 0.5], 2**-30),
        "gap-just-above-t": ([1.0, 1.0 - 2**-29, 0.25, 0.25], 2**-30),
        "repeated": ([2.0, 2.0, 2.0, 1.0, 1.0], 1e-9),
        "one-value": ([0.7], 1e-9),
        "all-below-t": ([2**-31, 2**-32, 0.0, -0.0], 2**-30),
        "t-zero": ([3.0, 3.0, 1.0 + 2**-52, 1.0], 0.0),
        "near-ties": (np.sort(np.repeat([3.0, 2.0, 1.0], 4)
                              + np.random.default_rng(26).standard_normal(12) * 1e-10)[::-1], 1e-9),
    }

    @pytest.mark.parametrize("name", REAL_RUNS)
    def test_real_fast_path_bits(self, name):
        vals, t = self.REAL_RUNS[name]
        general = _clusters(np.array(vals, dtype=complex), t)
        real = _clusters(np.array(vals, dtype=float), t)
        assert cluster_bits(real[0]) == cluster_bits(general[0])
        assert float(real[1]).hex() == float(general[1]).hex()

    @DERANDOMIZED
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), THRESHOLDS)
    def test_clusters_is_cluster_complex(self, seed, n, t):
        v = chained_values(seed, n)
        assert _clusters(v, t)[0] == cluster_complex(v, Tolerance(abs=t))

    @DERANDOMIZED
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), THRESHOLDS, st.floats(0.0, 1.0))
    def test_same_clustering_below_gap(self, seed, n, t, u):
        v = chained_values(seed, n)
        clusters, gap = _clusters(v, t)
        assert gap > t
        below = np.nextafter(gap, 0.0)
        for s in [min(t + u * (gap - t), below), below] if gap < np.inf else [1e300]:
            assert cluster_bits(_clusters(v, s)[0]) == cluster_bits(clusters)


def step_bits(out):
    lams, sizes, S = out
    return np.array(lams, dtype=complex).tobytes(), list(sizes), S.tobytes()


class TestSimilStep:
    """``simil_step`` against :func:`conftest.reference_simil_step`, which
    clusters at every power of 10 and tries every candidate."""

    @DERANDOMIZED
    @given(
        st.sampled_from(SQUARE_KINDS + ("integer",)),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-9, 1e-6, 0.0]),
    )
    def test_matches_reference(self, kind, n, seed, t):
        rng = np.random.default_rng(seed)
        if kind == "integer":  # upper or lower triangular: repeated, defective eigenvalues
            A = np.triu(rng.integers(-2, 3, (n, n))).astype(complex)
            A = A.T.copy() if rng.random() < 0.5 else A
        else:
            A = square(kind, n, rng)
        A = A / (np.linalg.norm(A) or 1.0)  # the unit-norm matrix of canonicalize
        tol = Tolerance(abs=t)
        assert step_bits(simil_step(A, tol)) == step_bits(reference_simil_step(A, tol))

    def test_far_from_scalar(self):
        assert _far_from_scalar(np.diag([1.0, -1.0]).astype(complex), 1e-9)
        N = np.triu(np.ones((4, 4)), 1)
        U = random_unitary(4, seed=3)
        A = U @ ((0.3 - 0.2j) * np.eye(4) + N) @ U.conj().T  # one eigenvalue, nilpotent part
        assert not _far_from_scalar(A, 1e-9)
        assert not _far_from_scalar(np.diag([1.0, 1.0 + 1e-9]).astype(complex), 1e-9)

    def test_nearly_nilpotent_is_one_block(self):
        # eigenvalues +-3e-5, apart at the threshold but one cluster at 1e-4;
        # the smallest singular value 0.9e-9 is below the threshold, so the
        # one-cluster candidate must be tried, and its staircase succeeds
        A = np.array([[0.0, 1.0], [0.9e-9, 0.0]], dtype=complex)
        lams, sizes, _ = simil_step(A, Tolerance())
        assert sizes == [1, 1] and lams[0] == lams[1] and abs(lams[0]) < 1e-12


class TestEquivCanonical:
    """The equivalence form, through ``mbm.canonicalize`` on one unmarked
    strip."""

    def test_permutation_matrix(self, tol):
        form, R, S, _ = equiv_canonical([[0, 2], [1, 0]], tol)
        assert np.allclose(form, np.diag([2.0, 1.0]))

    def test_transcript(self, tol):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        form, R, S, _ = equiv_canonical(A, tol)
        assert np.allclose(R.conj().T @ A @ S, form, atol=1e-9)

    def test_rank_deficient(self, tol):
        A = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        _, _, _, trace = equiv_canonical(A, tol)
        step = trace.steps[0]
        rank = sum(k for value, k in step.values if value > 0)
        assert rank == 1
        assert step.row_block[1] - rank == 1 and step.col_block[1] - rank == 2

    def test_empty(self, tol):
        form, R, S, _ = equiv_canonical(np.zeros((0, 3)), tol)
        assert form.shape == (0, 3)

    def test_invariance_under_unitaries(self, tol):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        U = random_unitary(4, seed=3)
        V = random_unitary(3, seed=4)
        c1, _, _, _ = equiv_canonical(A, tol)
        c2, _, _, _ = equiv_canonical(U @ A @ V, tol)
        assert np.allclose(c1, c2, atol=1e-9)


class TestSimilCanonical:
    """The similarity form, through ``mbm.canonicalize`` on one marked strip."""

    def test_triangular_2x2(self, tol):
        form, _, _ = simil_canonical([[1, 3], [0, 2]], tol)
        assert np.allclose(form, [[2, 3], [0, 1]], atol=1e-9)

    def test_transcript(self, tol):
        A = np.array([[1, 3], [0, 2]], dtype=complex)
        form, S, _ = simil_canonical(A, tol)
        assert np.allclose(S.conj().T @ A @ S, form, atol=1e-9)

    def test_rejects_non_square(self, tol):
        with pytest.raises(MarkedBlockNotSquareError):
            simil_canonical(np.zeros((2, 3)), tol)

    def test_eigenvalues_lex_descending(self, tol):
        A = np.diag([1.0, 2.0, 1.0 + 1j])
        _, _, trace = simil_canonical(A, tol)
        vals = [lam for lam, _ in trace.steps[0].values]
        keys = [(v.real, v.imag) for v in vals]
        assert keys == sorted(keys, reverse=True)

    def test_invariance(self, tol):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        U = random_unitary(4, seed=8)
        c1, _, _ = simil_canonical(A, tol)
        c2, _, _ = simil_canonical(U.conj().T @ A @ U, tol)
        assert np.allclose(c1, c2, atol=1e-7)

    def test_nilpotent_block_sizes(self, tol):
        # minimal polynomial exponent 2, kernel dimension 2
        A = np.zeros((3, 3), dtype=complex)
        A[0, 2] = 4.0
        _, _, trace = simil_canonical(A, tol)
        assert [t for _, t in trace.steps[0].values] == [2, 1]

    @staticmethod
    def spectrum(trace):
        """Distinct eigenvalues of the similarity step with their
        minimal-polynomial exponents (the number of blocks of each)."""
        lams = [lam for lam, _ in trace.steps[0].values]
        return [(lam, len(list(g))) for lam, g in groupby(lams)]

    def test_defective_eigenvalue_not_split(self, tol):
        # eigenvalues of a conjugated nilpotent scatter by ~sqrt(eps),
        # well beyond the base tolerance; they must still form one cluster
        rng = np.random.default_rng(13)
        A = np.zeros((4, 4), dtype=complex)
        A[:2, 2:] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal(
            (2, 2)
        )
        U = random_unitary(4, seed=13)
        _, _, trace = simil_canonical(U.conj().T @ A @ U, tol)
        spec = self.spectrum(trace)
        assert len(spec) == 1
        lam, e = spec[0]
        assert abs(lam) < 1e-6 and e == 2

    def test_min_poly_spectrum(self, tol):
        A = np.diag([2.0, 2.0, 5.0]).astype(complex)
        A[0, 1] = 1.0
        _, _, trace = simil_canonical(A, tol)
        spec = self.spectrum(trace)
        assert [(round(l.real), e) for l, e in spec] == [(5, 1), (2, 2)]


class TestRandomUnitary:
    def test_unitarity(self):
        for n in (1, 2, 5):
            U = random_unitary(n, seed=n)
            assert np.allclose(U.conj().T @ U, np.eye(n), atol=1e-12)

    def test_deterministic(self):
        assert np.allclose(random_unitary(3, seed=0), random_unitary(3, seed=0))

    def test_zero_size(self):
        assert random_unitary(0).shape == (0, 0)
