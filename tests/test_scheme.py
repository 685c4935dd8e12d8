import re

import numpy as np
import pytest

from unicanon.numcore import Tolerance
from unicanon import mbm, scheme
from unicanon.mbm import MarkedBlockMatrix
from unicanon.quiverrep import Representation, pack, random_rep, rep_canonical
from unicanon.scheme import (
    Scheme,
    scheme_of,
    validate_filling,
    fill_general_position,
    count_params,
    render_ascii,
)

from conftest import random_mbm, example_8x12, D4, KRONECKER, MALFORMED_SCHEMES


def scheme_of_mbm(M, tol):
    C, _, trace = mbm.canonicalize(M, tol)
    return scheme_of(C, trace.zones, tol), C


def probed_schemes(tol):
    """The scheme of the 8x12 example, and of zero-one Kronecker and D4
    representations (whose reductions merge, inside the arrows too) the
    packed scheme and the per-arrow schemes: 43 schemes."""
    out = [scheme_of_mbm(example_8x12(), tol)[0]]
    for Q, d in ((KRONECKER, (3, 3)), (KRONECKER, (8, 8)), (D4, (2, 3, 1, 4)), (D4, (4, 4, 4, 8))):
        for seed in range(3):
            A = random_rep(Q, d, seed=seed)
            A = Representation(Q, d, {a: (X.real > 0) + 0j for a, X in A.matrices.items()})
            out += [scheme_of_mbm(pack(A)[0], tol)[0], *rep_canonical(A, tol)[2].values()]
    return out


class TestZones:
    def test_unmarked_1x1_grid(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([2.0, 1.0]))
        _, _, trace = mbm.canonicalize(M, tol)
        zs = trace.zones
        assert len(zs) == 1
        assert zs[0].kind == "equivalence" and zs[0].depth == 0

    def test_marked_distinct_eigs(self, tol):
        M = MarkedBlockMatrix((2,), (2,), [[1, 3], [0, 2]], {(0, 0)})
        _, _, trace = mbm.canonicalize(M, tol)
        zs = trace.zones
        assert [z.depth for z in zs] == [0, 1]
        assert zs[0].kind == "similarity"
        assert zs[1].kind == "equivalence"


class TestSchemeOf:
    def test_example_stars_and_circles(self, tol, M8x12):
        S, _ = scheme_of_mbm(M8x12, tol)
        stars = {(r + 1, c + 1) for r, c in S.star_cells()}
        circles = {(r + 1, c + 1) for r, c in S.circle_cells()}
        assert stars == {(k, k) for k in range(1, 9)} | {
            (1, 9),
            (2, 10),
            (3, 11),
            (1, 12),
        }
        assert circles == {
            (1, 5), (2, 6), (3, 7),
            (5, 9), (6, 10), (7, 11), (8, 12),
            (4, 12), (3, 12), (1, 11),
        }

    def test_example_link_chains(self, tol, M8x12):
        S, _ = scheme_of_mbm(M8x12, tol)
        chains = sorted(
            frozenset((r + 1, c + 1) for r, c in ch) for ch in S.link_chains()
        )
        assert sorted(map(sorted, chains)) == [
            [(1, 5), (2, 6), (3, 7)],
            [(5, 9), (6, 10), (7, 11)],
        ]

    @pytest.mark.parametrize(
        "values", [(3, 3, 2, 2, 1, 1), (4, 4, 3, 3, 2, 2, 1, 1), (5, 5, 5, 2, 2, 1, 1, 1)]
    )
    def test_link_chains_ordered_by_first_cell(self, tol, values):
        M = MarkedBlockMatrix((len(values),), (len(values),), np.diag(np.array(values, float)))
        S, _ = scheme_of_mbm(M, tol)
        chains = S.link_chains()
        runs = {}
        for k, v in enumerate(values):
            runs.setdefault(v, []).append((k, k))
        assert [sorted(ch) for ch in chains] == list(runs.values())

    def test_equal_values_linked(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([3.0, 3.0]))
        S, _ = scheme_of_mbm(M, tol)
        assert len(S.links) == 1

    def test_zero_matrix_all_dots(self, tol):
        M = MarkedBlockMatrix((2,), (3,), np.zeros((2, 3)))
        S, _ = scheme_of_mbm(M, tol)
        assert all(sym == "." for row in S.symbols for sym in row)

    def test_invariance_under_scramble(self, tol):
        rng = np.random.default_rng(21)
        for k in range(10):
            M = random_mbm(rng)
            S1, _ = scheme_of_mbm(M, tol)
            T = mbm.random_transcript(M, seed=k)
            S2, _ = scheme_of_mbm(mbm.apply_admissible(M, T), tol)
            assert S1.symbols == S2.symbols
            assert S1.links == S2.links

    def test_json_round_trip(self, tol, M8x12):
        S, _ = scheme_of_mbm(M8x12, tol)
        S2 = Scheme.from_json(S.to_json())
        assert S2.symbols == S.symbols
        assert S2.links == S.links
        assert S2.depths == S.depths

    def test_json_round_trip_is_the_scheme(self, tol):
        # before: the 13 packed schemes whose reduction merged kept their
        # zones' merged blocks, which the JSON does not carry
        schemes = probed_schemes(tol)
        assert len(schemes) == 43
        for S in schemes:
            assert Scheme.from_json(S.to_json()) == S

    @pytest.mark.parametrize(
        "link, name",
        (([[1, 2], [3, 3]], "(1,2)-(3,3)"), ([[2, 2], [2, 2]], "(2,2)-(2,2)"),
         ([[1, 1], [2, 2], [1, 2]], "(1,1)-(2,2)-(1,2)"), ([[0, 1], [1, 1]], "(0,1)-(1,1)")),
        ids=("outside", "to-itself", "three-cells", "cell-zero"),
    )
    def test_json_bad_link(self, link, name):
        data = {"symbols": [["o", "o"], [".", "o"]], "links": [[[1, 1], [2, 2]], link],
                "zones": [], "row_strips": [2], "col_strips": [2]}
        with pytest.raises(ValueError, match=rf"link {re.escape(name)} is not two distinct"):
            Scheme.from_json(data)

    @pytest.mark.parametrize(
        "extra, holder",
        (({"links": [[[1], [2, 2]]]}, "link [[1], [2, 2]]: cell "),
         ({"zones": [{"depth": 0, "kind": "equivalence", "block": [0, 2, 0, 2],
                      "cells": [[1, 1], [1]], "stairs": []}]}, "zone 0: cell "),
         ({"marked": [[1]]}, "mark ")),
        ids=("link", "zone", "mark"),
    )
    def test_json_cell_not_a_pair(self, extra, holder):
        data = {"symbols": [["o", "o"], [".", "o"]], "zones": [],
                "row_strips": [2], "col_strips": [2], **extra}
        with pytest.raises(ValueError, match=re.escape(f"{holder}[1] is not a [row, col] pair")):
            Scheme.from_json(data)

    @pytest.mark.parametrize("data, message", MALFORMED_SCHEMES)
    def test_json_malformed_zone_or_symbol(self, data, message):
        # before: kind "bogus", block ["a"] and symbol "x" were accepted and
        # depth 1.9 was truncated to 1
        with pytest.raises(ValueError, match=re.escape(message)):
            Scheme.from_json(data)


class TestValidateFilling:
    def fill_of(self, S, C):
        return {
            (r, c): C.entries[r, c]
            for r in range(S.rows)
            for c in range(S.cols)
        }

    def test_canonical_filling_ok(self, tol, M8x12):
        S, C = scheme_of_mbm(M8x12, tol)
        assert validate_filling(S, self.fill_of(S, C), tol) == []

    def test_linked_unequal_rejected(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([3.0, 3.0]))
        S, C = scheme_of_mbm(M, tol)
        bad = validate_filling(S, {(0, 0): 2.0, (1, 1): 3.0}, tol)
        assert any("linked" in msg for msg in bad)

    def test_unlinked_equal_rejected(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([3.0, 1.0]))
        S, C = scheme_of_mbm(M, tol)
        bad = validate_filling(S, {(0, 0): 2.0, (1, 1): 2.0}, tol)
        assert any("unlinked" in msg for msg in bad)

    def test_nonpositive_circle_rejected(self, tol):
        M = MarkedBlockMatrix((1,), (1,), [[4.0]])
        S, _ = scheme_of_mbm(M, tol)
        bad = validate_filling(S, {(0, 0): -1.0}, tol)
        assert any("positive" in msg for msg in bad)


class TestFill:
    def test_single_circle(self, tol):
        M = MarkedBlockMatrix((1,), (1,), [[4.0]])
        S, _ = scheme_of_mbm(M, tol)
        F = fill_general_position(S, "real-random", seed=0, tol=tol)
        assert F.entries[0, 0].real > 0

    def test_unlinked_circles_strictly_decreasing(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([3.0, 1.0]))
        S, _ = scheme_of_mbm(M, tol)
        F = fill_general_position(S, "real-random", seed=1, tol=tol)
        assert F.entries[0, 0].real > F.entries[1, 1].real > 0

    def test_integer_mode_2x2_similarity(self, tol):
        M = MarkedBlockMatrix((2,), (2,), [[1, 3], [0, 2]], {(0, 0)})
        S, _ = scheme_of_mbm(M, tol)
        F = fill_general_position(S, "integer", seed=0, tol=tol)
        vals = set(np.unique(F.entries.real)) | set(np.unique(F.entries.imag))
        assert vals <= {0.0, 1.0, 2.0}
        C, _, _ = mbm.canonicalize(F, tol)
        assert np.abs(C.entries - F.entries).max() < 1e-9

    def test_fixpoint_property(self, tol):
        rng = np.random.default_rng(31)
        for k in range(8):
            M = random_mbm(rng)
            S, _ = scheme_of_mbm(M, tol)
            F = fill_general_position(S, "real-random", seed=k, tol=tol)
            C, _, _ = mbm.canonicalize(F, tol)
            assert np.abs(C.entries - F.entries).max() < 1e-8
            assert validate_filling(
                S,
                {
                    (r, c): F.entries[r, c]
                    for r in range(S.rows)
                    for c in range(S.cols)
                },
                tol,
            ) == []

    def test_two_fillings_same_scheme(self, tol):
        rng = np.random.default_rng(41)
        M = random_mbm(rng)
        S, _ = scheme_of_mbm(M, tol)
        F1 = fill_general_position(S, "real-random", seed=1, tol=tol)
        F2 = fill_general_position(S, "real-random", seed=2, tol=tol)
        S1, _ = scheme_of_mbm(F1, tol)
        S2, _ = scheme_of_mbm(F2, tol)
        assert S1.symbols == S2.symbols
        assert S1.links == S2.links

    def test_unknown_mode(self, tol):
        M = MarkedBlockMatrix((1,), (1,), [[4.0]])
        S, _ = scheme_of_mbm(M, tol)
        with pytest.raises(ValueError):
            fill_general_position(S, "nope", seed=0, tol=tol)


class TestCounting:
    def test_all_dots(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.zeros((2, 2)))
        S, _ = scheme_of_mbm(M, tol)
        assert count_params(S) == (0, 0)

    def test_general_2x2_similarity(self, tol):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M = MarkedBlockMatrix((2,), (2,), A, {(0, 0)})
        S, _ = scheme_of_mbm(M, tol)
        assert count_params(S) == (1, 2)

    def test_example_counts(self, tol, M8x12):
        S, _ = scheme_of_mbm(M8x12, tol)
        assert count_params(S) == (10, 12)

    def test_invariance(self, tol):
        rng = np.random.default_rng(51)
        M = random_mbm(rng)
        S1, _ = scheme_of_mbm(M, tol)
        T = mbm.random_transcript(M, seed=9)
        S2, _ = scheme_of_mbm(mbm.apply_admissible(M, T), tol)
        assert count_params(S1) == count_params(S2)


class TestRender:
    def test_single_star(self, tol):
        M = MarkedBlockMatrix((1,), (1,), [[2.0]], {(0, 0)})
        S, _ = scheme_of_mbm(M, tol)
        assert render_ascii(S) == "*"

    def test_linked_diag(self, tol):
        M = MarkedBlockMatrix((2,), (2,), np.diag([3.0, 3.0]))
        S, _ = scheme_of_mbm(M, tol)
        text = render_ascii(S)
        assert text.splitlines()[:2] == ["o.", ".o"]
        assert "link (1,1)-(2,2)" in text
