"""Zones and schemes of canonical marked block matrices.

A canonical matrix is partitioned into *zones* (equivalence or similarity),
each installed at some depth of the reduction.  The *scheme* forgets the
numerical values and keeps a symbol grid: stars on the diagonals of
similarity zones, circles at the nonzero cells of equivalence zones with
links joining equal values, dots elsewhere.  A scheme can be validated
against a value assignment and re-filled in general position.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .numcore import Tolerance, _rank, lex_cmp
from .mbm import DimensionMismatchError, MarkedBlockMatrix, Zone, _cell, _classes, _integers, _strips

__all__ = [
    "Scheme",
    "IntegerModeInfeasible",
    "scheme_of",
    "validate_filling",
    "fill_general_position",
    "count_params",
    "render_ascii",
]


class IntegerModeInfeasible(ValueError):
    pass


@dataclass(frozen=True)
class Scheme:
    """Symbol grid ('.', 'o', '*') with links, stairs and the zone layout.

    The original strip grid is carried along so that a filling can be
    reassembled into a marked block matrix; the sums of the strips are the
    shape of the grid, which the symbols fill."""

    symbols: tuple  # tuple of row tuples over {'.', 'o', '*'}
    links: frozenset  # frozenset of frozenset({cell, cell}), 0-based
    zones: tuple  # Zone records, sorted by (depth, block)
    row_strips: tuple
    col_strips: tuple
    marked: frozenset

    @property
    def depths(self) -> tuple:
        return tuple(z.depth for z in self.zones)

    def _cells(self, symbol):
        return [(r, c) for r, row in enumerate(self.symbols)
                for c, x in enumerate(row) if x == symbol]

    def circle_cells(self):
        return self._cells("o")

    def star_cells(self):
        return self._cells("*")

    def link_chains(self):
        """Connected components of the link relation (as frozensets),
        ordered by their first cell."""
        return [frozenset(c) for c in _link_classes(self, set(chain.from_iterable(self.links)))]

    def to_json(self) -> dict:
        return {
            "symbols": [list(row) for row in self.symbols],
            "links": sorted(
                [sorted([[a[0] + 1, a[1] + 1], [b[0] + 1, b[1] + 1]])
                 for a, b in (sorted(p) for p in self.links)]
            ),
            "depths": {str(k): z.depth for k, z in enumerate(self.zones)},
            "zones": [
                {
                    "id": k,
                    "kind": z.kind,
                    "depth": z.depth,
                    "block": list(z.block),
                    "cells": sorted([r + 1, c + 1] for r, c in z.cells),
                    "stairs": [
                        [[int(r) + 1, int(c) + 1] for r, c in st]
                        for st in z.stairs
                    ],
                }
                for k, z in enumerate(self.zones)
            ],
            "row_strips": list(self.row_strips),
            "col_strips": list(self.col_strips),
            "marked": sorted([i + 1, j + 1] for i, j in self.marked),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Scheme":
        strips = _strips(data["row_strips"], "row"), _strips(data["col_strips"], "column")
        marked = frozenset(_cell(x, "mark ") for x in data.get("marked", []))
        rows, cols = map(sum, strips)
        # the strips and marks must fit each other as a filling's must
        MarkedBlockMatrix(*strips, np.zeros((rows, cols)), marked)
        symbols = tuple(tuple(row) for row in data["symbols"])
        if len(symbols) != rows or any(len(row) != cols for row in symbols):
            raise DimensionMismatchError(f"scheme symbols do not fill the {rows}x{cols} grid of the strips")
        if any(x not in (".", "o", "*") for x in chain(*symbols)):
            raise ValueError("scheme symbols must be '.', 'o' or '*'")
        links = [frozenset(_cell(x, f"link {link!r}: cell ") for x in link)
                 for link in data.get("links", [])]
        for link, pair in zip(data.get("links", []), links):
            if len(link) != 2 or len(pair) != 2 or any(
                not (0 <= r < rows and 0 <= c < cols) for r, c in pair
            ):
                cells = "-".join(f"({r},{c})" for r, c in link)
                raise ValueError(
                    f"link {cells} is not two distinct cells of the {rows}x{cols} symbols"
                )
        zs = []
        for k, zd in enumerate(data.get("zones", [])):
            z = Zone(_integers([zd["depth"]], ValueError, f"zone {k} depth")[0], zd["kind"],
                     _integers(zd["block"], ValueError, f"zone {k} block"),
                     frozenset(_cell(x, f"zone {k}: cell ") for x in zd["cells"]),
                     tuple(tuple(_cell(x, f"zone {k}: cell ") for x in st) for st in zd["stairs"]))
            if z.kind not in ("equivalence", "similarity"):
                raise ValueError(f"zone {k} kind {z.kind!r} is not equivalence or similarity")
            if len(z.block) != 4 or min(z.block) < 0:
                raise ValueError(f"zone {k} block {z.block} is not four non-negative integers")
            for r, c in chain(z.cells, *z.stairs):
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(
                        f"zone {k} has cell ({r + 1},{c + 1}) outside the {rows}x{cols} symbols"
                    )
            zs.append(z)
        return cls(
            symbols=symbols,
            links=frozenset(links),
            zones=tuple(zs),
            row_strips=strips[0],
            col_strips=strips[1],
            marked=marked,
        )


def scheme_of(
    canonical: MarkedBlockMatrix, zone_list, tol: Tolerance = Tolerance()
) -> Scheme:
    """Extract the scheme of a canonical matrix with its zone partition,
    ``zone_list`` sorted by (depth, block) as ``ReductionTrace.zones`` is:
    :func:`_scheme` at the decision threshold of the canonical matrix."""
    A = canonical.entries
    return _scheme(A, zone_list, tol.threshold(A), canonical.row_strips,
                   canonical.col_strips, canonical.marked)


def _scheme(A, zone_list, eps, row_strips, col_strips, marked) -> Scheme:
    """The scheme of the matrix A whose zones are ``zone_list``, on the
    given strips and marks: stars on the stair diagonals of similarity
    zones; circles at the cells of equivalence zones above ``eps``, with
    links between equal circles of one zone (equality at ``2 * eps``)."""
    grid = [["."] * A.shape[1] for _ in range(A.shape[0])]
    links: set = set()
    circle = (np.abs(A) > eps).tolist()
    for z in zone_list:
        if z.kind == "similarity":
            for stair in z.stairs:
                for (r, c) in stair:
                    grid[r][c] = "*"
        else:
            circles = sorted(cell for cell in z.cells if circle[cell[0]][cell[1]])
            for (r, c) in circles:
                grid[r][c] = "o"
            # join equal values within the zone: consecutive members of an
            # equal-value run in diagonal order
            for (a, b) in zip(circles, circles[1:]):
                if abs(A[a] - A[b]) <= 2 * eps:
                    links.add(frozenset({a, b}))
    return Scheme(tuple(tuple(row) for row in grid), frozenset(links),
                  tuple(zone_list), row_strips, col_strips, frozenset(marked))


def _link_classes(S: Scheme, cells):
    """Partition ``cells`` into equality classes induced by the links
    between them, each in row-major order, ordered by their first cell."""
    cells = sorted(cells)
    cellset = set(cells)
    return _classes(cells, (sorted(pair) for pair in S.links if pair <= cellset))


def validate_filling(S: Scheme, values, tol: Tolerance = Tolerance()):
    """Check a value assignment against the scheme's constraints.

    ``values`` maps 0-based cells to complex numbers; dots default to 0.
    Every comparison is at the decision threshold of the filled matrix.
    Returns a list of violation messages (empty list means the filling is
    admissible as a canonical matrix)."""
    v = {tuple(k): complex(x) for k, x in dict(values).items()}
    eps = tol.threshold(list(v.values()))

    def val(cell):
        return v.get(cell, 0.0 + 0.0j)

    bad: list[str] = []
    for r, row in enumerate(S.symbols):
        for c, sym in enumerate(row):
            x = val((r, c))
            if sym == "." and abs(x) > eps:
                bad.append(f"dot at ({r + 1},{c + 1}) must be zero, got {x}")
            if sym == "o":
                if abs(x.imag) > eps or x.real <= eps:
                    bad.append(
                        f"circle at ({r + 1},{c + 1}) must be positive real, got {x}"
                    )
    for k, z in enumerate(S.zones):
        if z.kind == "equivalence":
            for pair in S.links:
                a, b = sorted(pair)
                if pair <= z.cells and abs(val(a) - val(b)) > 2 * eps:
                    bad.append(
                        f"linked circles ({a[0] + 1},{a[1] + 1}) and "
                        f"({b[0] + 1},{b[1] + 1}) differ: {val(a)} vs {val(b)}"
                    )
            circles = sorted(c for c in z.cells if S.symbols[c[0]][c[1]] == "o")
            for a, b in zip(circles, circles[1:]):
                unlinked = (b[0] - a[0], b[1] - a[1]) == (1, 1) and frozenset({a, b}) not in S.links
                if unlinked and not val(a).real > val(b).real + eps:
                    bad.append(
                        f"unlinked consecutive circles ({a[0] + 1},{a[1] + 1}) > "
                        f"({b[0] + 1},{b[1] + 1}) required: {val(a)} vs {val(b)}"
                    )
        else:
            for stair in z.stairs:
                vals = [val(c) for c in stair]
                for x in vals[1:]:
                    if abs(x - vals[0]) > 2 * eps:
                        bad.append(
                            f"stars of one stair in zone {k} must be equal: "
                            f"{vals[0]} vs {x}"
                        )
            for a in range(len(z.stairs) - 1):
                s1, s2 = z.stairs[a], z.stairs[a + 1]
                x, y = val(s1[0]), val(s2[0])
                cmp = lex_cmp(x, y, Tolerance(eps))
                if cmp < 0:
                    bad.append(
                        f"stairs {a} and {a + 1} of zone {k} must not increase: "
                        f"{x} before {y}"
                    )
                    continue
                if cmp == 0:
                    # equal stair values are only allowed when the block
                    # between them (rows of the first stair, columns of the
                    # second) has linearly independent columns
                    rows_ = [r for r, _ in s1]
                    cols_ = [c for _, c in s2]
                    B = np.array(
                        [[val((r, c)) for c in cols_] for r in rows_],
                        dtype=complex,
                    )
                    if _rank(B, eps) < len(cols_):
                        bad.append(
                            f"stairs {a} and {a + 1} of zone {k}: equal values "
                            "require independent columns in the block between"
                        )
    return bad


def fill_general_position(
    S: Scheme, mode: str = "real-random", seed=None, tol: Tolerance = Tolerance()
) -> MarkedBlockMatrix:
    """Fill a scheme with all-distinct values per zone.

    ``real-random`` draws circle values from (0, 1] and star values as
    distinct reals; ``integer`` uses k, k-1, ..., 1 per zone (so entries stay
    in {0, ..., max strip size}).  The result is a canonical fixpoint when
    each zone's values are distinct and well separated; close stars may not
    be (a real-random filling of a loop (16,) scheme has eigenvalues 9.0e-5
    apart, and ``canonicalize`` moves it by 2.8e-5, relative)."""
    if mode not in ("real-random", "integer"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    budget = max(list(S.row_strips) + list(S.col_strips) + [0])
    entries = np.zeros((sum(S.row_strips), sum(S.col_strips)), dtype=complex)

    def descending(k):
        if mode == "integer":
            return [float(k - t) for t in range(k)]
        vals = np.sort(rng.uniform(0.0, 1.0, size=k))[::-1]
        while len(set(vals.tolist())) < k:  # pragma: no cover
            vals = np.sort(rng.uniform(0.0, 1.0, size=k))[::-1]
        return [float(x) for x in vals]

    for z in sorted(S.zones, key=lambda z: -z.depth):
        # one value per link class of the circles, or per stair
        groups = _link_classes(
            S, [c for c in z.cells if S.symbols[c[0]][c[1]] == "o"]
        ) if z.kind == "equivalence" else z.stairs
        if mode == "integer" and len(groups) > budget:
            raise IntegerModeInfeasible(
                f"zone needs {len(groups)} distinct values, budget is {budget}"
            )
        for value, group in zip(descending(len(groups)), groups):
            for cell in group:
                entries[cell] = value
    return MarkedBlockMatrix(S.row_strips, S.col_strips, entries, S.marked)


def count_params(S: Scheme):
    """Number of free real parameters (circles) and complex parameters
    (stars) of the scheme."""
    n_circ = sum(row.count("o") for row in S.symbols)
    n_star = sum(row.count("*") for row in S.symbols)
    return n_circ, n_star


def render_ascii(S: Scheme) -> str:
    lines = ["".join(row) for row in S.symbols]
    for a, b in sorted(sorted(p) for p in S.links):
        lines.append(f"link ({a[0] + 1},{a[1] + 1})-({b[0] + 1},{b[1] + 1})")
    return "\n".join(lines)
