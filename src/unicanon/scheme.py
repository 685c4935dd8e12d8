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
from .mbm import DisjointSet, MarkedBlockMatrix, Zone, validate

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
    reassembled into a marked block matrix."""

    rows: int
    cols: int
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
        cells = sorted(set(chain.from_iterable(self.links)))
        return [frozenset(c) for c in _link_classes(self, cells)]

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
        symbols = tuple(tuple(row) for row in data["symbols"])
        rows = len(symbols)
        cols = len(symbols[0]) if rows else 0
        links = frozenset(
            frozenset({(a[0] - 1, a[1] - 1), (b[0] - 1, b[1] - 1)})
            for a, b in data.get("links", [])
        )
        zs = tuple(
            Zone(
                depth=int(zd["depth"]),
                kind=zd["kind"],
                block=tuple(zd["block"]),
                cells=frozenset((r - 1, c - 1) for r, c in zd["cells"]),
                stairs=tuple(
                    tuple((r - 1, c - 1) for r, c in st) for st in zd["stairs"]
                ),
            )
            for zd in data.get("zones", [])
        )
        if any(len(row) != cols for row in symbols):
            raise ValueError("scheme symbols rows differ in length")
        for k, z in enumerate(zs):
            for r, c in chain(z.cells, *z.stairs):
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(
                        f"zone {k} has cell ({r + 1},{c + 1}) outside the {rows}x{cols} symbols"
                    )
        strips = tuple(data["row_strips"]), tuple(data["col_strips"])
        marked = frozenset((i - 1, j - 1) for i, j in data.get("marked", []))
        # the strips and marks must fit the symbol grid, as a filling's must
        validate(MarkedBlockMatrix(*strips, np.zeros((rows, cols)), marked))
        return cls(
            rows=rows,
            cols=cols,
            symbols=symbols,
            links=links,
            zones=zs,
            row_strips=strips[0],
            col_strips=strips[1],
            marked=marked,
        )


def scheme_of(
    canonical: MarkedBlockMatrix, zone_list, tol: Tolerance = Tolerance()
) -> Scheme:
    """Extract the scheme of a canonical matrix with its zone partition,
    ``zone_list`` sorted by (depth, block) as ``ReductionTrace.zones`` is.

    Stars sit on the stair diagonals of similarity zones; circles at the
    cells of equivalence zones above the decision threshold of the canonical
    matrix, with links between equal circles of one zone (equality at twice
    that threshold)."""
    A = canonical.entries
    eps = tol.threshold(A)
    m, n = A.shape
    grid = [["."] * n for _ in range(m)]
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
    return Scheme(
        rows=m,
        cols=n,
        symbols=tuple(tuple(row) for row in grid),
        links=frozenset(links),
        zones=tuple(zone_list),
        row_strips=canonical.row_strips,
        col_strips=canonical.col_strips,
        marked=canonical.marked,
    )


def _link_classes(S: Scheme, cells):
    """Partition ``cells`` into equality classes induced by the links,
    returned in diagonal order (class of the earliest cell first)."""
    classes = DisjointSet(cells)
    cellset = set(cells)
    for pair in S.links:
        a, b = sorted(pair)
        if a in cellset and b in cellset:
            classes.union(a, b)
    return sorted(sorted(g) for g in classes.groups(cells))


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
    for r in range(S.rows):
        for c in range(S.cols):
            sym = S.symbols[r][c]
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
    in {0, ..., max strip size}).  The result is a canonical fixpoint."""
    if mode not in ("real-random", "integer"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    budget = max(list(S.row_strips) + list(S.col_strips) + [0])
    entries = np.zeros((S.rows, S.cols), dtype=complex)

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
            S, sorted(c for c in z.cells if S.symbols[c[0]][c[1]] == "o")
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
    for pair in sorted(sorted(p) for p in S.links):
        a, b = pair
        lines.append(
            f"link ({a[0] + 1},{a[1] + 1})-({b[0] + 1},{b[1] + 1})"
        )
    return "\n".join(lines)
