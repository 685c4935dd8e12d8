import json

import numpy as np
import pytest

from unicanon.cli import dispatch
from unicanon import mbm
from unicanon.mbm import MarkedBlockMatrix, matrix_from_json
from unicanon import quiverrep as qr
from unicanon.numcore import Tolerance, cluster_complex, random_unitary
from unicanon.quiverrep import Isometry, Quiver, Representation, apply_isometry, isometric, random_rep

from conftest import example_8x12, not_reducing_step, KRONECKER, SINGLE_ARROW, MALFORMED_SCHEMES


def cmat(M):
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    return write_json(tmp_path / "m.json", cmat([[1, 3], [0, 2]]))


@pytest.fixture
def mbm_file(tmp_path):
    return write_json(tmp_path / "mbm.json", example_8x12().to_json())


@pytest.fixture
def rep_file(tmp_path):
    A = Representation(SINGLE_ARROW, (2, 1), {"a": [[3.0, 0.0]]})
    return write_json(tmp_path / "rep.json", A.to_json())


@pytest.fixture
def quiver_file(tmp_path):
    return write_json(tmp_path / "q.json", KRONECKER.to_json())


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 64
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_no_command(self):
        assert dispatch([]) == 64

    def test_unknown_command_before_command_word(self):
        assert dispatch(["frobnicate", "dims"]) == 64

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert dispatch(["canon-matrix", "--mode", "equiv", str(bad)]) == 65
        assert "error" in json.loads(capsys.readouterr().err)

    def test_validation_error(self, tmp_path, capsys):
        # marked block on a non-square cell
        data = MarkedBlockMatrix((2,), (3,), np.zeros((2, 3))).to_json()
        data["marked"] = [[1, 1]]
        f = write_json(tmp_path / "m.json", data)
        assert dispatch(["canon-mbm", f]) == 2
        assert "error" in json.loads(capsys.readouterr().err)

    # one command per kind of object file; decompose reads a marked block
    # matrix unless the object has a "quiver" key
    OBJECT_COMMANDS = (
        ["canon-mbm"], ["scheme"], ["fill-scheme"], ["decompose"],
        ["canon-rep"], ["isometric"], ["dims", "--bound", "2"],
    )

    @pytest.mark.parametrize("command", OBJECT_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "content", [[[1, 2], [3, 4]], 7, "text", {"dims": [1]}],
        ids=["list", "number", "string", "missing-keys"],
    )
    def test_wrong_structure(self, tmp_path, capsys, command, content):
        f = write_json(tmp_path / "x.json", content)
        files = [f, f] if command == ["isometric"] else [f]
        assert dispatch(command + files) == 65
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "command", [["canon-matrix", "--mode", "simil"], ["canon-matrix", "--mode", "equiv"],
                    ["canon-mbm"]], ids=["simil", "equiv", "mbm"],
    )
    def test_non_finite_entry(self, tmp_path, capsys, command, bad):
        E = np.array([[1.0, 3.0], [0.0, 2.0]], dtype=complex)
        E[0, 1] = bad
        data = cmat(E)
        if command[0] == "canon-mbm":
            data = {**MarkedBlockMatrix((2,), (2,), np.eye(2)).to_json(), "entries": data}
        f = write_json(tmp_path / "m.json", data)
        assert dispatch(command + [f]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert err["error"].startswith("entry (1,2) is not finite")

    def test_non_finite_representation_entry(self, tmp_path, capsys):
        # named by arrow and its own cell, not by the cell of the packed
        # matrix; before, realify, which reduces nothing, exited 0 and wrote NaN
        data = Representation(KRONECKER, (2, 2), {"a": np.eye(2), "b": np.ones((2, 2))}).to_json()
        data["matrices"]["a"][1][1] = [float("nan"), 0.0]
        f = write_json(tmp_path / "rep.json", data)
        for command in ("canon-rep", "realify"):
            assert dispatch([command, f]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["type"] == "ValueError"
            assert err["error"].startswith("arrow a: entry (2,2) is not finite")

    def test_invalid_representation(self, tmp_path, capsys):
        # the matrix of arrow a must be 1 x 2 for dims (2, 1)
        data = Representation(SINGLE_ARROW, (2, 1), {"a": [[3.0, 0.0]]}).to_json()
        data["matrices"]["a"] = [[[1.0, 0.0]]]
        f = write_json(tmp_path / "rep.json", data)
        assert dispatch(["canon-rep", f]) == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_transposed_representation_matrix(self, tmp_path, capsys):
        # a 2 x 1 matrix for a 1 x 2 arrow is rejected, not read row by row
        data = Representation(SINGLE_ARROW, (2, 1), {"a": [[3.0, 0.0]]}).to_json()
        data["matrices"]["a"] = [[[3.0, 0.0]], [[0.0, 0.0]]]
        f = write_json(tmp_path / "rep.json", data)
        assert dispatch(["canon-rep", f]) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "DimMismatchError"

    def test_transposed_mbm_entries(self, tmp_path, capsys):
        data = {"row_strips": [4], "col_strips": [3], "entries": cmat(np.arange(12).reshape(3, 4))}
        f = write_json(tmp_path / "m.json", data)
        assert dispatch(["canon-mbm", f]) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "DimensionMismatchError"

    def test_invalid_quiver(self, tmp_path, capsys):
        data = {"vertices": 2, "arrows": [{"id": "a", "src": 1, "dst": 3}]}
        f = write_json(tmp_path / "q.json", data)
        assert dispatch(["dims", "--bound", "2", f]) == 2
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command",
        (["canon-matrix", "--mode", "simil"], ["canon-matrix", "--mode", "equiv"],
         ["gadget", "--kind", "Nilpotent3"]),
        ids=("simil", "equiv", "gadget"),
    )
    @pytest.mark.parametrize(
        "content", [7, {"entries": 7}, "text", {"dims": [1]}, [], [[1, 2], [3]]],
        ids=["number", "number-entries", "string", "missing-keys", "no-rows", "ragged"],
    )
    def test_matrix_wrong_structure(self, tmp_path, capsys, command, content):
        f = write_json(tmp_path / "x.json", content)
        assert dispatch(command + [f]) == 65
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "zone",
        ({"cells": [[5, 5]], "stairs": []}, {"cells": [[0, 1]], "stairs": []},
         {"cells": [[1, 1]], "stairs": [[[1, 1], [3, 2]]]}),
        ids=("cell-beyond", "cell-zero", "stair-beyond"),
    )
    def test_scheme_cell_outside_symbols(self, tmp_path, capsys, zone):
        data = {
            "symbols": [[".", "o"], [".", "."]],
            "zones": [{"depth": 0, "kind": "equivalence", "block": [0, 2, 0, 2], **zone}],
            "row_strips": [2],
            "col_strips": [2],
        }
        f = write_json(tmp_path / "s.json", data)
        assert dispatch(["fill-scheme", f]) == 2
        assert "outside" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "link", ([[1, 2], [3, 3]], [[2, 2], [2, 2]], [[1, 1], [2, 2], [1, 2]]),
        ids=("outside", "to-itself", "three-cells"),
    )
    def test_scheme_bad_link(self, tmp_path, capsys, link):
        data = {"symbols": [["o", "o"], [".", "o"]], "links": [link], "zones": [],
                "row_strips": [2], "col_strips": [2]}
        f = write_json(tmp_path / "s.json", data)
        assert dispatch(["fill-scheme", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not two distinct cells" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("data, message", MALFORMED_SCHEMES)
    def test_scheme_malformed_zone_or_symbol(self, tmp_path, capsys, data, message):
        # before: fill-scheme filled a zone of kind "bogus" as a similarity
        # zone and exited 0
        f = write_json(tmp_path / "s.json", data)
        assert dispatch(["fill-scheme", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["type"] == "ValueError" and err["error"].startswith(message)

    @pytest.mark.parametrize(
        "command, extra",
        ((["fill-scheme"], {"links": [[[1], [2, 2]]]}),
         (["fill-scheme"], {"zones": [{"depth": 0, "kind": "equivalence", "block": [0, 2, 0, 2],
                                       "cells": [[1]], "stairs": []}]}),
         (["fill-scheme"], {"marked": [[1]]}),
         (["canon-mbm"], {"marked": [[1]]})),
        ids=("scheme-link", "scheme-zone", "scheme-mark", "mbm-mark"),
    )
    def test_cell_not_a_pair(self, tmp_path, capsys, command, extra):
        base = example_8x12().to_json() if command == ["canon-mbm"] else {
            "symbols": [["o", "o"], [".", "o"]], "zones": [],
            "row_strips": [2], "col_strips": [2]}
        f = write_json(tmp_path / "x.json", {**base, **extra})
        assert dispatch(command + [f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[1] is not a [row, col] pair" in json.loads(captured.err)["error"]

    def test_certification_error(self, matrix_file, capsys, monkeypatch):
        monkeypatch.setattr(mbm, "simil_step", not_reducing_step)
        assert dispatch(["canon-matrix", "--mode", "simil", matrix_file]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["type"] == "CertificationError"

    def test_equiv_certification_error(self, matrix_file, capsys, monkeypatch):
        # representatives 10 % off the singular values: the transcript no
        # longer maps the input onto the form
        def shifted(vals, tol):
            return [(1.1 * rep, members) for rep, members in cluster_complex(vals, tol)]

        monkeypatch.setattr(mbm, "cluster_complex", shifted)
        assert dispatch(["canon-matrix", "--mode", "equiv", matrix_file]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["type"] == "CertificationError"

    @pytest.mark.parametrize("mode", ("equiv", "simil"))
    def test_zero_tolerance(self, tmp_path, capsys, mode):
        # a zero bound, which the rounding errors of any reduction exceed
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f = write_json(tmp_path / "m.json", cmat(A))
        assert dispatch(["--tol", "0", "canon-matrix", "--mode", mode, f]) == 70
        assert capsys.readouterr().out == ""

    def test_success(self, matrix_file):
        assert dispatch(["canon-matrix", "--mode", "equiv", matrix_file]) == 0

    @pytest.mark.parametrize("argv", (["--help"], ["canon-matrix", "--help"]), ids=("program", "command"))
    def test_help(self, argv, capsys):
        assert dispatch(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: unicanon")
        assert captured.err == ""

    @pytest.mark.parametrize("value", ("inf", "nan", "-1"))
    def test_tolerance_not_finite_or_negative(self, tmp_path, capsys, value):
        # a generic matrix, whose form an infinite tolerance would turn into mean(diag) * I
        rng = np.random.default_rng(12)
        f = write_json(tmp_path / "m.json", cmat(rng.standard_normal((12, 12))))
        assert dispatch(["--tol", value, "canon-matrix", "--mode", "simil", f]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "layout",
        ({"row_strips": [3], "col_strips": [2]},
         {"row_strips": [2], "col_strips": [2], "marked": [[1, 2]]}),
        ids=("strip-sum", "mark-beyond"),
    )
    def test_scheme_strips_do_not_fit_symbols(self, tmp_path, capsys, layout):
        data = {"symbols": [[".", "o"], [".", "."]], "zones": [], **layout}
        f = write_json(tmp_path / "s.json", data)
        assert dispatch(["fill-scheme", f]) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "DimensionMismatchError"

    @pytest.mark.parametrize(
        "command, data",
        ((["fill-scheme"], {"symbols": [["o", "o"], [".", "o"]], "zones": [],
                            "row_strips": [3, -1], "col_strips": [2]}),
         (["canon-mbm"], {"row_strips": [3, -1], "col_strips": [2],
                          "entries": cmat(np.ones((2, 2)))})),
        ids=("fill-scheme", "canon-mbm"),
    )
    def test_negative_strip(self, tmp_path, capsys, command, data):
        # before: fill-scheme exited 0 and wrote the strips back out
        f = write_json(tmp_path / "x.json", data)
        assert dispatch(command + [f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["type"] == "DimensionMismatchError"
        assert err["error"] == "row strips (3, -1): a strip size is negative"

    @pytest.mark.parametrize("command", (["canon-rep"], ["decompose"], ["real-type"]), ids=lambda c: c[0])
    def test_negative_dim(self, tmp_path, capsys, command):
        # before: exit 2 with numpy's "repeats may not contain negative values"
        data = {"quiver": Quiver(2, []).to_json(), "dims": [2, -1], "matrices": {}}
        f = write_json(tmp_path / "rep.json", data)
        assert dispatch(command + [f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["type"] == "DimMismatchError"
        assert err["error"] == "dims (2, -1): a dimension is negative"

    @pytest.mark.parametrize(
        "command, data, error",
        ((["canon-rep"], {"quiver": SINGLE_ARROW.to_json(), "dims": [1.9, 1],
                          "matrices": {"a": [[1.0]]}}, "DimMismatchError"),
         (["canon-mbm"], {"row_strips": [1.5, 0.5], "col_strips": [2],
                          "entries": cmat(np.eye(2))}, "DimensionMismatchError"),
         (["fill-scheme"], {"symbols": [["o", "."], [".", "o"]], "zones": [],
                            "row_strips": [1.5, 0.5], "col_strips": [2]}, "DimensionMismatchError"),
         (["dims", "--bound", "2"], {"vertices": 2.5, "arrows": []}, "ValueError"),
         (["dims", "--bound", "2"], {"vertices": 2, "arrows": [{"id": "a", "src": 1.7, "dst": 2}]},
          "ValueError"),
         (["canon-mbm"], {"row_strips": [1, 1], "col_strips": [1, 1], "marked": [[1.0, 1]],
                          "entries": cmat(np.eye(2))}, "ValueError"),
         (["fill-scheme"], {"symbols": [["o", "."], [".", "o"]], "zones": [],
                            "links": [[[1, 1.0], [2, 2]]], "row_strips": [2], "col_strips": [2]},
          "ValueError")),
        ids=("canon-rep", "canon-mbm", "fill-scheme", "vertices", "endpoint", "mbm-mark",
             "scheme-link"),
    )
    def test_non_integer_size(self, tmp_path, capsys, command, data, error):
        # before: canon-rep exited 0 and wrote "dims": [1, 1]; canon-mbm
        # exited 65 with a TypeError; dims truncated 2.5 vertices and the
        # endpoint 1.7 to integers
        f = write_json(tmp_path / "x.json", data)
        assert dispatch(command + [f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["type"] == error
        assert err["error"].endswith(": a value is not an integer")

    def test_mbm_unknown_key(self, tmp_path, capsys):
        # "marks" is not the key of the marked blocks; it must not be ignored
        data = example_8x12().to_json()
        data["marks"] = data.pop("marked")
        f = write_json(tmp_path / "mbm.json", data)
        assert dispatch(["canon-mbm", f]) == 65
        assert "marks" in json.loads(capsys.readouterr().err)["error"]


class TestCanonMatrix:
    def read_matrix(self, capsys):
        out = json.loads(capsys.readouterr().out)
        return np.array(
            [[complex(p[0], p[1]) for p in row] for row in out["matrix"]]
        )

    def test_equiv(self, matrix_file, capsys):
        dispatch(["canon-matrix", "--mode", "equiv", matrix_file])
        M = self.read_matrix(capsys)
        s = np.linalg.svd([[1, 3], [0, 2]], compute_uv=False)
        assert np.allclose(np.diagonal(M), s, atol=1e-9)

    def test_simil(self, matrix_file, capsys):
        dispatch(["canon-matrix", "--mode", "simil", matrix_file])
        M = self.read_matrix(capsys)
        assert np.allclose(M, [[2, 3], [0, 1]], atol=1e-7)

    def test_transcript_file(self, matrix_file, tmp_path, capsys):
        tfile = tmp_path / "t.json"
        dispatch(
            [
                "--transcript",
                str(tfile),
                "canon-matrix",
                "--mode",
                "simil",
                matrix_file,
            ]
        )
        M = self.read_matrix(capsys)
        T = json.loads(tfile.read_text())
        S = np.array(
            [[complex(p[0], p[1]) for p in row] for row in T["S"][0]]
        )
        A = np.array([[1, 3], [0, 2]], dtype=complex)
        assert np.abs(S.conj().T @ A @ S - M).max() < 1e-7

    def test_equiv_transcript_file(self, tmp_path, capsys):
        A = np.arange(6.0).reshape(2, 3) + 1j
        tfile = tmp_path / "t.json"
        f = write_json(tmp_path / "m.json", cmat(A))
        dispatch(["--transcript", str(tfile), "canon-matrix", "--mode", "equiv", f])
        M = self.read_matrix(capsys)
        T = json.loads(tfile.read_text())
        # one matrix each, not per-strip lists
        assert set(T) == {"R", "S"}
        R, S = (np.array([[complex(*p) for p in row] for row in T[k]]) for k in "RS")
        assert R.shape == (2, 2) and S.shape == (3, 3)
        assert np.abs(R.conj().T @ A @ S - M).max() < 1e-9


class TestMbmAndScheme:
    def test_canon_mbm(self, mbm_file, capsys):
        assert dispatch(["canon-mbm", mbm_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(z["depth"] for z in out["zones"]) == [
            0, 1, 2, 3, 3, 4, 5, 6, 7, 7,
        ]

    def test_scheme_ascii_default(self, mbm_file, capsys):
        assert dispatch(["scheme", mbm_file]) == 0
        text = capsys.readouterr().out
        assert text.count("*") == 12

    def test_scheme_json(self, mbm_file, capsys):
        assert dispatch(["--format", "json", "scheme", mbm_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert sum(row.count("*") for row in out["symbols"]) == 12

    def test_fill_scheme_roundtrip(self, mbm_file, tmp_path, capsys):
        sfile = tmp_path / "s.json"
        assert (
            dispatch(
                ["--format", "json", "--out", str(sfile), "scheme", mbm_file]
            )
            == 0
        )
        assert dispatch(["--seed", "5", "fill-scheme", str(sfile)]) == 0
        out = json.loads(capsys.readouterr().out)
        F = MarkedBlockMatrix.from_json(out)
        assert F.entries.shape == (8, 12)

    def test_fill_scheme_without_rows(self, tmp_path, capsys):
        # the README pipeline ``scheme --format json | fill-scheme`` on a
        # matrix with no rows; before: exit 2, "entries shape (0, 0) does
        # not match strips (0,) x (2,)"
        f = write_json(tmp_path / "m.json", {"row_strips": [0], "col_strips": [2], "entries": []})
        assert dispatch(["--format", "json", "scheme", f]) == 0
        sfile = tmp_path / "s.json"
        sfile.write_text(capsys.readouterr().out)
        assert dispatch(["fill-scheme", str(sfile)]) == 0
        F = MarkedBlockMatrix.from_json(json.loads(capsys.readouterr().out))
        assert (F.row_strips, F.col_strips, F.entries.shape) == ((0,), (2,), (0, 2))

    def test_canon_mbm_transcript(self, mbm_file, tmp_path, capsys):
        # the written unitaries map the input onto the printed form within
        # the certificate bound
        tfile = tmp_path / "t.json"
        assert dispatch(["--transcript", str(tfile), "canon-mbm", mbm_file]) == 0
        C = MarkedBlockMatrix.from_json(json.loads(capsys.readouterr().out)["canonical"])
        T = json.loads(tfile.read_text())
        T = mbm.Transcript(tuple(map(matrix_from_json, T["R"])), tuple(map(matrix_from_json, T["S"])))
        A = example_8x12()
        resid = np.linalg.norm(mbm.apply_admissible(A, T).entries - C.entries)
        assert resid <= Tolerance().bound(A.entries)

    def test_fill_deterministic_seed(self, mbm_file, tmp_path, capsys):
        sfile = tmp_path / "s.json"
        dispatch(["--format", "json", "--out", str(sfile), "scheme", mbm_file])
        outs = []
        for _ in range(2):
            dispatch(["--seed", "7", "fill-scheme", str(sfile)])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_decompose_mbm(self, tmp_path, capsys):
        M = MarkedBlockMatrix((2,), (2,), np.diag([2.0, 1.0]))
        f = write_json(tmp_path / "d.json", M.to_json())
        assert dispatch(["decompose", f]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["summands"]) == 2


class TestPlainNumberEntries:
    """Plain numbers stand for real entries in every matrix of every file."""

    @staticmethod
    def plain(entries):
        return [[p[0] for p in row] for row in entries]

    def outputs(self, tmp_path, capsys, command, data, plain):
        dispatch([command, write_json(tmp_path / "pairs.json", data)])
        want = capsys.readouterr().out
        assert dispatch([command, write_json(tmp_path / "plain.json", plain)]) == 0
        assert capsys.readouterr().out == want

    def test_mbm(self, tmp_path, capsys):
        M = MarkedBlockMatrix((2,), (2, 1), [[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]], {(0, 0)})
        data = M.to_json()
        plain = dict(data, entries=self.plain(data["entries"]))
        self.outputs(tmp_path, capsys, "canon-mbm", data, plain)

    def test_representation(self, tmp_path, capsys):
        A = Representation(KRONECKER, (2, 3), {"a": np.arange(6.0).reshape(3, 2),
                                               "b": np.eye(3, 2)})
        data = A.to_json()
        plain = dict(data, matrices={a: self.plain(m) for a, m in data["matrices"].items()})
        self.outputs(tmp_path, capsys, "canon-rep", data, plain)


class TestRepCommands:
    def test_canon_rep(self, rep_file, capsys):
        assert dispatch(["canon-rep", rep_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "canonical" in out and "a" in out["schemes"]

    def test_isometric_self(self, rep_file):
        assert dispatch(["isometric", rep_file, rep_file]) == 0

    def test_isometric_verdict(self, rep_file, capsys):
        dispatch(["isometric", rep_file, rep_file])
        assert json.loads(capsys.readouterr().out)["isometric"] is True

    def test_isometric_transcript(self, tmp_path, capsys):
        # a True answer writes the isometry T per vertex, as canon-rep writes
        # S, with T_d A_a = B_a T_s
        A = random_rep(KRONECKER, (2, 3), seed=6)
        B = apply_isometry(A, Isometry(tuple(random_unitary(d, seed=k) for k, d in enumerate(A.dims))))
        tfile = tmp_path / "t.json"
        files = [write_json(tmp_path / f"{x}.json", R.to_json()) for x, R in (("a", A), ("b", B))]
        assert dispatch(["--transcript", str(tfile), "isometric", *files]) == 0
        assert json.loads(capsys.readouterr().out)["isometric"] is True
        T = Isometry(tuple(matrix_from_json(m) for m in json.loads(tfile.read_text())["S"]))
        assert [U.shape for U in T.S] == [(2, 2), (3, 3)]
        C = apply_isometry(A, T)
        assert all(np.abs(C.matrices[a] - B.matrices[a]).max() < 1e-12 for a in "ab")

    def test_isometric_transcript_only_when_true(self, tmp_path, capsys):
        A = random_rep(KRONECKER, (2, 3), seed=6)
        B = Representation(KRONECKER, (2, 3), {**A.matrices, "a": 1.5 * A.matrices["a"]})
        tfile = tmp_path / "t.json"
        files = [write_json(tmp_path / f"{x}.json", R.to_json()) for x, R in (("a", A), ("b", B))]
        assert dispatch(["--transcript", str(tfile), "isometric", *files]) == 0
        assert json.loads(capsys.readouterr().out)["isometric"] is False
        assert not tfile.exists()

    def test_isometric_transcript_certification_error(self, rep_file, tmp_path, capsys, monkeypatch):
        # A's transcript with the first vertex's unitary negated: the isometry
        # composed from it does not map A onto B, and is not written: exit 70
        batch = mbm._canonicalize_batch

        def corrupted(Ms, tol):
            (C, T, trace), *rest = batch(Ms, tol)
            return [(C, mbm.Transcript(T.R, (-T.S[0], *T.S[1:])), trace), *rest]

        monkeypatch.setattr(mbm, "_canonicalize_batch", corrupted)
        tfile = tmp_path / "t.json"
        assert dispatch(["--transcript", str(tfile), "isometric", rep_file, rep_file]) == 70
        captured = capsys.readouterr()
        assert captured.out == "" and not tfile.exists()
        assert json.loads(captured.err)["type"] == "CertificationError"

    def test_canon_rep_transcript(self, tmp_path, capsys):
        # the written isometry maps the input onto the printed form within
        # the certificate bound of the input's packing
        A = random_rep(KRONECKER, (2, 3), seed=4)
        f = write_json(tmp_path / "rep.json", A.to_json())
        tfile = tmp_path / "t.json"
        assert dispatch(["--transcript", str(tfile), "canon-rep", f]) == 0
        C = Representation.from_json(json.loads(capsys.readouterr().out)["canonical"])
        T = Isometry(tuple(matrix_from_json(S) for S in json.loads(tfile.read_text())["S"]))
        resid, limit = qr._residual(A, C, T, qr.pack(A), Tolerance())
        assert resid <= limit

    def test_decompose_rep(self, rep_file, capsys):
        assert dispatch(["decompose", rep_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all("representation" in s for s in out["summands"])

    def test_realify(self, rep_file, capsys):
        assert dispatch(["realify", rep_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dims"] == [4, 2]

    def test_real_type(self, tmp_path, capsys):
        loop = Quiver(1, [("a", 1, 1)])
        A = Representation(loop, (1,), {"a": [[1j]]})
        f = write_json(tmp_path / "i.json", A.to_json())
        assert dispatch(["real-type", f]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "Complex"

    @pytest.mark.parametrize("kind", ("Real", "Quaternionic"))
    def test_real_type_form(self, tmp_path, capsys, kind):
        # a real-type loop, and two quaternionic loops [[x, y], [-conj(y), conj(x)]]
        if kind == "Real":
            A = Representation(Quiver(1, [("a", 1, 1)]), (2,), {"a": [[1j, 1.0], [0.0, -1j]]})
        else:
            mats = {"a": [[1 + 2j, 0.5 - 1j], [-0.5 - 1j, 1 - 2j]],
                    "b": [[-0.3 + 1j, 2 + 0.5j], [-2 + 0.5j, -0.3 - 1j]]}
            A = Representation(Quiver(1, [("a", 1, 1), ("b", 1, 1)]), (2,), mats)
        f = write_json(tmp_path / "r.json", A.to_json())
        assert dispatch(["real-type", f]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["lambda"]) == (kind, 1 if kind == "Real" else -1)
        form = Representation.from_json(out["form"])
        assert isometric(A, form)
        for M in form.matrices.values():
            if kind == "Real":
                assert np.abs(M.imag).max() <= 1e-12
            else:  # the quaternionic block shape, with 1x1 blocks
                assert np.allclose(M[1:, :1], -M[:1, 1:].conj()) and np.allclose(M[1, 1], M[0, 0].conj())

    def test_real_type_zero_dims(self, tmp_path, capsys):
        # before: exit 0 with kind "Real"
        A = Representation(Quiver(1, [("a", 1, 1)]), (0,), {"a": np.zeros((0, 0))})
        f = write_json(tmp_path / "z.json", A.to_json())
        assert dispatch(["real-type", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["type"] == "ZeroDimError"

    def test_decompose_real(self, tmp_path, capsys):
        loop = Quiver(1, [("a", 1, 1)])
        A = Representation(loop, (2,), {"a": [[0.0, 1.0], [-1.0, 0.0]]})
        f = write_json(tmp_path / "r.json", A.to_json())
        assert dispatch(["decompose-real", f]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["summands"]) == 1


class TestDimCommands:
    def test_dims(self, quiver_file, capsys):
        assert dispatch(["dims", "--bound", "2", quiver_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vecs = {tuple(json.loads(l)) for l in lines}
        # component sums bounded by 2
        assert vecs == {(0, 1), (1, 0), (1, 1)}

    def test_params(self, quiver_file, capsys):
        assert dispatch(["params", "--d", "1,1", quiver_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"real", "complex"}

    def test_params_rejects_non_member(self, quiver_file, capsys):
        assert dispatch(["params", "--d", "1,3", quiver_file]) == 2

    def test_construct(self, quiver_file, capsys):
        assert dispatch(["--seed", "3", "construct", "--d", "1,1", quiver_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dims"] == [1, 1]

    @pytest.mark.parametrize("command", [["dims", "--bound", "3"], ["params", "--d", "1"]])
    def test_negative_vertex_count(self, tmp_path, capsys, command):
        # before: dims printed nothing and exited 0, params reported "expected length -2"
        f = write_json(tmp_path / "q.json", {"vertices": -2, "arrows": []})
        assert dispatch([*command, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "vertices -2: the count is negative",
                                            "type": "ValueError"}

    @pytest.mark.parametrize("command", [["dims", "--bound", "x"], ["params", "--d", "1,x"]],
                             ids=("dims", "params"))
    def test_argument_not_an_integer(self, quiver_file, capsys, command):
        assert dispatch([*command, quiver_file]) == 65
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in json.loads(captured.err)

    def test_construct_deterministic(self, quiver_file, capsys):
        outs = []
        for _ in range(2):
            dispatch(["--seed", "3", "construct", "--d", "2,2", quiver_file])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestGadget:
    def test_single_input(self, tmp_path, capsys):
        f = write_json(tmp_path / "x.json", cmat([[0.0]]))
        assert dispatch(["gadget", "--kind", "Nilpotent3", f]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "gadget" in out and "faithful" not in out

    def test_faithful_verdict(self, tmp_path, capsys):
        f1 = write_json(tmp_path / "x.json", cmat([[1.0]]))
        f2 = write_json(tmp_path / "y.json", cmat([[2.0]]))
        assert (
            dispatch(
                ["gadget", "--kind", "ProjectorPair", f1, "--in2", f2]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["faithful"] is False

    @pytest.mark.parametrize(
        "kind", ["Nilpotent3", "ProjectorPair", "SquareZeroPair", "ArrowPair", "SubspaceTriple"])
    def test_non_finite_entry(self, tmp_path, capsys, kind):
        # before: without --in2 nothing is reduced, so every kind exited 0 and wrote NaN
        f = write_json(tmp_path / "x.json", cmat([[1.0, float("nan")], [0.0, 2.0]]))
        assert dispatch(["gadget", "--kind", kind, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        # the cell of X, as canon-matrix names it, not a cell of the gadget
        assert err["type"] == "ValueError" and err["error"].startswith("entry (1,2) is not finite")

    def test_unknown_kind(self, tmp_path, capsys):
        f = write_json(tmp_path / "x.json", cmat([[1.0]]))
        assert dispatch(["gadget", "--kind", "nope", f]) == 2

    def test_size_mismatch(self, tmp_path, capsys):
        # before: exit 0 with "faithful": false for SubspaceTriple only
        f1 = write_json(tmp_path / "x.json", cmat(np.eye(2)))
        f2 = write_json(tmp_path / "y.json", cmat(np.eye(3)))
        assert dispatch(["gadget", "--kind", "SubspaceTriple", f1, "--in2", f2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["type"] == "ShapeMismatchError"


class TestOutFile:
    def test_out_writes_file(self, matrix_file, tmp_path, capsys):
        ofile = tmp_path / "out.json"
        assert (
            dispatch(
                [
                    "--out",
                    str(ofile),
                    "canon-matrix",
                    "--mode",
                    "equiv",
                    matrix_file,
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == ""
        assert "matrix" in json.loads(ofile.read_text())
