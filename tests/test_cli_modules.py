"""Each CLI subcommand loads only the package modules it runs.

Every case starts a fresh interpreter, so what other tests imported does not
count, and compares the ``unicanon`` modules it loaded with the list its
command needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unicanon.cli import dispatch
from unicanon.quiverrep import Quiver, Representation, random_rep

from conftest import KRONECKER, example_8x12

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENGINE = {"unicanon", "unicanon.cli", "unicanon.mbm", "unicanon.numcore"}
REPS = ENGINE | {"unicanon.quiverrep", "unicanon.scheme"}

# runs dispatch on its arguments, then prints the exit code and the modules
DISPATCH = """
import json, sys
from unicanon.cli import dispatch
code = dispatch(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def python(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_canon_matrix_as_main(tmp_path):
    # python -m runs the CLI as __main__; -X importtime lists every module it imports
    f = write(tmp_path / "m.json", [[[1.0, 0.0], [3.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])
    child = python(["-X", "importtime", "-m", "unicanon.cli", "canon-matrix", "--mode", "simil", f], tmp_path)
    assert child.returncode == 0
    assert "matrix" in json.loads(child.stdout)
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in child.stderr.splitlines() if line.startswith("import time:")
    }
    assert {m for m in imported if m.split(".")[0] == "unicanon"} == ENGINE - {"unicanon.cli"}


@pytest.mark.parametrize(
    "command, modules",
    [
        (["canon-rep", "rep"], REPS),
        (["dims", "--bound", "3", "quiver"], REPS | {"unicanon.dims"}),
        (["real-type", "rep"], REPS | {"unicanon.euclid"}),
        (["gadget", "--kind", "Nilpotent3", "matrix"], REPS | {"unicanon.wildness"}),
    ],
    ids=("canon-rep", "dims", "real-type", "gadget"),
)
def test_dispatch_loads(tmp_path, command, modules):
    files = {
        "rep": write(tmp_path / "rep.json", Representation(KRONECKER, (1, 2), {
            "a": [[1.0], [2.0]], "b": [[0.0], [1.0]]}).to_json()),
        "quiver": write(tmp_path / "q.json", Quiver(2, [("a", 1, 2)]).to_json()),
        "matrix": write(tmp_path / "x.json", [[0.5, 1.0], [0.0, 2.0]]),
    }
    argv = ["--out", str(tmp_path / "out.txt")] + [files.get(a, a) for a in command]
    child = python(["-c", DISPATCH, *argv], tmp_path)
    code, loaded = json.loads(child.stdout)
    assert code == 0, child.stderr
    assert {m for m in loaded if m.split(".")[0] == "unicanon"} == modules


@pytest.mark.parametrize("command", ["canon-mbm", "scheme", "canon-rep"])
def test_reduction_loads_no_numpy_ma(tmp_path, merges, command):
    # np.union1d, np.unique, np.setdiff1d and np.intersect1d import numpy.ma
    # on their first call, about 30 ms of CPU and 1 MB of peak RSS per process
    if command == "canon-rep":  # zero-one entries: Kronecker's b holds merge candidates
        A = random_rep(KRONECKER, (3, 3), seed=0)
        data = Representation(A.quiver, A.dims, {a: (X.real > 0) + 0j for a, X in A.matrices.items()}).to_json()
    else:  # trace.zones, the whole matrix
        data = example_8x12().to_json()
    argv = ["--out", str(tmp_path / "out.txt"), command, write(tmp_path / "in.json", data)]
    assert dispatch(argv) == 0 and merges  # it reads a rectangle that holds merge candidates
    child = python(["-c", DISPATCH, *argv], tmp_path)
    code, loaded = json.loads(child.stdout)
    assert code == 0, child.stderr
    assert "numpy.ma" not in loaded


def test_isometric_loads_no_numpy_ma(tmp_path):
    # the invariants of both pairs are compared; the first pair is then
    # reduced, the second is rejected without a reduction
    rng = np.random.default_rng(0)
    A = Representation(KRONECKER, (3, 3), {
        a: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for a in "ab"})
    B = Representation(KRONECKER, (3, 3), {**A.matrices, "a": 1.5 * A.matrices["a"]})
    fa, fb = write(tmp_path / "a.json", A.to_json()), write(tmp_path / "b.json", B.to_json())
    script = DISPATCH.replace("code = dispatch(sys.argv[1:])", "out, a, b = sys.argv[1:]\n"
                              "code = dispatch(['--out', out, 'isometric', a, a]) or "
                              "dispatch(['--out', out, 'isometric', a, b])")
    child = python(["-c", script, str(tmp_path / "out.txt"), fa, fb], tmp_path)
    code, loaded = json.loads(child.stdout)
    assert code == 0, child.stderr
    assert "numpy.ma" not in loaded
