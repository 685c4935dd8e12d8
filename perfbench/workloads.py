"""The benchmark's workloads: seeded inputs, operations and their checks.

A run of a workload is a sequence of *rounds*.  Round r under seed s draws
its inputs from ``numpy.random.default_rng([s, r])`` and always holds the
same mix of cases, so every round does the same kinds of work on fresh
inputs.  Inputs are made with numpy alone; the program only receives them.
Each operation is one closed-loop call of public unicanon API (never a
private name such as ``simil_step``), and its check runs after the timed
interval (see ``oracle.py``).

Cases that come as a pair run an input and a Haar-scrambled copy of it: both
outputs are certified and the copy's canonical form must equal the first.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from oracle import WrongAnswer, require

from unicanon import cli, dims, euclid, mbm, wildness
from unicanon import quiverrep as qr
from unicanon.mbm import MarkedBlockMatrix
from unicanon.quiverrep import Quiver, Representation

KRONECKER = Quiver(2, [("a", 1, 2), ("b", 1, 2)])
D4 = Quiver(4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)])
TWO_LOOPS = Quiver(1, [("a", 1, 1), ("b", 1, 1)])
LOOP_ARROW = Quiver(2, [("l", 1, 1), ("x", 1, 2)])
TWO_ARROWS_IN = Quiver(3, [("a", 1, 2), ("b", 3, 2)])
QUIVER_NAMES = {
    KRONECKER: "kronecker",
    D4: "d4",
    TWO_LOOPS: "two-loops",
    LOOP_ARROW: "loop-arrow",
    TWO_ARROWS_IN: "two-arrows-in",
}

SCALES = (1e-3, 1.0, 1e3)

# similarity cases: every kind and scale at these sizes; at n=48 one input of
# each kind at scale 1, because one generic n=48 reduction costs about a third
# of all smaller cases together.  The generic n=12 cases also keep the 90th
# percentile of simil-loops inside one class of operations, off the edge
# between two.
SIMIL_SIZES = (8, 12, 16, 32)
SIMIL_LARGE = 48
SIMIL_LARGE_KINDS = ("complex", "jordan", "normal")
MATRIX_KINDS = ("complex", "real", "jordan", "normal")
LOOP_REPS = ((TWO_LOOPS, (4,)), (TWO_LOOPS, (8,)), (LOOP_ARROW, (3, 2)), (LOOP_ARROW, (4, 3)), (LOOP_ARROW, (8, 5)))


def simil_wrong_today(n, kind, scale):
    """Similarity cases on which the program returns a transcript that does
    not reproduce its form (ROADMAP item 1), always or on some seeds: every
    input at scale 1e-3, every Jordan input, and every generic input from
    n=16.  They run in ``simil-defects``."""
    return scale < 1 or kind == "jordan" or (kind != "normal" and n >= 16)


def loop_wrong_today(d, scale):
    """Loop representations with the same defect: total dimension 8 or more
    at scale 1e-3."""
    return scale < 1 and sum(d) >= 8


# acyclic-pack: packed MBMs up to 48 x 48; scale k % 3 for the k-th case.
ACYCLIC = (
    (KRONECKER, (8, 8)),
    (KRONECKER, (12, 12)),
    (KRONECKER, (16, 16)),
    (KRONECKER, (24, 24)),
    (D4, (2, 2, 2, 4)),
    (D4, (4, 4, 4, 8)),
    (D4, (6, 6, 6, 12)),
)

# small-reps: total dimension <= 12 throughout.
CONSTRUCT = (
    (KRONECKER, (2, 3)),
    (KRONECKER, (3, 3)),
    (D4, (1, 1, 1, 2)),
    (D4, (2, 2, 2, 3)),
    (TWO_LOOPS, (3,)),
    (TWO_LOOPS, (4,)),
    (TWO_ARROWS_IN, (1, 2, 1)),
    (TWO_ARROWS_IN, (2, 3, 1)),
)
# P + P + Q with P, Q indecomposable of different dimension vectors
DECOMPOSE = (
    (KRONECKER, (1, 2), (2, 2)),
    (D4, (1, 1, 0, 1), (1, 1, 1, 2)),
    (TWO_LOOPS, (2,), (3,)),
    (TWO_ARROWS_IN, (1, 1, 1), (1, 2, 1)),
)
ISOMETRIC = ((KRONECKER, (3, 3)), (D4, (2, 2, 2, 3)), (TWO_LOOPS, (3,)), (TWO_ARROWS_IN, (2, 3, 1)))
REAL_TYPE = ((KRONECKER, (2, 3)), (D4, (1, 1, 1, 2)), (TWO_LOOPS, (3,)), (TWO_ARROWS_IN, (1, 2, 1)))
COMPLEX_TYPE = ((KRONECKER, (2, 2)), (TWO_LOOPS, (2,)))
QUATERNIONIC_DIM = 4  # two loops, complex form of a pair of 2 x 2 quaternion matrices
# R + R + realification of C, with R real-type and C complex-type
DECOMPOSE_REAL = ((KRONECKER, (1, 2), (1, 1)), (TWO_LOOPS, (2,), (2,)))
GADGET_N = 4
ENUMERATE = ((KRONECKER, 8), (D4, 6), (TWO_LOOPS, 6), (TWO_ARROWS_IN, 6))


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` raises on a wrong output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


# ---------------------------------------------------------------------------
# inputs (numpy only)


def gaussian(rng, shape, real=False):
    X = rng.standard_normal(shape)
    return X + 0j if real else X + 1j * rng.standard_normal(shape)


def random_rep(Q, d, rng, scale=1.0, real=False):
    mats = {a: scale * gaussian(rng, (d[t - 1], d[s - 1]), real) for a, s, t in Q.arrows}
    return Representation(Q, d, mats)


def transform_rep(A, U):
    mats = {a: U[t - 1] @ X @ U[s - 1].conj().T for (a, s, t), X in zip(A.quiver.arrows, A.matrices.values())}
    return Representation(A.quiver, A.dims, mats)


def scramble_rep(A, rng, real=False):
    haar = oracle.haar_orthogonal if real else oracle.haar_unitary
    return transform_rep(A, [haar(n, rng) for n in A.dims])


def scale_arrow(A, factor):
    """A copy with the first arrow scaled: its Frobenius norm, an isometry
    invariant, changes, so the copy is not isometric to A."""
    first = A.quiver.arrows[0][0]
    mats = {a: (factor * X if a == first else X) for a, X in A.matrices.items()}
    return Representation(A.quiver, A.dims, mats)


def jordan_sum(n, rng):
    """Haar-scrambled direct sum of Jordan blocks of sizes 1 to 3 over three
    eigenvalues, so eigenvalues repeat within and across blocks."""
    lams = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    J = np.zeros((n, n), dtype=complex)
    i = 0
    while i < n:
        k = min(int(rng.integers(1, 4)), n - i)
        J[i : i + k, i : i + k] = lams[int(rng.integers(0, 3))] * np.eye(k) + np.eye(k, k=1)
        i += k
    U = oracle.haar_unitary(n, rng)
    return U @ J @ U.conj().T


def normal_repeated(n, rng):
    """Haar-scrambled diagonal matrix over four eigenvalues, each repeated:
    a normal matrix with eigenspaces of dimension about n/4."""
    lams = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    U = oracle.haar_unitary(n, rng)
    return (U * lams[rng.integers(0, 4, n)]) @ U.conj().T


def square_matrix(kind, n, rng):
    if kind == "jordan":
        return jordan_sum(n, rng)
    if kind == "normal":
        return normal_repeated(n, rng)
    return gaussian(rng, (n, n), real=(kind == "real"))


def quaternionic_pair(k, rng):
    """Two 2k x 2k matrices [[X, -conj(Y)], [Y, conj(X)]]: each commutes with
    the antiunitary J = [[0, -I], [I, 0]] conj, and J^2 = -1, so the two-loop
    representation is of quaternionic type."""
    mats = {}
    for a in ("a", "b"):
        X, Y = gaussian(rng, (k, k)), gaussian(rng, (k, k))
        mats[a] = np.block([[X, -Y.conj()], [Y, X.conj()]])
    return Representation(TWO_LOOPS, (2 * k,), mats)


def realification(A):
    """Real representation of twice the dimension: X -> [[Re X, -Im X], [Im X, Re X]]."""
    mats = {a: np.block([[X.real, -X.imag], [X.imag, X.real]]) + 0j for a, X in A.matrices.items()}
    return Representation(A.quiver, tuple(2 * n for n in A.dims), mats)


def rep_label(Q, d):
    return f"{QUIVER_NAMES[Q]} d={','.join(map(str, d))}"


# ---------------------------------------------------------------------------
# operations


def expect(value):
    """Check of an operation whose answer is known by construction."""
    return lambda got: require(got == value, f"returned {got!r}, expected {value!r}")


def scramble_pair(label, x, y, run, certify, form, scale):
    """Ops for x and its scrambled copy y: both certified, equal forms.

    ``run`` must look the program's function up when called (a lambda), so
    that the traced run sees the tracer's wrapper."""
    seen = {}

    def check_x(res):
        seen["form"] = form(res)
        certify(x, res)

    def check_y(res):
        certify(y, res)
        require("form" in seen, "the unscrambled input has no form to compare with")
        oracle.check_same_form(seen["form"], form(res), scale)

    return [Op(label, lambda: run(x), check_x), Op(label, lambda: run(y), check_y)]


def simil_pair(label, A, rng):
    n = A.shape[0]
    U = oracle.haar_unitary(n, rng)
    mark = frozenset({(0, 0)})
    M = MarkedBlockMatrix((n,), (n,), A, mark)
    Ms = MarkedBlockMatrix((n,), (n,), U @ A @ U.conj().T, mark)
    return scramble_pair(
        label, M, Ms, lambda x: mbm.canonicalize(x), oracle.check_mbm_certificate,
        lambda res: res[0].entries, float(np.linalg.norm(A)),
    )


def rep_pair(label, A, rng):
    form = lambda res: np.concatenate([X.ravel() for X in res[0].matrices.values()])  # noqa: E731
    return scramble_pair(
        label, A, scramble_rep(A, rng), lambda x: qr.rep_canonical(x), oracle.check_rep_certificate,
        form, oracle.rep_norm(A),
    )


def simil_loops(rng, wrong_today=False):
    """The similarity and loop cases the program answers correctly today;
    with ``wrong_today`` the others (the ``simil-defects`` diagnostic)."""
    ops = []
    cases = [(n, kind, scale) for n in SIMIL_SIZES for kind in MATRIX_KINDS for scale in SCALES]
    cases += [(SIMIL_LARGE, kind, 1.0) for kind in SIMIL_LARGE_KINDS]
    for n, kind, scale in cases:
        if simil_wrong_today(n, kind, scale) == wrong_today:
            ops += simil_pair(f"simil n={n} {kind} x{scale:g}", scale * square_matrix(kind, n, rng), rng)
    for Q, d in LOOP_REPS:
        for scale in SCALES:
            if loop_wrong_today(d, scale) == wrong_today:
                ops += rep_pair(f"rep {rep_label(Q, d)} x{scale:g}", random_rep(Q, d, rng, scale), rng)
    return ops


def simil_defects(rng):
    return simil_loops(rng, wrong_today=True)


def acyclic_pack(rng):
    ops = []
    for k, (Q, d) in enumerate(ACYCLIC):
        scale = SCALES[k % len(SCALES)]
        ops += rep_pair(f"rep {rep_label(Q, d)} x{scale:g}", random_rep(Q, d, rng, scale), rng)
    return ops


def construct_op(Q, d, seed):
    def check(R):
        require(tuple(R.dims) == tuple(d), f"constructed dims {R.dims} != {d}")
        oracle.check_indecomposable(R, "constructed representation")

    return Op(f"construct {rep_label(Q, d)}", lambda: dims.construct_indecomposable(Q, d, seed=seed), check)


def decompose_op(Q, dp, dq, rng):
    P, R = random_rep(Q, dp, rng), random_rep(Q, dq, rng)
    S = scramble_rep(oracle.direct_sum(oracle.direct_sum(P, P), R), rng)
    expected = [(P, 2), (R, 1)]
    return Op(
        f"decompose {QUIVER_NAMES[Q]} 2P+Q",
        lambda: qr.decompose_rep(S),
        lambda parts: oracle.check_decomposition(parts, expected),
    )


def isometric_ops(Q, d, rng):
    A = random_rep(Q, d, rng)
    pos = scramble_rep(A, rng)
    neg = scramble_rep(scale_arrow(A, 1.5), rng)

    return [
        Op(f"isometric {rep_label(Q, d)} +", lambda: qr.isometric(A, pos), expect(True)),
        Op(f"isometric {rep_label(Q, d)} -", lambda: qr.isometric(A, neg), expect(False)),
    ]


def params_op(Q, d, rng):
    A = random_rep(Q, d, rng)
    want = oracle.expected_max_params(Q, d)

    def check(got):
        params, maxp = got
        require(tuple(maxp) == want, f"max_params {maxp} != {want}")
        require(tuple(params) == want, f"rep_params {params} != max_params {want}")

    return Op(f"params {rep_label(Q, d)}", lambda: (qr.rep_params(A), dims.max_params(Q, d)), check)


def classify_op(label, A, kind):
    def check(rt):
        require(rt.kind == kind, f"classified {rt.kind}, expected {kind}")
        if kind == "Real":
            require(rt.lam == 1, f"lambda {rt.lam} for a real-type input")
            oracle.check_real_entries(rt.form, "real form")
            oracle.check_isometric(A, rt.form, "input and its real form")
        elif kind == "Quaternionic":
            require(rt.lam == -1, f"lambda {rt.lam} for a quaternionic input")

    return Op(label, lambda: euclid.classify_real(A), check)


def decompose_real_op(Q, dr, dc, rng):
    R = random_rep(Q, dr, rng, real=True)
    C = realification(random_rep(Q, dc, rng))
    S = scramble_rep(oracle.direct_sum(oracle.direct_sum(R, R), C), rng, real=True)
    expected = [(R, 2), (C, 1)]

    def check(parts):
        for P, _ in parts:
            oracle.check_real_entries(P, "summand")
        oracle.check_decomposition(parts, expected, indecomposable=False)

    return Op(f"decompose_real {QUIVER_NAMES[Q]} 2R+C", lambda: euclid.decompose_real(S), check)


def real_isometry_ops(Q, d, rng):
    A = random_rep(Q, d, rng, real=True)
    B = scramble_rep(A, rng, real=True)
    N = scramble_rep(scale_arrow(A, 1.5), rng, real=True)

    def check_neg(T):
        require(T is None, "a real isometry returned for a non-isometric pair")

    return [
        Op(f"real_isometry {rep_label(Q, d)} +", lambda: euclid.real_isometry(A, B), lambda T: oracle.check_real_isometry(A, B, T)),
        Op(f"real_isometry {rep_label(Q, d)} -", lambda: euclid.real_isometry(A, N), check_neg),
    ]


def gadget_ops(kind, rng):
    X = gaussian(rng, (GADGET_N, GADGET_N))
    U = oracle.haar_unitary(GADGET_N, rng)
    Y_sim = U.conj().T @ X @ U
    Y_other = gaussian(rng, (GADGET_N, GADGET_N))

    return [
        Op(f"gadget {kind} +", lambda: wildness.gadget_faithful(kind, X, Y_sim), expect(True)),
        Op(f"gadget {kind} -", lambda: wildness.gadget_faithful(kind, X, Y_other), expect(False)),
    ]


def enumerate_op(Q, bound):
    want = oracle.d_set(Q, bound)

    def check(got):
        require([tuple(z) for z in got] == want, f"enumerate_D differs from D(Q): {len(got)} vs {len(want)} vectors")

    return Op(f"enumerate_D {QUIVER_NAMES[Q]} <={bound}", lambda: dims.enumerate_D(Q, bound), check)


def small_reps(rng):
    ops = []
    for Q, d in CONSTRUCT:
        ops.append(construct_op(Q, d, int(rng.integers(0, 2**31))))
    for Q, dp, dq in DECOMPOSE:
        ops.append(decompose_op(Q, dp, dq, rng))
    for Q, d in ISOMETRIC:
        ops += isometric_ops(Q, d, rng)
    for Q, d in CONSTRUCT:
        ops.append(params_op(Q, d, rng))
    for Q, d in REAL_TYPE:
        A = scramble_rep(random_rep(Q, d, rng, real=True), rng, real=True)
        ops.append(classify_op(f"classify_real {rep_label(Q, d)} real", A, "Real"))
    for Q, d in COMPLEX_TYPE:
        ops.append(classify_op(f"classify_real {rep_label(Q, d)} complex", random_rep(Q, d, rng), "Complex"))
    ops.append(
        classify_op(
            f"classify_real two-loops d={QUATERNIONIC_DIM} quaternionic",
            scramble_rep(quaternionic_pair(QUATERNIONIC_DIM // 2, rng), rng),
            "Quaternionic",
        )
    )
    for Q, dr, dc in DECOMPOSE_REAL:
        ops.append(decompose_real_op(Q, dr, dc, rng))
    for Q, d in REAL_TYPE:
        ops += real_isometry_ops(Q, d, rng)
    for kind in wildness.GADGET_KINDS:
        ops += gadget_ops(kind, rng)
    for Q, bound in ENUMERATE:
        ops.append(enumerate_op(Q, bound))
    return ops


# ---------------------------------------------------------------------------
# cli-json: one CLI process per operation


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def matrix_json(A):
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def _parse_matrix(data):
    return np.array([[complex(p[0], p[1]) for p in row] for row in data], dtype=complex)


@dataclass
class ChildRun:
    """A finished child process with its own CPU time and peak RSS."""

    code: int
    stdout: str
    stderr: str
    cpu_s: float  # user + system CPU time of the child
    wall_s: float
    maxrss_kb: int


def run_child(argv, cwd, env):
    """Run ``argv`` to completion.  Output goes through files, so a full pipe
    cannot block the child, and ``wait4`` reports the child's resource use."""
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return ChildRun(proc.returncode, stdout, stderr, usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss)


class CliRunner:
    """Runs ``python -m unicanon.cli`` one process at a time."""

    def __init__(self, workdir, env):
        self.workdir = workdir
        self.env = env
        self.peak_rss_kb = 0

    def run(self, argv):
        child = run_child([sys.executable, "-m", "unicanon.cli", *argv], self.workdir, self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, child.maxrss_kb)
        return child


def cli_stdout(child):
    require(child.code == 0, f"exit code {child.code}: {child.stderr.strip()[:200]}")
    return child.stdout


@dataclass
class CliOp(Op):
    """A CLI invocation; ``text_check`` checks its standard output."""

    argv: list = None
    text_check: Callable[[str], None] = None


def dispatch_in_process(argv):
    """``cli.dispatch`` on the same argv in this process; returns stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    if code != 0:
        raise WrongAnswer(f"dispatch exit code {code}")
    return buf.getvalue()


def cli_json(rng, workdir, runner, tag):
    """CLI cases on small JSON files written under ``workdir``; ``tag`` keeps
    file names of different rounds apart."""
    ops = []
    counter = itertools.count()

    def path(stem):
        return os.path.join(workdir, f"{tag}-{next(counter)}-{stem}.json")

    def add(label, argv, text_check):
        ops.append(CliOp(label, lambda: runner.run(argv), lambda child: text_check(cli_stdout(child)),
                         argv=argv, text_check=text_check))

    for kind in ("complex", "real"):
        A = square_matrix(kind, 12, rng)
        f = _write_json(path("matrix"), matrix_json(A))
        M = MarkedBlockMatrix((12,), (12,), A, frozenset({(0, 0)}))

        def check_canon(text, M=M):
            C = _parse_matrix(json.loads(text)["matrix"])
            ref = mbm.canonicalize(M)
            oracle.check_mbm_certificate(M, ref)
            oracle.check_same_form(ref[0].entries, C, float(np.linalg.norm(M.entries)), "CLI and in-process forms")

        add(f"cli canon-matrix simil n=12 {kind}", ["canon-matrix", "--mode", "simil", f], check_canon)

    for Q, d in ((KRONECKER, (3, 3)), (D4, (2, 2, 2, 3))):
        A = random_rep(Q, d, rng)
        f = _write_json(path("rep"), A.to_json())

        def check_rep(text, A=A):
            out = json.loads(text)
            got = Representation.from_json(out["canonical"])
            ref = qr.rep_canonical(A)
            oracle.check_rep_certificate(A, ref)
            for a in got.matrices:
                oracle.check_same_form(ref[0].matrices[a], got.matrices[a], oracle.rep_norm(A), "CLI and in-process forms")
            require(set(out["schemes"]) == set(got.matrices), "schemes missing from CLI output")

        add(f"cli canon-rep {rep_label(Q, d)}", ["canon-rep", f], check_rep)

    for Q, dp, dq in (DECOMPOSE[0], DECOMPOSE[2]):
        P, R = random_rep(Q, dp, rng), random_rep(Q, dq, rng)
        S = scramble_rep(oracle.direct_sum(oracle.direct_sum(P, P), R), rng)
        f = _write_json(path("sum"), S.to_json())

        def check_dec(text, expected=[(P, 2), (R, 1)]):
            parts = [
                (Representation.from_json(s["representation"]), int(s["multiplicity"]))
                for s in json.loads(text)["summands"]
            ]
            oracle.check_decomposition(parts, expected)

        add(f"cli decompose {QUIVER_NAMES[Q]} 2P+Q", ["decompose", f], check_dec)

    A = random_rep(KRONECKER, (3, 3), rng)
    fa = _write_json(path("a"), A.to_json())
    for sign, B in (("+", scramble_rep(A, rng)), ("-", scramble_rep(scale_arrow(A, 1.5), rng))):
        fb = _write_json(path("b"), B.to_json())
        want = sign == "+"
        add(
            f"cli isometric kronecker d=3,3 {sign}",
            ["isometric", fa, fb],
            lambda text, want=want: expect(want)(json.loads(text)["isometric"]),
        )

    for Q, bound in ((KRONECKER, 6), (D4, 5)):
        f = _write_json(path("quiver"), Q.to_json())
        want = oracle.d_set(Q, bound)

        def check_dims(text, want=want):
            got = [tuple(json.loads(line)) for line in text.splitlines() if line.strip()]
            require(got == want, f"dims output differs from D(Q): {len(got)} vs {len(want)} vectors")

        add(f"cli dims {QUIVER_NAMES[Q]} <={bound}", ["dims", "--bound", str(bound), f], check_dims)

    fk = _write_json(path("quiver"), KRONECKER.to_json())
    seed = int(rng.integers(0, 2**31))

    def check_construct(text):
        R = Representation.from_json(json.loads(text))
        require(tuple(R.dims) == (2, 3), f"constructed dims {R.dims}")
        oracle.check_indecomposable(R, "constructed representation")

    add("cli construct kronecker d=2,3", ["--seed", str(seed), "construct", "--d", "2,3", fk], check_construct)

    for label, A, kind in (
        ("real", scramble_rep(random_rep(KRONECKER, (2, 3), rng, real=True), rng, real=True), "Real"),
        ("complex", random_rep(TWO_LOOPS, (2,), rng), "Complex"),
    ):
        f = _write_json(path("rep"), A.to_json())
        add(
            f"cli real-type {label}",
            ["real-type", f],
            lambda text, kind=kind: expect(kind)(json.loads(text)["kind"]),
        )
    return ops


# ---------------------------------------------------------------------------

# simil-defects is run by hand and not listed in BENCHMARK.json: it counts the
# program's known wrong answers, so its ``correct`` stays false until ROADMAP
# item 1 is done.
ROUNDS = {
    "simil-loops": simil_loops,
    "acyclic-pack": acyclic_pack,
    "small-reps": small_reps,
    "simil-defects": simil_defects,
}


def warmup_op(workload, rng):
    """The one small operation a fresh process completes for ``setup_s``."""
    if workload in ("simil-loops", "simil-defects"):
        return simil_pair("warm-up", square_matrix("complex", 8, rng), rng)[0]
    if workload == "acyclic-pack":
        return rep_pair("warm-up", random_rep(KRONECKER, (8, 8), rng), rng)[0]
    return isometric_ops(KRONECKER, (3, 3), rng)[0]
