"""Command-line front end.

All file formats use JSON with 1-based indices and complex numbers as
[re, im] pairs (a plain number is real).  Exit codes: 0 success, 2 validation
error (machine-readable object on stderr), 64 missing or unknown subcommand,
65 parse error or an input file of the wrong structure, 70 a reduction whose
transcript failed its certificate (``mbm.CertificationError``; no output is
written), in every command that reduces, both ``canon-matrix`` modes included.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .numcore import Tolerance
from . import mbm
from .mbm import MarkedBlockMatrix, matrix_from_json, matrix_to_json
from . import scheme as scheme_mod
from .scheme import Scheme, fill_general_position, render_ascii
from . import quiverrep as qr
from . import dims as dims_mod
from . import euclid
from . import wildness

__all__ = ["dispatch", "main"]

class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _json_to_matrix(data) -> np.ndarray:
    """A matrix file: a list of rows, or an object whose ``entries`` is one.
    JSON of another structure exits 65, as for the other file types."""
    try:
        if isinstance(data, dict):
            data = data["entries"]
        A = matrix_from_json(data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise _CliError(65, f"not a matrix: {exc!r}")
    if A.ndim != 2:
        raise _CliError(65, "not a matrix: no rows")
    return A


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(65, f"cannot parse {path}: {exc}")


def _emit(obj, args):
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _transcript_json(T):
    return {
        "R": [matrix_to_json(b) for b in T.R],
        "S": [matrix_to_json(b) for b in T.S],
    }


def _isometry_json(T):
    return {"S": [matrix_to_json(b) for b in T.S]}


def _from_json(data, cls, path):
    """``cls.from_json(data)``; JSON of the wrong structure exits 65, an
    object that fails validation (a ValueError) exits 2."""
    try:
        return cls.from_json(data)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise _CliError(65, f"bad {cls.__name__} file {path}: {exc!r}")


def _load(path, cls):
    return _from_json(_load_json(path), cls, path)


def _parse_dimvec(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _CliError(65, f"bad dimension vector {text!r}")


class _Parser(argparse.ArgumentParser):
    """Raises instead of printing usage and exiting, so that dispatch picks
    the exit code."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _build_parser():
    # exit_on_error=False keeps the offending argument on the ArgumentError
    ap = _Parser(prog="unicanon", add_help=True, exit_on_error=False)
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("json", "ascii"), default=None)
    ap.add_argument("--transcript", default=None, help="write transcript JSON here")
    ap.add_argument("--out", default=None, help="write output here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon-matrix")
    p.add_argument("--mode", choices=("equiv", "simil"), required=True)
    p.add_argument("file")

    for name in ("canon-mbm", "scheme"):
        p = sub.add_parser(name)
        p.add_argument("file")

    p = sub.add_parser("canon-rep")
    p.add_argument("file")

    p = sub.add_parser("decompose")
    p.add_argument("file")

    p = sub.add_parser("isometric")
    p.add_argument("file")
    p.add_argument("file2")

    p = sub.add_parser("fill-scheme")
    p.add_argument("--mode", choices=("real-random", "integer"), default="real-random")
    p.add_argument("file")

    p = sub.add_parser("dims")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("file")

    p = sub.add_parser("params")
    p.add_argument("--d", required=True)
    p.add_argument("file")

    p = sub.add_parser("construct")
    p.add_argument("--d", required=True)
    p.add_argument("file")

    for name in ("realify", "real-type", "decompose-real"):
        p = sub.add_parser(name)
        p.add_argument("file")

    p = sub.add_parser("gadget")
    p.add_argument("--kind", required=True)
    p.add_argument("file")
    p.add_argument("--in2", dest="file2", default=None)
    return ap


def _mbm_out(canonical, trace):
    zs = scheme_mod.zones(trace)
    return {
        "canonical": canonical.to_json(),
        "zones": [
            {
                "depth": z.depth,
                "kind": z.kind,
                "block": list(z.block),
            }
            for z in zs
        ],
    }


def _run(args) -> int:
    tol = Tolerance(abs=args.tol)
    cmd = args.command
    if cmd == "canon-matrix":
        A = _json_to_matrix(_load_json(args.file))
        # one strip each way: marked for similarity, unmarked for equivalence
        marked = frozenset({(0, 0)}) if args.mode == "simil" else frozenset()
        M = MarkedBlockMatrix(A.shape[:1], A.shape[1:], A, marked)
        C, T, _ = mbm.canonicalize(M, tol)
        if args.transcript:
            if args.mode == "equiv":
                record = {"R": matrix_to_json(T.R[0]), "S": matrix_to_json(T.S[0])}
            else:
                record = _transcript_json(T)
            with open(args.transcript, "w") as fh:
                json.dump(record, fh)
        _emit({"matrix": matrix_to_json(C.entries)}, args)
        return 0
    if cmd == "canon-mbm":
        M = _load(args.file, MarkedBlockMatrix)
        C, T, trace = mbm.canonicalize(M, tol)
        if args.transcript:
            with open(args.transcript, "w") as fh:
                json.dump(_transcript_json(T), fh)
        _emit(_mbm_out(C, trace), args)
        return 0
    if cmd == "canon-rep":
        A = _load(args.file, qr.Representation)
        Ainf, T, schemes = qr.rep_canonical(A, tol)
        out = {
            "canonical": Ainf.to_json(),
            "schemes": {a: S.to_json() for a, S in schemes.items()},
        }
        if args.transcript:
            with open(args.transcript, "w") as fh:
                json.dump(_isometry_json(T), fh)
        _emit(out, args)
        return 0
    if cmd == "decompose":
        data = _load_json(args.file)
        rep = isinstance(data, dict) and "quiver" in data
        A = _from_json(data, qr.Representation if rep else MarkedBlockMatrix, args.file)
        if rep:
            parts = qr.decompose_rep(A, tol)
            out = {
                "summands": [
                    {"multiplicity": m, "representation": P.to_json()}
                    for P, m in parts
                ]
            }
        else:
            parts = mbm.decompose(A, tol)
            out = {
                "summands": [
                    {"multiplicity": m, "matrix": P.to_json()} for P, m in parts
                ]
            }
        _emit(out, args)
        return 0
    if cmd == "isometric":
        A = _load(args.file, qr.Representation)
        B = _load(args.file2, qr.Representation)
        _emit({"isometric": bool(qr.isometric(A, B, tol))}, args)
        return 0
    if cmd == "scheme":
        M = _load(args.file, MarkedBlockMatrix)
        C, _, trace = mbm.canonicalize(M, tol)
        S = scheme_mod.scheme_of(C, scheme_mod.zones(trace), tol)
        if args.format == "json":
            _emit(S.to_json(), args)
        else:
            _emit(render_ascii(S), args)
        return 0
    if cmd == "fill-scheme":
        S = _load(args.file, Scheme)
        M = fill_general_position(S, args.mode, seed=args.seed, tol=tol)
        _emit(M.to_json(), args)
        return 0
    if cmd == "dims":
        Q = _load(args.file, qr.Quiver)
        vecs = dims_mod.enumerate_D(Q, args.bound)
        _emit("\n".join(json.dumps(list(v)) for v in vecs), args)
        return 0
    if cmd == "params":
        Q = _load(args.file, qr.Quiver)
        d = _parse_dimvec(args.d)
        nr, nc = dims_mod.max_params(Q, d)
        _emit({"real": nr, "complex": nc}, args)
        return 0
    if cmd == "construct":
        Q = _load(args.file, qr.Quiver)
        d = _parse_dimvec(args.d)
        R = dims_mod.construct_indecomposable(Q, d, seed=args.seed, tol=tol)
        _emit(R.to_json(), args)
        return 0
    if cmd == "realify":
        A = _load(args.file, qr.Representation)
        _emit(euclid.realify(A).to_json(), args)
        return 0
    if cmd == "real-type":
        A = _load(args.file, qr.Representation)
        rt = euclid.classify_real(A, tol)
        out = {"kind": rt.kind}
        if rt.lam is not None:
            out["lambda"] = int(rt.lam)
        if rt.form is not None:
            out["form"] = rt.form.to_json()
        _emit(out, args)
        return 0
    if cmd == "decompose-real":
        A = _load(args.file, qr.Representation)
        parts = euclid.decompose_real(A, tol)
        _emit(
            {
                "summands": [
                    {"multiplicity": m, "representation": P.to_json()}
                    for P, m in parts
                ]
            },
            args,
        )
        return 0
    if cmd == "gadget":
        if args.kind not in wildness.GADGET_KINDS:
            raise _CliError(2, f"unknown gadget kind {args.kind!r}")
        X = _json_to_matrix(_load_json(args.file))
        out = {"gadget": wildness.gadget(args.kind, X).to_json()}
        if args.file2:
            Y = _json_to_matrix(_load_json(args.file2))
            out["faithful"] = bool(wildness.gadget_faithful(args.kind, X, Y, tol))
        _emit(out, args)
        return 0


def dispatch(argv) -> int:
    argv = list(argv)
    ns = argparse.Namespace()
    try:
        args = _build_parser().parse_args(argv, ns)
    except (argparse.ArgumentError, SystemExit) as exc:
        # argparse sets the command as soon as it accepts it; unset, it is
        # missing or unknown, unless another argument failed before it
        if ns.command is None and getattr(exc, "argument_name", None) in (None, "command"):
            sys.stderr.write(
                json.dumps({"error": "unknown command", "argv": argv}) + "\n"
            )
            return 64
        sys.stderr.write(json.dumps({"error": "bad arguments"}) + "\n")
        return 65
    try:
        return _run(args)
    except _CliError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return exc.code
    except mbm.CertificationError as exc:
        sys.stderr.write(
            json.dumps({"error": str(exc), "type": "CertificationError"}) + "\n"
        )
        return 70
    except (ValueError, KeyError, RuntimeError) as exc:
        sys.stderr.write(
            json.dumps({"error": str(exc), "type": type(exc).__name__}) + "\n"
        )
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
