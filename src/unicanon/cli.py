"""Command-line front end.

All file formats use JSON with 1-based indices and complex numbers as
[re, im] pairs (a plain number is real).  Exit codes: 0 success (``--help``
included), 2 validation error (machine-readable object on stderr), 64 missing
or unknown subcommand, 65 parse error or an input file of the wrong
structure, 70 a reduction whose transcript, or an isometry composed from
transcripts, failed its certificate (``mbm.CertificationError``; no output
is written), in every command that reduces, both ``canon-matrix`` modes
included.

Each subcommand's handler is registered on its subparser; it imports the
modules it runs and returns what to emit, so a process loads ``numcore`` and
``mbm`` and only the rest its command needs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mbm
from .mbm import MarkedBlockMatrix, matrix_from_json, matrix_to_json
from .numcore import Tolerance

__all__ = ["dispatch", "main"]


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _json_to_matrix(data):
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


def _dump(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh)


def _transcript_json(T):
    return {
        "R": [matrix_to_json(b) for b in T.R],
        "S": [matrix_to_json(b) for b in T.S],
    }


def _summands(parts, key="representation"):
    return {"summands": [{"multiplicity": m, key: P.to_json()} for P, m in parts]}


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


# ---------------------------------------------------------------------------
# one handler per subcommand: (args, tol) -> the JSON object or text to emit


def _canon_matrix(args, tol):
    A = _json_to_matrix(_load_json(args.file))
    # one strip each way: marked for similarity, unmarked for equivalence
    marked = frozenset({(0, 0)}) if args.mode == "simil" else frozenset()
    M = MarkedBlockMatrix(A.shape[:1], A.shape[1:], A, marked)
    C, T, _ = mbm.canonicalize(M, tol)
    if args.transcript:
        if args.mode == "equiv":
            _dump(args.transcript, {"R": matrix_to_json(T.R[0]), "S": matrix_to_json(T.S[0])})
        else:
            _dump(args.transcript, _transcript_json(T))
    return {"matrix": matrix_to_json(C.entries)}


def _canon_mbm(args, tol):
    C, T, trace = mbm.canonicalize(_load(args.file, MarkedBlockMatrix), tol)
    if args.transcript:
        _dump(args.transcript, _transcript_json(T))
    zones = [{"depth": z.depth, "kind": z.kind, "block": list(z.block)} for z in trace.zones]
    return {"canonical": C.to_json(), "zones": zones}


def _scheme(args, tol):
    from .scheme import render_ascii, scheme_of
    C, _, trace = mbm.canonicalize(_load(args.file, MarkedBlockMatrix), tol)
    S = scheme_of(C, trace.zones, tol)
    return S.to_json() if args.format == "json" else render_ascii(S)


def _canon_rep(args, tol):
    from . import quiverrep as qr
    Ainf, T, schemes = qr.rep_canonical(_load(args.file, qr.Representation), tol)
    if args.transcript:
        _dump(args.transcript, {"S": [matrix_to_json(b) for b in T.S]})
    schemes = {a: S.to_json() for a, S in schemes.items()}
    return {"canonical": Ainf.to_json(), "schemes": schemes}


def _decompose(args, tol):
    from . import quiverrep as qr
    data = _load_json(args.file)
    if isinstance(data, dict) and "quiver" in data:
        return _summands(qr.decompose_rep(_from_json(data, qr.Representation, args.file), tol))
    return _summands(mbm.decompose(_from_json(data, MarkedBlockMatrix, args.file), tol), "matrix")


def _isometric(args, tol):
    from . import quiverrep as qr
    A = _load(args.file, qr.Representation)
    B = _load(args.file2, qr.Representation)
    T = qr._isometry(A, B, tol)[0]  # checked: it maps A onto B
    if T is not None and args.transcript:
        # the isometry per vertex, as canon-rep writes S
        _dump(args.transcript, {"S": [matrix_to_json(b) for b in T.S]})
    return {"isometric": T is not None}


def _fill_scheme(args, tol):
    from .scheme import Scheme, fill_general_position
    S = _load(args.file, Scheme)
    return fill_general_position(S, args.mode, seed=args.seed, tol=tol).to_json()


def _dims(args, tol):
    from . import dims, quiverrep
    vecs = dims.enumerate_D(_load(args.file, quiverrep.Quiver), args.bound)
    return "\n".join(json.dumps(list(v)) for v in vecs)


def _params(args, tol):
    from . import dims, quiverrep
    Q = _load(args.file, quiverrep.Quiver)
    nr, nc = dims.max_params(Q, _parse_dimvec(args.d))
    return {"real": nr, "complex": nc}


def _construct(args, tol):
    from . import dims, quiverrep
    Q = _load(args.file, quiverrep.Quiver)
    R = dims.construct_indecomposable(Q, _parse_dimvec(args.d), seed=args.seed, tol=tol)
    return R.to_json()


def _realify(args, tol):
    from . import euclid, quiverrep
    return euclid.realify(_load(args.file, quiverrep.Representation)).to_json()


def _real_type(args, tol):
    from . import euclid, quiverrep
    rt = euclid.classify_real(_load(args.file, quiverrep.Representation), tol)
    out = {"kind": rt.kind}
    if rt.lam is not None:
        out["lambda"] = int(rt.lam)
    if rt.form is not None:
        out["form"] = rt.form.to_json()
    return out


def _decompose_real(args, tol):
    from . import euclid, quiverrep
    return _summands(euclid.decompose_real(_load(args.file, quiverrep.Representation), tol))


def _gadget(args, tol):
    from . import wildness
    if args.kind not in wildness.GADGET_KINDS:
        raise _CliError(2, f"unknown gadget kind {args.kind!r}")
    X = _json_to_matrix(_load_json(args.file))
    out = {"gadget": wildness.gadget(args.kind, X).to_json()}
    if args.file2:
        Y = _json_to_matrix(_load_json(args.file2))
        out["faithful"] = bool(wildness.gadget_faithful(args.kind, X, Y, tol))
    return out


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

    def command(name, run, flag=None, **option):
        # the subparser of a command that runs ``run``: its option, then its file
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        if flag:
            p.add_argument(flag, **option)
        p.add_argument("file")
        return p

    command("canon-matrix", _canon_matrix, "--mode", choices=("equiv", "simil"), required=True)
    command("canon-mbm", _canon_mbm)
    command("scheme", _scheme)
    command("canon-rep", _canon_rep)
    command("decompose", _decompose)
    command("isometric", _isometric).add_argument("file2")
    command("fill-scheme", _fill_scheme, "--mode", choices=("real-random", "integer"),
            default="real-random")
    command("dims", _dims, "--bound", type=int, required=True)
    command("params", _params, "--d", required=True)
    command("construct", _construct, "--d", required=True)
    command("realify", _realify)
    command("real-type", _real_type)
    command("decompose-real", _decompose_real)
    command("gadget", _gadget, "--kind", required=True).add_argument(
        "--in2", dest="file2", default=None)
    return ap


def _fail(code, **report) -> int:
    sys.stderr.write(json.dumps(report) + "\n")
    return code


def dispatch(argv) -> int:
    argv = list(argv)
    ns = argparse.Namespace()
    try:
        args = _build_parser().parse_args(argv, ns)
    except SystemExit:  # -h or --help has printed its text
        return 0
    except argparse.ArgumentError as exc:
        # argparse sets the command as soon as it accepts it; unset, it is
        # missing or unknown, unless another argument failed before it
        if ns.command is None and getattr(exc, "argument_name", None) in (None, "command"):
            return _fail(64, error="unknown command", argv=argv)
        return _fail(65, error="bad arguments")
    try:
        out = args.run(args, Tolerance(abs=args.tol))
        text = out if isinstance(out, str) else json.dumps(out, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
    except _CliError as exc:
        return _fail(exc.code, error=str(exc))
    except mbm.CertificationError as exc:
        return _fail(70, error=str(exc), type="CertificationError")
    except (ValueError, KeyError, RuntimeError) as exc:
        return _fail(2, error=str(exc), type=type(exc).__name__)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
