"""Outside-in tracer: per-layer self time and counts for unicanon.

The tracer replaces module attributes, so it needs no hook inside the
program.  ``install`` wraps

* every public function (no leading underscore) found as an attribute of any
  ``unicanon`` module, under every name it is reachable by (``wildness``
  imports ``canonicalize`` from ``mbm``: both attributes are wrapped), and
  attributes it to the module that defines it, so moving code between
  modules needs no change here;
* ``mbm.ReductionState.derive``, one step of the reduction;
* the factorization entry points of ``numpy.linalg`` and ``scipy.linalg``
  (the pseudo-layer ``linalg``), recorded only when called from inside
  unicanon.  ``norm`` is left alone: the bookkeeping calls it about a million
  times per large reduction.

Spans are kept in memory as flat arrays (function id, parent span, start,
end); ``summary`` derives self times per layer from the parent links.
Times are CPU time of this process (``clock``), the clock the benchmark
times operations with.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from array import array
from contextlib import contextmanager
from time import process_time as clock

import numpy as np

LINALG_NAMES = (
    "svd",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "qr",
    "schur",
    "rsf2csf",
    "hessenberg",
    "lu",
    "lu_factor",
    "cholesky",
    "solve",
    "solve_triangular",
    "lstsq",
    "inv",
    "pinv",
)
LAYERS = ("numcore", "linalg", "mbm", "scheme", "quiverrep", "dims", "euclid", "wildness", "cli")


def flops_estimate(name, args, kwargs):
    """Textbook flop count of one factorization from its input shape (an
    estimate computed from shapes, not a measurement).  Complex input counts
    four real flops per operation."""
    a = args[0] if args else None
    shape = getattr(a, "shape", None)
    if not shape or len(shape) < 2:
        return 0.0
    m, n = int(shape[-2]), int(shape[-1])
    k, big = min(m, n), max(m, n)
    cplx = 4.0 if np.iscomplexobj(a) else 1.0
    if name == "svd":
        vecs = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        f = 4 * big * big * k + 8 * big * k * k + 9 * k**3 if vecs else 4 * big * k * k - 4 * k**3 / 3
    elif name in ("eig", "schur"):
        f = 25 * n**3
    elif name == "eigvals":
        f = 10 * n**3
    elif name == "eigh":
        f = 9 * n**3
    elif name == "eigvalsh":
        f = 4 * n**3 / 3
    elif name == "qr":
        f = 4 * m * n * k - 2 * (m + n) * k * k + 4 * k**3 / 3
    elif name in ("solve", "lu", "lu_factor", "inv"):
        f = 2 * n**3 / 3 if name != "inv" else 2 * n**3
    elif name == "cholesky":
        f = n**3 / 3
    elif name in ("lstsq", "pinv"):
        f = 4 * big * k * k
    else:
        f = 2 * m * n
    return cplx * float(f)


class Tracer:
    """Spans of unicanon calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "layer:qualname"
        self.layer_of: list[int] = []  # function id -> index into LAYERS
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.errors = [0] * len(LAYERS)
        self.raised: set[int] = set()  # spans left by an exception
        self.flops = 0.0
        self.zones: list[int] = []
        self.tie_classes: list[int] = []
        self._last_exc = None
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def reset(self):
        for arr in (self.fid, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.errors = [0] * len(LAYERS)
        self.raised.clear()
        self.flops = 0.0
        self.zones.clear()
        self.tie_classes.clear()
        self._last_exc = None

    def _register(self, layer, qualname):
        self.names.append(f"{layer}:{qualname}")
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, layer, qualname, linalg=False):
        fid = self._register(layer, qualname)
        lid = LAYERS.index(layer)
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if linalg:
                if not stack:
                    return fn(*args, **kwargs)
                tracer.flops += flops_estimate(fn.__name__, args, kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised.add(idx)
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.errors[lid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if type(result) is tuple and result:
                trace = result[-1]
                if hasattr(trace, "zones") and hasattr(trace, "num_classes"):
                    tracer.zones.append(len(trace.zones))
                    tracer.tie_classes.append(int(trace.num_classes))
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap the program for the duration of the block; always restore."""
        self._install()
        try:
            yield self
        finally:
            for owner, name, original in reversed(self._saved):
                setattr(owner, name, original)
            self._saved.clear()

    def _set(self, owner, name, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _install(self):
        import unicanon

        modules = [unicanon] + [
            importlib.import_module(f"unicanon.{info.name}")
            for info in pkgutil.iter_modules(unicanon.__path__)
        ]
        linalg_modules = [sys.modules["numpy.linalg"]]
        try:
            linalg_modules.append(importlib.import_module("scipy.linalg"))
        except ImportError:
            pass
        wrapped = {}  # id(original) -> wrapper, one per function
        for lm in linalg_modules:
            for name in LINALG_NAMES:
                fn = getattr(lm, name, None)
                if callable(fn):
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = self._wrap(fn, "linalg", f"{lm.__name__}.{name}", linalg=True)
                    self._set(lm, name, wrapped[id(fn)])
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not name.startswith("__"):
                    self._set(mod, name, wrapped[id(obj)])
                    continue
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("unicanon."):
                    continue
                layer = home.rsplit(".", 1)[-1]
                if layer not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, layer, obj.__qualname__)
                self._set(mod, name, wrapped[id(obj)])
        mbm = sys.modules.get("unicanon.mbm")
        state = getattr(mbm, "ReductionState", None)
        derive = getattr(state, "derive", None) if state is not None else None
        if derive is not None:
            self._set(state, "derive", self._wrap(derive, "mbm", derive.__qualname__))

    # -- summary ---------------------------------------------------------
    def summary(self):
        """Per-layer self time and counts over the spans recorded since the
        last ``reset``."""
        n = len(self.fid)
        fid = np.array(self.fid, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        layer = np.array(self.layer_of, dtype=np.int64)[fid]
        by_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        names = self.names

        def spans_named(suffix):
            ids = [i for i, nm in enumerate(names) if nm.endswith(suffix)]
            return np.flatnonzero(np.isin(fid, ids)) if ids else np.zeros(0, dtype=np.int64)

        derive = spans_named(".derive")
        canon = spans_named("mbm:canonicalize")
        construct = spans_named(":construct_indecomposable")
        random_rep = spans_named(":random_rep")
        # attempts of construct_indecomposable: its direct random_rep calls
        # (a trivial dimension vector takes one attempt with none)
        attempts = 0
        for c in construct:
            attempts += max(1, int(np.sum(parent[random_rep] == c)))
        ok_construct = sum(1 for c in construct.tolist() if c not in self.raised)
        # canonicalizations per top-level euclid call
        euclid_id = LAYERS.index("euclid")
        parent_l = parent.tolist()
        layer_l = layer.tolist()

        def outer_euclid(i):
            out = -1
            while i >= 0:
                if layer_l[i] == euclid_id:
                    out = i
                i = parent_l[i]
            return out

        euclid_tops = {i for i in np.flatnonzero(layer == euclid_id).tolist() if outer_euclid(parent_l[i]) < 0}
        canon_in_euclid = sum(1 for c in canon.tolist() if outer_euclid(c) >= 0)
        return {
            "self_s": {LAYERS[i]: float(by_layer[i]) for i in range(len(LAYERS))},
            "calls": {LAYERS[i]: int(calls[i]) for i in range(len(LAYERS))},
            "errors": dict(zip(LAYERS, self.errors)),
            "top_level_s": float(dur[~has_parent].sum()),
            "spans": n,
            "flops": self.flops,
            "derive_calls": int(len(derive)),
            "derive_s": float(dur[derive].sum()),
            "canonicalize_calls": int(len(canon)),
            "zones_mean": float(np.mean(self.zones)) if self.zones else 0.0,
            "tie_classes_mean": float(np.mean(self.tie_classes)) if self.tie_classes else 0.0,
            "rep_canonical_calls": int(len(spans_named("quiverrep:rep_canonical"))),
            "construct_attempts": attempts,
            "construct_successes": ok_construct,
            "euclid_top_calls": len(euclid_tops),
            "euclid_canonicalize": canon_in_euclid,
        }
