"""Outputs on the seeded inputs of ``tests/golden`` are unchanged.

Discrete data must match exactly; numbers within 1e-10 * max(1, |x|).  See
``tests/golden/make_golden.py`` for what is recorded and how to regenerate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_golden", GOLDEN_DIR / "make_golden.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _mismatches(want, got, path="$"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path}: keys differ"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: length differs"]
        return [
            m for k, (w, g) in enumerate(zip(want, got))
            for m in _mismatches(w, g, f"{path}[{k}]")
        ]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(want - got) <= 1e-10 * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.fixture(scope="module")
def outputs():
    golden = json.loads((GOLDEN_DIR / "golden.json").read_text())
    # round-trip through JSON so tuples and floats compare as stored
    fresh = json.loads(json.dumps(_load_generator().compute()))
    return golden, fresh


def test_same_cases(outputs):
    golden, fresh = outputs
    assert sorted(fresh) == sorted(golden)


def test_outputs_unchanged(outputs):
    golden, fresh = outputs
    bad = {
        case: _mismatches(golden[case], fresh[case])
        for case in golden
        if case in fresh
    }
    bad = {case: m[:5] for case, m in bad.items() if m}
    assert not bad, json.dumps(bad, indent=1)
