"""Benchmark for unicanon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from this
checkout's ``src/`` and nowhere else.  This entry point pins BLAS to one
thread before numpy loads, finds the sources, and hands over to
``bench.main``.  See README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def locate_program():
    """Put this checkout's ``src`` first on the import path of this process
    and of its children, and check that unicanon comes from there."""
    if not (SRC / "unicanon" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no unicanon sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import unicanon

    if Path(unicanon.__file__).resolve().parent != (SRC / "unicanon").resolve():
        sys.stderr.write(f"perfbench: unicanon imported from {unicanon.__file__}, not from {SRC}\n")
        sys.exit(2)


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    locate_program()
    import bench

    bench.main(ROOT)
