#!/usr/bin/env python3
"""Workload benchmark for onlinectrl; see perfbench/README.md.

    python3 perfbench/run.py --workload mimo4-heavytail --seed 0 \
        --seconds 60 --trace 0

Prints a detail line, a summary line with units, and as its last line the
result object {"correct", "attempted", "failed", "metrics"}. Exits 2
without a result when the checkout has no onlinectrl sources.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set before numpy is first imported; pool workers inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "onlinectrl" / "__init__.py").is_file():
        print(f"perfbench: no onlinectrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
