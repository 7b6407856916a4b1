"""How suite build time grows with table size: builds a k=4 suite from a cold
cache for one table of 1k, 2k, 4k and 8k rows and prints the seconds and the
growth exponent between sizes (2 means quadratic).

    python3 bench/probe_suite_scaling.py
"""

from __future__ import annotations

import math
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from generate import Table, make_database  # noqa: E402
from sqlbench.fuzz import build_test_suite  # noqa: E402

SIZES = (1000, 2000, 4000, 8000)


def main() -> int:
    work = HERE.parent / ".bench_work" / "probe_suite_scaling"
    shutil.rmtree(work, ignore_errors=True)
    try:
        times = []
        for rows in SIZES:
            db = work / f"t{rows}" / f"t{rows}.sqlite"
            make_database(db, [Table("item", rows, fillers=(("code", "TEXT"),))],
                          random.Random(rows))
            start = time.perf_counter()
            build_test_suite(db, 4, 0, work / "cache")
            times.append(time.perf_counter() - start)
        for i, (rows, secs) in enumerate(zip(SIZES, times)):
            growth = "" if i == 0 else (
                f"  exponent {math.log(secs / times[i - 1]) / math.log(rows / SIZES[i - 1]):.2f}")
            print(f"{rows:6d} rows: {secs:.3f} s{growth}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
