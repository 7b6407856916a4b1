"""Machine-speed calibration for the end-to-end metrics.

On a shared 2-vCPU virtual machine (Python 3.11) the same benchmark run
moved between 67 and 121 examples/s within ten minutes, because other
tenants share the host's cores. A fixed slice of work shaped like the
pipeline's own (open a read-only SQLite file, fetch rows, sort them in
Python; split and join schema-like text, as prompt rendering does) is
therefore timed between stages. Its median over a pass, or around
a set-up, gives a speed factor

    factor = REFERENCE_S / median slice      (below 1 on a slow machine)

and the end-to-end times are reported at reference speed: raw time x factor.
The slice never touches sqlbench, so a change to the program moves only the
measured time, not the factor. Raw times are printed next to them.
"""

from __future__ import annotations

import random
import re
import sqlite3
import statistics
from pathlib import Path
from time import perf_counter

REFERENCE_S = 0.042  # one slice at reference speed (2-vCPU VM, Python 3.11)
QUERIES = 50
ROWS = 2000
TEXT_ROUNDS = 12
TEXT = "\n".join(f"CREATE TABLE t{i} (id INTEGER PRIMARY KEY, name_{i} TEXT, score REAL);"
                 for i in range(200))
_WORDS = re.compile(r"\w+|[^\w\s]")


class Speedometer:
    def __init__(self, work: Path):
        self.db = work / "speed.sqlite"
        self.samples: list[float] = []
        work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(0)
        conn = sqlite3.connect(self.db)
        try:
            conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
            conn.executemany("INSERT INTO t VALUES (?, ?)",
                             [(rng.randrange(10**6), f"{rng.random():.12f}") for _ in range(ROWS)])
            conn.commit()
        finally:
            conn.close()

    def sample(self, n: int = 1) -> None:
        """Time n slices of fixed work and keep their durations."""
        for _ in range(n):
            self.samples.append(self._slice())

    def _slice(self) -> float:
        start = perf_counter()
        for i in range(QUERIES):
            conn = sqlite3.connect(f"file:{self.db}?mode=ro", uri=True)
            try:
                rows = conn.execute("SELECT a, b FROM t WHERE a > ? LIMIT 200",
                                    (i * 10000,)).fetchall()
            finally:
                conn.close()
            sorted(rows, key=lambda r: (r[1], r[0]))
        for _ in range(TEXT_ROUNDS):
            " ".join(w.upper() for w in _WORDS.findall(TEXT))
        return perf_counter() - start

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, first: int) -> float:
        """REFERENCE_S over the median slice taken since mark first."""
        return REFERENCE_S / statistics.median(self.samples[first:])
