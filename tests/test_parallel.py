import os
from fractions import Fraction

import pytest

from sqlbench import parallel

# _processes is forced in each test, so one usable CPU is enough
pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def square(x):
    return (x, x * x, str(x))


@pytest.mark.parametrize("processes", [1, 2, 3, 4])
@pytest.mark.parametrize("n_items", range(10))
def test_same_results_as_map(monkeypatch, processes, n_items):
    # forced past the usable CPUs: 0-9 items in 1-4 shares, most of them uneven
    monkeypatch.setattr(parallel, "_processes", lambda n: min(processes, n))
    items = range(10, 10 + n_items)
    assert parallel.fork_map(square, items) == list(map(square, items))


def test_unmarshallable_result_has_its_share_worked_here(monkeypatch):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(3, n))
    worked_here = []

    def work(x):
        worked_here.append(x)  # a child appends to its own copy
        return Fraction(x) if x == 4 else x  # marshal cannot dump a Fraction

    got = parallel.fork_map(work, range(9))
    assert worked_here == [0, 3, 6, 1, 4, 7]  # share 0, then share 1 = items[1::3]
    worked_here.clear()
    assert got == list(map(work, range(9)))
