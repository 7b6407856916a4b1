import json
import os
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from sqlbench import parallel

try:
    import fcntl
except ImportError:  # not on this platform
    fcntl = None

# _processes is forced in each test, so one usable CPU is enough
pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def square(x):
    return (x, x * x, str(x))


@contextmanager
def no_fd_left():
    fds = Path("/proc/self/fd")
    before = set(os.listdir(fds)) if fds.exists() else set()
    yield
    assert (set(os.listdir(fds)) if fds.exists() else set()) == before


@pytest.mark.parametrize("processes", [1, 2, 3, 4])
@pytest.mark.parametrize("n_items", range(10))
def test_same_results_as_map(monkeypatch, processes, n_items):
    # forced past the usable CPUs: 0-9 items claimed by 1-4 processes
    monkeypatch.setattr(parallel, "_processes", lambda n: min(processes, n))
    items = range(10, 10 + n_items)
    worked_here = []

    def work(x):
        worked_here.append(x)  # a child appends to its own copy
        return square(x)

    with no_fd_left():
        got = parallel.fork_map(work, items)
    assert got == list(map(square, items))
    # the caller claims nothing while children run
    assert worked_here == (list(items) if min(processes, n_items) <= 1 else [])


def test_unmarshallable_result_has_its_share_worked_here(monkeypatch):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(3, n))
    worked_here = []

    def work(x):
        worked_here.append(x)
        return Fraction(x) if x == 4 else x  # marshal cannot dump a Fraction

    with no_fd_left():
        got = parallel.fork_map(work, range(9))
    assert worked_here == [4]
    worked_here.clear()
    assert got == list(map(work, range(9)))


def test_child_that_dies_has_its_claims_worked_here(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(3, n))
    caller, worked_here, dying = os.getpid(), [], tmp_path / "dying"

    def work(x):
        worked_here.append(x)
        # the first child to claim a second item dies in it, its first
        # result never sent; with 30 items, some child claims a second
        if os.getpid() != caller and len(worked_here) == 2:
            try:
                with open(dying, "x") as f:
                    f.write(json.dumps(worked_here))
            except FileExistsError:
                return square(x)
            os._exit(5)
        return square(x)

    with no_fd_left():
        got = parallel.fork_map(work, range(30))
    assert got == list(map(square, range(30)))
    assert worked_here == sorted(json.loads(dying.read_text()))


@pytest.fixture
def small_pipes(monkeypatch):
    """Pipes of one page: 1024 claims, far fewer than 5000 items."""
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs F_SETPIPE_SZ")
    real_pipe = os.pipe

    def small_pipe():
        read_end, write_end = real_pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        return read_end, write_end

    monkeypatch.setattr(os, "pipe", small_pipe)


def test_claims_beyond_the_pipe_go_to_the_children(monkeypatch, small_pipes):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(2, n))
    worked_here = []

    def work(x):
        worked_here.append(x)
        return square(x)

    n_items = 5000
    with no_fd_left():
        got = parallel.fork_map(work, range(n_items))
    assert got == list(map(square, range(n_items)))
    assert worked_here == []  # written once the children were forked


def test_children_that_die_before_the_pipe_is_written_leave_it_here(monkeypatch, small_pipes):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(2, n))
    caller, worked_here = os.getpid(), []

    def work(x):
        if os.getpid() != caller:  # every child dies in its first claim
            os._exit(5)
        worked_here.append(x)
        return square(x)

    n_items = 5000
    with no_fd_left():
        got = parallel.fork_map(work, range(n_items))
    assert got == list(map(square, range(n_items)))
    # the claims no child is left to read stop the caller's writes, not block them
    assert worked_here == list(range(n_items))
