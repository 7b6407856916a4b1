import enum
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
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


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Painted:
    color: Color
    x: int


class Boom(Exception):
    pass


class TwoArgError(Exception):
    """Pickles, but does not load: pickle calls the class with args, one item."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


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


def test_unpicklable_result_is_worked_here(monkeypatch):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(3, n))
    worked_here = []

    def work(x):
        worked_here.append(x)
        return (lambda: x) if x == 4 else x  # pickle cannot dump a local function

    with no_fd_left():
        got = parallel.fork_map(work, range(9))
    assert worked_here == [4]
    assert got[:4] + got[5:] == [0, 1, 2, 3, 5, 6, 7, 8]
    assert got[4]() == 4


def test_result_that_does_not_load_is_worked_here(monkeypatch):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(3, n))
    worked_here = []

    def work(x):
        worked_here.append(x)
        return TwoArgError(x, "b") if x == 4 else x

    with no_fd_left():
        got = parallel.fork_map(work, range(9))
    # the rest of its child's results come after it in that child's pipe,
    # so they are worked here too; a child claims items in increasing order
    assert worked_here[0] == 4 and worked_here == sorted(worked_here)
    assert [(type(r), r.args) if x == 4 else r for x, r in enumerate(got)] == [
        0, 1, 2, 3, (TwoArgError, ("4-b",)), 5, 6, 7, 8]


def test_objects_come_back_as_map_returns_them(monkeypatch):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(3, n))
    worked_here = []

    def work(x):
        worked_here.append(x)
        return Painted(Color.BLUE if x % 2 else Color.RED, x), Boom(x, "text")

    with no_fd_left():
        got = parallel.fork_map(work, range(12))
    assert worked_here == []  # every result crossed a pipe
    expected = list(map(work, range(12)))
    assert [painted for painted, _ in got] == [painted for painted, _ in expected]
    assert all(painted.color is Color(painted.color.value) for painted, _ in got)
    assert [(type(e), e.args) for _, e in got] == [(type(e), e.args) for _, e in expected]


def test_work_raising_in_children_raises_here_as_map_does(monkeypatch):
    monkeypatch.setattr(parallel, "_processes", lambda n: min(3, n))
    caller, worked_here = os.getpid(), []

    def work(x):
        if os.getpid() == caller:
            worked_here.append(x)
        if x in (3, 7):
            raise Boom(x)
        return square(x)

    with no_fd_left(), pytest.raises(Boom) as raised:
        parallel.fork_map(work, range(10))
    assert raised.value.args == (3,)
    # the dead children's items, worked here in order up to the first error
    assert worked_here[-1] == 3 and worked_here == sorted(worked_here)
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


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
