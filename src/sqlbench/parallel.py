"""The program's one use of os.fork: fork_map, the map over items that the
suite build (fuzz.py), eval's database groups (evaluate.evaluate_benchmark)
and the prompt stage's schemas (cli.cmd_prompt) spread across the usable
CPUs.

It stays in one process where there is one usable CPU, where the platform
cannot fork, or where another thread runs. No option sets this, and no result
depends on it: a child is a plain fork that sends back only the pickled
results of the items it claimed, so work must give the same result in any
process.
"""

from __future__ import annotations

import gc
import io
import os
import pickle
import select
import signal
import threading
from contextlib import suppress

_CLAIM = 4  # bytes of one claim: an item's index, little-endian
_MISSING = object()  # a result no process has returned yet


def _processes(n: int) -> int:
    """How many processes work n items: one per usable CPU, at most n; more
    than one are forked children, and one is the caller itself. One where
    this platform cannot fork, or where another thread runs: a thread
    holding a lock at the fork would leave it held in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n)


def _write_claims(write_end: int, claims: list[bytes]) -> list[bytes]:
    """Write claims, chunks of whole claims of at most PIPE_BUF bytes each,
    in order into the pipe write_end, as far as it takes them; return the
    chunks not written. Such a write is whole or not at all, so a claim never
    comes out cut. In blocking mode it writes all, or stops where no process
    holds the read end any more."""
    for written, chunk in enumerate(claims):
        try:
            os.write(write_end, chunk)
        except (BlockingIOError, BrokenPipeError):
            return claims[written:]
    return []


def fork_map(work, items) -> list:
    """list(map(work, items)), worked by n = _processes(len(items)) forked
    children that claim the items one at a time. The caller writes every
    item's index into one claim pipe: before the first fork as many as the
    pipe holds, the rest once every child is forked, then it closes its
    ends. A child reads one index at a time until the pipe ends, works that
    item, and at the end sends the pickle.dumps of each (index, result)
    through its own pipe. It leaves only by os._exit, so it never runs a
    caller's cleanup: with code 0 once its results are sent, else with 1,
    which is how it leaves when work raises. A result that cannot be
    pickled is not sent.

    The caller claims nothing while its children run, so what it runs
    itself does not depend on how the children raced. It reads each child's
    pipe to its end, waits for the child, and keeps the results of a child
    that exited 0. Then it works, in item order, every item no child
    returned: a dead child's, and one whose result could not be pickled or
    loaded. So a result is the one this process would get, and what work
    raises is raised here as map raises it. With one process all items are
    worked here. An interrupted caller (any BaseException) SIGKILLs and
    reaps every child it has not waited for, then re-raises."""
    items = list(items)
    results = [_MISSING] * len(items)
    n = _processes(len(items))
    claim_read = claim_write = None
    children = []  # (pid, pipe)
    try:
        if n > 1:
            try:
                claim_read, claim_write = os.pipe()
            except OSError:  # no file descriptor to be had: no child
                pass
            else:
                indices = b"".join(i.to_bytes(_CLAIM, "little") for i in range(len(items)))
                size = select.PIPE_BUF // _CLAIM * _CLAIM
                os.set_blocking(claim_write, False)
                claims = _write_claims(claim_write, [indices[start:start + size] for start
                                                     in range(0, len(indices), size)])
        for _ in range(n if claim_read is not None else 0):
            try:
                read_end, write_end = os.pipe()
            except OSError:  # no file descriptor to be had: one child fewer
                break
            try:
                pid = os.fork()
            except OSError:  # no process to be had: one child fewer
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                try:
                    # else the claim pipe never ends for this child
                    os.close(claim_write)
                    # the child's collections then skip every object it
                    # inherited, so they copy none of the caller's pages
                    gc.freeze()
                    os.close(read_end)
                    sent = []
                    while claim := os.read(claim_read, _CLAIM):
                        i = int.from_bytes(claim, "little")
                        result = work(items[i])
                        with suppress(Exception):  # else the caller works it
                            sent.append(pickle.dumps((i, result)))
                    with open(write_end, "wb") as pipe:
                        pipe.write(b"".join(sent))
                    os._exit(0)
                finally:
                    os._exit(1)
            # closed here at once: a write end left open in this process, or
            # inherited by a later child, keeps its pipe from ever ending
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        if claim_read is not None:
            # closed first, so that a write finding every child gone fails
            # rather than waits; the claims it leaves are worked here
            os.close(claim_read)
            claim_read = None
            os.set_blocking(claim_write, True)
            _write_claims(claim_write, claims)
            os.close(claim_write)
            claim_write = None
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status == 0:
                _load(data, results)
    except BaseException:
        # SIGKILL: a child may have inherited an ignored SIGTERM
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for end in (claim_read, claim_write):
            if end is not None:
                os.close(end)
    for i, result in enumerate(results):
        if result is _MISSING:
            results[i] = work(items[i])
    return results


def _load(data: bytes, results: list) -> None:
    """Put into results each (index, result) that data holds, up to the first
    that does not load."""
    stream = io.BytesIO(data)
    with suppress(Exception):  # a result's own class may raise anything as it loads
        while stream.tell() < len(data):
            i, result = pickle.load(stream)
            results[i] = result
