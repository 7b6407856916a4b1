"""The program's one use of os.fork: fork_map, the map over items that the
suite build (fuzz.py) and eval's database groups (evaluate.evaluate_benchmark)
spread across the usable CPUs.

It stays in one process where there is one usable CPU, where the platform
cannot fork, or where another thread runs. No option sets this, and no result
depends on it: a child is a plain fork that sends back only the marshalled
results of its share of the items, so work must give the same result in any
process.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading


def _processes(n: int) -> int:
    """How many processes share n items: one per usable CPU, at most n. One
    where this platform cannot fork, or where another thread runs: a thread
    holding a lock at the fork would leave it held in the child."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n)


def fork_map(work, items) -> list:
    """[work(x) for x in items], with the items split into one fixed strided
    share per process (_processes): share j is items[j::n]. The calling
    process works share 0, a forked child each other one. A child sends the
    marshal.dumps of its results through a pipe and leaves only by os._exit,
    so it never runs a caller's cleanup: with code 0 once its results are
    sent, else with 1, also when a result cannot be marshalled. The caller
    reads each child's pipe to its end, then waits for the child, and itself
    works again every share whose child did not exit 0 or sent bytes that do
    not load, and every share it could not fork for. So a result is the one
    this process would get, and whatever work raises is raised here. An
    interrupted caller (any BaseException) SIGKILLs and reaps every child it
    has not waited for, then re-raises."""
    items = list(items)
    n = max(_processes(len(items)), 1)
    results = [None] * len(items)
    own, children = [0], []  # numbers of the shares worked here; (pid, pipe, number)

    def share(j):
        return [work(x) for x in items[j::n]]

    try:
        for j in range(1, n):
            try:
                read_end, write_end = os.pipe()
            except OSError:  # no file descriptor to be had: this one works the share
                own.append(j)
                continue
            try:
                pid = os.fork()
            except OSError:  # no process to be had: this one works the share
                os.close(read_end)
                os.close(write_end)
                own.append(j)
                continue
            if pid == 0:
                try:
                    data = marshal.dumps(share(j))
                    with open(write_end, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            # closed here at once: a write end left open in this process, or
            # inherited by a later child, keeps its pipe from ever ending
            os.close(write_end)
            children.append((pid, open(read_end, "rb"), j))
        for j in own:
            results[j::n] = share(j)
        while children:
            pid, pipe, j = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status == 0:
                try:
                    results[j::n] = marshal.loads(data)
                    continue
                except (EOFError, ValueError, TypeError):
                    pass
            results[j::n] = share(j)  # it failed or died somewhere in its share
    except BaseException:
        # SIGKILL: a child may have inherited an ignored SIGTERM
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return results
