"""Hard time limits and child-process clean-up for benchmark operations.

A hang must become a failed operation with a stack dump, not a benchmark
that never prints its result; and no worker process may outlive the run.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import signal
import subprocess
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager


class OperationTimeout(Exception):
    """An operation ran past its hard limit (``signal.alarm`` fired)."""


@contextmanager
def deadline(seconds: int, what: str) -> Iterator[None]:
    """Raise :class:`OperationTimeout` in the main thread after ``seconds``.

    The stacks of every thread are dumped to stderr first, so the failed
    operation says where it was stuck.
    """

    def on_alarm(signum: int, frame: object) -> None:
        del signum, frame
        print(f"perf: {what} exceeded {seconds}s; stacks follow", file=sys.stderr, flush=True)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        raise OperationTimeout(f"{what} exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def reap_children(workers: Iterable["subprocess.Popen[bytes]"] = ()) -> int:
    """Stop and wait for every child this process still has; return how many.

    ``workers`` are the ``Popen`` handles of spawned queue workers (the
    backends normally stop them themselves; a timeout can interrupt that),
    ``multiprocessing`` children are found through the module's own registry.
    """
    reaped = 0
    for proc in workers:
        if proc.poll() is None:
            reaped += 1
            proc.kill()
        proc.wait()
    for child in multiprocessing.active_children():
        reaped += 1
        child.kill()
        child.join()
    return reaped
