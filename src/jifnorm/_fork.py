"""Run independent jobs in forked worker processes.

Fork, not spawn: a worker needs no state but what the parent already
holds, and it starts without importing the package again. Each job's
arguments are inherited through the fork; only its result is pickled,
through a pipe, back to the parent.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Sequence
from typing import Any


def _worker(conn, fn: Callable, job: tuple) -> None:
    """Worker process body: send ``(True, result)`` or ``(False, error)``."""
    try:
        result = (True, fn(*job))
    except Exception as exc:  # handed to the parent, which raises it
        result = (False, exc)
    conn.send(result)
    conn.close()


def run_forked(fn: Callable, jobs: Sequence[tuple], who: str) -> list[Any]:
    """``[fn(*job) for job in jobs]``, with the first job run in this
    process and every other one in a forked daemon worker.

    A worker's exception is raised here; a worker that ends without a
    result raises ``OSError("<who> exited with code N")``. On any error
    every worker is terminated and joined. ``multiprocessing`` is imported
    only when there is more than one job.
    """
    if len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    sys.stdout.flush()  # else a worker would write the buffered text again
    sys.stderr.flush()
    workers = []
    try:
        for job in jobs[1:]:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_worker, args=(sender, fn, job),
                                      daemon=True)
            process.start()
            sender.close()
            workers.append((process, receiver))
        results = [fn(*jobs[0])]
        for process, receiver in workers:
            try:
                ok, result = receiver.recv()
            except EOFError:
                process.join()
                raise OSError(f"{who} exited with code "
                              f"{process.exitcode}") from None
            if not ok:
                raise result
            results.append(result)
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receiver in workers:
            process.join()
            receiver.close()
    return results
