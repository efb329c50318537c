"""Independent tasks in forked worker processes, results in task order.

``run(tasks)`` is a context manager over a list of zero-argument
callables; it yields an iterator of their return values in task order.
At a process budget of 2 or more, up to that many tasks run at once, each
in a forked worker that sends its pickled result back over a pipe, and the
first workers start on entry, so the caller works while they run.  At
budget 1 each task runs in-process when its result is asked for, one after
the other: the serial path.

A forked worker inherits the caller's memory, caches included (a built
transform, a certified propagator), so a task is never pickled.  An
exception raised in a worker is raised again in the caller, chained to a
``WorkerError`` that carries the worker's traceback; a worker that ends
without a result raises ``WorkerError``.  Workers end through ``os._exit``,
as ``multiprocessing`` ends them, so no ``atexit`` hook runs in a worker.
Leaving the context kills and reaps every worker still running.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import sys
import traceback
from contextlib import contextmanager
from multiprocessing.connection import wait


class WorkerError(RuntimeError):
    """A task failed in a worker process."""


def process_budget() -> int:
    """How many workers may run at once.

    The CPUs this process may run on when the environment pins BLAS to
    one thread (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, equal
    to 1); 1 otherwise, inside a worker, and where the ``fork`` start
    method or ``os.sched_getaffinity`` is missing.  A multi-threaded BLAS
    already uses the other cores, and forking a process that holds a BLAS
    thread pool is unsafe.
    """
    pin = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if (pin is None or pin.strip() != "1" or mp.parent_process() is not None
            or "fork" not in mp.get_all_start_methods() or not hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def run(tasks):
    """Run ``tasks`` within the process budget; yields their results in
    task order (see the module docstring)."""
    batch = _Batch(list(tasks))
    try:
        yield batch.results()
    finally:
        batch.close()


def _serve(task, sender):
    """A worker's body: send ``(True, result)``, or ``(False, (exception,
    traceback text))`` with the exception pickled, or None where it does
    not survive a pickle round trip."""
    try:
        sender.send((True, task()))
    except Exception as exc:
        text = traceback.format_exc()
        try:
            blob = pickle.dumps(exc)
            pickle.loads(blob)
        except Exception:
            blob = None
        sender.send((False, (blob, text)))


class _Batch:
    def __init__(self, tasks: list):
        self.tasks = tasks
        self.width = min(process_budget(), len(tasks))
        self.live: dict = {}        # task index -> (process, receiving end)
        self.started = 0
        self._fill()

    def _fill(self):
        fork = mp.get_context("fork") if self.width > 1 else None
        while self.width > 1 and self.started < len(self.tasks) and len(self.live) < self.width:
            receiver, sender = fork.Pipe(duplex=False)
            # a worker flushes the stdio buffers it inherits when it ends, so
            # an unflushed line would be written twice (multiprocessing
            # flushes before a fork too, but does not document it)
            sys.stdout.flush()
            sys.stderr.flush()
            proc = fork.Process(
                target=_serve, args=(self.tasks[self.started], sender), daemon=True)
            proc.start()
            sender.close()  # the worker holds the writing end
            self.live[self.started] = (proc, receiver)
            self.started += 1

    def results(self):
        for i, task in enumerate(self.tasks):
            if self.width < 2:
                yield task()
                continue
            value = self._collect(i)
            self._fill()
            yield value

    def _collect(self, i: int):
        proc, receiver = self.live[i]
        # ready once the result arrives or the worker ends without one
        wait([receiver, proc.sentinel])
        try:
            done, value = receiver.recv() if receiver.poll() else (None, None)
        except EOFError:
            done = None
        # reaped here on every path; an interrupted recv leaves it to close()
        del self.live[i]
        receiver.close()
        proc.join()
        if done is None:
            raise WorkerError(f"the worker of task {i} exited with code {proc.exitcode} "
                              "before sending a result")
        if done:
            return value
        blob, text = value
        error = WorkerError(f"task {i} raised in worker process {proc.pid}:\n{text}")
        if blob is None:
            raise error
        raise pickle.loads(blob) from error

    def close(self):
        for proc, receiver in self.live.values():
            proc.kill()
            proc.join()
            receiver.close()
        self.live.clear()
