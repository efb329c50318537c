"""Independent tasks in forked worker processes, results in task order.

``run(tasks)`` is a context manager over a list of zero-argument
callables; it yields an iterator of their return values in task order.
At a process budget of 2 or more, up to that many tasks run at once, each
in a forked worker that sends its pickled result back over a pipe, and the
first workers start on entry, so the caller works while they run.  At
budget 1 each task runs in-process when its result is asked for, one after
the other: the serial path.

A forked worker inherits the caller's memory, caches included (a built
transform, its certified free flow), so a task is never pickled.  An
exception raised in a worker is raised again in the caller, chained to a
``WorkerError`` that carries the worker's traceback; a worker that ends
without a result raises ``WorkerError``.  Workers end through ``os._exit``,
as ``multiprocessing`` ends them, so no ``atexit`` hook runs in a worker.
Leaving the context kills and reaps every worker still running.

The same budget serves ``row_split``, which spreads a product's row
blocks over threads.  A worker runs at budget 1 and starts no thread of
its own, but it borrows CPUs: each batch of forked workers shares one
token pool.  Once every task of the batch has started, the caller, while
it waits for a result, lends one token for each worker that has ended,
and a worker's ``row_split`` takes a token, where one is free, to start
one more thread.  A busy caller lends nothing, as it uses the CPU: the
certificate's twins borrow nothing while the tables are computed, nor a
sweep before its last scenario starts; the table tasks split no product.
A borrowed thread computes the same dot products as any other, so no bit
moves, and the pool ends with its batch.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import sys
import threading
import traceback
from contextlib import contextmanager, suppress
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


# rows per thread from which a split product wins (one BLAS thread, 2-core
# Xeon): a Strang step split in two took 0.71-0.77 ms against 1.04-1.24 ms
# whole at N = 1024, and lost at N = 512-1000 (1.11-1.15 against 0.99-1.05
# ms at N = 1000)
ROWS_PER_THREAD = 512


@contextmanager
def row_split(rows: int):
    """Yield ``split(fill, step)``: it runs ``fill(block)`` for each slice of
    ``step`` rows of ``rows`` (default: one share per thread), each thread
    taking the next block left, and raises what a ``fill`` raised.  Its
    first call starts min(budget, rows // ROWS_PER_THREAD) threads, the
    caller's one, so a context that splits nothing starts none; in a
    forked worker, each call below that cap takes a free token of the
    worker's batch, if any, for one more thread.  The threads are joined,
    and the tokens given back, on exit."""
    cap = max(1, rows // ROWS_PER_THREAD)
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()
    threads, borrowed, tokens = [], 0, _tokens
    unstarted = min(process_budget(), cap) - 1

    def serve():
        while (item := todo.get()) is not None:
            done.put(_run(*item))

    def grow():
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)

    def split(fill, step=None):
        nonlocal borrowed, unstarted
        for _ in range(unstarted):
            grow()
        unstarted = 0
        # a token lent by the batch's caller: one more thread, up to the cap
        if len(threads) + 1 < cap and tokens is not None and tokens.acquire(False):
            borrowed += 1
            grow()
        width = len(threads) + 1
        step = step or -(-rows // width)
        blocks = [slice(start, start + step) for start in range(0, rows, step)]
        if width == 1:
            for block in blocks:
                fill(block)
            return
        for block in blocks:
            todo.put((fill, block))
        with suppress(queue.Empty):
            while True:
                done.put(_run(*todo.get_nowait()))
        errors = [error for error in (done.get() for _ in blocks) if error is not None]
        if errors:
            raise errors[0]

    try:
        yield split
    finally:
        for thread in threads:
            todo.put(None)
        for thread in threads:
            thread.join()
        for _ in range(borrowed):
            tokens.release()


def _run(fill, block):
    """``fill(block)``; the exception it raised, or None."""
    try:
        fill(block)
    except Exception as exc:
        return exc
    return None


# the token pool of the batch that forked this worker; None in the caller
_tokens = None


def _serve(task, sender, tokens):
    """A worker's body: send ``(True, result)``, or ``(False, (exception,
    traceback text))`` with the exception pickled, or None where it does
    not survive a pickle round trip.  ``row_split`` borrows from
    ``tokens``."""
    global _tokens
    _tokens = tokens
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
        self.fork = mp.get_context("fork") if self.width > 1 else None
        self.tokens = self.fork.Semaphore(0) if self.fork else None  # see ``row_split``
        self.lent = 0
        self._fill()

    def _fill(self):
        while self.width > 1 and self.started < len(self.tasks) and len(self.live) < self.width:
            receiver, sender = self.fork.Pipe(duplex=False)
            # a worker flushes the stdio buffers it inherits when it ends, so
            # an unflushed line would be written twice (multiprocessing
            # flushes before a fork too, but does not document it)
            sys.stdout.flush()
            sys.stderr.flush()
            proc = self.fork.Process(
                target=_serve, args=(self.tasks[self.started], sender, self.tokens), daemon=True)
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
        # ready once the result arrives or the worker ends without one;
        # meanwhile each CPU that an ended worker frees is lent, once every
        # task has started (a worker's ``exitcode`` is None while it runs)
        ready = []
        while receiver not in ready and proc.sentinel not in ready:
            running = [p for p, _ in self.live.values() if p.exitcode is None]
            others = []
            if self.started == len(self.tasks) and proc in running:
                for _ in range(self.width - len(running) - self.lent):
                    self.tokens.release()
                    self.lent += 1
                others = [p.sentinel for p in running if p is not proc]
            ready = wait([receiver, proc.sentinel, *others])
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
