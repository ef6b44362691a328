"""The process's CPU workers: jobs cut into shares, one share per CPU.

The package uses every CPU in the process's affinity mask. A job that can
be cut into independent shares (a column range of a product, a range of
bands of a factored weight grad, one variant unit of a recording's
segments, one recording of a request) is run with _in_shares, or with
_map_in_shares for a list of items: the calling thread computes one share
and a private pool of threads, created on first use and again in a forked
child, the others. A job below two shares, and every job when the mask
holds one CPU, runs on the calling thread alone, and no pool is made for
it.

A share never splits again: a job started inside a share runs inline on
that share's thread, as one share. So a share may call any function of
the package, and no share waits on work queued behind it in the pool.
"""

import os
import threading


class _Workers:
    """Jobs cut into shares: run(task, limit) runs task(i, parts) for each
    share i < parts = min(limit, width), share 0 on the calling thread and
    the others on a pool of width - 1 threads. Called through _in_shares,
    which never calls it from inside a share."""

    def __init__(self, width: int):
        # imported here, so that a process that never splits loads none of it
        from concurrent.futures import ThreadPoolExecutor

        self.width = width
        self._pool = ThreadPoolExecutor(width - 1, "vocalsim") if width > 1 else None

    def run(self, task, limit: int) -> None:
        """Return when every share has finished; an exception from any of
        them is raised then, the calling thread's first."""
        parts = min(limit, self.width)
        if parts < 2:
            task(0, 1)
            return
        futures = [self._pool.submit(_as_share, task, i, parts) for i in range(1, parts)]
        try:
            _as_share(task, 0, parts)
        finally:
            errors = [future.exception() for future in futures]  # waits for each
        for error in errors:
            if error is not None:
                raise error


_workers_lock = threading.Lock()
_workers_now = None
_thread = threading.local()  # .in_share: this thread is running a share


def _as_share(task, i: int, parts: int) -> None:
    _thread.in_share = True
    try:
        task(i, parts)
    finally:
        _thread.in_share = False


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers() -> _Workers:
    """The process's workers, one per CPU it may run on; made on first use."""
    global _workers_now
    with _workers_lock:
        if _workers_now is None:
            _workers_now = _Workers(_cpu_count())
        return _workers_now


def _forget_workers() -> None:
    # a forked child has only the forking thread: the parent's pool threads
    # are gone, and the lock may have been copied held
    global _workers_lock, _workers_now, _thread
    _workers_lock = threading.Lock()
    _workers_now = None
    _thread = threading.local()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _in_shares(task, limit: int) -> None:
    """task(i, parts) for the shares of a job that can be cut into at most
    limit shares (see _Workers.run); below two, or inside a share,
    task(0, 1) alone, and no work is submitted."""
    if limit < 2 or getattr(_thread, "in_share", False):
        task(0, 1)
    else:
        _workers().run(task, limit)


def _cut(n: int, i: int, parts: int) -> slice:
    """Share i of parts of range(n): the shares are contiguous, disjoint and
    cover range(n)."""
    return slice(i * n // parts, (i + 1) * n // parts)


def _map_in_shares(fn, items) -> list:
    """[fn(item) for item in items], the items run in shares: each share
    takes the next item not yet taken until none is left, and the results
    come back in item order. An exception is the one the loop would raise,
    that of the earliest item that raised: items are taken in order, and
    none is taken once one has raised."""
    items = list(items)
    results = [None] * len(items)
    errors = {}
    taken = iter(range(len(items)))
    lock = threading.Lock()

    def share(i, parts):
        while True:
            with lock:
                k = None if errors else next(taken, None)
            if k is None:
                return
            try:
                results[k] = fn(items[k])
            except Exception as exc:
                with lock:
                    errors[k] = exc

    _in_shares(share, len(items))
    if errors:
        raise errors[min(errors)]
    return results
