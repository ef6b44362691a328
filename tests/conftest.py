"""Fixtures shared by the test modules: control of the package's CPU
workers."""

import pytest

from vocalsim import autodiff
from vocalsim import workers as pool


@pytest.fixture
def workers(monkeypatch):
    """install(n) gives the package n workers and the engine a split rule
    low enough for test-sized products: each share still carries 2**20
    multiply-adds, above the BLAS's small-matrix cut-off, as the production
    minimum is."""
    monkeypatch.setattr(autodiff, "_SPLIT_MADDS", 1 << 20)
    original = pool._workers_now  # restored afterwards, so left running

    def install(width):
        shut_down()
        monkeypatch.setattr(pool, "_cpu_count", lambda: width)
        monkeypatch.setattr(pool, "_workers_now", None)

    def shut_down():
        made = pool._workers_now
        if made is not None and made is not original and made._pool is not None:
            made._pool.shutdown()

    yield install
    shut_down()


@pytest.fixture
def count_splits(monkeypatch):
    """count_splits() starts recording the limit of every job handed to the
    workers, as it is handed, and returns the list it records into."""

    def start() -> list:
        limits = []
        run = pool._Workers.run

        def spy(self, task, limit):
            limits.append(limit)
            run(self, task, limit)

        monkeypatch.setattr(pool._Workers, "run", spy)
        return limits

    return start
