"""Tests for the package's CPU workers beyond the engine's split products:
items mapped in shares."""

import sys
import threading
import time

import pytest

from vocalsim import workers as pool


def stressed(call):
    """Run call() with thread switches forced often, then restore them."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        return call()
    finally:
        sys.setswitchinterval(interval)


class TestMapInShares:
    def test_each_item_once_and_in_order(self, workers, count_splits):
        workers(4)  # more workers than this machine may have CPUs
        limits = count_splits()
        calls = []
        lock = threading.Lock()

        def double(x):
            with lock:
                calls.append(x)
            return 2 * x

        assert stressed(lambda: pool._map_in_shares(double, range(300))) == [
            2 * x for x in range(300)
        ]
        assert sorted(calls) == list(range(300))  # none lost, none run twice
        assert limits == [300]

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_earliest_failed_item_is_raised(self, workers, width):
        workers(width)

        def fail_some(x):
            if x == 7:
                time.sleep(0.02)  # so that a later item raises first
            if x in (7, 8, 40):
                raise KeyError(x)
            return x

        for _ in range(5):
            with pytest.raises(KeyError) as caught:
                stressed(lambda: pool._map_in_shares(fail_some, range(60)))
            assert caught.value.args == (7,)

    def test_no_item_is_taken_after_one_raised(self, workers):
        workers(1)
        taken = []

        def fail_at_three(x):
            taken.append(x)
            if x == 3:
                raise ValueError("bad item")
            return x

        with pytest.raises(ValueError, match="bad item"):
            pool._map_in_shares(fail_at_three, range(10))
        assert taken == [0, 1, 2, 3]  # as the loop in item order stops

    def test_no_items(self, workers):
        workers(2)
        assert pool._map_in_shares(str, []) == []
