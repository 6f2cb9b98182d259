"""Unit tests for the utility helpers (RNG, timer, validation, GC pause)."""

from __future__ import annotations

import gc
import random
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.collector import paused_gc
from repro.utils.rng import derive_rng, ensure_rng
from repro.utils.timer import Timer, timed
from repro.utils.validation import (
    require,
    require_in_range,
    require_non_negative,
    require_positive,
)


class TestEnsureRng:
    def test_seed_gives_deterministic_stream(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_existing_rng_returned_unchanged(self):
        rng = random.Random(1)
        assert ensure_rng(rng) is rng

    def test_none_gives_rng(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_derive_rng_independent_streams(self):
        base = random.Random(3)
        child_a = derive_rng(base, "a")
        base2 = random.Random(3)
        child_b = derive_rng(base2, "b")
        assert child_a.random() != child_b.random()


class TestTimer:
    def test_accumulates_elapsed(self):
        timer = Timer()
        timer.start()
        time.sleep(0.01)
        elapsed = timer.stop()
        assert elapsed >= 0.01
        assert timer.elapsed == elapsed

    def test_context_manager(self):
        with timed() as timer:
            time.sleep(0.005)
        assert timer.elapsed >= 0.005
        assert not timer.running

    def test_stop_without_start_is_safe(self):
        timer = Timer()
        assert timer.stop() == 0.0

    def test_reset(self):
        timer = Timer()
        with timer:
            time.sleep(0.002)
        timer.reset()
        assert timer.elapsed == 0.0

    def test_running_flag(self):
        timer = Timer()
        assert not timer.running
        timer.start()
        assert timer.running
        timer.stop()
        assert not timer.running


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises(self):
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")

    def test_require_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ConfigurationError):
            require_non_negative(-1, "x")

    def test_require_in_range(self):
        require_in_range(0.5, 0.0, 1.0, "x")
        with pytest.raises(ConfigurationError):
            require_in_range(2.0, 0.0, 1.0, "x")


class TestPausedGc:
    """``paused_gc`` restores the collector whatever happens inside it."""

    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
            with paused_gc():  # nested: the outer block still owns the pause
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with paused_gc():
                raise RuntimeError("conversion failed")
        assert gc.isenabled()

    def test_noop_when_caller_disabled_it(self):
        gc.disable()
        try:
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled(), "the caller's own disable must survive"
        finally:
            gc.enable()

    def test_overlapping_threads_never_leave_it_disabled(self):
        """Two conversions at once: the first to leave must not re-enable
        under the other, and the last to leave must."""
        inside = threading.Barrier(2, timeout=10)
        first_left = threading.Event()
        seen = []

        def first():
            with paused_gc():
                inside.wait()
            first_left.set()

        def second():
            with paused_gc():
                inside.wait()
                first_left.wait(timeout=10)
                seen.append(gc.isenabled())

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen == [False]
        assert gc.isenabled()

    def test_rows_as_tuples_leaves_the_collector_as_found(self):
        from repro.core.result import rows_as_tuples

        array = np.arange(12, dtype=np.int64).reshape(4, 3)
        assert rows_as_tuples(array) == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
        assert gc.isenabled()
