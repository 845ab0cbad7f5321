"""ParallelExecutor: ordering, error capture, determinism."""

import threading

import pytest

from repro.core.executor import ItemOutcome, ParallelExecutor, chunked


class TestChunked:
    def test_none_size_yields_one_chunk(self):
        assert list(chunked([1, 2, 3], None)) == [[1, 2, 3]]

    def test_oversize_yields_one_chunk(self):
        assert list(chunked([1, 2], 10)) == [[1, 2]]

    def test_empty_items_yield_nothing(self):
        assert list(chunked([], None)) == []
        assert list(chunked([], 3)) == []

    def test_even_and_ragged_splits(self):
        assert list(chunked([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            list(chunked([1], 0))
        with pytest.raises(ValueError):
            list(chunked([1], -2))


class TestMap:
    def test_sequential_is_inline(self):
        executor = ParallelExecutor()
        assert executor.sequential
        assert executor.map([1, 2, 3], lambda x: x * 2) == [2, 4, 6]

    def test_parallel_preserves_input_order(self):
        executor = ParallelExecutor(max_workers=4)
        items = list(range(100))
        assert executor.map(items, lambda x: x * x) == [x * x for x in items]

    def test_worker_count_does_not_change_results(self):
        items = [f"item-{i}" for i in range(37)]
        fn = lambda s: s.upper()  # noqa: E731
        results = {w: ParallelExecutor(w).map(items, fn) for w in (1, 2, 4, 8)}
        assert all(r == results[1] for r in results.values())

    def test_lowest_index_error_wins(self):
        def fn(x):
            if x % 3 == 0:
                raise ValueError(f"boom-{x}")
            return x
        for workers in (1, 4):
            with pytest.raises(ValueError, match="boom-3"):
                ParallelExecutor(workers).map([1, 2, 3, 4, 6], fn)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_parallel_actually_uses_threads(self):
        seen = set()

        def record(x):
            seen.add(threading.current_thread().name)
            return x

        ParallelExecutor(4).map(list(range(32)), record)
        assert len(seen) > 1


class TestMapOutcomes:
    def test_captures_errors_per_item(self):
        def fn(x):
            if x == 2:
                raise RuntimeError("two")
            return x + 10

        outcomes = ParallelExecutor(4).map_outcomes([1, 2, 3], fn)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert outcomes[0].ok and outcomes[0].value == 11
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, RuntimeError)
        assert outcomes[2].ok and outcomes[2].value == 13

    def test_never_raises(self):
        outcomes = ParallelExecutor().map_outcomes(
            [1], lambda x: (_ for _ in ()).throw(KeyError("k")))
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, KeyError)


class TestMapBatched:
    def test_flat_ordered_results(self):
        executor = ParallelExecutor(4)
        items = list(range(23))
        assert executor.map_batched(items, lambda x: -x, 5) == \
            [-x for x in items]

    def test_none_batch_size_is_one_chunk(self):
        assert ParallelExecutor().map_batched([1, 2], lambda x: x, None) == [1, 2]


class TestItemOutcome:
    def test_ok_semantics(self):
        assert ItemOutcome(0, value=1).ok
        assert ItemOutcome(0).ok  # a None value is still a value
        assert not ItemOutcome(0, error=ValueError()).ok
