"""Tests for the pluggable execution layer (repro.core.executor)."""

import threading

import pytest

from repro.core.executor import (
    ExecutorConfig,
    MAX_WORKERS_ENV,
    ParallelExecutor,
    SerialExecutor,
    create_executor,
    default_max_workers,
    shard,
)


class TestExecutorConfig:
    def test_defaults_are_serial(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert ExecutorConfig().max_workers == 1

    def test_env_var_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "4")
        assert default_max_workers() == 4
        assert ExecutorConfig().max_workers == 4

    def test_env_var_garbage_falls_back_to_serial(self, monkeypatch):
        for bad in ("zero", "", "  ", "-3"):
            monkeypatch.setenv(MAX_WORKERS_ENV, bad)
            assert default_max_workers() == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(max_workers=0)
        with pytest.raises(ValueError):
            ExecutorConfig(min_chunk_size=0)


class TestCreateExecutor:
    def test_one_worker_selects_serial(self):
        assert isinstance(create_executor(ExecutorConfig(max_workers=1)), SerialExecutor)

    def test_many_workers_select_parallel(self):
        executor = create_executor(ExecutorConfig(max_workers=3))
        try:
            assert isinstance(executor, ParallelExecutor)
            assert executor.max_workers == 3
        finally:
            executor.close()

    def test_parallel_refuses_single_worker(self):
        with pytest.raises(ValueError):
            ParallelExecutor(ExecutorConfig(max_workers=1))


class TestMapSemantics:
    @pytest.mark.parametrize("make", [
        lambda: SerialExecutor(),
        lambda: ParallelExecutor(ExecutorConfig(max_workers=4)),
    ])
    def test_map_preserves_order(self, make):
        with make() as executor:
            assert executor.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    @pytest.mark.parametrize("make", [
        lambda: SerialExecutor(),
        lambda: ParallelExecutor(ExecutorConfig(max_workers=4)),
    ])
    def test_map_propagates_exceptions(self, make):
        def boom(x):
            if x == 7:
                raise RuntimeError("item 7 failed")
            return x

        with make() as executor:
            with pytest.raises(RuntimeError, match="item 7"):
                executor.map(boom, range(10))

    def test_map_handles_empty_and_single_item(self):
        with ParallelExecutor(ExecutorConfig(max_workers=2)) as executor:
            assert executor.map(lambda x: x, []) == []
            assert executor.map(lambda x: x + 1, [41]) == [42]

    def test_parallel_actually_fans_out(self):
        barrier = threading.Barrier(3, timeout=5)

        def rendezvous(_):
            # Only passes if 3 workers are inside map at the same time.
            barrier.wait()
            return threading.current_thread().name

        with ParallelExecutor(ExecutorConfig(max_workers=3)) as executor:
            names = executor.map(rendezvous, range(3))
        assert len(set(names)) == 3

    def test_concurrent_submitters_share_one_pool(self):
        executor = ParallelExecutor(ExecutorConfig(max_workers=4))
        results = {}

        def submit(tag):
            results[tag] = executor.map(lambda x: (tag, x), range(8))

        try:
            threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for tag, out in results.items():
                assert out == [(tag, x) for x in range(8)]
        finally:
            executor.close()

    def test_closed_parallel_executor_refuses_work(self):
        executor = ParallelExecutor(ExecutorConfig(max_workers=2))
        executor.map(lambda x: x, range(4))
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(RuntimeError):
            executor.map(lambda x: x, range(4))
        with pytest.raises(RuntimeError):
            executor.map(lambda x: x, [1])  # single-item fast path too


class TestShard:
    def test_concatenation_reproduces_input(self):
        for n_items in (0, 1, 5, 17, 100):
            items = list(range(n_items))
            for n_shards in (1, 2, 3, 8, 200):
                chunks = shard(items, n_shards)
                assert [x for chunk in chunks for x in chunk] == items

    def test_chunk_sizes_differ_by_at_most_one(self):
        chunks = shard(list(range(23)), 4)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert len(chunks) == 4

    def test_min_chunk_size_limits_shard_count(self):
        assert len(shard(list(range(10)), 8, min_chunk_size=6)) == 1
        assert len(shard(list(range(100)), 8, min_chunk_size=25)) == 4

    def test_deterministic_pure_function(self):
        items = list(range(37))
        assert shard(items, 5, 4) == shard(items, 5, 4)
