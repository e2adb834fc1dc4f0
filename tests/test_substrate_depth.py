"""Depth tests for substrate guarantees the upper layers quietly rely on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import benchmark_mapping, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import Environment, Resource, SimCluster, Store, cspi
from repro.mpi import MpiWorld


class TestMessageOrdering:
    def test_same_pair_same_tag_fifo(self):
        """Messages between one (src, dst, tag) triple arrive in send order."""
        env = Environment()
        world = MpiWorld(SimCluster.from_platform(env, cspi(), 2))

        def sender(comm):
            for i in range(10):
                yield from comm.send(i, dest=1, tag=4)

        def receiver(comm):
            got = []
            for _ in range(10):
                got.append((yield from comm.recv(source=0, tag=4)))
            return got

        world.spawn_rank(0, sender)
        p = world.spawn_rank(1, receiver)
        world.env.run(until=p)
        assert p.value == list(range(10))

    def test_any_source_receives_all_eventually(self):
        env = Environment()
        world = MpiWorld(SimCluster.from_platform(env, cspi(), 4))

        def sender(comm):
            for i in range(3):
                yield from comm.send((comm.rank, i), dest=3)

        def receiver(comm):
            got = set()
            for _ in range(9):
                got.add((yield from comm.recv()))
            return got

        for r in range(3):
            world.spawn_rank(r, sender)
        p = world.spawn_rank(3, receiver)
        world.env.run(until=p)
        assert p.value == {(r, i) for r in range(3) for i in range(3)}


class TestStoreEdges:
    def test_put_to_waiting_getter_bypasses_queue(self):
        env = Environment()
        store = Store(env, capacity=1)
        order = []

        def getter():
            item = yield store.get()
            order.append(("got", item))

        def putter():
            yield env.timeout(1)
            yield store.put("x")
            order.append(("put-done", env.now))

        env.process(getter())
        env.process(putter())
        env.run()
        assert ("got", "x") in order
        assert len(store) == 0

    def test_capacity_frees_in_fifo_order(self):
        env = Environment()
        store = Store(env, capacity=1)
        done = []

        def producer(tag):
            yield store.put(tag)
            done.append(tag)

        def consumer():
            for _ in range(3):
                yield env.timeout(1)
                yield store.get()

        for tag in ("a", "b", "c"):
            env.process(producer(tag))
        env.process(consumer())
        env.run()
        assert done == ["a", "b", "c"]


class TestResourceEdges:
    def test_release_hands_slot_directly_to_waiter(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def holder():
            yield res.request()
            yield env.timeout(5)
            res.release()

        def waiter(tag):
            yield res.request()
            order.append((tag, env.now))
            yield env.timeout(1)
            res.release()

        env.process(holder())
        env.process(waiter("w1"))
        env.process(waiter("w2"))
        env.run()
        assert order == [("w1", 5.0), ("w2", 6.0)]
        assert res.count == 0

    def test_queue_length_visible(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            yield res.request()
            yield env.timeout(10)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        env.process(holder())
        env.process(waiter())
        env.process(waiter())
        env.run(until=1.0)
        assert res.queue_length == 2


class TestAdmissionInteractions:
    def make_runtime(self, config):
        app = fft2d_model(64, 2)
        glue = generate_glue(app, benchmark_mapping(app, 2), num_processors=2)
        return SageRuntime.build(glue, cspi(), config=config)

    def test_deeper_pipelines_never_slower_throughput(self):
        periods = {}
        for depth in (1, 2, 4):
            runtime = self.make_runtime(
                DEFAULT_CONFIG.timing_only().pipelined(depth)
            )
            periods[depth] = runtime.run(iterations=10).period
        assert periods[2] <= periods[1] * 1.001
        assert periods[4] <= periods[2] * 1.001

    def test_source_interval_with_depth_one(self):
        runtime = self.make_runtime(DEFAULT_CONFIG.timing_only())
        base = runtime.run(iterations=4)
        interval = base.mean_latency * 3
        runtime2 = self.make_runtime(DEFAULT_CONFIG.timing_only())
        throttled = runtime2.run(iterations=4, source_interval=interval)
        assert throttled.period == pytest.approx(interval, rel=0.02)
        # throttling doesn't change per-data-set latency
        assert throttled.mean_latency == pytest.approx(base.mean_latency, rel=1e-9)


class TestCollectivePayloadProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_alltoall_random_matrices_roundtrip(self, seed):
        """alltoall followed by its inverse permutation restores the blocks."""
        rng = np.random.default_rng(seed)
        blocks_by_rank = [
            [rng.normal(size=3) for _ in range(4)] for _ in range(4)
        ]
        env = Environment()
        world = MpiWorld(SimCluster.from_platform(env, cspi(), 4))

        def prog(comm):
            received = yield from comm.alltoall(list(blocks_by_rank[comm.rank]))
            # send everything straight back
            back = yield from comm.alltoall(received)
            return back

        world.spawn(prog)
        results = world.run()
        for rank, back in enumerate(results):
            for d in range(4):
                np.testing.assert_array_equal(back[d], blocks_by_rank[rank][d])
