"""InferenceService concurrency suite: the degradation contract.

The guarantees under test, per ISSUE acceptance criteria:

* a request past its deadline gets a typed ``DeadlineExceeded`` — never
  a silent slow reply;
* shed requests never reach the forward pass;
* batched results are bit-identical to per-request serial execution;
* LRU eviction under memory pressure never interrupts serving;
* every submitted request resolves to exactly one typed reply.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core.model_store import compress_model
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.sequential import Sequential
from repro.runtime.pool import RunPolicy
from repro.serve import (
    DeadlineExceeded,
    DecodedWeightCache,
    Failed,
    InferenceService,
    Ok,
    Overloaded,
    ServeConfig,
    ServedModel,
)


def run(coro):
    return asyncio.run(coro)


class RecordingModel:
    """Duck-typed model: doubles its input, records what it saw."""

    input_shape = None

    def __init__(self, delay: float = 0.0, gate: threading.Event | None = None):
        self.delay = delay
        self.gate = gate
        self.batch_sizes: list[int] = []
        self.seen: list[float] = []

    def forward_batch(self, xs):
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test gate never opened"
        if self.delay:
            time.sleep(self.delay)
        self.batch_sizes.append(len(xs))
        self.seen.extend(float(np.ravel(x)[0]) for x in xs)
        return [x * 2.0 for x in xs]


def mark(v: float) -> np.ndarray:
    """A request payload tagged with a recognizable first element."""
    return np.full(3, v, dtype=np.float32)


def mlp(seed: int = 7):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            ("dense_1", Dense(12, 16, rng=rng)),
            ("relu_1", ReLU()),
            ("dense_2", Dense(16, 5, rng=rng)),
            ("softmax", Softmax()),
        ],
        name="served-mlp",
    )


def served_mlp(cache=None) -> ServedModel:
    archive = compress_model(mlp(), {"dense_1": 5.0})
    return ServedModel(mlp(), archive, cache=cache, input_shape=(12,))


class TestDeadlines:
    def test_slow_batch_returns_typed_error_not_slow_reply(self):
        """A computed-but-late result is discarded (executed=True)."""
        model = RecordingModel(delay=0.2)

        async def go():
            svc = InferenceService(
                model, ServeConfig(policy=RunPolicy(timeout=0.05))
            )
            async with svc:
                return await svc.submit(mark(1.0)), svc

        reply, svc = run(go())
        assert isinstance(reply, DeadlineExceeded)
        assert reply.executed is True
        assert reply.waited_s >= reply.deadline_s == 0.05
        assert svc.deadline_exceeded == 1 and svc.ok == 0

    def test_expired_in_queue_skips_forward(self):
        """Requests whose deadline lapses while queued never execute."""
        gate = threading.Event()
        model = RecordingModel(gate=gate)

        async def go():
            svc = InferenceService(
                model,
                ServeConfig(max_batch=1, policy=RunPolicy(timeout=0.08)),
            )
            async with svc:
                # r0 gets a generous deadline: it spends the gated wait
                # executing, and only r1 should expire
                t0 = asyncio.ensure_future(svc.submit(mark(1.0), deadline=10.0))
                await asyncio.sleep(0.02)  # batcher takes r0, blocks on gate
                t1 = asyncio.ensure_future(svc.submit(mark(2.0)))
                await asyncio.sleep(0.15)  # r1's deadline lapses in queue
                gate.set()
                return await t0, await t1, svc

        r0, r1, svc = run(go())
        assert isinstance(r0, Ok)
        assert isinstance(r1, DeadlineExceeded)
        assert r1.executed is False
        assert r1.waited_s >= r1.deadline_s
        assert 2.0 not in model.seen, "expired request must not execute"
        assert svc.deadline_expired == 1

    def test_per_request_deadline_overrides_policy(self):
        model = RecordingModel(delay=0.1)

        async def go():
            svc = InferenceService(
                model, ServeConfig(policy=RunPolicy(timeout=5.0))
            )
            async with svc:
                return await svc.submit(mark(1.0), deadline=0.02)

        reply = run(go())
        assert isinstance(reply, DeadlineExceeded)

    def test_infinite_deadline_disables_policy_timeout(self):
        model = RecordingModel(delay=0.06)

        async def go():
            svc = InferenceService(
                model, ServeConfig(policy=RunPolicy(timeout=0.01))
            )
            async with svc:
                return await svc.submit(mark(1.0), deadline=float("inf"))

        assert isinstance(run(go()), Ok)


class TestShedding:
    def test_overload_sheds_with_typed_reply_and_no_execution(self):
        gate = threading.Event()
        model = RecordingModel(gate=gate)

        async def go():
            svc = InferenceService(
                model,
                ServeConfig(
                    max_batch=1, max_queue=2, policy=RunPolicy(timeout=None)
                ),
            )
            async with svc:
                running = asyncio.ensure_future(svc.submit(mark(0.0)))
                await asyncio.sleep(0.02)  # r0 now occupies the executor
                queued = [
                    asyncio.ensure_future(svc.submit(mark(float(i))))
                    for i in (1, 2)
                ]
                await asyncio.sleep(0)  # both admitted: queue full
                shed = [await svc.submit(mark(float(i))) for i in (3, 4)]
                gate.set()
                admitted = [await running, *[await t for t in queued]]
                return admitted, shed, svc

        admitted, shed, svc = run(go())
        assert all(isinstance(r, Ok) for r in admitted)
        assert all(isinstance(r, Overloaded) for r in shed)
        assert all(r.queue_depth == 2 for r in shed)
        # the shed payloads (3.0, 4.0) never reached the model
        assert set(model.seen) == {0.0, 1.0, 2.0}
        assert svc.shed == 2 and svc.ok == 3

    def test_shed_reply_is_immediate_while_batch_runs(self):
        gate = threading.Event()
        model = RecordingModel(gate=gate)

        async def go():
            svc = InferenceService(
                model,
                ServeConfig(
                    max_batch=1, max_queue=1, policy=RunPolicy(timeout=None)
                ),
            )
            async with svc:
                running = asyncio.ensure_future(svc.submit(mark(0.0)))
                await asyncio.sleep(0.02)
                blocker = asyncio.ensure_future(svc.submit(mark(1.0)))
                await asyncio.sleep(0)
                t0 = time.perf_counter()
                reply = await svc.submit(mark(2.0))
                shed_latency = time.perf_counter() - t0
                gate.set()
                await running, await blocker
                return reply, shed_latency

        reply, shed_latency = run(go())
        assert isinstance(reply, Overloaded)
        assert shed_latency < 0.05, "shedding must not wait for the batch"


class TestBitIdentity:
    def test_batched_replies_equal_serial_execution(self):
        """Concurrent batched serving == one-at-a-time serving, bitwise."""
        sm = served_mlp()
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal(12).astype(np.float32) for _ in range(24)]

        async def go():
            svc = InferenceService(
                sm, ServeConfig(max_batch=8, policy=RunPolicy(timeout=None))
            )
            async with svc:
                return await asyncio.gather(*(svc.submit(x) for x in xs)), svc

        replies, svc = run(go())
        assert all(isinstance(r, Ok) for r in replies)
        assert max(r.batch_size for r in replies) > 1, "no batching happened"
        serial = [sm.forward(x) for x in xs]
        for r, s in zip(replies, serial):
            assert np.array_equal(r.output, s), (
                "batched output must be bit-identical to serial"
            )

    def test_eviction_under_pressure_keeps_serving(self):
        """A cache far smaller than the weights still serves correctly."""
        tight = DecodedWeightCache(max_bytes=8)
        sm = served_mlp(cache=tight)
        reference = served_mlp()
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal(12).astype(np.float32) for _ in range(12)]

        async def go():
            svc = InferenceService(
                sm, ServeConfig(max_batch=4, policy=RunPolicy(timeout=None))
            )
            async with svc:
                return await asyncio.gather(*(svc.submit(x) for x in xs))

        replies = run(go())
        assert all(isinstance(r, Ok) for r in replies)
        for r, x in zip(replies, xs):
            assert np.array_equal(r.output, reference.forward(x))


class TestReplies:
    def test_every_request_gets_exactly_one_reply(self):
        """Mixed load: ok + shed + expired all resolve, none silently."""
        gate = threading.Event()
        model = RecordingModel(gate=gate)

        async def go():
            svc = InferenceService(
                model,
                ServeConfig(
                    max_batch=2, max_queue=3, policy=RunPolicy(timeout=0.2)
                ),
            )
            async with svc:
                tasks = [
                    asyncio.ensure_future(svc.submit(mark(float(i))))
                    for i in range(10)
                ]
                await asyncio.sleep(0.05)
                gate.set()
                return await asyncio.gather(*tasks), svc

        replies, svc = run(go())
        assert len(replies) == 10
        assert all(
            isinstance(r, (Ok, Overloaded, DeadlineExceeded, Failed))
            for r in replies
        )
        c = svc.counters()
        assert c["requests"] == 10
        assert (
            c["ok"]
            + c["shed"]
            + c["deadline_expired"]
            + c["deadline_exceeded"]
            + c["failed"]
            == 10
        )

    def test_forward_exception_becomes_failed_reply(self):
        class Exploding:
            input_shape = None

            def forward_batch(self, xs):
                raise RuntimeError("boom")

        async def go():
            svc = InferenceService(
                Exploding(), ServeConfig(policy=RunPolicy(timeout=None))
            )
            async with svc:
                return await svc.submit(mark(1.0))

        reply = run(go())
        assert isinstance(reply, Failed)
        assert "boom" in reply.error

    def test_bad_input_shape_fails_at_admission(self):
        model = RecordingModel()
        model.input_shape = (12,)

        async def go():
            svc = InferenceService(model, ServeConfig())
            async with svc:
                return await svc.submit(np.zeros(5, dtype=np.float32))

        reply = run(go())
        assert isinstance(reply, Failed)
        assert "shape" in reply.error
        assert model.batch_sizes == []

    def test_nonpositive_deadline_rejected(self):
        async def go():
            svc = InferenceService(RecordingModel(), ServeConfig())
            async with svc:
                with pytest.raises(ValueError, match="deadline"):
                    await svc.submit(mark(1.0), deadline=-1.0)

        run(go())


class TestBatching:
    def test_max_batch_splits_oversized_load(self):
        model = RecordingModel()

        async def go():
            svc = InferenceService(
                model, ServeConfig(max_batch=4, policy=RunPolicy(timeout=None))
            )
            async with svc:
                return await asyncio.gather(
                    *(svc.submit(mark(float(i))) for i in range(10))
                )

        replies = run(go())
        assert all(isinstance(r, Ok) for r in replies)
        assert max(model.batch_sizes) <= 4
        assert sum(model.batch_sizes) == 10

    def test_stop_settles_queued_requests(self):
        model = RecordingModel()

        async def go():
            svc = InferenceService(
                model, ServeConfig(policy=RunPolicy(timeout=None))
            )
            svc.start()
            tasks = [
                asyncio.ensure_future(svc.submit(mark(float(i))))
                for i in range(5)
            ]
            await asyncio.sleep(0)
            await svc.stop()
            return [await t for t in tasks]

        replies = run(go())
        assert all(isinstance(r, Ok) for r in replies)


class TestStopRaces:
    """Regressions: stop()/cancellation must never strand a future."""

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_stop_after_burst_settles_each_request_once(self, turns):
        """stop() lands ``turns`` event-loop turns after a burst is
        queued: before the batcher resumes with its first pop, while a
        forward is in flight, or between batches.  Every request still
        resolves to its own typed reply, and the model sees every input
        exactly once."""
        model = RecordingModel()
        n = 8

        async def go():
            svc = InferenceService(
                model, ServeConfig(max_batch=3, policy=RunPolicy(timeout=None))
            )
            svc.start()
            tasks = [
                asyncio.ensure_future(svc.submit(mark(float(i))))
                for i in range(n)
            ]
            await asyncio.sleep(0)  # every submit runs up to its enqueue
            assert svc._queue.qsize() == n
            for _ in range(turns):
                await asyncio.sleep(0)
            await svc.stop()
            return svc, await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)

        svc, replies = run(go())
        assert all(isinstance(r, Ok) for r in replies)
        for i, r in enumerate(replies):
            assert np.array_equal(r.output, mark(float(i)) * 2.0)
        assert sorted(model.seen) == [float(i) for i in range(n)]
        assert svc.ok == n and sum(model.batch_sizes) == n

    def test_stop_mid_forward_delivers_computed_result(self):
        """Cancellation during the executor forward used to settle the
        batch with Failed(CancelledError) instead of its real outputs."""
        model = RecordingModel(delay=0.15)

        async def go():
            svc = InferenceService(
                model, ServeConfig(policy=RunPolicy(timeout=None))
            )
            svc.start()
            t = asyncio.ensure_future(svc.submit(mark(3.0)))
            await asyncio.sleep(0.05)  # forward in flight on the executor
            await svc.stop()
            return await asyncio.wait_for(t, timeout=5.0)

        reply = run(go())
        assert isinstance(reply, Ok)
        assert np.array_equal(reply.output, mark(3.0) * 2.0)

    def test_submit_after_stop_fails_fast_instead_of_hanging(self):
        model = RecordingModel()

        async def go():
            svc = InferenceService(
                model, ServeConfig(policy=RunPolicy(timeout=None))
            )
            svc.start()
            await svc.stop()
            return await asyncio.wait_for(svc.submit(mark(1.0)), timeout=5.0)

        reply = run(go())
        assert isinstance(reply, Failed)
        assert "not running" in reply.error
        assert model.seen == []

    def test_submit_before_start_fails_fast(self):
        async def go():
            svc = InferenceService(
                RecordingModel(), ServeConfig(policy=RunPolicy(timeout=None))
            )
            return await asyncio.wait_for(svc.submit(mark(1.0)), timeout=5.0)

        assert isinstance(run(go()), Failed)


class TestModelContract:
    def test_short_forward_output_fails_whole_batch_not_hang(self):
        """A model returning fewer outputs than inputs used to
        zip-truncate, stranding the tail futures forever."""
        gate = threading.Event()

        class Truncating:
            input_shape = None

            def forward_batch(self, xs):
                assert gate.wait(timeout=10.0), "test gate never opened"
                return [x * 2.0 for x in xs][:-1]

        async def go():
            svc = InferenceService(
                Truncating(), ServeConfig(policy=RunPolicy(timeout=None))
            )
            async with svc:
                tasks = [
                    asyncio.ensure_future(svc.submit(mark(float(i))))
                    for i in range(3)
                ]
                await asyncio.sleep(0.02)
                gate.set()
                return await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=5.0
                )

        replies = run(go())
        assert all(isinstance(r, Failed) for r in replies)
        assert all("forward_batch returned" in r.error for r in replies)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_queue": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_double_start_rejected(self):
        async def go():
            svc = InferenceService(RecordingModel(), ServeConfig())
            async with svc:
                with pytest.raises(RuntimeError, match="already started"):
                    svc.start()

        run(go())


class TestObs:
    def test_service_metrics_recorded(self):
        sm = served_mlp()
        rng = np.random.default_rng(2)
        xs = [rng.standard_normal(12).astype(np.float32) for _ in range(8)]

        async def go():
            svc = InferenceService(
                sm, ServeConfig(policy=RunPolicy(timeout=None))
            )
            async with svc:
                await asyncio.gather(*(svc.submit(x) for x in xs))

        with obs.use(obs.Obs()) as o:
            run(go())
        assert o.metrics.value("serve.requests") == 8
        assert o.metrics.value("serve.ok") == 8
        rows = {r["name"]: r for r in o.metrics.snapshot()}
        assert rows["serve.latency_seconds"]["count"] == 8
        assert rows["serve.batch_size"]["count"] >= 1
        # cache counts recorded from the forward thread (context copy)
        assert o.metrics.value("serve.cache.misses") >= 1
