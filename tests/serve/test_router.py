"""FleetRouter + CircuitBreaker: retry, breaker state machine.

The router is deliberately duck-typed over replica handles, so these
tests drive it with in-process fakes — no sockets, no subprocesses, no
real time beyond short deadlines.  The breaker runs on an injected
clock and never sleeps.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.runtime.pool import RunPolicy
from repro.serve.fleet import FleetConfig
from repro.serve.replies import DeadlineExceeded, Failed, Ok, Overloaded
from repro.serve.router import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, FleetRouter


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        b = CircuitBreaker(clock=FakeClock())
        assert b.state == CLOSED and b.allow()

    def test_trips_open_at_threshold(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=3, clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN and b.trips == 1
        assert not b.allow()

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED  # streak broken: 1+1 non-consecutive

    def test_half_open_after_reset_window(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, reset_after=5.0, clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.advance(4.9)
        assert not b.allow()
        clock.advance(0.2)
        assert b.allow()  # the transition itself
        assert b.state == HALF_OPEN

    def test_half_open_trial_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED and b.failures == 0

    def test_half_open_trial_failure_reopens_with_fresh_clock(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, reset_after=1.0, clock=clock)
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        b.record_failure()
        assert b.state == OPEN
        clock.advance(0.5)
        assert not b.allow()  # the cooldown restarted at the trial failure
        clock.advance(0.5)
        assert b.allow()

    def test_reset_restores_pristine_closed(self):
        clock = FakeClock()
        b = CircuitBreaker(failure_threshold=1, clock=clock)
        b.record_failure()
        b.reset()
        assert b.state == CLOSED and b.failures == 0 and b.allow()

    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_after"):
            CircuitBreaker(reset_after=0)


class FakeClient:
    """Scripted replica client: pops the next behaviour per request."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    async def request(self, doc, timeout):
        self.calls += 1
        action = self.script.pop(0) if self.script else "ok"
        if action == "ok":
            return {
                "status": "ok",
                "output": [1.0],
                "latency_s": 0.001,
                "batch_size": 1,
            }
        if action == "degraded":
            return {
                "status": "ok",
                "output": [0.0],
                "latency_s": 0.001,
                "batch_size": 1,
                "degraded": {"dense_1": {"action": "zero-fill"}},
            }
        if action == "failed":
            return {"status": "failed", "error": "scripted failure"}
        if action == "overloaded":
            return {"status": "overloaded", "queue_depth": 9}
        if action == "conn":
            raise ConnectionError("scripted transport death")
        if isinstance(action, float):
            await asyncio.sleep(action)
            return {
                "status": "ok",
                "output": [2.0],
                "latency_s": action,
                "batch_size": 1,
            }
        raise AssertionError(f"unknown script action {action!r}")


class FakeReplica:
    def __init__(self, index, script=(), ready=True):
        self.index = index
        self.client = FakeClient(script)
        self.breaker = CircuitBreaker(failure_threshold=5, clock=FakeClock())
        self.ready = ready

    def available(self):
        return self.ready and self.breaker.allow()


def router_for(replicas, **cfg):
    cfg.setdefault("replicas", max(len(replicas), 1))
    cfg.setdefault("policy", RunPolicy(timeout=5.0))
    config = FleetConfig(**cfg)
    return FleetRouter(lambda: replicas, config)


X = np.zeros(4, np.float32)


class TestRouting:
    def test_ok_first_try(self):
        reps = [FakeReplica(0), FakeReplica(1)]
        router = router_for(reps)
        reply = run(router.submit(X))
        assert isinstance(reply, Ok)
        assert router.requests == 1 and router.ok == 1 and router.retries == 0

    def test_round_robin_spreads_load(self):
        reps = [FakeReplica(0), FakeReplica(1)]
        router = router_for(reps)

        async def many():
            for _ in range(10):
                await router.submit(X)

        run(many())
        assert reps[0].client.calls > 0 and reps[1].client.calls > 0

    def test_failed_retries_on_other_replica(self):
        reps = [FakeReplica(0, ["failed"]), FakeReplica(1, ["failed"])]
        # whichever goes first fails; the retry must land on the *other*
        # replica (which also fails once), so both get traffic before
        # the third attempt succeeds
        router = router_for(reps)
        reply = run(router.submit(X))
        assert isinstance(reply, Ok)
        assert router.retries >= 1
        assert reps[0].client.calls >= 1 and reps[1].client.calls >= 1

    def test_transport_error_is_typed_and_retried(self):
        reps = [FakeReplica(0, ["conn"]), FakeReplica(1, ["conn"])]
        router = router_for(reps)
        reply = run(router.submit(X))
        # both replicas die on their first request; the third attempt
        # lands on one of them again and succeeds
        assert isinstance(reply, Ok)
        assert router.transport_errors == 2
        assert router.retries == 2

    def test_all_replicas_failing_returns_last_failure(self):
        reps = [
            FakeReplica(0, ["failed"] * 5),
            FakeReplica(1, ["failed"] * 5),
        ]
        router = router_for(reps, max_attempts=3)
        reply = run(router.submit(X))
        assert isinstance(reply, Failed)
        assert router.exhausted == 1

    def test_overloaded_retries_then_surfaces(self):
        reps = [FakeReplica(0, ["overloaded"] * 5)]
        router = router_for(reps, max_attempts=2)
        reply = run(router.submit(X))
        assert isinstance(reply, Overloaded)

    def test_no_replica_ready_fails_typed(self):
        reps = [FakeReplica(0, ready=False)]
        router = router_for(reps, policy=RunPolicy(timeout=0.3))
        reply = run(router.submit(X))
        assert isinstance(reply, (Failed, DeadlineExceeded))

    def test_open_breaker_sheds_replica(self):
        reps = [FakeReplica(0, ["failed"] * 10), FakeReplica(1)]
        reps[0].breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        router = router_for(reps)

        async def many():
            return [await router.submit(X) for _ in range(6)]

        replies = run(many())
        assert all(isinstance(r, Ok) for r in replies)
        # replica 0 failed at most its breaker budget; the rest never
        # touched it
        assert reps[0].client.calls <= 2

    def test_degraded_ok_counts(self):
        reps = [FakeReplica(0, ["degraded"])]
        router = router_for(reps)
        reply = run(router.submit(X))
        assert isinstance(reply, Ok) and reply.degraded
        assert router.degraded == 1

    def test_zero_deadline_rejected(self):
        router = router_for([FakeReplica(0)])
        with pytest.raises(ValueError, match="deadline"):
            run(router.submit(X, deadline=0))

    def test_deadline_budget_caps_retries(self):
        # every attempt eats ~50 ms; a 120 ms budget cannot fit the
        # configured 10 attempts
        reps = [FakeReplica(0, [0.05] * 20)]
        router = router_for(
            reps, max_attempts=10, policy=RunPolicy(timeout=0.12)
        )

        async def go():
            return await router.submit(X, deadline=0.12)

        reply = run(go())
        # the slow ok (first attempt) wins the race against the budget
        assert isinstance(reply, (Ok, DeadlineExceeded))
        assert reps[0].client.calls <= 3


class TestHalfOpenTrial:
    """A half-open breaker admits one trial request until its result is
    recorded; asking ``available()`` during a candidate scan does not
    use the trial up."""

    def fleet(self):
        # replica 1 is half-open: round-robin's first pick over two
        # candidates lands on index 1, so the first pick takes the trial
        clock = FakeClock()
        reps = [FakeReplica(0), FakeReplica(1)]
        reps[1].breaker = CircuitBreaker(
            failure_threshold=1, reset_after=1.0, clock=clock
        )
        reps[1].breaker.record_failure()
        clock.advance(1.5)
        return reps, router_for(reps), clock

    def picks(self, router, n):
        return [router._pick(set()).index for _ in range(n)]

    def test_scans_leave_the_trial_available(self):
        reps, router, _ = self.fleet()
        for _ in range(5):
            assert [r.index for r in router._candidates(set())] == [0, 1]
        assert reps[1].breaker.state == HALF_OPEN
        assert self.picks(router, 1) == [1]

    def test_second_pick_skips_until_success_recorded(self):
        reps, router, _ = self.fleet()
        assert self.picks(router, 4) == [1, 0, 0, 0]
        reps[1].breaker.record_success()
        assert reps[1].breaker.state == CLOSED
        assert sorted(self.picks(router, 2)) == [0, 1]

    def test_second_pick_skips_until_failure_recorded(self):
        reps, router, clock = self.fleet()
        assert self.picks(router, 4) == [1, 0, 0, 0]
        reps[1].breaker.record_failure()
        assert reps[1].breaker.state == OPEN
        assert self.picks(router, 2) == [0, 0]  # the cooldown restarted
        clock.advance(1.0)
        assert 1 in self.picks(router, 2)  # a fresh trial

    def test_cancelled_trial_is_released(self):
        reps, router, _ = self.fleet()
        reps[1].client.script = [0.5]  # the trial would take 500 ms

        async def go():
            task = asyncio.ensure_future(router.submit(X))
            await asyncio.sleep(0.05)  # the trial is in flight
            assert not reps[1].available()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        run(go())
        assert reps[1].breaker.state == HALF_OPEN and reps[1].available()

    def test_expired_budget_releases_the_trial_unsent(self):
        reps, router, _ = self.fleet()
        r = router._pick(set())
        assert r.index == 1 and not r.available()  # the trial is out
        reply = run(router._attempt(r, [0.0], budget_end=time.perf_counter() - 1))
        assert isinstance(reply, DeadlineExceeded) and not reply.executed
        assert r.client.calls == 0 and r.available()
