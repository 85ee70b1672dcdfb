"""Asyncio micro-batching inference service with graceful degradation.

The request path is a short pipeline::

    submit() -> bounded queue -> batcher -> forward_batch() -> reply

Admission is a non-blocking put into a bounded :class:`asyncio.Queue`;
a full queue sheds the request immediately with a typed
:class:`~repro.serve.replies.Overloaded` — the service's throughput
ceiling shows up as explicit shed replies, never as unbounded queueing
latency.  A single batcher task drains whatever is queued (up to
``max_batch``) into one forward call, so batch size adapts to load by
itself: idle service -> batch of 1 and minimal latency, saturated
service -> full batches and maximal throughput.

Deadlines reuse the :class:`~repro.runtime.pool.RunPolicy` semantics —
a wall-clock budget measured from submission.  The batcher enforces
them twice: a request whose deadline passed while queued is dropped
*before* the forward pass (``executed=False``), and a request whose
batch finished past its deadline gets its result discarded
(``executed=True``) instead of a silent slow reply.  Either way the
client receives a typed :class:`~repro.serve.replies.DeadlineExceeded`.

Forward passes run on a single-worker thread executor: compute stays
off the event loop (the loop keeps admitting and shedding while a batch
runs) while batches stay strictly ordered.  With the default
:data:`repro.obs.NULL` scope the instrumentation is free; install a
scope (``obs.use``) to record QPS, latency/batch-size histograms, cache
hit rates and shed counts.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..runtime.pool import RunPolicy
from .replies import DeadlineExceeded, Failed, Ok, Overloaded, Reply

__all__ = ["ServeConfig", "InferenceService"]

#: finer-than-default buckets: serving latencies live in the 0.1ms-1s
#: decade, the registry's default buckets in the 5ms-10s one
LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`InferenceService`.

    Parameters
    ----------
    max_batch:
        Largest batch one forward call may carry.
    max_queue:
        Admission bound; requests arriving with this many already
        queued are shed with :class:`~repro.serve.replies.Overloaded`.
    policy:
        Default per-request deadline (``policy.timeout`` seconds from
        submission, same semantics as the sweep pool); a per-request
        ``deadline=`` overrides it, ``None`` means no deadline.
    """

    max_batch: int = 32
    max_queue: int = 128
    policy: RunPolicy = field(default_factory=lambda: RunPolicy(timeout=1.0))

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


class _Pending:
    """One admitted request riding the queue toward a batch."""

    __slots__ = ("x", "future", "submitted_at", "deadline_at", "deadline_s")

    def __init__(
        self,
        x: np.ndarray,
        future: asyncio.Future,
        submitted_at: float,
        deadline_s: float | None,
    ) -> None:
        self.x = x
        self.future = future
        self.submitted_at = submitted_at
        self.deadline_s = deadline_s
        self.deadline_at = (
            None if deadline_s is None else submitted_at + deadline_s
        )

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at


class InferenceService:
    """Batched async inference over any ``forward_batch`` model.

    The model needs only ``forward_batch(list_of_samples) ->
    list_of_outputs`` (e.g. :class:`~repro.serve.model.ServedModel`);
    an optional ``input_shape`` attribute enables admission-time shape
    validation.  One service owns one batcher task and one executor
    thread; use as an async context manager or call :meth:`start` /
    :meth:`stop` explicitly.
    """

    def __init__(self, model, config: ServeConfig | None = None) -> None:
        self.model = model
        self.config = config if config is not None else ServeConfig()
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue(
            maxsize=self.config.max_queue
        )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-forward"
        )
        self._batcher: asyncio.Task | None = None
        self._stopping = False
        # plain counters (obs-independent), the ResultCache idiom
        self.requests = 0
        self.ok = 0
        self.shed = 0
        self.deadline_expired = 0  # dropped before the forward pass
        self.deadline_exceeded = 0  # executed, result discarded
        self.failed = 0
        self.batches = 0
        self.degraded = 0  # Ok replies served from damaged weights

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._batcher is not None:
            raise RuntimeError("service already started")
        self._stopping = False
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop(), name="serve-batcher"
        )

    async def stop(self) -> None:
        """Drain gracefully: in-flight and queued requests complete."""
        if self._batcher is None:
            return
        self._stopping = True
        batcher, self._batcher = self._batcher, None
        batcher.cancel()
        try:
            await batcher
        except asyncio.CancelledError:
            pass
        # the cancelled batcher may have left requests queued: settle them
        while not self._queue.empty():
            await self._run_batch(self._drain())
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "InferenceService":
        self.start()
        return self

    async def __aexit__(self, *exc) -> bool:
        await self.stop()
        return False

    # -- request path ------------------------------------------------------
    async def submit(
        self, x: np.ndarray, deadline: float | None = None
    ) -> Reply:
        """One inference request; always resolves to a typed Reply.

        ``deadline`` (seconds from now) overrides the configured
        ``policy.timeout``; pass ``float('inf')`` for no deadline on a
        service whose policy has one.  Submitting while the service is
        not running (before :meth:`start`, during or after
        :meth:`stop`) fails fast with :class:`Failed`.
        """
        o = obs.current()
        self.requests += 1
        o.count("serve.requests")
        if self._batcher is None or self._stopping:
            # no batcher to ever drain the queue: enqueueing would hang
            # the caller forever, so fail fast instead
            self.failed += 1
            o.count("serve.failed")
            return Failed(error="service is not running")
        x = np.asarray(x, dtype=np.float32)
        expect = getattr(self.model, "input_shape", None)
        if expect is not None and tuple(x.shape) != tuple(expect):
            self.failed += 1
            o.count("serve.failed")
            return Failed(
                error=f"bad input shape {tuple(x.shape)}, expected {tuple(expect)}"
            )
        deadline_s = (
            deadline if deadline is not None else self.config.policy.timeout
        )
        if deadline_s is not None and deadline_s != float("inf"):
            if deadline_s <= 0:
                raise ValueError(f"deadline must be positive, got {deadline_s}")
        else:
            deadline_s = None
        pending = _Pending(
            x,
            asyncio.get_running_loop().create_future(),
            time.perf_counter(),
            deadline_s,
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.shed += 1
            o.count("serve.shed")
            return Overloaded(queue_depth=self._queue.qsize())
        return await pending.future

    # -- batcher -----------------------------------------------------------
    def _drain(self, limit: int | None = None) -> list[_Pending]:
        """Everything queued right now, up to ``limit`` (default max_batch)."""
        limit = self.config.max_batch if limit is None else limit
        batch: list[_Pending] = []
        while len(batch) < limit:
            try:
                batch.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        return batch

    async def _batch_loop(self) -> None:
        # no await between popping ``first`` and the shielded forward in
        # _run_batch: a stop() cancellation lands either while nothing is
        # popped (stop() drains the queue) or mid-forward (the batch
        # settles with its results before the cancellation propagates)
        cfg = self.config
        while True:
            first = await self._queue.get()
            await self._run_batch([first, *self._drain(cfg.max_batch - 1)])

    async def _run_batch(self, batch: list[_Pending]) -> None:
        o = obs.current()
        now = time.perf_counter()
        live: list[_Pending] = []
        for p in batch:
            if p.future.cancelled():
                continue
            if p.expired(now):
                # expired while queued: the forward pass never runs for it
                self.deadline_expired += 1
                o.count("serve.deadline.expired")
                p.future.set_result(
                    DeadlineExceeded(
                        deadline_s=p.deadline_s,
                        waited_s=now - p.submitted_at,
                        executed=False,
                    )
                )
            else:
                live.append(p)
        if not live:
            return
        self.batches += 1
        o.count("serve.batches")
        o.observe("serve.batch_size", len(live))
        loop = asyncio.get_running_loop()
        xs = [p.x for p in live]
        cancelled = False
        try:
            with o.span("serve.batch", cat="serve", size=len(live)):
                # copy_context: the forward thread sees the ambient obs
                # scope (run_in_executor does not propagate contextvars),
                # so decoded-weight cache hits/misses land in the same
                # registry as the service counters
                ctx = contextvars.copy_context()
                fut = loop.run_in_executor(
                    self._executor, ctx.run, self.model.forward_batch, xs
                )
                try:
                    outputs = await asyncio.shield(fut)
                except asyncio.CancelledError:
                    # stop() cancelled the batcher mid-forward; the
                    # executor thread keeps computing — wait it out so
                    # in-flight requests settle with their real results,
                    # then propagate the cancellation after the loop below.
                    cancelled = True
                    outputs = await fut
            if len(outputs) != len(live):
                # buggy duck-typed model: fail the whole batch rather
                # than zip-truncate and leave tail futures unresolved
                raise RuntimeError(
                    f"forward_batch returned {len(outputs)} outputs "
                    f"for a batch of {len(live)}"
                )
            errors: list[BaseException | None] = [None] * len(live)
        except BaseException as e:  # containment: settle, don't crash loop
            if isinstance(e, asyncio.CancelledError):
                cancelled = True
            outputs = [None] * len(live)
            errors = [e] * len(live)
        done = time.perf_counter()
        # a model serving salvaged weights (ServedModel with an on_fault
        # policy and a damaged archive) exposes its damage report; ride
        # it on every Ok so degraded answers are distinguishable
        damage = getattr(self.model, "damage", None) or None
        for p, out, err in zip(live, outputs, errors):
            if p.future.cancelled():
                continue
            latency = done - p.submitted_at
            if err is not None:
                self.failed += 1
                o.count("serve.failed")
                p.future.set_result(Failed(error=f"{type(err).__name__}: {err}"))
            elif p.expired(done):
                # computed, but too late: discard rather than reply slow
                self.deadline_exceeded += 1
                o.count("serve.deadline.exceeded")
                p.future.set_result(
                    DeadlineExceeded(
                        deadline_s=p.deadline_s,
                        waited_s=latency,
                        executed=True,
                    )
                )
            else:
                self.ok += 1
                o.count("serve.ok")
                o.observe(
                    "serve.latency_seconds", latency, buckets=LATENCY_BUCKETS
                )
                if damage:
                    self.degraded += 1
                    o.count("serve.degraded")
                p.future.set_result(
                    Ok(
                        output=out,
                        latency_s=latency,
                        batch_size=len(live),
                        degraded=damage,
                    )
                )
        if cancelled:
            raise asyncio.CancelledError

    # -- introspection -----------------------------------------------------
    def counters(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "deadline_exceeded": self.deadline_exceeded,
            "failed": self.failed,
            "batches": self.batches,
            "degraded": self.degraded,
        }
