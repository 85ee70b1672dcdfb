"""Client-facing routing across replicas: balance, retry, breakers.

The router is the second half of the fleet's availability story — the
supervisor keeps replicas *existing*, the router keeps requests
*resolving* while replicas come and go:

* **load balancing** — round-robin over replicas that are ready and
  whose circuit breaker permits traffic;
* **retry** — a ``Failed`` reply (including transport errors: the
  replica died mid-request, refused the connection, or never answered)
  is retried on a *different* replica while the request's deadline
  budget lasts; ``Overloaded`` sheds retry the same way, since a
  sibling replica may have queue room;
* **breaker** — consecutive failures open a replica's breaker
  (closed -> open), which sheds it from routing until ``reset_after``
  elapses; half-open, it admits one trial request, whose success closes
  it again.  A breaker bounds how long a sick-but-probe-passing replica
  can eat retries.

The contract the in-process service established survives end to end:
``submit`` always resolves to exactly one typed
:class:`~repro.serve.replies.Reply` — transport chaos degrades replies,
it never silently drops them.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from .. import obs
from .replies import DeadlineExceeded, Failed, Ok, Reply
from .server import DEFAULT_MAX_LINE_BYTES, doc_to_reply

__all__ = ["CircuitBreaker", "ReplicaClient", "FleetRouter"]

#: breaker states
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Per-replica closed/open/half-open failure gate.

    ``failure_threshold`` consecutive failures open the breaker; after
    ``reset_after`` seconds it goes half-open and admits one trial
    request — success closes it, failure re-opens it (and restarts the
    clock).  Until the trial's result is recorded, the breaker admits
    nothing else.  Time is injectable for tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after <= 0:
            raise ValueError(f"reset_after must be positive, got {reset_after}")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self.state = CLOSED
        self.failures = 0
        self.opened_at: float | None = None
        self.trips = 0  # closed -> open transitions
        #: half-open only: the trial request has been routed here and
        #: its result is not yet recorded
        self.trial_out = False

    def reset(self) -> None:
        """Back to pristine closed (a fresh process behind the handle)."""
        self.state = CLOSED
        self.failures = 0
        self.opened_at = None
        self.trial_out = False

    def allow(self) -> bool:
        """May a request be routed here right now?

        In the open state this is also the half-open transition: once
        ``reset_after`` has elapsed, the first ``allow()`` flips to
        half-open.  Asking does not use up the trial — only
        :meth:`admit` does — so a router may ask every replica at every
        pick.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock() - self.opened_at < self.reset_after:
                return False
            self.state = HALF_OPEN
        return not self.trial_out

    def admit(self) -> None:
        """A request is routed here; half-open, it is the one trial."""
        if self.state == HALF_OPEN:
            self.trial_out = True

    def release(self) -> None:
        """An admitted request ended with no result to record (it was
        cancelled or never sent): the trial goes to the next request."""
        self.trial_out = False

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self.reset()
        else:
            self.failures = 0

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            # the trial failed: straight back to open, clock restarted
            self.state = OPEN
            self.opened_at = self._clock()
            self.trial_out = False
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.failure_threshold:
            self.state = OPEN
            self.opened_at = self._clock()
            self.trips += 1
            obs.current().count("serve.fleet.breaker_trips")


class ReplicaClient:
    """One persistent JSON-lines connection, multiplexed by request id.

    Lazily connects on first use; a background reader task resolves
    pending futures by the ``id`` echo.  When the connection dies every
    pending request fails with :class:`ConnectionError` immediately —
    the router turns that into a retry on another replica, so a killed
    worker costs milliseconds, not a hang.
    """

    def __init__(
        self, host: str, port: int, max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    ) -> None:
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._lock = asyncio.Lock()
        self._closed = False

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def _ensure_connected(self) -> None:
        async with self._lock:
            if self._closed:
                raise ConnectionError("client is closed")
            if self._writer is not None:
                return
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=self.max_line_bytes
            )
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_loop(), name=f"replica-client-{self.port}"
            )

    async def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a mangled line fails its request via timeout
                fut = self._pending.pop(doc.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(doc)
        except asyncio.CancelledError:
            raise
        except Exception as e:  # noqa: BLE001 - delivered to the waiters
            error = e
        finally:
            self._fail_pending(
                ConnectionError(
                    f"replica connection lost: {error}"
                    if error
                    else "replica closed the connection"
                )
            )
            self._reader = None
            self._writer = None

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(exc)

    async def request(self, doc: dict, timeout: float | None) -> dict:
        """Send one request doc, await its reply doc.

        Raises :class:`ConnectionError` on transport death and
        :class:`TimeoutError` when no reply lands in ``timeout``
        seconds; a late reply for a timed-out id is discarded by the
        read loop.
        """
        await self._ensure_connected()
        rid = self._next_id
        self._next_id += 1
        fut = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        writer = self._writer
        try:
            writer.write((json.dumps({**doc, "id": rid}) + "\n").encode())
            await writer.drain()
            return await asyncio.wait_for(fut, timeout)
        except (ConnectionError, OSError) as e:
            raise ConnectionError(f"replica write failed: {e}") from e
        finally:
            self._pending.pop(rid, None)

    def close(self) -> None:
        """Tear down; every pending request fails immediately."""
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._reader = None
        self._fail_pending(ConnectionError("replica client closed"))


class FleetRouter:
    """Route one request to a typed reply across whatever is healthy.

    ``replicas`` is a zero-argument callable returning the current
    handle list (the supervisor's live view) — each handle needs
    ``index``, ``available()``, ``client`` and ``breaker``; tests
    substitute fakes freely.
    """

    def __init__(self, replicas, config) -> None:
        self._replicas = replicas
        self.config = config
        self._rr = 0
        self.requests = 0
        self.ok = 0
        self.degraded = 0
        self.retries = 0
        self.transport_errors = 0
        self.exhausted = 0

    # -- selection ---------------------------------------------------------
    def _candidates(self, exclude: set[int]) -> list:
        ready = [r for r in self._replicas() if r.available()]
        preferred = [r for r in ready if r.index not in exclude]
        # all healthy replicas already tried: re-using one beats failing
        return preferred or ready

    def _pick(self, exclude: set[int]):
        """Round-robin over the candidates; the pick is admitted by its
        breaker, so a half-open replica's trial goes to this request."""
        cands = self._candidates(exclude)
        if not cands:
            return None
        self._rr += 1
        r = cands[self._rr % len(cands)]
        r.breaker.admit()
        return r

    async def _pick_waiting(self, exclude: set[int], budget_end: float | None):
        """Pick a replica, waiting out a no-replica window if needed."""
        r = self._pick(exclude)
        if r is not None:
            return r
        limit = (
            budget_end
            if budget_end is not None
            else time.perf_counter() + self.config.no_replica_timeout_s
        )
        while time.perf_counter() < limit:
            await asyncio.sleep(0.02)
            r = self._pick(exclude)
            if r is not None:
                return r
        return None

    # -- request path ------------------------------------------------------
    async def submit(self, x: np.ndarray, deadline: float | None = None) -> Reply:
        """One fleet inference; always resolves to a typed Reply."""
        o = obs.current()
        self.requests += 1
        o.count("serve.fleet.requests")
        deadline_s = (
            deadline if deadline is not None else self.config.policy.timeout
        )
        if deadline_s is not None and deadline_s != float("inf"):
            if deadline_s <= 0:
                raise ValueError(f"deadline must be positive, got {deadline_s}")
        else:
            deadline_s = None
        t0 = time.perf_counter()
        budget_end = None if deadline_s is None else t0 + deadline_s
        payload = np.asarray(x, dtype=np.float32).tolist()
        tried: set[int] = set()
        last: Reply | None = None
        for attempt in range(self.config.max_attempts):
            if budget_end is not None and time.perf_counter() >= budget_end:
                reply = DeadlineExceeded(
                    deadline_s=deadline_s,
                    waited_s=time.perf_counter() - t0,
                    executed=False,
                )
                break
            r = await self._pick_waiting(tried, budget_end)
            if r is None:
                reply = last if last is not None else Failed(
                    error="no healthy replica available"
                )
                break
            if attempt:
                self.retries += 1
                o.count("serve.fleet.retries")
            reply = await self._attempt(r, payload, budget_end)
            if isinstance(reply, Ok):
                self.ok += 1
                o.count("serve.fleet.ok")
                if reply.degraded:
                    self.degraded += 1
                    o.count("serve.fleet.degraded")
                return reply
            if isinstance(reply, DeadlineExceeded):
                # the budget is spent (or nearly): retrying can't win
                break
            last = reply
            tried.add(r.index)
        else:
            self.exhausted += 1
            o.count("serve.fleet.exhausted")
            reply = last if last is not None else Failed(error="retry budget exhausted")
        return reply

    async def _attempt(self, replica, payload: list, budget_end: float | None) -> Reply:
        """One wire round trip to one replica, mapped to a typed reply."""
        doc: dict = {"input": payload}
        remaining = None
        if budget_end is not None:
            remaining = budget_end - time.perf_counter()
            if remaining <= 0:
                replica.breaker.release()
                return DeadlineExceeded(
                    deadline_s=0.0, waited_s=0.0, executed=False
                )
            doc["deadline"] = remaining
        # client-side guard slightly past the server's deadline: the
        # server's own typed DeadlineExceeded should win the race
        timeout = (
            None
            if remaining is None
            else remaining + self.config.deadline_grace_s
        )
        try:
            out = await replica.client.request(doc, timeout)
            reply = doc_to_reply(out)
        except asyncio.CancelledError:
            replica.breaker.release()
            raise
        except (ConnectionError, OSError, TimeoutError, asyncio.TimeoutError) as e:
            self.transport_errors += 1
            obs.current().count("serve.fleet.transport_errors")
            replica.breaker.record_failure()
            return Failed(error=f"transport to replica {replica.index}: "
                                f"{type(e).__name__}: {e}")
        except Exception as e:  # noqa: BLE001 - malformed wire reply
            self.transport_errors += 1
            obs.current().count("serve.fleet.transport_errors")
            replica.breaker.record_failure()
            return Failed(error=f"bad reply from replica {replica.index}: "
                                f"{type(e).__name__}: {e}")
        if isinstance(reply, Failed):
            replica.breaker.record_failure()
        else:
            replica.breaker.record_success()
        return reply

    def counters(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "degraded": self.degraded,
            "retries": self.retries,
            "transport_errors": self.transport_errors,
            "exhausted": self.exhausted,
        }
