"""Supervised replica fleet: the multi-process serving endpoint.

:class:`ReplicaFleet` composes the two halves of the robustness story —
a :class:`~repro.serve.supervisor.ReplicaSupervisor` keeping N worker
processes alive (probes, restarts with capped jittered backoff, per-
replica circuit breakers) and a :class:`~repro.serve.router.FleetRouter`
resolving every request to exactly one typed reply across whatever is
healthy (balance, retry-on-another-replica, circuit breakers).

The model rides into each worker as a *recipe*, not an object: a
picklable module-level ``factory(**factory_kwargs) -> ServedModel``.
Each replica builds its own model in its own process — which is what
makes a damaged archive a *per-replica* event (the replica rebuilds
from disk on restart and, under an ``on_fault`` policy, serves degraded
with a damage report instead of dying).

>>> spec = ReplicaSpec(factory=bench_model)
>>> async with ReplicaFleet(spec, FleetConfig(replicas=3)) as fleet:
...     reply = await fleet.submit(x)          # typed, always
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..runtime.pool import RunPolicy
from .replies import Reply
from .router import FleetRouter
from .server import DEFAULT_MAX_LINE_BYTES
from .service import ServeConfig
from .supervisor import ReplicaSupervisor

__all__ = ["ReplicaSpec", "FleetConfig", "ReplicaFleet"]


@dataclass(frozen=True)
class ReplicaSpec:
    """What every worker process serves.

    ``factory`` must be a module-level (picklable) callable returning a
    ``forward_batch`` model — typically a
    :class:`~repro.serve.model.ServedModel`; ``factory_kwargs`` are its
    keyword arguments (e.g. an archive path and an ``on_fault`` policy).
    """

    factory: Callable[..., object]
    factory_kwargs: dict = field(default_factory=dict)
    config: ServeConfig = field(default_factory=ServeConfig)
    host: str = "127.0.0.1"
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES


@dataclass(frozen=True)
class FleetConfig:
    """Supervision and routing knobs of one :class:`ReplicaFleet`.

    Parameters
    ----------
    replicas:
        Worker process count.
    probe_interval_s / probe_timeout_s / fail_threshold:
        Readiness probing cadence, per-probe reply deadline, and the
        consecutive-failure streak that declares a live-but-unresponsive
        replica hung.  Process death is declared on the next tick
        regardless of the streak.
    start_timeout_s:
        Budget for a spawned worker to report its port.
    restart_policy:
        :class:`~repro.runtime.pool.RunPolicy` whose
        ``backoff``/``max_backoff``/``jitter`` fields schedule restart
        delays (``backoff_for`` semantics — capped exponential with
        optional seeded full jitter).
    backoff_reset_s:
        A replica continuously ready this long earns its restart
        attempt counter back (backoff starts over at the base).
    policy:
        Default per-request deadline for :meth:`ReplicaFleet.submit`
        (``policy.timeout`` seconds, the service's semantics).
    max_attempts:
        Distinct routing attempts per request (first try + retries).
    breaker_threshold / breaker_reset_s:
        Circuit-breaker trip streak and open-state cooldown.
    deadline_grace_s:
        Client-side slack past the server deadline before an attempt is
        abandoned as a transport timeout.
    no_replica_timeout_s:
        How long a deadline-less request waits for any replica to
        become routable before failing typed.
    stop_grace_s:
        SIGTERM grace before SIGKILL at shutdown.
    mp_context:
        Multiprocessing start method (``None`` = fork where available).
    """

    replicas: int = 2
    probe_interval_s: float = 0.25
    probe_timeout_s: float = 1.0
    fail_threshold: int = 3
    start_timeout_s: float = 30.0
    restart_policy: RunPolicy = field(
        default_factory=lambda: RunPolicy(
            backoff=0.1, max_backoff=2.0, jitter=True, jitter_seed=0
        )
    )
    backoff_reset_s: float = 30.0
    policy: RunPolicy = field(default_factory=lambda: RunPolicy(timeout=1.0))
    max_attempts: int = 3
    breaker_threshold: int = 5
    breaker_reset_s: float = 1.0
    deadline_grace_s: float = 0.25
    no_replica_timeout_s: float = 5.0
    stop_grace_s: float = 2.0
    mp_context: str | None = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.fail_threshold < 1:
            raise ValueError(
                f"fail_threshold must be >= 1, got {self.fail_threshold}"
            )


class ReplicaFleet:
    """N supervised replicas behind one typed ``submit``.

    Use as an async context manager (start waits for every replica to
    come ready) or drive :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(self, spec: ReplicaSpec, config: FleetConfig | None = None) -> None:
        self.spec = spec
        self.config = config if config is not None else FleetConfig()
        self.supervisor = ReplicaSupervisor(spec, self.config)
        self.router = FleetRouter(lambda: self.supervisor.handles, self.config)
        self.started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self, min_ready: int | None = None) -> None:
        """Spawn the fleet; block until ``min_ready`` replicas serve
        (default: all of them)."""
        await self.supervisor.start()
        self.started_at = time.monotonic()
        ok = await self.supervisor.wait_ready(
            min_ready, timeout=self.config.start_timeout_s
        )
        if not ok:
            await self.stop()
            want = self.config.replicas if min_ready is None else min_ready
            raise RuntimeError(
                f"fleet failed to start: {self.supervisor.ready_count}/"
                f"{want} replicas ready within {self.config.start_timeout_s}s"
            )

    async def stop(self) -> None:
        await self.supervisor.stop()

    async def __aenter__(self) -> "ReplicaFleet":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> bool:
        await self.stop()
        return False

    # -- request path ------------------------------------------------------
    async def submit(self, x: np.ndarray, deadline: float | None = None) -> Reply:
        """One inference against whatever replica is healthy; typed, always."""
        return await self.router.submit(x, deadline=deadline)

    # -- introspection -----------------------------------------------------
    @property
    def ready_count(self) -> int:
        return self.supervisor.ready_count

    @property
    def replicas(self):
        return self.supervisor.handles

    def counters(self) -> dict[str, int]:
        """Router + supervisor counters, prefixed by component."""
        out = {f"router_{k}": v for k, v in self.router.counters().items()}
        out.update(
            {f"supervisor_{k}": v for k, v in self.supervisor.counters().items()}
        )
        return out
