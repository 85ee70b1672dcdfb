"""Memory-interface node: the corner tiles of the paper's accelerator.

Each MC bridges the mesh to one main-memory channel.  Reads are driven
by a static per-layer *program* (the traffic schedule from
:mod:`repro.mapping.schedule`): each entry is a transfer of N bytes to a
PE.  The DRAM channel serves one job at a time, occupying the channel
for ``access_latency + ceil(bytes / bandwidth)`` cycles; when the read
completes, the data is injected as a train of packets (split at
``max_packet_bytes`` so the NoC interleaves flows).  Writes (OFMAP
packets arriving from PEs) occupy the channel the same way.

Busy cycles are tracked for the energy model's DRAM dynamic and leakage
accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .flit import Packet, TrafficClass
from .simulator import Node

__all__ = ["DramConfig", "ReadJob", "MemoryInterface"]


@dataclass(frozen=True)
class DramConfig:
    """Per-channel main-memory timing (cycles at the NoC clock)."""

    #: fixed per-request latency (row activation + controller)
    access_latency: int = 30
    #: sustained bytes per cycle (8 B/cycle = 8 GB/s at 1 GHz)
    bandwidth_bytes_per_cycle: float = 8.0
    #: transfers larger than this are split into multiple packets
    max_packet_bytes: int = 256

    def service_cycles(self, nbytes: int) -> int:
        """Channel occupancy of one request."""
        return self.access_latency + int(
            -(-nbytes // self.bandwidth_bytes_per_cycle)
        )


@dataclass
class ReadJob:
    """One DRAM read, fanned out to one or more PEs.

    ``nbytes`` is the DRAM-side volume (read once); every destination
    receives a full copy over the NoC.  Multi-destination jobs model the
    shared input-feature-map fetch: under a channel-partitioned layer
    all PEs need the same ifmap, so the memory interface reads it once
    and replicates it on chip (Simba-style multicast at the MC).
    """

    dst: int | tuple[int, ...]
    nbytes: int
    traffic_class: TrafficClass
    tag: object = None

    @property
    def dsts(self) -> tuple[int, ...]:
        return (self.dst,) if isinstance(self.dst, int) else tuple(self.dst)


class MemoryInterface(Node):
    def __init__(self, node_id: int, config: DramConfig | None = None) -> None:
        super().__init__(node_id)
        self.config = config if config is not None else DramConfig()
        self._read_queue: deque[ReadJob] = deque()
        self._write_queue: deque[int] = deque()  # byte counts
        self._busy_until = 0
        self._cycle_seen = 0
        #: (release_cycle, packet): data waiting for its DRAM read to end
        self._staged: deque[tuple[int, Packet]] = deque()
        self.busy_cycles = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- programming -------------------------------------------------------
    def schedule_read(self, job: ReadJob) -> None:
        if job.nbytes <= 0:
            raise ValueError(f"read of {job.nbytes} bytes")
        self._read_queue.append(job)
        if self.sim is not None:
            # the channel may be parked with nothing queued
            self.sim.wake_node(self.node_id)

    # -- node protocol -----------------------------------------------------
    def on_packet(self, packet: Packet, cycle: int) -> None:
        if packet.traffic_class is TrafficClass.OFMAP:
            self._write_queue.append(packet.payload_bytes)
        elif packet.traffic_class is TrafficClass.REQUEST:
            # demand mode: tag = (traffic-class name, byte count)
            tclass_name, nbytes = packet.tag
            self.schedule_read(
                ReadJob(
                    dst=packet.src,
                    nbytes=int(nbytes),
                    traffic_class=TrafficClass(tclass_name),
                )
            )

    def step(self, cycle: int) -> None:
        self._cycle_seen = cycle
        # release data whose DRAM read completed
        while self._staged and self._staged[0][0] <= cycle:
            self.send(self._staged.popleft()[1], cycle)
        if cycle < self._busy_until:
            return
        if self._write_queue:
            nbytes = self._write_queue.popleft()
            self.bytes_written += nbytes
            service = self.config.service_cycles(nbytes)
            self._busy_until = cycle + service
            self.busy_cycles += service
        elif self._read_queue:
            job = self._read_queue.popleft()
            self.bytes_read += job.nbytes
            service = self.config.service_cycles(job.nbytes)
            self._busy_until = cycle + service
            self.busy_cycles += service
            self._stage(job, release_cycle=cycle + service)

    def _stage(self, job: ReadJob, release_cycle: int) -> None:
        chunk = self.config.max_packet_bytes
        for dst in job.dsts:
            remaining = job.nbytes
            while remaining > 0:
                n = min(chunk, remaining)
                packet = Packet(
                    src=self.node_id,
                    dst=dst,
                    payload_bytes=n,
                    traffic_class=job.traffic_class,
                    tag=job.tag,
                )
                self._staged.append((release_cycle, packet))
                remaining -= n

    @property
    def idle(self) -> bool:
        return (
            not self._read_queue
            and not self._write_queue
            and not self._staged
            and self._cycle_seen >= self._busy_until
        )

    def next_event_cycle(self, cycle: int) -> int | None:
        """Cycle-skipping hint: staged releases and channel dispatch.

        Mirrors :meth:`step` exactly — a staged packet is sent at its
        DRAM-release cycle, a queued job dispatches once the channel
        frees, and one final step at ``_busy_until`` is needed for
        :attr:`idle` to observe the channel going quiet.
        """
        events = []
        if self._staged:
            events.append(self._staged[0][0])
        if self._write_queue or self._read_queue:
            events.append(max(cycle, self._busy_until))
        elif self._cycle_seen < self._busy_until:
            events.append(self._busy_until)
        return min(events) if events else None
