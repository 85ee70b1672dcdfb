"""Flits and packets for the wormhole-switched mesh NoC.

The paper's accelerator uses 64-bit links at 1 GHz, so one flit carries
8 bytes of payload.  A message of ``B`` bytes becomes a packet of
``ceil(B / 8)`` payload flits plus a head flit carrying routing/control
information (Noxim convention).  Wormhole switching reserves a path
port-by-port as the head advances; body flits follow in order and the
tail releases the reservation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["FLIT_BYTES", "FlitType", "TrafficClass", "Packet", "Flit", "packetize"]

#: 64-bit links -> 8 payload bytes per flit
FLIT_BYTES = 8


class FlitType(Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: single-flit packet: head and tail at once
    HEADTAIL = "headtail"


class TrafficClass(str, Enum):
    """What a packet carries; used for per-class statistics."""

    WEIGHTS = "weights"
    IFMAP = "ifmap"
    OFMAP = "ofmap"
    REQUEST = "request"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_packet_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One NoC message."""

    src: int
    dst: int
    payload_bytes: int
    traffic_class: TrafficClass
    #: opaque tag the destination node uses to match the transfer
    tag: object = None
    pid: int = field(default_factory=lambda: next(_packet_ids))
    injected_cycle: int = -1
    delivered_cycle: int = -1

    @property
    def num_flits(self) -> int:
        """Head flit + payload flits."""
        payload = -(-self.payload_bytes // FLIT_BYTES) if self.payload_bytes else 0
        return 1 + payload

    @property
    def latency(self) -> int:
        if self.injected_cycle < 0 or self.delivered_cycle < 0:
            raise ValueError(f"packet {self.pid} not yet delivered")
        return self.delivered_cycle - self.injected_cycle


@dataclass(slots=True)
class Flit:
    """One link-width unit in flight.

    ``dst``/``pid``/``is_head``/``is_tail`` are precomputed at
    construction: the switch-allocation loop reads them once per
    buffered flit per cycle, and attribute loads are several times
    cheaper than the chained lookups / property + ``Enum`` membership
    tests they replace.
    """

    packet: Packet
    ftype: FlitType
    seq: int
    #: earliest cycle the current router may forward this flit
    #: (models the router pipeline depth)
    ready_cycle: int = 0
    #: virtual channel the packet rides end to end (assigned at injection)
    vc: int = 0
    dst: int = field(init=False)
    pid: int = field(init=False)
    is_head: bool = field(init=False)
    is_tail: bool = field(init=False)

    def __post_init__(self) -> None:
        packet = self.packet
        self.dst = packet.dst
        self.pid = packet.pid
        ftype = self.ftype
        self.is_head = ftype is FlitType.HEAD or ftype is FlitType.HEADTAIL
        self.is_tail = ftype is FlitType.TAIL or ftype is FlitType.HEADTAIL


def packetize(packet: Packet) -> list[Flit]:
    """Expand a packet into its flit train."""
    n = packet.num_flits
    if n == 1:
        return [Flit(packet, FlitType.HEADTAIL, 0)]
    flits = [Flit(packet, FlitType.HEAD, 0)]
    flits += [Flit(packet, FlitType.BODY, i) for i in range(1, n - 1)]
    flits.append(Flit(packet, FlitType.TAIL, n - 1))
    return flits
