"""Flit-level cycle-accurate mesh NoC simulator (Noxim-style).

Components: :mod:`flit` (packets/flits), :mod:`router` (wormhole, XY,
credits), :mod:`mesh` (topology), :mod:`nic` (inject/eject),
:mod:`memory_if` (DRAM-channel corner nodes), :mod:`pe` (processing
elements), :mod:`simulator` (cycle loop) and :mod:`transaction` (the
calibrated fast model used for the paper's large networks).
"""

from .flit import FLIT_BYTES, Flit, FlitType, Packet, TrafficClass, packetize
from .memory_if import DramConfig, MemoryInterface, ReadJob
from .mesh import Mesh
from .nic import NetworkInterface
from .pe import PEConfig, PETask, ProcessingElement
from .router import Router
from .simulator import Node, NocSimulator, NocStats
from .topology import ChipletMesh

__all__ = [
    "FLIT_BYTES",
    "Flit",
    "FlitType",
    "Packet",
    "TrafficClass",
    "packetize",
    "DramConfig",
    "MemoryInterface",
    "ReadJob",
    "Mesh",
    "NetworkInterface",
    "PEConfig",
    "PETask",
    "ProcessingElement",
    "Router",
    "Node",
    "NocSimulator",
    "NocStats",
    "ChipletMesh",
]
