"""Transaction-level fast model of the accelerator.

The flit-level simulator is the ground truth but costs ~1 us of host
time per flit-hop; a VGG-16 inference moves ~10^8 flits, far beyond
what is practical in pure Python.  This model evaluates the *same*
:class:`~repro.mapping.schedule.LayerSchedule` analytically, following
the pipeline structure the flit simulator exhibits:

* each memory channel serves its read chunks back to back, streaming
  data into the NoC at link rate (the NoC never backlogs because the
  per-MC injection bandwidth equals the DRAM channel bandwidth), so the
  read phase ends ~ one chunk-drain + route transit after the channel
  goes idle;
* PEs compute once their inputs are in (the slowest-fed PE bounds the
  phase);
* write-back serializes on the memory channels again.

Every read job and every ofmap write is counted in closed form: a job
of ``n`` bytes is ``n // unit`` full requests plus one remainder
request (``unit`` is ``DRAM_CHUNK_BYTES`` for reads and
``max_packet_bytes`` for writes).  The channel cycles, injected flits
and hops this yields are the integers chunk-by-chunk service adds up,
so evaluating a layer takes host time per job, not per chunk.

Latency components are attributed exactly like the paper's Fig. 2/10
stacked bars: memory (DRAM channel busy), communication (serialization
+ transit not hidden behind DRAM), computation (PE datapath).
Agreement with the flit-level simulator is validated in
``tests/integration/test_transaction_vs_flit.py`` and quantified by the
calibration benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mapping.schedule import DRAM_CHUNK_BYTES, LayerSchedule
from .flit import FLIT_BYTES
from .memory_if import DramConfig
from .mesh import Mesh

__all__ = ["LatencyComponents", "TransactionModel"]


@dataclass(frozen=True)
class LatencyComponents:
    memory: int
    communication: int
    computation: int

    @property
    def total(self) -> int:
        return self.memory + self.communication + self.computation

    def __add__(self, other: "LatencyComponents") -> "LatencyComponents":
        return LatencyComponents(
            self.memory + other.memory,
            self.communication + other.communication,
            self.computation + other.computation,
        )


def _flits(nbytes: int, max_packet_bytes: int) -> int:
    """Payload + head flits for a transfer split into packets."""
    if nbytes <= 0:
        return 0
    packets = -(-nbytes // max_packet_bytes)
    return -(-nbytes // FLIT_BYTES) + packets


class TransactionModel:
    def __init__(self, mesh: Mesh | None = None, dram: DramConfig | None = None) -> None:
        self.mesh = mesh or Mesh()
        self.dram = dram if dram is not None else DramConfig()

    def _channel_cycles(self, full: int, rest: int, unit: int) -> int:
        """Channel occupancy of ``full`` ``unit``-byte requests plus one of
        ``rest`` bytes (none if ``rest`` is 0)."""
        busy = full * self.dram.service_cycles(unit)
        return busy + self.dram.service_cycles(rest) if rest else busy

    # -- latency -----------------------------------------------------------
    def layer_latency(self, schedule: LayerSchedule) -> LatencyComponents:
        pipe = self.mesh.routers[0].pipeline_depth
        packet = self.dram.max_packet_bytes
        chunk_flits = _flits(DRAM_CHUNK_BYTES, packet)

        # read phase: per-channel busy time (shared operands read once);
        # with on-chip replication the MC's injection link (1 flit/cycle)
        # can out-demand the DRAM channel, so the phase is bounded by the
        # slower of the two per MC
        read_busy: dict[int, int] = {}
        inject_flits: dict[int, int] = {}
        max_hops = 0
        for job in schedule.dram_jobs():
            if job.nbytes <= 0:
                continue
            full, rest = divmod(job.nbytes, DRAM_CHUNK_BYTES)
            read_busy[job.mc] = read_busy.get(job.mc, 0) + self._channel_cycles(
                full, rest, DRAM_CHUNK_BYTES
            )
            inject_flits[job.mc] = inject_flits.get(job.mc, 0) + len(job.dsts) * (
                full * chunk_flits + _flits(rest, packet)
            )
            for dst in job.dsts:
                max_hops = max(max_hops, self.mesh.hop_count(job.mc, dst))
        t_read = max(
            (max(read_busy[mc], inject_flits.get(mc, 0)) for mc in read_busy),
            default=0,
        )

        # write phase: ofmap packets serialize on their channel
        write_busy: dict[int, int] = {}
        for pe, (_, _, o_bytes, _, _, _) in schedule.pe_work.items():
            if o_bytes <= 0:
                continue
            mc = self.mesh.nearest_corner(pe)
            full, rest = divmod(o_bytes, packet)
            write_busy[mc] = write_busy.get(mc, 0) + self._channel_cycles(full, rest, packet)
            max_hops = max(max_hops, self.mesh.hop_count(pe, mc))
        t_write = max(write_busy.values(), default=0)

        # communication not hidden behind DRAM: drain of the last chunk,
        # route transit for reads and writes, and the write serialization
        # of the slowest PE's ofmap into the network
        last_chunk_flits = _flits(
            min(DRAM_CHUNK_BYTES, max((t.nbytes for t in schedule.transfers), default=0)),
            self.dram.max_packet_bytes,
        )
        max_ofmap_flits = max(
            (_flits(w[2], self.dram.max_packet_bytes) for w in schedule.pe_work.values()),
            default=0,
        )
        t_comm = last_chunk_flits + max_ofmap_flits + 2 * max_hops * (pipe + 1)

        t_comp = max(
            (max(compute, decomp) for (_, _, _, compute, decomp, _) in schedule.pe_work.values()),
            default=0,
        )
        if schedule.streamed and t_comp > 0:
            # streamed decode: the fused decode+MAC pipeline starts on
            # the first arriving tile, so datapath cycles elapsed during
            # the read phase are hidden — only the tail past the fetch
            # is exposed (the first-tile ramp is already part of
            # ``t_comm``).  Mirrors the flit-level PE's streamed timing.
            t_comp = max(t_comp - t_read, 1)
        return LatencyComponents(
            memory=t_read + t_write, communication=t_comm, computation=t_comp
        )

    # -- event counts (for the energy model) --------------------------------
    def layer_events(self, schedule: LayerSchedule) -> dict[str, int]:
        flit_hops = 0
        nic_flits = 0
        for t in schedule.transfers:
            f = _flits(t.nbytes, self.dram.max_packet_bytes)
            flit_hops += f * self.mesh.hop_count(t.mc, t.pe)
            nic_flits += 2 * f
        local_mem = 0
        main_read = schedule.total_dram_read_bytes
        main_write = 0
        macs = 0
        decompressed = schedule.decompressed_weights_per_pe * len(schedule.pe_work)
        for pe, (w, i, o, _, _, m) in schedule.pe_work.items():
            if o > 0:
                f = _flits(o, self.dram.max_packet_bytes)
                flit_hops += f * self.mesh.hop_count(pe, self.mesh.nearest_corner(pe))
                nic_flits += 2 * f
            local_mem += 2 * (w + i) + o
            main_write += o
            macs += m
        return {
            "flit_hops": flit_hops,
            "nic_flits": nic_flits,
            "local_mem_bytes": local_mem,
            "main_mem_bytes": main_read + main_write,
            "macs": macs,
            "decompressed_weights": decompressed,
        }
