"""Per-layer traffic schedules (the three arrows of the paper's Fig. 1).

A :class:`LayerSchedule` is the executable form of a
:class:`~repro.mapping.tiling.LayerPlan`: concrete DRAM read jobs per
memory interface ((1) load filters + ifmap), per-PE expectations
((2) dispatch to PEs) and write-back volumes ((3) store ofmap), plus the
datapath cycle counts — everything both the flit-level simulator and the
transaction-level model need.

Compression plugs in here: for the compressed layer, weight fetch
volumes shrink by the stream's compression ratio while the PEs gain
decompression cycles, exactly the mechanism the paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.decompressor import DecompressorTiming
from ..nn.arch import LayerSpec
from ..noc.flit import TrafficClass
from ..noc.mesh import Mesh
from .tiling import LayerPlan, plan_layer

__all__ = ["CompressionEffect", "Transfer", "LayerSchedule", "build_schedule"]

#: DRAM reads are chunked so row-activation cost amortizes over long
#: streams while data still flows out pipelined with the NoC
DRAM_CHUNK_BYTES = 2048


@dataclass(frozen=True)
class CompressionEffect:
    """How compressing a layer changes its schedule.

    ``cr`` scales the weight-fetch volume down; ``segments_total`` sets
    the per-segment init cost of the decompression units (0 for
    lossless codecs: a volume-only change); ``units_per_pe`` is the
    number of parallel decompressors in front of the MAC lanes (the
    paper's Fig. 7 places the unit inside each PE; we default to one per
    vector lane so decompression throughput matches the lanes' weight
    demand).  Build one from compressed weights with
    :meth:`repro.mapping.accelerator.Accelerator.compression_effect`.
    """

    cr: float
    segments_total: int
    units_per_pe: int = 8
    timing: DecompressorTiming = field(default_factory=DecompressorTiming)
    #: streamed-decode timing: the fused decode+MAC pipeline starts on
    #: the first arriving tile, overlapping datapath cycles with the
    #: fetch (see ``repro.noc.pe`` / ``repro.noc.transaction``)
    streamed: bool = False

    def decompress_cycles(self, weights_per_pe: int, segments_per_pe: int) -> int:
        t = self.timing
        serial = segments_per_pe * t.init_cycles + weights_per_pe * t.run_cycles_per_weight
        return -(-serial // max(self.units_per_pe, 1))


@dataclass(frozen=True)
class Transfer:
    """One logical DRAM->PE data stream (the NoC's view)."""

    mc: int
    pe: int
    nbytes: int
    traffic_class: TrafficClass


@dataclass(frozen=True)
class DramRead:
    """One physical DRAM read, possibly fanned out to several PEs.

    The *replicated* operand of a partitioned layer (the ifmap under a
    channel split, the weights under a spatial split) is identical for
    every PE behind a memory interface; the MC reads it from DRAM once
    and replicates it on chip.
    """

    mc: int
    dsts: tuple[int, ...]
    nbytes: int
    traffic_class: TrafficClass


@dataclass
class LayerSchedule:
    layer_name: str
    plan: LayerPlan
    transfers: list[Transfer]
    #: pe id -> (weight bytes, ifmap bytes, ofmap bytes, compute cycles,
    #:           decompress cycles, macs)
    pe_work: dict[int, tuple[int, int, int, int, int, int]]
    #: the traffic class whose data is shared behind each MC (None if
    #: every stream is private)
    shared_class: TrafficClass | None = None
    #: decompressed weight count per PE (for energy accounting)
    decompressed_weights_per_pe: int = 0
    #: streamed-decode timing mode (from the layer's CompressionEffect)
    streamed: bool = False

    @property
    def total_read_bytes(self) -> int:
        """NoC-side read volume (every PE copy counted)."""
        return sum(t.nbytes for t in self.transfers)

    @property
    def total_dram_read_bytes(self) -> int:
        """DRAM-side read volume (shared operands counted once per MC)."""
        return sum(j.nbytes for j in self.dram_jobs())

    @property
    def total_write_bytes(self) -> int:
        return sum(w[2] for w in self.pe_work.values())

    def dram_jobs(self) -> list[DramRead]:
        """Physical DRAM read jobs, one per stream, before chunking.

        Shared-class transfers behind the same MC collapse into one job
        with all their PEs as destinations.
        """
        grouped: dict[tuple[int, TrafficClass], list[Transfer]] = {}
        jobs: list[DramRead] = []
        for t in self.transfers:
            if t.traffic_class is self.shared_class:
                grouped.setdefault((t.mc, t.traffic_class), []).append(t)
            else:
                jobs.append(DramRead(t.mc, (t.pe,), t.nbytes, t.traffic_class))
        for (mc, tclass), ts in grouped.items():
            nbytes = ts[0].nbytes
            if any(x.nbytes != nbytes for x in ts):
                raise ValueError("shared transfers must have equal volume")
            jobs.append(DramRead(mc, tuple(x.pe for x in ts), nbytes, tclass))
        return jobs

    def dram_reads(self) -> list[DramRead]:
        """:meth:`dram_jobs` split into ``DRAM_CHUNK_BYTES`` reads, in job
        order, for pipelined service (the MC programs of the flit model).
        """
        out: list[DramRead] = []
        for j in self.dram_jobs():
            full, rest = divmod(j.nbytes, DRAM_CHUNK_BYTES)
            chunk = DramRead(j.mc, j.dsts, DRAM_CHUNK_BYTES, j.traffic_class)
            out.extend([chunk] * full)
            if rest:
                out.append(DramRead(j.mc, j.dsts, rest, j.traffic_class))
        return out


def build_schedule(
    layer: LayerSpec,
    mesh: Mesh,
    compression: CompressionEffect | None = None,
    macs_per_cycle: int = 64,
    local_mem_bytes: int = 8 * 1024,
    weight_bytes_per_word: int = 4,
    refetch_model: str = "paper",
    batch: int = 1,
) -> LayerSchedule:
    """Build the executable schedule for one layer.

    ``compression`` applies to this layer's weight stream (already
    selected by the layer-selection policy); ``weight_bytes_per_word``
    is 4 for float32 models and 1 for int8-quantized ones.  ``batch``
    processes several inferences per weight fetch: activations and MACs
    scale with the batch while the weight traffic is amortized — which
    is exactly why the paper's single-inference edge scenario is where
    weight compression matters most.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    pe_ids = mesh.pe_ids()
    plan = plan_layer(
        layer,
        num_pes=len(pe_ids),
        local_mem_bytes=local_mem_bytes,
        weight_bytes_per_word=weight_bytes_per_word,
        refetch_model=refetch_model,
    )
    if batch > 1:
        plan = LayerPlan(
            layer_name=plan.layer_name,
            partition=plan.partition,
            num_pes=plan.num_pes,
            pe=type(plan.pe)(
                weight_fetch_bytes=plan.pe.weight_fetch_bytes,
                ifmap_fetch_bytes=plan.pe.ifmap_fetch_bytes * batch,
                ofmap_bytes=plan.pe.ofmap_bytes * batch,
                macs=plan.pe.macs * batch,
            ),
            total_read_bytes=(
                plan.pe.weight_fetch_bytes + plan.pe.ifmap_fetch_bytes * batch
            )
            * plan.num_pes,
            total_write_bytes=plan.pe.ofmap_bytes * batch * plan.num_pes,
            refetch_factor=plan.refetch_factor,
        )

    weight_fetch = plan.pe.weight_fetch_bytes
    decompress_cycles = 0
    decompressed = 0
    if compression is not None and weight_fetch > 0:
        weight_fetch = max(1, int(round(weight_fetch / compression.cr)))
        weights_per_pe = plan.pe.weight_fetch_bytes // weight_bytes_per_word
        segments_per_pe = -(-compression.segments_total // len(pe_ids))
        decompress_cycles = compression.decompress_cycles(
            weights_per_pe, segments_per_pe
        )
        decompressed = weights_per_pe

    transfers: list[Transfer] = []
    pe_work: dict[int, tuple[int, int, int, int, int, int]] = {}
    for pe in pe_ids:
        mc = mesh.nearest_corner(pe)
        if weight_fetch > 0:
            transfers.append(Transfer(mc, pe, weight_fetch, TrafficClass.WEIGHTS))
        if plan.pe.ifmap_fetch_bytes > 0:
            transfers.append(
                Transfer(mc, pe, plan.pe.ifmap_fetch_bytes, TrafficClass.IFMAP)
            )
        compute = -(-plan.pe.macs // macs_per_cycle)
        pe_work[pe] = (
            weight_fetch,
            plan.pe.ifmap_fetch_bytes,
            plan.pe.ofmap_bytes,
            compute,
            decompress_cycles,
            plan.pe.macs,
        )

    shared = None
    if plan.partition == "channel" and plan.pe.ifmap_fetch_bytes > 0:
        shared = TrafficClass.IFMAP  # every PE needs the whole ifmap
    elif plan.partition == "spatial" and weight_fetch > 0:
        shared = TrafficClass.WEIGHTS  # every PE needs all the weights
    return LayerSchedule(
        layer_name=layer.name,
        plan=plan,
        transfers=transfers,
        pe_work=pe_work,
        shared_class=shared,
        decompressed_weights_per_pe=decompressed,
        streamed=compression.streamed if compression is not None else False,
    )
