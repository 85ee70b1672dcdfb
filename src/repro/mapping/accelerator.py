"""Top-level accelerator model: run a network, get latency and energy.

``Accelerator`` reproduces the paper's experimental platform (Sec.
IV-A): a 4x4 mesh at 1 GHz with 64-bit links, memory interfaces in the
corners, twelve PEs with 8 KB local memories and 8x8-way vector MACs,
back-annotated with 45 nm-class energy numbers.

Layers execute sequentially (the standard dataflow for this class of
accelerator and the one the paper's per-layer breakdown implies); each
layer can run on the flit-level cycle-accurate simulator
(``mode="flit"``, used for LeNet-5-scale networks and for validating
the fast model) or on the calibrated transaction-level model
(``mode="txn"``, used for the five large networks).

Batch-norm and element-wise activation layers are folded into the
preceding convolution (their inference-time work is absorbed into the
MAC datapath, the standard deployment transformation), and merge nodes
move no data of their own — branch traffic is already accounted by the
producing and consuming layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.codecs import CompressedBlob
from ..core.provider import WeightProvider
from ..energy.model import EnergyAccount, EnergyBreakdown
from ..energy.params import EnergyParams
from ..nn.arch import ArchSpec, LayerKind, LayerSpec
from ..noc.memory_if import DramConfig, MemoryInterface, ReadJob
from ..noc.mesh import Mesh
from ..noc.pe import PEConfig, PETask, ProcessingElement
from ..noc.topology import ChipletMesh
from ..noc.simulator import NocSimulator
from ..noc.transaction import LatencyComponents, TransactionModel
from .schedule import CompressionEffect, LayerSchedule, build_schedule

__all__ = ["AcceleratorConfig", "LayerResult", "ModelResult", "Accelerator", "SIMULATED_KINDS"]

#: layer kinds that occupy the accelerator (see module docstring)
SIMULATED_KINDS = {
    LayerKind.CONV,
    LayerKind.DWCONV,
    LayerKind.FC,
    LayerKind.POOL,
    LayerKind.GLOBALPOOL,
}


@dataclass(frozen=True)
class AcceleratorConfig:
    mesh_width: int = 4
    mesh_height: int = 4
    buffer_depth: int = 4
    pipeline_depth: int = 2
    #: routing algorithm (see ``repro.noc.routing.ROUTING_ALGORITHMS``)
    routing: str = "xy"
    #: "mesh" (a flat ``mesh_width x mesh_height`` die) or "chiplet" (a
    #: Simba-like package of ``chiplet_size``-square dies tiling the
    #: same ``mesh_width x mesh_height`` node grid, with ``d2d_extra``
    #: additional cycles on every die-to-die link)
    topology: str = "mesh"
    chiplet_size: int = 4
    d2d_extra: int = 2
    dram: DramConfig = field(default_factory=DramConfig)
    pe: PEConfig = field(default_factory=PEConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    #: parallel decompression units per PE (one per vector MAC lane)
    decompressor_units: int = 8
    #: conv traffic model: "paper" (single-pass) or "banded" (see
    #: repro.mapping.tiling)
    refetch_model: str = "paper"
    #: flit-level scheduling: False = static MC programs (default, what
    #: the transaction model assumes), True = PE-issued request packets
    demand_mode: bool = False
    #: streamed-decode timing: compression effects built by this
    #: accelerator overlap the fused decode+MAC pipeline with the weight
    #: fetch when the weights decode incrementally (see
    #: ``Accelerator.compression_effect``, ``repro.noc.pe`` and
    #: ``repro.noc.transaction``)
    streamed_decode: bool = False
    #: drive flit-level runs with the retained naive reference stepper
    #: (``NocSimulator.step_reference``) instead of the activity-scheduled
    #: fast path — an ``identical``-class ablation hook: results must be
    #: bit-equal either way, only wall time may differ
    reference_stepper: bool = False


@dataclass
class LayerResult:
    layer_name: str
    latency: LatencyComponents
    energy: EnergyBreakdown
    events: dict[str, int]


@dataclass
class ModelResult:
    model_name: str
    layers: list[LayerResult]

    @property
    def total_latency(self) -> LatencyComponents:
        total = LatencyComponents(0, 0, 0)
        for l in self.layers:
            total = total + l.latency
        return total

    @property
    def total_energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for l in self.layers:
            total = total + l.energy
        return total


class Accelerator:
    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        # None sentinel, not an instantiated default: a call-site default
        # would be evaluated once at import and shared (with its
        # DramConfig/PEConfig/EnergyParams children) by every instance
        self.config = config if config is not None else AcceleratorConfig()
        self._txn = TransactionModel(self._make_mesh(), self.config.dram)

    def _make_mesh(self) -> Mesh:
        c = self.config
        if c.topology == "chiplet":
            if (
                c.mesh_width % c.chiplet_size
                or c.mesh_height % c.chiplet_size
            ):
                raise ValueError(
                    f"chiplet topology needs mesh dims divisible by "
                    f"chiplet_size={c.chiplet_size}, got "
                    f"{c.mesh_width}x{c.mesh_height}"
                )
            return ChipletMesh(
                c.mesh_width // c.chiplet_size,
                c.mesh_height // c.chiplet_size,
                c.chiplet_size,
                c.chiplet_size,
                c.buffer_depth,
                c.pipeline_depth,
                routing=c.routing,
                d2d_extra=c.d2d_extra,
            )
        if c.topology != "mesh":
            raise ValueError(
                f"unknown topology {c.topology!r}; use 'mesh' or 'chiplet'"
            )
        return Mesh(
            c.mesh_width,
            c.mesh_height,
            c.buffer_depth,
            c.pipeline_depth,
            routing=c.routing,
        )

    # -- schedule construction ------------------------------------------------
    def schedule_layer(
        self,
        layer: LayerSpec,
        compression: CompressionEffect | None = None,
        weight_bytes_per_word: int = 4,
        batch: int = 1,
    ) -> LayerSchedule:
        return build_schedule(
            layer,
            self._txn.mesh,
            compression=compression,
            macs_per_cycle=self.config.pe.macs_per_cycle,
            local_mem_bytes=self.config.pe.local_memory_bytes,
            weight_bytes_per_word=weight_bytes_per_word,
            refetch_model=self.config.refetch_model,
            batch=batch,
        )

    # -- execution -------------------------------------------------------------
    def run_layer(self, schedule: LayerSchedule, mode: str = "txn") -> LayerResult:
        if mode == "txn":
            return self._run_layer_txn(schedule)
        if mode == "flit":
            return self._run_layer_flit(schedule)
        raise ValueError(f"unknown mode {mode!r}; use 'flit' or 'txn'")

    def _energy(self, events: dict[str, int], cycles: int) -> EnergyBreakdown:
        mesh = self._txn.mesh
        account = EnergyAccount(
            params=self.config.energy,
            num_routers=mesh.num_nodes,
            num_pes=len(mesh.pe_ids()),
            flit_hops=events["flit_hops"],
            nic_flits=events["nic_flits"],
            macs=events["macs"],
            decompressed_weights=events["decompressed_weights"],
            local_mem_bytes=events["local_mem_bytes"],
            main_mem_bytes=events["main_mem_bytes"],
            cycles=cycles,
        )
        return account.breakdown()

    def _run_layer_txn(self, schedule: LayerSchedule) -> LayerResult:
        latency = self._txn.layer_latency(schedule)
        events = self._txn.layer_events(schedule)
        return LayerResult(
            layer_name=schedule.layer_name,
            latency=latency,
            energy=self._energy(events, latency.total),
            events=events,
        )

    def _run_layer_flit(self, schedule: LayerSchedule) -> LayerResult:
        c = self.config
        sim = NocSimulator(self._make_mesh())
        mcs: dict[int, MemoryInterface] = {}
        for corner in sim.mesh.corner_ids():
            mc = MemoryInterface(corner, c.dram)
            mcs[corner] = mc
            sim.attach_node(mc)
        pes: dict[int, ProcessingElement] = {}
        for pe_id, (w, i, o, compute, decomp, macs) in schedule.pe_work.items():
            pe = ProcessingElement(pe_id, c.pe)
            pe.assign(
                PETask(
                    expect_weight_bytes=w,
                    expect_ifmap_bytes=i,
                    ofmap_bytes=o,
                    ofmap_dst=sim.mesh.nearest_corner(pe_id),
                    compute_cycles=compute,
                    decompress_cycles=decomp,
                    macs=macs,
                    request_mc=sim.mesh.nearest_corner(pe_id) if c.demand_mode else None,
                    streamed=schedule.streamed,
                )
            )
            pes[pe_id] = pe
            sim.attach_node(pe)
        if not c.demand_mode:
            for job in schedule.dram_reads():
                mcs[job.mc].schedule_read(
                    ReadJob(job.dsts, job.nbytes, job.traffic_class)
                )

        stats = sim.run(reference=c.reference_stepper)
        for pe_id, pe in pes.items():
            if not pe._inputs_ready():  # noqa: SLF001 - deliberate invariant check
                raise RuntimeError(
                    f"PE {pe_id} never received its inputs (schedule mismatch)"
                )

        t_mem = max((mc.busy_cycles for mc in mcs.values()), default=0)
        t_comp = max((pe.busy_cycles for pe in pes.values()), default=0)
        t_comm = max(stats.cycles - t_mem - t_comp, 0)
        latency = LatencyComponents(memory=t_mem, communication=t_comm, computation=t_comp)

        total_flits = stats.flits_delivered
        events = {
            "flit_hops": stats.flit_hops,
            "nic_flits": 2 * total_flits,
            "macs": sum(pe.macs_done for pe in pes.values()),
            "decompressed_weights": schedule.decompressed_weights_per_pe
            * len(schedule.pe_work),
            "local_mem_bytes": sum(pe.local_mem_bytes_accessed for pe in pes.values()),
            "main_mem_bytes": sum(mc.bytes_read + mc.bytes_written for mc in mcs.values()),
        }
        return LayerResult(
            layer_name=schedule.layer_name,
            latency=latency,
            energy=self._energy(events, stats.cycles),
            events=events,
        )

    def run_model(
        self,
        spec: ArchSpec,
        compression: dict[str, CompressionEffect | CompressedBlob | WeightProvider]
        | None = None,
        mode: str = "txn",
        weight_bytes_per_word: int = 4,
        batch: int = 1,
    ) -> ModelResult:
        """Run every traffic-bearing layer of a network.

        ``compression`` maps layer names to their compression effects;
        entries may also be :class:`~repro.core.codecs.CompressedBlob` or
        :class:`~repro.core.provider.WeightProvider` values, which are
        normalized through :meth:`compression_effect` — so the output of
        *any* registered codec plugs in directly, and providers flow to
        the compute model without an intermediate full-size buffer.
        ``batch`` amortizes weight fetches over several inferences.
        """
        compression = {
            name: value
            if isinstance(value, CompressionEffect)
            else self.compression_effect(value)
            for name, value in (compression or {}).items()
        }
        unknown = set(compression) - {l.name for l in spec.layers}
        if unknown:
            raise ValueError(f"compression for unknown layers: {sorted(unknown)}")
        results = []
        for layer in spec.layers:
            if layer.kind not in SIMULATED_KINDS:
                continue
            schedule = self.schedule_layer(
                layer,
                compression=compression.get(layer.name),
                weight_bytes_per_word=weight_bytes_per_word,
                batch=batch,
            )
            results.append(self.run_layer(schedule, mode=mode))
        return ModelResult(model_name=spec.name, layers=results)

    def compression_effect(
        self,
        source: CompressedBlob | WeightProvider,
        units_per_pe: int | None = None,
        streamed: bool | None = None,
    ) -> CompressionEffect:
        """Effect of compressed weights: any codec's blob or a provider.

        Reads the source's ``compression_ratio`` and ``num_segments``
        (lossless codecs report no segments: a volume-only change), never
        its payload.  ``streamed`` defaults to the accelerator's
        ``streamed_decode`` configuration and takes effect only when the
        source's weights decode incrementally (``source.streaming``, see
        :attr:`repro.core.codecs.CompressedBlob.streaming`).
        """
        if units_per_pe is None:
            units_per_pe = self.config.decompressor_units
        if streamed is None:
            streamed = self.config.streamed_decode
        return CompressionEffect(
            cr=source.compression_ratio,
            segments_total=source.num_segments,
            units_per_pe=units_per_pe,
            streamed=bool(streamed) and source.streaming,
        )
