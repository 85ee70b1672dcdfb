"""Transaction-level model unit behaviour (agreement tests live in
tests/integration/test_transaction_vs_flit.py)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.schedule import (
    DRAM_CHUNK_BYTES,
    CompressionEffect,
    LayerSchedule,
    Transfer,
    build_schedule,
)
from repro.noc import TrafficClass
from repro.noc.memory_if import DramConfig
from repro.noc.mesh import Mesh
from repro.noc.topology import ChipletMesh
from repro.noc.transaction import LatencyComponents, TransactionModel, _flits
from repro.nn.arch import ArchBuilder


def _fc_layer(in_f, out_f):
    b = ArchBuilder("t", (1, 1, 1))
    b.set_shape((in_f,))
    b.fc("fc", out_f)
    return b.build().layer("fc")


def _sched(in_f=400, out_f=1200):
    return build_schedule(_fc_layer(in_f, out_f), Mesh(4, 4))


def reference_layer_latency(model: TransactionModel, schedule: LayerSchedule) -> LatencyComponents:
    """The model served request by request: one DRAM request per
    ``DRAM_CHUNK_BYTES`` read chunk of the flit MC programs
    (``schedule.dram_reads()``) and one per ``max_packet_bytes`` ofmap
    packet.  ``TransactionModel.layer_latency`` counts the same requests
    in closed form and must agree exactly."""
    dram, mesh = model.dram, model.mesh
    pipe = mesh.routers[0].pipeline_depth

    read_busy: dict[int, int] = {}
    inject_flits: dict[int, int] = {}
    max_hops = 0
    for job in schedule.dram_reads():
        read_busy[job.mc] = read_busy.get(job.mc, 0) + dram.service_cycles(job.nbytes)
        inject_flits[job.mc] = inject_flits.get(job.mc, 0) + len(job.dsts) * _flits(
            job.nbytes, dram.max_packet_bytes
        )
        for dst in job.dsts:
            max_hops = max(max_hops, mesh.hop_count(job.mc, dst))
    t_read = max(
        (max(read_busy[mc], inject_flits.get(mc, 0)) for mc in read_busy),
        default=0,
    )

    write_busy: dict[int, int] = {}
    for pe, (_, _, o_bytes, _, _, _) in schedule.pe_work.items():
        if o_bytes <= 0:
            continue
        mc = mesh.nearest_corner(pe)
        remaining = o_bytes
        while remaining > 0:
            n = min(dram.max_packet_bytes, remaining)
            write_busy[mc] = write_busy.get(mc, 0) + dram.service_cycles(n)
            remaining -= n
        max_hops = max(max_hops, mesh.hop_count(pe, mc))
    t_write = max(write_busy.values(), default=0)

    last_chunk_flits = _flits(
        min(DRAM_CHUNK_BYTES, max((t.nbytes for t in schedule.transfers), default=0)),
        dram.max_packet_bytes,
    )
    max_ofmap_flits = max(
        (_flits(w[2], dram.max_packet_bytes) for w in schedule.pe_work.values()),
        default=0,
    )
    t_comm = last_chunk_flits + max_ofmap_flits + 2 * max_hops * (pipe + 1)

    t_comp = max(
        (max(compute, decomp) for (_, _, _, compute, decomp, _) in schedule.pe_work.values()),
        default=0,
    )
    if schedule.streamed and t_comp > 0:
        t_comp = max(t_comp - t_read, 1)
    return LatencyComponents(memory=t_read + t_write, communication=t_comm, computation=t_comp)


class TestLatencyComponents:
    def test_total(self):
        c = LatencyComponents(10, 5, 3)
        assert c.total == 18

    def test_add(self):
        c = LatencyComponents(1, 2, 3) + LatencyComponents(10, 20, 30)
        assert (c.memory, c.communication, c.computation) == (11, 22, 33)


class TestModel:
    def test_components_positive_for_real_layer(self):
        model = TransactionModel()
        lat = model.layer_latency(_sched())
        assert lat.memory > 0 and lat.communication > 0 and lat.computation > 0

    def test_memory_dominates_fc(self):
        model = TransactionModel()
        lat = model.layer_latency(_sched(4000, 4000))
        assert lat.memory > lat.communication + lat.computation

    def test_bigger_layer_costs_more(self):
        model = TransactionModel()
        small = model.layer_latency(_sched(100, 100)).total
        big = model.layer_latency(_sched(2000, 2000)).total
        assert big > 5 * small

    def test_events_bytes_conserved(self):
        model = TransactionModel()
        sched = _sched()
        ev = model.layer_events(sched)
        # DRAM-side accounting: shared ifmap counted once per MC
        assert ev["main_mem_bytes"] == (
            sched.total_dram_read_bytes + sched.total_write_bytes
        )
        assert ev["main_mem_bytes"] < sched.total_read_bytes + sched.total_write_bytes
        assert ev["macs"] >= sched.plan.total_macs

    def test_flit_hops_scale_with_volume(self):
        model = TransactionModel()
        small = model.layer_events(_sched(100, 120))["flit_hops"]
        big = model.layer_events(_sched(1000, 1200))["flit_hops"]
        assert big > 5 * small

    def test_empty_schedule_zero(self):
        # a pool layer on a tiny map still has some traffic, so build a
        # degenerate schedule by hand
        sched = _sched()
        sched.transfers = []
        sched.pe_work = {}
        model = TransactionModel()
        lat = model.layer_latency(sched)
        assert lat.total == 0


# -- closed form == request-by-request service ------------------------------

MESHES = (
    Mesh(4, 4),
    Mesh(8, 8),
    Mesh(8, 8, routing="odd-even"),
    ChipletMesh(2, 2, 4, 4),
)

#: byte counts at the chunk and packet boundaries, plus the empty and
#: one-byte transfers
EDGE_BYTES = st.sampled_from(
    [0, 1, 15, 16, 255, 256, 257, 512, 2047, DRAM_CHUNK_BYTES, 2049, 3 * DRAM_CHUNK_BYTES,
     3 * DRAM_CHUNK_BYTES + 1]
)
BYTES = st.one_of(EDGE_BYTES, st.integers(0, 40_000))

drams = st.builds(
    DramConfig,
    access_latency=st.integers(0, 64),
    bandwidth_bytes_per_cycle=st.one_of(
        st.sampled_from([1.0, 2.5, 3.0, 8.0]),
        st.floats(0.5, 32.0, allow_nan=False, allow_infinity=False),
    ),
    max_packet_bytes=st.integers(16, 512),
)


@st.composite
def layers(draw):
    kind = draw(st.sampled_from(["fc", "conv", "pool"]))
    if kind == "fc":
        b = ArchBuilder("t", (1, 1, 1))
        b.set_shape((draw(st.integers(1, 3000)),))
        b.fc("l", draw(st.integers(1, 2000)))
        return b.build().layer("l")
    c, hw = draw(st.integers(1, 64)), draw(st.integers(4, 32))
    b = ArchBuilder("t", (c, hw, hw))
    if kind == "conv":
        b.conv(
            "l",
            draw(st.integers(1, 96)),
            draw(st.sampled_from([1, 3, 5])),
            stride=draw(st.integers(1, 2)),
            pad="same",
        )
    else:
        b.pool("l", draw(st.sampled_from([2, 3])))
    return b.build().layer("l")


compressions = st.one_of(
    st.none(),
    st.builds(
        CompressionEffect,
        cr=st.floats(1.0, 8.0),
        segments_total=st.integers(0, 200_000),
        streamed=st.booleans(),
    ),
)


@st.composite
def hand_schedules(draw, mesh):
    """Every PE of ``mesh`` with edge-sized weight, ifmap and ofmap
    volumes; the shared class (if any) has one volume behind every MC."""
    plan = _sched().plan  # not read by the model
    shared = draw(st.sampled_from([None, TrafficClass.IFMAP, TrafficClass.WEIGHTS]))
    shared_bytes = draw(BYTES)
    transfers: list[Transfer] = []
    pe_work = {}
    for pe in mesh.pe_ids():
        mc = mesh.nearest_corner(pe)
        w = shared_bytes if shared is TrafficClass.WEIGHTS else draw(BYTES)
        i = shared_bytes if shared is TrafficClass.IFMAP else draw(BYTES)
        transfers.append(Transfer(mc, pe, w, TrafficClass.WEIGHTS))
        transfers.append(Transfer(mc, pe, i, TrafficClass.IFMAP))
        pe_work[pe] = (w, i, draw(BYTES), draw(st.integers(0, 20_000)),
                       draw(st.integers(0, 20_000)), 0)
    return LayerSchedule(
        "hand", plan, transfers, pe_work, shared_class=shared, streamed=draw(st.booleans())
    )


def _assert_matches_reference(model: TransactionModel, sched: LayerSchedule) -> None:
    assert model.layer_latency(sched) == reference_layer_latency(model, sched)
    assert sched.total_dram_read_bytes == sum(j.nbytes for j in sched.dram_reads())


class TestClosedFormMatchesReference:
    @given(
        layer=layers(),
        mesh=st.sampled_from(MESHES),
        dram=drams,
        compression=compressions,
        batch=st.integers(1, 4),
        refetch=st.sampled_from(["paper", "banded"]),
        word=st.sampled_from([1, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_layers(self, layer, mesh, dram, compression, batch, refetch, word):
        sched = build_schedule(
            layer,
            mesh,
            compression=compression,
            batch=batch,
            refetch_model=refetch,
            weight_bytes_per_word=word,
        )
        _assert_matches_reference(TransactionModel(mesh, dram), sched)

    @given(data=st.data(), mesh=st.sampled_from(MESHES), dram=drams)
    @settings(max_examples=150, deadline=None)
    def test_hand_built_schedules(self, data, mesh, dram):
        sched = data.draw(hand_schedules(mesh))
        _assert_matches_reference(TransactionModel(mesh, dram), sched)

    @pytest.mark.parametrize(
        "nbytes", [1, 2047, DRAM_CHUNK_BYTES, 2049, 5 * DRAM_CHUNK_BYTES + 7]
    )
    def test_one_job_remainder(self, nbytes):
        # a private read job and ofmap not a multiple of the packet: the
        # remainder request costs a full access latency of its own
        mesh = Mesh(4, 4)
        pe = mesh.pe_ids()[0]
        mc = mesh.nearest_corner(pe)
        sched = _sched()
        sched.shared_class = None
        sched.transfers = [Transfer(mc, pe, nbytes, TrafficClass.WEIGHTS)]
        sched.pe_work = {pe: (nbytes, 0, nbytes, 1, 0, 0)}
        _assert_matches_reference(TransactionModel(mesh, DramConfig(access_latency=40)), sched)

    def test_zero_byte_job_adds_no_hops(self):
        # a far PE with nothing to read or write: its route must not
        # enter the transit term
        mesh = Mesh(8, 8)
        near, far = 1, 27
        model = TransactionModel(mesh)
        sched = _sched()
        sched.shared_class = None
        sched.transfers = [Transfer(mesh.nearest_corner(near), near, 4096, TrafficClass.WEIGHTS)]
        sched.pe_work = {near: (4096, 0, 64, 10, 0, 0)}
        without_far = model.layer_latency(sched)
        sched.transfers.append(Transfer(mesh.nearest_corner(far), far, 0, TrafficClass.IFMAP))
        sched.pe_work[far] = (0, 0, 0, 10, 0, 0)
        _assert_matches_reference(model, sched)
        assert model.layer_latency(sched) == without_far

    def test_shared_job_injects_a_copy_per_destination(self):
        # a fast channel makes the MC's injection link the bound, so the
        # fan-out of the shared ifmap shows in the memory term
        mesh = Mesh(4, 4)
        sched = build_schedule(_fc_layer(4000, 4000), mesh)
        assert sched.shared_class is TrafficClass.IFMAP
        model = TransactionModel(mesh, DramConfig(bandwidth_bytes_per_cycle=64.0))
        _assert_matches_reference(model, sched)

