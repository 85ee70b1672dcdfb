"""Topology variants: chiplet geometry, D2D latency, big-mesh parity.

Two families of guarantees:

* **geometry/semantics** — :class:`ChipletMesh` raises exactly the
  boundary-crossing input-port depths and nothing else, and a flit
  crossing a die boundary pays ``d2d_extra`` cycles over the identical
  on-die path;
* **stepper parity** — the fast cycle-skipping stepper and the naive
  reference stepper stay observationally identical on every *new*
  substrate the scale matrix sweeps (8x8, 16x16, chiplet packages,
  odd-even routing), not just the paper's 4x4.
"""

from __future__ import annotations

import itertools

import pytest

from repro.mapping import Accelerator
from repro.mapping.accelerator import AcceleratorConfig
from repro.noc import ChipletMesh, Mesh, NocSimulator, Packet, TrafficClass
from repro.noc import flit as flit_mod
from repro.noc.mesh import OPPOSITE
from repro.noc.patterns import PatternNode, uniform_random
from repro.noc.simulator import Node

from .test_fastpath import assert_stats_equal


def _reset_packet_ids():
    flit_mod._packet_ids = itertools.count()


class _SingleSend(Node):
    def __init__(self, node_id, sends):
        super().__init__(node_id)
        self.sends = list(sends)
        self.received = []

    def step(self, cycle):
        while self.sends and self.sends[0][0] <= cycle:
            self.send(self.sends.pop(0)[1], cycle)

    def on_packet(self, packet, cycle):
        self.received.append(packet)

    @property
    def idle(self):
        return not self.sends


def _pkt(src, dst, nbytes=0):
    return Packet(src=src, dst=dst, payload_bytes=nbytes, traffic_class=TrafficClass.WEIGHTS)


class TestChipletGeometry:
    def test_chiplet_of(self):
        mesh = ChipletMesh(2, 2, 4, 4)
        assert mesh.width == 8 and mesh.height == 8
        assert mesh.chiplet_of(0) == (0, 0)
        assert mesh.chiplet_of(7) == (1, 0)
        assert mesh.chiplet_of(8 * 7) == (0, 1)
        assert mesh.chiplet_of(63) == (1, 1)
        assert mesh.chiplet_of(3 + 8 * 3) == (0, 0)
        assert mesh.chiplet_of(4 + 8 * 3) == (1, 0)

    def test_boundary_links_count(self):
        # one vertical seam + one horizontal seam, 8 node pairs each,
        # both directions: 2 seams * 8 * 2 = 32 directed links
        mesh = ChipletMesh(2, 2, 4, 4)
        links = mesh.boundary_links()
        assert len(links) == 32
        assert all(
            mesh.chiplet_of(a) != mesh.chiplet_of(b) for a, b in links
        )

    def test_only_boundary_ports_raised(self):
        mesh = ChipletMesh(2, 2, 4, 4, pipeline_depth=2, d2d_extra=3)
        boundary_inputs = {
            (dst, OPPOSITE[port])
            for src, dst in mesh.boundary_links()
            for port in range(4)
            if mesh.neighbor_table[src][port] == dst
        }
        for node in range(mesh.num_nodes):
            for port in range(4):
                depth = mesh.routers[node].port_pipeline_depth[port]
                if (node, port) in boundary_inputs:
                    assert depth == 5, (node, port)
                else:
                    assert depth == 2, (node, port)

    def test_d2d_extra_zero_is_plain_mesh_depths(self):
        mesh = ChipletMesh(2, 2, 4, 4, d2d_extra=0)
        for r in mesh.routers:
            assert r.port_pipeline_depth == [r.pipeline_depth] * 5

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one chiplet"):
            ChipletMesh(0, 2, 4, 4)
        with pytest.raises(ValueError, match="d2d_extra"):
            ChipletMesh(2, 2, 4, 4, d2d_extra=-1)


class TestD2DLatency:
    def test_boundary_crossing_pays_exactly_d2d_extra(self):
        """Same hop count, same route shape: the cross-die packet is
        exactly ``d2d_extra`` cycles behind the on-die one."""
        latencies = {}
        for extra in (0, 3):
            _reset_packet_ids()
            mesh = ChipletMesh(2, 2, 4, 4, d2d_extra=extra)
            # row 0: node 2 -> node 5 crosses the x=3|4 seam (3 hops)
            sim = NocSimulator(mesh)
            dst = _SingleSend(5, [])
            sim.attach_node(_SingleSend(2, [(0, _pkt(2, 5))]))
            sim.attach_node(dst)
            sim.run()
            latencies[extra] = dst.received[0].latency
        assert latencies[3] == latencies[0] + 3

    def test_on_die_route_unaffected(self):
        latencies = {}
        for extra in (0, 3):
            _reset_packet_ids()
            mesh = ChipletMesh(2, 2, 4, 4, d2d_extra=extra)
            sim = NocSimulator(mesh)
            dst = _SingleSend(3 + 8 * 3, [])  # (3,3), same die as (0,0)
            sim.attach_node(_SingleSend(0, [(0, _pkt(0, 3 + 8 * 3))]))
            sim.attach_node(dst)
            sim.run()
            latencies[extra] = dst.received[0].latency
        assert latencies[3] == latencies[0]


# -- stepper parity on the scale-matrix substrates ---------------------------


def _pattern_run(mesh_factory, *, reference, rate=0.05, duration=150, seed=11):
    _reset_packet_ids()
    mesh = mesh_factory()
    sim = NocSimulator(mesh)
    for i in range(mesh.num_nodes):
        sim.attach_node(
            PatternNode(
                i, mesh.num_nodes, uniform_random, rate=rate,
                duration=duration, seed=seed,
            )
        )
    return sim.run(max_cycles=100_000, reference=reference)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: Mesh(8, 8),
        lambda: Mesh(16, 16),
        lambda: Mesh(8, 8, routing="odd-even"),
        lambda: ChipletMesh(2, 2, 4, 4, d2d_extra=2),
        lambda: ChipletMesh(3, 3, 4, 4, d2d_extra=2),
        lambda: ChipletMesh(2, 2, 4, 4, routing="odd-even", d2d_extra=3),
    ],
    ids=["mesh8", "mesh16", "mesh8-oe", "chiplet2x2", "chiplet3x3", "chiplet-oe"],
)
def test_fast_matches_reference_on_new_topologies(factory):
    fast = _pattern_run(factory, reference=False)
    ref = _pattern_run(factory, reference=True)
    assert fast.packets_delivered > 0
    assert_stats_equal(fast, ref)


def test_accelerator_chiplet_layer_matches_reference():
    """A real scheduled layer on the chiplet package, both steppers."""
    from repro.nn import zoo
    from repro.noc import MemoryInterface, PETask, ProcessingElement, ReadJob

    def _run(reference):
        _reset_packet_ids()
        acc = Accelerator(
            AcceleratorConfig(
                mesh_width=12, mesh_height=12, topology="chiplet",
                chiplet_size=4, d2d_extra=2,
            )
        )
        sched = acc.schedule_layer(zoo.lenet5.full().layer("dense_1"))
        sim = NocSimulator(acc._make_mesh())
        mcs = {c: MemoryInterface(c) for c in sim.mesh.corner_ids()}
        for mc in mcs.values():
            sim.attach_node(mc)
        for pe_id, (w, i, o, comp, dec, macs) in sched.pe_work.items():
            pe = ProcessingElement(pe_id)
            pe.assign(PETask(w, i, o, sim.mesh.nearest_corner(pe_id), comp, dec, macs))
            sim.attach_node(pe)
        for job in sched.dram_reads():
            mcs[job.mc].schedule_read(ReadJob(job.dsts, job.nbytes, job.traffic_class))
        return sim.run(reference=reference)

    fast = _run(False)
    ref = _run(True)
    assert fast.packets_delivered > 0
    assert_stats_equal(fast, ref)


class TestAcceleratorTopologyConfig:
    def test_chiplet_config_builds_chiplet_mesh(self):
        acc = Accelerator(
            AcceleratorConfig(
                mesh_width=8, mesh_height=8, topology="chiplet", chiplet_size=4
            )
        )
        mesh = acc._make_mesh()
        assert isinstance(mesh, ChipletMesh)
        assert (mesh.chiplets_x, mesh.chiplets_y) == (2, 2)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            Accelerator(
                AcceleratorConfig(
                    mesh_width=6, mesh_height=8, topology="chiplet", chiplet_size=4
                )
            )

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            Accelerator(AcceleratorConfig(topology="hypercube"))
