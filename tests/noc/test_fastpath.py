"""Differential tests for the fast-path simulator.

The activity-tracked, cycle-skipping stepper (:meth:`NocSimulator.step`)
must be *observationally identical* to the naive reference stepper
(:meth:`NocSimulator.step_reference`): every :class:`NocStats` field —
cycle count, hop/buffer counters, the per-link flit census, latency sum
and decode overlap — must match exactly on the same workload with the
same seeds.  These tests pin that equivalence for every traffic source
the repo has: synthetic pattern sweeps, a real scheduled layer (memory
interfaces + processing elements), and the multi-VC allocator.
"""

from __future__ import annotations

import itertools

import pytest

from repro.mapping import Accelerator
from repro.nn import zoo
from repro.noc import (
    Mesh,
    MemoryInterface,
    NocSimulator,
    Packet,
    PETask,
    ProcessingElement,
    ReadJob,
    TrafficClass,
)
from repro.noc import flit as flit_mod
from repro.noc.patterns import PatternNode, transpose, uniform_random

#: every scalar field of NocStats (link_flits / payload_bytes are
#: Counters, compared separately)
SCALAR_FIELDS = (
    "cycles",
    "flit_hops",
    "buffer_writes",
    "buffer_reads",
    "packets_delivered",
    "flits_delivered",
    "latency_sum",
    "decode_overlap_cycles",
)


def assert_stats_equal(fast, ref):
    """Field-by-field NocStats comparison, fast stepper vs reference."""
    for name in SCALAR_FIELDS:
        fv, rv = getattr(fast, name), getattr(ref, name)
        assert fv == rv, f"NocStats.{name}: fast={fv} reference={rv}"
    assert fast.link_flits == ref.link_flits, "per-link flit counts diverge"
    assert fast.payload_bytes == ref.payload_bytes


def _reset_packet_ids():
    # packet ids feed the worm-route tables; both runs must mint the
    # same id sequence for link-level state to be comparable
    flit_mod._packet_ids = itertools.count()


# -- synthetic patterns -------------------------------------------------------


def _pattern_run(pattern, rate, *, reference, duration=400, seed=3):
    _reset_packet_ids()
    mesh = Mesh()
    sim = NocSimulator(mesh)
    for i in range(mesh.num_nodes):
        sim.attach_node(
            PatternNode(
                i, mesh.num_nodes, pattern, rate=rate, duration=duration, seed=seed
            )
        )
    return sim.run(max_cycles=100_000, reference=reference)


@pytest.mark.parametrize("pattern", [uniform_random, transpose], ids=["uniform", "transpose"])
@pytest.mark.parametrize("rate", [0.02, 0.08, 0.14])
def test_pattern_sweep_matches_reference(pattern, rate):
    fast = _pattern_run(pattern, rate, reference=False)
    ref = _pattern_run(pattern, rate, reference=True)
    assert fast.packets_delivered > 0
    assert_stats_equal(fast, ref)


# -- a real scheduled layer ---------------------------------------------------


def _layer_run(*, reference):
    _reset_packet_ids()
    acc = Accelerator()
    sched = acc.schedule_layer(zoo.lenet5.full().layer("dense_1"))
    sim = NocSimulator(Mesh(4, 4))
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


def test_scheduled_layer_matches_reference():
    """Full accelerator workload: MCs, PEs, multicast reads, OFMAP writes."""
    fast = _layer_run(reference=False)
    ref = _layer_run(reference=True)
    assert fast.packets_delivered > 0
    assert_stats_equal(fast, ref)


def test_run_model_flit_matches_reference():
    """End-to-end: Accelerator.run_model in flit mode gives identical
    per-layer latency/events whichever stepper drives the mesh (the
    ``reference_stepper`` config hook the ablation harness toggles)."""
    from dataclasses import replace

    from repro.mapping import AcceleratorConfig

    def run_model(reference):
        _reset_packet_ids()
        cfg = replace(AcceleratorConfig(), reference_stepper=reference)
        return Accelerator(cfg).run_model(zoo.lenet5.full(), mode="flit")

    fast = run_model(False)
    ref = run_model(True)
    assert len(fast.layers) == len(ref.layers) > 0
    for fl, rl in zip(fast.layers, ref.layers):
        assert fl.layer_name == rl.layer_name
        assert fl.latency == rl.latency, fl.layer_name
        assert fl.events == rl.events, fl.layer_name
        assert fl.energy == rl.energy, fl.layer_name


# -- allocator variants -------------------------------------------------------


def test_multi_vc_matches_reference():
    """num_vcs=2 exercises the generic (non-specialized) allocator."""

    def run(reference):
        _reset_packet_ids()
        mesh = Mesh(num_vcs=2)
        sim = NocSimulator(mesh)
        for i in range(mesh.num_nodes):
            sim.attach_node(
                PatternNode(
                    i, mesh.num_nodes, uniform_random, rate=0.08, duration=300, seed=7
                )
            )
        return sim.run(max_cycles=100_000, reference=reference)

    fast, ref = run(False), run(True)
    assert fast.packets_delivered > 0
    assert_stats_equal(fast, ref)


def test_vc1_allocator_matches_generic_allocator():
    """The single-VC specialization is a pure optimization of the
    generic allocator: forcing every router onto ``_plan_generic``
    must reproduce the specialized plan move-for-move."""

    def run(force_generic):
        _reset_packet_ids()
        mesh = Mesh()
        sim = NocSimulator(mesh)
        if force_generic:
            for r in mesh.routers:
                r._plan_impl = r._plan_generic
        for i in range(mesh.num_nodes):
            sim.attach_node(
                PatternNode(
                    i, mesh.num_nodes, transpose, rate=0.10, duration=300, seed=1
                )
            )
        return sim.run(max_cycles=100_000)

    fast, generic = run(False), run(True)
    assert fast.packets_delivered > 0
    assert_stats_equal(fast, generic)


# -- liveness guard -----------------------------------------------------------


class _StuckNode(ProcessingElement):
    """A node that is never idle and never acts: the run loop must not
    let cycle skipping turn that into an infinite fast-forward."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.assign(PETask(8, 0, 0, node_id, compute_cycles=4))
        # claims it wants inputs forever; nothing will ever send them
        self.task.expect_weight_bytes = 1 << 40

    @property
    def idle(self):
        return False


def test_max_cycles_still_raises_on_deadlock():
    """Cycle skipping must charge the skipped cycles against the
    liveness budget — a wedged network still fails fast."""
    sim = NocSimulator(Mesh(4, 4))
    sim.attach_node(_StuckNode(5))
    with pytest.raises(RuntimeError, match="did not quiesce"):
        sim.run(max_cycles=2_000)


def test_max_cycles_raises_with_traffic_in_flight():
    """Same guard while flits are actually moving (credit-starved worm)."""

    class Flood(PatternNode):
        pass

    sim = NocSimulator(Mesh(4, 4))
    for i in range(16):
        sim.attach_node(
            Flood(i, 16, uniform_random, rate=1.0, duration=10_000, seed=0)
        )
    with pytest.raises(RuntimeError, match="did not quiesce"):
        sim.run(max_cycles=500)


def test_interleaved_steppers_stay_consistent():
    """step_reference resynchronizes the activity sets, so mixing the
    two steppers mid-run is legal and still quiesces correctly."""
    _reset_packet_ids()
    mesh = Mesh()
    sim = NocSimulator(mesh)
    for i in range(mesh.num_nodes):
        sim.attach_node(
            PatternNode(i, mesh.num_nodes, uniform_random, rate=0.05, duration=200, seed=2)
        )
    for _ in range(50):
        sim.step()
    for _ in range(50):
        sim.step_reference()
    stats = sim.run(max_cycles=100_000)
    ref = _pattern_run(uniform_random, 0.05, reference=True, duration=200, seed=2)
    assert_stats_equal(stats, ref)


def test_wake_node_unknown_id_raises():
    sim = NocSimulator(Mesh(4, 4))
    with pytest.raises(KeyError):
        sim.wake_node(99)


def test_send_after_detach_raises():
    """Satellite regression: Node.send without a NIC is a hard error,
    not an assert that optimization flags can strip."""
    node = PatternNode(0, 16, uniform_random, rate=1.0, duration=10, seed=0)
    with pytest.raises(RuntimeError, match="not attached"):
        node.send(
            Packet(src=0, dst=1, payload_bytes=8, traffic_class=TrafficClass.REQUEST),
            cycle=0,
        )
