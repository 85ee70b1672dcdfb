"""Streamed-decode timing: overlap of the PE datapath with the fetch.

With ``PETask(streamed=True)`` (or ``LayerSchedule.streamed``), the
fused decode+MAC pipeline starts on the first arriving input tile, so
datapath cycles elapsed while the fetch tail is still in flight are
hidden instead of serialized after it.  These tests pin the timing
semantics in both simulators — flit-level
(:class:`~repro.noc.pe.ProcessingElement`) and transaction-level
(:class:`~repro.noc.transaction.TransactionModel`) — plus the
schedule-level plumbing and the fast-path/reference equivalence.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.codecs import LineFitCodec, get_codec
from repro.core.provider import provider_for
from repro.mapping import Accelerator
from repro.mapping.accelerator import AcceleratorConfig
from repro.mapping.schedule import build_schedule
from repro.nn import zoo
from repro.noc import (
    MemoryInterface,
    Mesh,
    NocSimulator,
    PETask,
    ProcessingElement,
    ReadJob,
    TrafficClass,
)
from repro.noc import flit as flit_mod
from repro.noc.transaction import TransactionModel

from .test_fastpath import assert_stats_equal


def _single_pe_run(streamed: bool, compute_cycles: int = 500):
    flit_mod._packet_ids = itertools.count()
    sim = NocSimulator(Mesh(4, 4))
    mc = MemoryInterface(0)
    sim.attach_node(mc)
    pe = ProcessingElement(5)
    pe.assign(
        PETask(
            expect_weight_bytes=4096,
            expect_ifmap_bytes=0,
            ofmap_bytes=64,
            ofmap_dst=0,
            compute_cycles=compute_cycles,
            streamed=streamed,
        )
    )
    sim.attach_node(pe)
    mc.schedule_read(ReadJob((5,), 4096, TrafficClass.WEIGHTS))
    stats = sim.run()
    return stats, pe


class TestFlitLevelOverlap:
    def test_streamed_hides_fetch_cycles(self):
        base, base_pe = _single_pe_run(streamed=False)
        fused, fused_pe = _single_pe_run(streamed=True)
        assert fused.decode_overlap_cycles > 0
        assert base.decode_overlap_cycles == 0
        assert fused.cycles == base.cycles - fused.decode_overlap_cycles
        assert (
            fused_pe.busy_cycles
            == base_pe.busy_cycles - fused.decode_overlap_cycles
        )

    def test_overlap_capped_at_datapath_minus_one(self):
        # a tiny datapath cannot go below one exposed cycle
        _, _ = _single_pe_run(streamed=False, compute_cycles=1)
        fused, pe = _single_pe_run(streamed=True, compute_cycles=1)
        assert pe.busy_cycles == 1
        assert fused.decode_overlap_cycles == 0

    def test_overlap_never_exceeds_fetch_span(self):
        base, _ = _single_pe_run(streamed=False, compute_cycles=100_000)
        fused, pe = _single_pe_run(streamed=True, compute_cycles=100_000)
        # the hidden cycles are bounded by the fetch duration, so a
        # compute-dominated task still pays nearly all of its datapath
        assert 0 < fused.decode_overlap_cycles < base.cycles
        assert pe.busy_cycles == 100_000 - fused.decode_overlap_cycles

    def test_fast_path_matches_reference_with_streamed_tasks(self):
        def run(reference):
            flit_mod._packet_ids = itertools.count()
            acc = Accelerator(AcceleratorConfig(streamed_decode=True))
            spec = zoo.lenet5.full()
            w = spec.materialize("dense_1").ravel()
            blob = LineFitCodec(delta=0.05).encode(w)
            sched = acc.schedule_layer(
                spec.layer("dense_1"),
                compression=acc.compression_effect(provider_for(blob)),
            )
            assert sched.streamed
            sim = NocSimulator(Mesh(4, 4))
            mcs = {c: MemoryInterface(c) for c in sim.mesh.corner_ids()}
            for m in mcs.values():
                sim.attach_node(m)
            for pe_id, (wb, ib, ob, comp, dec, macs) in sched.pe_work.items():
                pe = ProcessingElement(pe_id)
                pe.assign(
                    PETask(
                        wb,
                        ib,
                        ob,
                        sim.mesh.nearest_corner(pe_id),
                        comp,
                        dec,
                        macs,
                        streamed=sched.streamed,
                    )
                )
                sim.attach_node(pe)
            for job in sched.dram_reads():
                mcs[job.mc].schedule_read(
                    ReadJob(job.dsts, job.nbytes, job.traffic_class)
                )
            return sim.run(reference=reference)

        fast = run(False)
        ref = run(True)
        assert fast.decode_overlap_cycles > 0
        assert_stats_equal(fast, ref)


class TestTransactionLevelOverlap:
    def _schedules(self):
        spec = zoo.lenet5.full()
        layer = spec.layer("dense_1")
        w = spec.materialize("dense_1").ravel()
        blob = LineFitCodec(delta=0.05).encode(w)
        mesh = Mesh(4, 4)
        acc = Accelerator()
        base = build_schedule(
            layer, mesh, acc.compression_effect(blob, streamed=False)
        )
        fused = build_schedule(
            layer, mesh, acc.compression_effect(blob, streamed=True)
        )
        return base, fused

    def test_computation_component_shrinks(self):
        base_sched, fused_sched = self._schedules()
        txn = TransactionModel()
        base = txn.layer_latency(base_sched)
        fused = txn.layer_latency(fused_sched)
        assert fused.computation < base.computation
        assert fused.memory == base.memory
        assert fused.communication == base.communication
        assert fused.total < base.total

    def test_events_unchanged_by_timing_mode(self):
        base_sched, fused_sched = self._schedules()
        txn = TransactionModel()
        assert txn.layer_events(base_sched) == txn.layer_events(fused_sched)


class TestSchedulePlumbing:
    def test_effect_from_provider_respects_streaming_capability(self):
        w = np.random.default_rng(0).standard_normal(2000).astype(np.float32)
        linefit = provider_for(LineFitCodec(delta=0.05).encode(w))
        acc = Accelerator()
        assert acc.compression_effect(linefit, streamed=True).streamed
        assert not acc.compression_effect(linefit, streamed=False).streamed
        materialized = provider_for(w)  # ArrayProvider: nothing to stream
        assert not acc.compression_effect(materialized, streamed=True).streamed

    def test_uncompressed_schedule_is_never_streamed(self):
        sched = build_schedule(zoo.lenet5.full().layer("dense_1"), Mesh(4, 4))
        assert not sched.streamed

    def test_accelerator_config_controls_streamed_effects(self):
        spec = zoo.lenet5.full()
        w = spec.materialize("dense_1").ravel()
        blob = LineFitCodec(delta=0.05).encode(w)
        on = Accelerator(AcceleratorConfig(streamed_decode=True))
        off = Accelerator()
        assert on.compression_effect(provider_for(blob)).streamed
        assert not off.compression_effect(provider_for(blob)).streamed
        # per-call override beats the config default
        assert off.compression_effect(provider_for(blob), streamed=True).streamed

    def test_run_model_accepts_providers_and_is_faster_streamed(self):
        spec = zoo.lenet5.full()
        w = spec.materialize("dense_1").ravel()
        blob = LineFitCodec(delta=0.05).encode(w)
        base = Accelerator().run_model(spec, {"dense_1": provider_for(blob)})
        fused = Accelerator(AcceleratorConfig(streamed_decode=True)).run_model(
            spec, {"dense_1": provider_for(blob)}
        )
        assert fused.total_latency.total < base.total_latency.total

    @pytest.mark.parametrize("streamed_decode", [False, True])
    @pytest.mark.parametrize(
        "codec", ["linefit", "quantize-int8|linefit", "huffman", "rle", "lz"]
    )
    def test_blob_and_provider_agree(self, codec, streamed_decode):
        """One effect per set of weights, whatever form they arrive in:
        ``streamed`` applies only when the weights decode incrementally,
        for a blob and its provider alike."""
        spec = zoo.lenet5.full()
        w = spec.materialize("dense_1", seed=0).ravel()
        blob = get_codec(codec, delta_pct=10.0).encode(w)
        acc = Accelerator(AcceleratorConfig(streamed_decode=streamed_decode))
        via_blob = acc.run_model(spec, {"dense_1": blob})
        assert acc.run_model(spec, {"dense_1": provider_for(blob)}) == via_blob
        if codec != "linefit":  # whole-payload decoders never overlap
            assert Accelerator().run_model(spec, {"dense_1": blob}) == via_blob
