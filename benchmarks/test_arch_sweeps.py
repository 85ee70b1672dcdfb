"""Architecture design-space sweeps around the paper's configuration.

The paper fixes one accelerator design point (4x4 mesh, 8 KB local
memories, corner MCs).  These sweeps show how the headline result —
memory-bound inference, compression savings proportional to weight
traffic — responds to the main architectural knobs, using the
transaction model plus the CACTI-style memory estimator.
"""

from __future__ import annotations


from repro.analysis.report import render_table
from repro.core import get_codec
from repro.energy import estimate_sram
from repro.mapping import Accelerator, AcceleratorConfig
from repro.noc.memory_if import DramConfig
from repro.nn import zoo


def test_local_memory_sweep(benchmark, save_artifact):
    """Bigger local memories cut conv-layer refetch traffic (under the
    conservative banded model), at a CACTI-predicted cost per access."""
    spec = zoo.lenet5.full()

    def sweep():
        rows = []
        for kb in (4, 8, 16, 32):
            from repro.noc.pe import PEConfig

            acc = Accelerator(
                AcceleratorConfig(
                    pe=PEConfig(local_memory_bytes=kb * 1024),
                    refetch_model="banded",  # expose the SRAM sensitivity
                )
            )
            res = acc.run_model(spec, mode="txn")
            sram = estimate_sram(kb * 1024)
            rows.append(
                [
                    f"{kb} KB",
                    res.total_latency.total,
                    f"{res.total_energy.total * 1e6:.2f}",
                    f"{sram.energy_per_byte * 1e12:.2f}",
                    f"{sram.leakage_w * 1e3:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "sweep_local_memory",
        render_table(
            ["local mem", "latency (cyc)", "energy (uJ)",
             "SRAM pJ/B (CACTI)", "SRAM leak mW"],
            rows,
            title="Sweep — PE local memory size (LeNet-5)",
        ),
    )
    lats = [r[1] for r in rows]
    assert lats == sorted(lats, reverse=True)  # more SRAM, less refetch


def test_dram_bandwidth_sweep(benchmark, save_artifact):
    """Memory-bound inference: latency ~ 1/bandwidth until the NoC or
    compute floor appears."""
    spec = zoo.lenet5.full()

    def sweep():
        rows = []
        for bw in (4.0, 8.0, 16.0, 32.0):
            acc = Accelerator(
                AcceleratorConfig(dram=DramConfig(bandwidth_bytes_per_cycle=bw))
            )
            res = acc.run_model(spec, mode="txn")
            t = res.total_latency
            rows.append([f"{bw:.0f} B/cyc", t.total, t.memory, t.communication, t.computation])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "sweep_dram_bandwidth",
        render_table(
            ["DRAM bw", "total", "memory", "comm", "compute"],
            rows,
            title="Sweep — main-memory bandwidth (LeNet-5)",
        ),
    )
    totals = [r[1] for r in rows]
    assert totals == sorted(totals, reverse=True)
    # memory-bound at the paper's 8 B/cyc point
    assert rows[1][2] > rows[1][3] + rows[1][4]


def test_mesh_size_sweep(benchmark, save_artifact):
    """More PEs cut compute time but the memory wall stays."""
    spec = zoo.lenet5.full()

    def sweep():
        rows = []
        for dim in (4, 6, 8):
            acc = Accelerator(AcceleratorConfig(mesh_width=dim, mesh_height=dim))
            res = acc.run_model(spec, mode="txn")
            t = res.total_latency
            pes = dim * dim - 4
            rows.append([f"{dim}x{dim} ({pes} PEs)", t.total, t.memory, t.computation])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "sweep_mesh_size",
        render_table(
            ["mesh", "total", "memory", "compute"],
            rows,
            title="Sweep — mesh size (LeNet-5, 4 corner MCs)",
        ),
    )
    compute = [r[3] for r in rows]
    assert compute == sorted(compute, reverse=True)


def test_compression_savings_vs_bandwidth(benchmark, save_artifact):
    """The compression win shrinks as memory bandwidth grows — the
    technique matters most exactly where the paper positions it
    (bandwidth-starved edge accelerators)."""
    spec = zoo.lenet5.full()
    w = spec.materialize("dense_1").ravel()
    blob = get_codec("linefit", delta_pct=15.0).encode(w)

    def sweep():
        rows = []
        for bw in (4.0, 8.0, 32.0):
            acc = Accelerator(
                AcceleratorConfig(dram=DramConfig(bandwidth_bytes_per_cycle=bw))
            )
            base = acc.run_model(spec, mode="txn").total_latency.total
            eff = acc.compression_effect(blob)
            comp = acc.run_model(spec, {"dense_1": eff}, mode="txn").total_latency.total
            rows.append([f"{bw:.0f} B/cyc", base, comp, f"{1 - comp / base:.1%}"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "sweep_savings_vs_bandwidth",
        render_table(
            ["DRAM bw", "base latency", "compressed", "saving"],
            rows,
            title="Sweep — compression saving vs memory bandwidth (delta=15%)",
        ),
    )
    savings = [float(r[3].rstrip("%")) for r in rows]
    assert savings[0] >= savings[-1]


def test_batch_size_sweep(benchmark, save_artifact):
    """Batching amortizes weight traffic, so the compression win shrinks
    as the batch grows — single-inference edge workloads (the paper's
    target) benefit the most."""
    spec = zoo.lenet5.full()
    w = spec.materialize("dense_1").ravel()
    blob = get_codec("linefit", delta_pct=15.0).encode(w)
    acc = Accelerator()
    eff = acc.compression_effect(blob)

    def sweep():
        rows = []
        for batch in (1, 4, 16):
            base = acc.run_model(spec, mode="txn", batch=batch).total_latency.total
            comp = acc.run_model(
                spec, {"dense_1": eff}, mode="txn", batch=batch
            ).total_latency.total
            rows.append(
                [batch, base, comp, f"{1 - comp / base:.1%}"]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact(
        "sweep_batch_size",
        render_table(
            ["batch", "base latency", "compressed", "saving"],
            rows,
            title="Sweep — compression saving vs batch size (LeNet-5, delta=15%)",
        ),
    )
    savings = [float(r[3].rstrip("%")) for r in rows]
    assert savings == sorted(savings, reverse=True)
