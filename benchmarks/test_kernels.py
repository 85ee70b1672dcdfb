"""Microbenchmarks of the performance-critical kernels.

These are true pytest-benchmark timings (multiple rounds) for the inner
loops everything else is built on: segmentation, line fitting,
decompression, convolution and the NoC cycle loop.  They guard against
performance regressions in the vectorized kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compression import compress
from repro.core.linefit import fit_segments
from repro.core.segmentation import segment_boundaries
from repro.nn.layers import Conv2D
from repro.noc import Mesh, NocSimulator, Packet, TrafficClass
from repro.noc.simulator import Node


@pytest.fixture(scope="module")
def stream():
    return np.random.default_rng(0).normal(size=1_000_000).astype(np.float32)


def test_segmentation_throughput(benchmark, stream):
    """Greedy weak-monotonic segmentation of 1M weights."""
    boundaries = benchmark(segment_boundaries, stream, 0.1)
    assert boundaries[-1] == stream.size


def test_linefit_throughput(benchmark, stream):
    boundaries = segment_boundaries(stream, 0.1)
    m, q = benchmark(fit_segments, stream, boundaries)
    assert m.size == boundaries.size - 1


def test_compress_end_to_end(benchmark, stream):
    cs = benchmark(compress, stream, 0.2)
    assert cs.num_weights == stream.size


def test_decompress_vectorized(benchmark, stream):
    """Whole-stream decode of 1M weights: the column-step accumulator."""
    cs = compress(stream, 0.2)
    out = benchmark(cs.decompress)
    assert out.size == stream.size


def test_conv2d_forward(benchmark):
    rng = np.random.default_rng(0)
    conv = Conv2D(16, 32, 3, padding=1, rng=rng)
    x = rng.normal(size=(8, 16, 28, 28)).astype(np.float32)
    y = benchmark(conv.forward, x)
    assert y.shape == (8, 32, 28, 28)


def test_noc_cycle_rate(benchmark):
    """Flit-level simulation of a 12-flow transfer burst."""

    def run():
        sim = NocSimulator(Mesh(4, 4))

        class Sink(Node):
            pass

        class Src(Node):
            def __init__(self, node_id, dst):
                super().__init__(node_id)
                self.dst = dst
                self.sent = False

            def step(self, cycle):
                if not self.sent:
                    self.send(
                        Packet(self.node_id, self.dst, 1024, TrafficClass.WEIGHTS),
                        cycle,
                    )
                    self.sent = True

            @property
            def idle(self):
                return self.sent

        for corner in (0, 3, 12, 15):
            sim.attach_node(Sink(corner))
        for pe in Mesh(4, 4).pe_ids():
            sim.attach_node(Src(pe, [0, 3, 12, 15][pe % 4]))
        return sim.run().cycles

    cycles = benchmark(run)
    assert cycles > 0
