"""Decompression unit: bit-exact accumulator semantics and cycle model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codecs import LineFitCodec
from repro.core.compression import StorageFormat, compress
from repro.core.decompressor import (
    _BLOCK,
    _STEP_WEIGHTS,
    DEFAULT_TILE_WEIGHTS,
    DecodePlan,
    DecompressorTiming,
    WeightStream,
)
from repro.core.model_store import ModelArchive
from repro.core.provider import BlobProvider, provider_for
from repro.mapping import Accelerator
from repro.mapping.schedule import CompressionEffect
from repro.resilience import decode_degraded
from tests.conftest import compress_pct

from .test_linefit import evaluate_lines


def _sequential_reference(stream, dtype=np.float32):
    """Literal Eq. (2): w~_1 = q; w~_j = w~_{j-1} + m, scalar loop."""
    m, q = stream.storage_coefficients()
    out = []
    for mi, qi, li in zip(m, q, stream.lengths):
        acc = dtype(qi)
        out.append(acc)
        for _ in range(int(li) - 1):
            acc = dtype(acc + dtype(mi))
            out.append(acc)
    return np.array(out, dtype=dtype)


class TestAccumulatorSemantics:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_exact_vs_scalar_loop(self, seed):
        w = np.random.default_rng(seed).normal(size=300).astype(np.float32)
        stream = compress_pct(w, 10.0)
        fast = stream.decompress()
        ref = _sequential_reference(stream)
        assert fast.dtype == np.float32
        np.testing.assert_array_equal(fast, ref)

    def test_close_to_exact_line_evaluation(self, rng):
        w = rng.normal(size=1000).astype(np.float32)
        stream = compress_pct(w, 15.0)
        hw = stream.decompress()
        exact = evaluate_lines(*stream.storage_coefficients(), stream.lengths)
        # float32 accumulation error is bounded by ~len * eps * |value|
        np.testing.assert_allclose(hw, exact, atol=1e-4, rtol=1e-4)

    def test_length_preserved(self, rng):
        w = rng.normal(size=123)
        stream = compress(w, 0.5)
        assert stream.decompress().shape == (123,)


def _ramp(size: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, size, dtype=np.float32)


def _ramp_gaussian_mix() -> np.ndarray:
    """Short Gaussian segments around ramps of 150 to 70k weights.

    The Gaussian pieces are sized from the plan's block size
    (:data:`~repro.core.decompressor._BLOCK`), so the mix spans six
    blocks.  The ramps straddle block cuts, so blocks mix stepped
    columns with wide and narrow tail segments, and the block around the
    70k ramp is all tail.  The ramp of two MAC tiles and a bit makes
    tile reads carry across one segment.
    """
    rng = np.random.default_rng(17)
    b, t = _BLOCK, DEFAULT_TILE_WEIGHTS
    pieces = [
        rng.standard_normal(b - 700),
        np.linspace(0.0, 0.9, 300),
        rng.standard_normal(2000),
        np.linspace(-0.5, 2.0, 2 * t + 100),
        rng.standard_normal(1500),
        np.linspace(2.0, -2.0, 70_000),
        rng.standard_normal(3 * b),
        np.linspace(-1.0, 0.0, 150),
        rng.standard_normal(777),
    ]
    return np.concatenate(pieces).astype(np.float32)


#: workload name -> (weights, LineFitCodec keyword arguments)
_KERNEL_WORKLOADS = {
    **{
        f"gaussian-{pct}pct": (
            np.random.default_rng(pct).standard_normal(30_000).astype(np.float32),
            {"delta_pct": float(pct)},
        )
        for pct in (5, 10, 20, 30)
    },
    "ramp-200k": (_ramp(200_000), {"delta_pct": 10.0}),
    "ramp-gaussian-mix": (_ramp_gaussian_mix(), {"delta": 0.05}),
}
_REFERENCES: dict = {}


def _kernel_case(workload: str, fmt: str, acc_dtype):
    """The blob, its parsed stream and the scalar-loop reference (cached:
    the literal loop over 200k weights is the slow part)."""
    key = (workload, fmt, np.dtype(acc_dtype).name)
    if key not in _REFERENCES:
        weights, params = _KERNEL_WORKLOADS[workload]
        codec = LineFitCodec(fmt=fmt, **params)
        blob = codec.encode(weights)
        stream = codec.decode_stream(blob)
        _REFERENCES[key] = (blob, stream, _sequential_reference(stream, acc_dtype))
    return _REFERENCES[key]


class TestColumnStepKernel:
    """Every decode path equals the literal Eq. (2) loop, bit for bit, on
    streams long enough to reach multi-block carries, the cumsum tail
    and the 65535-weight length-field limit."""

    def test_workloads_reach_every_kernel_branch(self):
        _, stream, _ = _kernel_case("ramp-200k", "float32", np.float32)
        assert int(stream.lengths.max()) == stream.fmt.max_segment_length
        blocks = DecodePlan(stream)._blocks
        assert any(tail and not counts for _, _, counts, _, tail in blocks)
        _, stream, _ = _kernel_case("ramp-gaussian-mix", "float32", np.float32)
        blocks = DecodePlan(stream)._blocks
        assert len(blocks) > 5
        assert any(tail and counts for _, _, counts, _, tail in blocks)
        assert any(tail and not counts for _, _, counts, _, tail in blocks)
        # wide tail segments finish alone, narrow ones in the padded grid
        assert any(wide for _, _, _, wide, _ in blocks)
        assert any(wide < tail for _, _, _, wide, tail in blocks)
        assert int(stream.lengths.max()) == stream.fmt.max_segment_length
        assert int(stream.lengths.max()) > 2 * DEFAULT_TILE_WEIGHTS

    @pytest.mark.parametrize("acc_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fmt", ["float32", "int8"])
    @pytest.mark.parametrize("workload", sorted(_KERNEL_WORKLOADS))
    @settings(max_examples=6, deadline=None)
    @given(chunks=st.lists(st.integers(1, 20_000), min_size=1, max_size=6))
    def test_every_path_equals_scalar_loop(self, workload, fmt, acc_dtype, chunks):
        blob, stream, ref = _kernel_case(workload, fmt, acc_dtype)
        np.testing.assert_array_equal(stream.decompress(acc_dtype), ref)
        for cursor in (
            WeightStream(DecodePlan(stream, acc_dtype)),
            BlobProvider(blob).cursor(dtype=acc_dtype),
        ):
            parts, i = [], 0
            while cursor.remaining:
                parts.append(cursor.read(chunks[i % len(chunks)]))
                i += 1
            out = np.concatenate(parts)
            assert out.dtype == ref.dtype
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("size", [0, 1])
    def test_degenerate_streams(self, size):
        blob = LineFitCodec(delta_pct=10.0).encode(np.full(size, 0.5, np.float32))
        stream = LineFitCodec().decode_stream(blob)
        ref = _sequential_reference(stream)
        assert ref.size == size
        np.testing.assert_array_equal(stream.decompress(), ref)
        np.testing.assert_array_equal(BlobProvider(blob).materialize(), ref)


#: one piece of a generated stream: ``("gaussian", size, seed, scale)``
#: or ``("ramp", size, start, stop)``; ramps reach past the 65535-weight
#: length-field limit, so the longest segments are split at it
_PIECE = st.one_of(
    st.tuples(
        st.just("gaussian"),
        st.integers(1, 4000),
        st.integers(0, 2**31 - 1),
        st.floats(1e-3, 10.0),
    ),
    st.tuples(
        st.just("ramp"),
        st.integers(1, 70_000),
        st.floats(-4.0, 4.0),
        st.floats(-4.0, 4.0),
    ),
)


def _generated_stream(pieces) -> np.ndarray:
    parts = [
        np.random.default_rng(a).standard_normal(n) * b
        if kind == "gaussian"
        else np.linspace(a, b, n)
        for kind, n, a, b in pieces
    ]
    return np.concatenate(parts).astype(np.float32)


class TestEveryDecodeEntryPoint:
    """Every way to turn a line-fit blob into weights runs the one
    accumulator kernel: each equals the literal Eq. (2) loop, bit for
    bit, on arbitrary streams, tolerances, formats and read chunkings."""

    @settings(max_examples=30, deadline=None)
    @given(
        pieces=st.lists(_PIECE, min_size=1, max_size=3),
        delta_pct=st.floats(0.0, 100.0),
        fmt=st.sampled_from(["float32", "int8"]),
        chunks=st.lists(st.integers(1, 20_000), min_size=1, max_size=6),
    )
    def test_equals_scalar_loop(self, pieces, delta_pct, fmt, chunks):
        weights = _generated_stream(pieces)
        codec = LineFitCodec(delta_pct=delta_pct, fmt=fmt)
        blob = codec.encode(weights).with_checksum()
        ref = _sequential_reference(codec.decode_stream(blob))
        n = weights.size

        def same(out):
            assert out.dtype == ref.dtype
            np.testing.assert_array_equal(np.ravel(out), ref)

        same(codec.decode(blob))

        cursor, parts, i = provider_for(blob).cursor(), [], 0
        while cursor.remaining:
            parts.append(cursor.read(chunks[i % len(chunks)]))
            i += 1
        same(np.concatenate(parts))

        out, report = decode_degraded(blob.payload, n)
        assert report.clean
        same(out)

        payload = {"w": (blob.payload, (n,))}
        for codecs in ({"w": blob.spec()}, {}):  # v2 spec, v1 legacy wire
            archive = ModelArchive({"w": delta_pct}, payload, {}, codecs=codecs)
            out, damage = archive.decode_layer("w")
            assert damage is None
            same(out)


class _Int64KeyPlan(DecodePlan):
    """The oracle for the plan's segment order: one stable ``argsort`` of
    an int64 ``(block, longest - length)`` key over the whole stream,
    the plan as it was built before each block sorted on its own."""

    def __init__(self, stream, acc_dtype=np.float32) -> None:
        self.dtype = np.dtype(acc_dtype)
        m, q = stream.storage_coefficients()
        lengths = np.asarray(stream.lengths, dtype=np.int64)
        self.num_segments = int(lengths.size)
        ends = np.cumsum(lengths)
        self.num_weights = int(ends[-1]) if lengths.size else 0
        targets = np.arange(_BLOCK, self.num_weights, _BLOCK)
        cuts = np.unique(
            np.r_[0, np.searchsorted(ends, targets) + 1, lengths.size]
        )
        seg_counts = np.diff(cuts)
        block_of = np.repeat(np.arange(seg_counts.size), seg_counts)
        longest = int(lengths.max()) if lengths.size else 0
        key = block_of * (longest + 1) + (longest - lengths)
        order = np.argsort(key, kind="stable")
        seg_starts = ends - lengths
        self._m = m[order].astype(self.dtype)
        self._q = q[order].astype(self.dtype)
        self._lengths = lengths[order].astype(np.int32)
        self._starts = (
            seg_starts[order] - np.repeat(seg_starts[cuts[:-1]], seg_counts)
        ).astype(np.int32)
        self.block_ends = ends[cuts[1:] - 1].tolist()
        self._blocks = []
        cuts = cuts.tolist()
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            ascending = self._lengths[lo:hi][::-1]
            n, ncols = hi - lo, int(ascending[-1])
            cols = np.arange(1, min(ncols, n + 2))
            running = n - np.searchsorted(ascending, cols, side="right")
            handoff = np.flatnonzero(ncols - cols > running)
            stepped = int(handoff[0]) if handoff.size else cols.size
            tail = int(running[stepped]) if handoff.size else 0
            widths = np.zeros(tail + 1, dtype=np.int64)
            widths[:tail] = self._lengths[lo : lo + tail] - stepped
            k = np.arange(tail + 1)
            wide = int(np.argmin(k * _STEP_WEIGHTS + (tail - k) * widths))
            self._blocks.append((lo, hi, running[:stepped].tolist(), wide, tail))


def _assert_same_plan(stream, acc_dtype=np.float32) -> None:
    plan, oracle = DecodePlan(stream, acc_dtype), _Int64KeyPlan(stream, acc_dtype)
    for name in ("_m", "_q", "_lengths", "_starts"):
        got, want = getattr(plan, name), getattr(oracle, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert plan._blocks == oracle._blocks
    assert plan.block_ends == oracle.block_ends
    assert (plan.num_weights, plan.num_segments) == (
        oracle.num_weights,
        oracle.num_segments,
    )


class TestPlanOrder:
    """Each block's segments, sorted on their own by a uint16 key, land
    in every plan field exactly where the whole-stream int64 key put
    them."""

    @settings(max_examples=30, deadline=None)
    @given(
        pieces=st.lists(_PIECE, min_size=1, max_size=4),
        delta_pct=st.sampled_from([0.0, 1.0, 5.0, 10.0, 30.0, 100.0]),
        fmt=st.sampled_from(["float32", "int8"]),
        acc_dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_generated_streams(self, pieces, delta_pct, fmt, acc_dtype):
        codec = LineFitCodec(delta_pct=delta_pct, fmt=fmt)
        stream = codec.decode_stream(codec.encode(_generated_stream(pieces)))
        _assert_same_plan(stream, acc_dtype)

    @pytest.mark.parametrize("workload", sorted(_KERNEL_WORKLOADS))
    def test_kernel_workloads(self, workload):
        weights, params = _KERNEL_WORKLOADS[workload]
        codec = LineFitCodec(**params)
        _assert_same_plan(codec.decode_stream(codec.encode(weights)))

    @pytest.mark.parametrize("size", [0, 1, 2, 150_000])
    @pytest.mark.parametrize("delta_pct", [0.0, 10.0])
    def test_constant_streams(self, size, delta_pct):
        # 150k equal weights: two 65535-weight segments and the rest
        codec = LineFitCodec(delta_pct=delta_pct)
        stream = codec.decode_stream(codec.encode(np.full(size, 0.5, np.float32)))
        if size == 150_000:
            assert int(stream.lengths.max()) == 0xFFFF
        _assert_same_plan(stream)

    def test_segments_longer_than_the_uint16_key(self):
        # a 3-byte length field lets a segment pass 65535 weights, so the
        # plan falls back to a wide key; in one block, 100k - 20k wraps
        # below 100k - 40k in 16 bits and would put 20k before 40k
        weights = np.concatenate(
            [
                np.linspace(0.0, 1.0, 20_000),
                np.linspace(1.0, -1.0, 40_000),
                np.linspace(-1.0, 2.0, 100_000),
                _generated_stream([("gaussian", 3000, 5, 1.0)]),
            ]
        ).astype(np.float32)
        stream = compress(weights, 1e-6, fmt=StorageFormat(length_bytes=3))
        short, mid, longest = stream.lengths[:3].tolist()
        assert longest == int(stream.lengths.max())
        assert longest - short > 0xFFFF > longest - mid
        assert DecodePlan(stream)._blocks[0][:2] == (0, 3)
        _assert_same_plan(stream)


class TestCycleModel:
    """``CompressionEffect.decompress_cycles``, the one copy of the unit's
    cycle formula, on a single decompression unit per PE."""

    def test_default_timing_one_weight_per_cycle(self, rng):
        w = rng.normal(size=500).astype(np.float32)
        blob = LineFitCodec(delta_pct=5.0).encode(w)
        effect = Accelerator().compression_effect(blob, units_per_pe=1)
        cycles = effect.decompress_cycles(blob.num_weights, blob.num_segments)
        assert cycles == blob.num_segments + blob.num_weights

    def test_custom_timing(self, rng):
        w = rng.normal(size=100)
        blob = LineFitCodec(delta=0.1).encode(w)
        effect = CompressionEffect(
            cr=blob.compression_ratio,
            segments_total=blob.num_segments,
            units_per_pe=1,
            timing=DecompressorTiming(init_cycles=3, run_cycles_per_weight=2),
        )
        cycles = effect.decompress_cycles(blob.num_weights, blob.num_segments)
        assert cycles == 3 * blob.num_segments + 2 * blob.num_weights

    def test_cycles_for_aggregate_counts(self):
        effect = CompressionEffect(cr=1.0, segments_total=300, units_per_pe=1)
        assert effect.decompress_cycles(weights_per_pe=1000, segments_per_pe=300) == 1300
