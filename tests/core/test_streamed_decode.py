"""Streamed decode == materialized decode, bit for bit.

The regression contract of the fused decode+MAC path
(:mod:`repro.core.provider` / :class:`repro.core.decompressor.
WeightStream`): streaming only changes *when* decoded weights exist,
never what they are.  Property-tested here across accumulation dtypes,
arbitrary read-chunk patterns, and every registered codec.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import provider as provider_mod
from repro.core.codecs import CompressedBlob, LineFitCodec, get_codec
from repro.core.compression import compress
from repro.core.decompressor import DEFAULT_TILE_WEIGHTS, DecodePlan, WeightStream
from repro.core.errors import IntegrityError
from repro.core.provider import ArrayProvider, BlobProvider, provider_for

from .test_fuzz_codecs import ALL_CODECS

ACC_DTYPES = [np.float32, np.float64]


def _weights(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(size).astype(np.float32)


class TestWeightStreamBitIdentical:
    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        size=st.integers(min_value=1, max_value=4000),
        chunk_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_arbitrary_chunk_pattern(self, acc_dtype, seed, size, chunk_seed):
        stream = compress(_weights(seed, size), delta=0.05)
        ref = stream.decompress(acc_dtype)

        ws = WeightStream(DecodePlan(stream, acc_dtype))
        rng = np.random.default_rng(chunk_seed)
        parts = []
        while ws.remaining:
            parts.append(ws.read(int(rng.integers(1, size + 1))))
        out = np.concatenate(parts)
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=31),
        tile=st.integers(min_value=1, max_value=997),
    )
    def test_tile_iteration(self, acc_dtype, seed, tile):
        stream = compress(_weights(seed, 3000), delta=0.05)
        ref = stream.decompress(acc_dtype)
        ws = WeightStream(DecodePlan(stream, acc_dtype))
        tiles = []
        while ws.remaining:
            tiles.append(ws.read(tile))
        assert all(t.size == tile for t in tiles[:-1])
        np.testing.assert_array_equal(np.concatenate(tiles), ref)

    def test_reset_restarts_the_pass(self):
        stream = compress(_weights(3, 2000), delta=0.05)
        ws = WeightStream(DecodePlan(stream))
        first = ws.read(777).copy()
        ws.reset()
        np.testing.assert_array_equal(ws.read(777), first)


class TestCursorFootprint:
    """A cursor holds one tile plus one block, and decodes on its own."""

    def test_peak_is_one_tile_plus_one_block(self):
        tile = DEFAULT_TILE_WEIGHTS
        w = _weights(5, 1 << 20)
        codec = LineFitCodec(delta_pct=10.0)
        plan = DecodePlan(codec.decode_stream(codec.encode(w)))
        blocks = np.diff([0, *plan.block_ends])
        assert blocks.size > 8
        # slack: the kernel's per-segment state for the largest block (an
        # intp position and a float32 accumulator per segment), the
        # carried weights (under a tile) copied out while the previous
        # block's buffer is freed, and 64 KiB for small objects
        state = 12 * max(hi - lo for lo, hi, *_ in plan._blocks)
        bound = 4 * (tile + int(blocks.max())) + state + 4 * tile + (64 << 10)
        cursor = WeightStream(plan)
        tracemalloc.start()
        try:
            while cursor.remaining:
                cursor.read(tile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)
        assert peak < w.nbytes // 4, (peak, w.nbytes)

    def test_cursors_of_one_provider_share_no_buffer(self):
        # serving decodes per request: a cache shared across cursors
        # would hand two requests views of one buffer
        provider = BlobProvider(
            LineFitCodec(delta_pct=10.0).encode(_weights(6, 150_000))
        )
        a, b = provider.cursor(), provider.cursor()
        tiles_a, tiles_b = [], []
        while a.remaining:
            tiles_a.append(a.read(DEFAULT_TILE_WEIGHTS))
            tiles_b.append(b.read(DEFAULT_TILE_WEIGHTS))
        assert not b.remaining
        for ta, tb in zip(tiles_a, tiles_b):
            np.testing.assert_array_equal(ta, tb)
        for ta in tiles_a:
            assert not any(np.shares_memory(ta, tb) for tb in tiles_b)


class TestProvidersBitIdentical:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=15),
        chunk=st.integers(min_value=1, max_value=1500),
    )
    def test_every_codec_streamed_equals_materialized(
        self, name, acc_dtype, seed, chunk
    ):
        blob = get_codec(name, delta_pct=10.0).encode(_weights(seed, 1200))
        provider = provider_for(blob)
        assert isinstance(provider, BlobProvider)
        ref = provider.materialize(dtype=acc_dtype)

        cur = provider.cursor(dtype=acc_dtype)
        parts = []
        while cur.remaining:
            parts.append(cur.read(chunk))
        out = np.concatenate(parts)
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)

    def test_linefit_blob_streams_without_materializing(self):
        blob = get_codec("linefit", delta_pct=10.0).encode(_weights(0, 1000))
        provider = provider_for(blob)
        assert provider.streaming
        # streamed values equal the codec's own whole-payload decode
        codec = get_codec("linefit", delta_pct=10.0)
        np.testing.assert_array_equal(
            provider.materialize(dtype=np.float32),
            np.asarray(codec.decode(blob), dtype=np.float32),
        )

    def test_codec_decode_equals_provider_at_scale(self):
        blob = get_codec("linefit", delta_pct=10.0).encode(_weights(0, 200_000))
        np.testing.assert_array_equal(
            get_codec("linefit", delta_pct=10.0).decode(blob),
            provider_for(blob).materialize(),
        )

    def test_non_linefit_blobs_fall_back_to_materialization(self):
        blob = get_codec("rle").encode(_weights(1, 500))
        provider = provider_for(blob)
        assert not provider.streaming

    @pytest.mark.parametrize("acc_dtype", ACC_DTYPES)
    def test_stream_provider_equals_decompress_accumulate(self, acc_dtype):
        codec = LineFitCodec(delta=0.05)
        blob = codec.encode(_weights(5, 4096))
        provider = provider_for(blob)
        assert provider.streaming
        np.testing.assert_array_equal(
            provider.materialize(dtype=acc_dtype),
            codec.decode_stream(blob).decompress(acc_dtype),
        )

    def test_array_provider_round_trip(self):
        w = _weights(7, 321)
        provider = provider_for(w)
        assert isinstance(provider, ArrayProvider)
        np.testing.assert_array_equal(provider.materialize(), w)
        cur = provider.cursor()
        np.testing.assert_array_equal(
            np.concatenate([cur.read(100), cur.read(1000)]), w
        )

    def test_provider_for_rejects_garbage(self):
        with pytest.raises(TypeError):
            provider_for(object())
        # a parsed line-fit stream is not a provider source: encode it
        with pytest.raises(TypeError):
            provider_for(compress(_weights(8, 64), delta=0.05))

    def test_cursors_are_independent_passes(self):
        provider = provider_for(LineFitCodec(delta=0.05).encode(_weights(9, 2048)))
        a, b = provider.cursor(), provider.cursor()
        first = a.read(512)
        np.testing.assert_array_equal(b.read(512), first)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_damaged_payload_is_refused(self, name):
        # archives record a payload CRC32 per blob; a provider must check
        # it, not serve weights decoded from a flipped byte
        blob = get_codec(name, delta_pct=10.0).encode(_weights(4, 4096))
        blob = blob.with_checksum()
        payload = bytearray(blob.payload)
        payload[len(payload) // 2] ^= 0x01
        damaged = CompressedBlob.rebuild(blob.spec(), bytes(payload))
        assert provider_for(blob).materialize().size == 4096
        with pytest.raises(IntegrityError, match="checksum"):
            provider_for(damaged).materialize()


class TestBlobProviderConcurrency:
    """The build-once steps must hold under concurrent readers.

    The async service shares one provider across in-flight requests, so
    two interleaved ``cursor()`` consumers must never double-decode the
    blob, build a decode plan twice, or observe a partially-populated
    cache.
    """

    def test_concurrent_cursors_plan_exactly_once_per_dtype(self, monkeypatch):
        import sys
        import threading
        import time

        builds: list[np.dtype] = []

        class CountedPlan(DecodePlan):
            def __init__(self, stream, acc_dtype=np.float32, **kw):
                builds.append(np.dtype(acc_dtype))
                # widen the race window: a second reader arriving
                # mid-build must wait on the lock, not build its own
                time.sleep(0.02)
                super().__init__(stream, acc_dtype, **kw)

        monkeypatch.setattr(provider_mod, "DecodePlan", CountedPlan)
        codec = LineFitCodec(delta_pct=10.0)
        blob = codec.encode(_weights(22, 20_000))
        provider = BlobProvider(blob)
        assert provider.streaming

        dtypes = [np.float32, np.float64] * 4
        barrier = threading.Barrier(len(dtypes))
        results: list[np.ndarray] = [None] * len(dtypes)
        errors: list[BaseException] = []

        def reader(i: int) -> None:
            try:
                barrier.wait(timeout=5)
                cur = provider.cursor(dtype=dtypes[i])
                chunks = []
                while cur.remaining:
                    chunks.append(cur.read(1000 + 37 * i))
                results[i] = np.concatenate(chunks)
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(len(dtypes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert sorted(d.name for d in builds) == ["float32", "float64"], builds
        stream = codec.decode_stream(blob)
        for dtype, out in zip(dtypes, results):
            np.testing.assert_array_equal(out, stream.decompress(dtype))
            assert out.dtype == dtype

    def test_concurrent_cursors_decode_exactly_once(self, monkeypatch):
        import threading

        from repro.core.codecs.lossless import HuffmanCodec

        w = _weights(21, 8192)
        blob = get_codec("huffman").encode(w)
        provider = BlobProvider(blob)
        assert not provider.streaming  # huffman takes the materialize path

        decodes = []
        barrier = threading.Barrier(8)
        real_decode = HuffmanCodec.decode

        def counted_decode(self, b):
            decodes.append(threading.get_ident())
            # widen the race window: a second reader arriving mid-decode
            # must wait on the lock, not start its own decode
            import time

            time.sleep(0.02)
            return real_decode(self, b)

        monkeypatch.setattr(HuffmanCodec, "decode", counted_decode)

        results: list[np.ndarray] = [None] * 8
        errors: list[BaseException] = []

        def reader(i: int) -> None:
            try:
                barrier.wait(timeout=5)
                cur = provider.cursor()
                chunks = [cur.read(1000) for _ in range(9)]
                results[i] = np.concatenate(chunks)
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert len(decodes) == 1, f"blob decoded {len(decodes)} times"
        for out in results:
            np.testing.assert_array_equal(out, w)

    def test_concurrent_cursors_are_independent(self):
        import threading

        blob = get_codec("rle").encode(_weights(23, 4096))
        provider = BlobProvider(blob)
        expected = provider.materialize().copy()

        mismatches = []

        def reader() -> None:
            cur = provider.cursor()
            got = np.concatenate([cur.read(123) for _ in range((4096 // 123) + 1)])
            if not np.array_equal(got, expected):
                mismatches.append(got)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not mismatches
