"""ServedModel: archive wiring, cache keys, bit-identity, degradation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import CodecError, IntegrityError
from repro.core.model_store import compress_model
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.sequential import Sequential
from repro.resilience.inject import BitFlipInjector
from repro.serve.cache import DecodedWeightCache
from repro.serve.model import ServedModel, decoded_weight_key


def mlp(seed: int = 7):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            ("dense_1", Dense(12, 16, rng=rng)),
            ("relu_1", ReLU()),
            ("dense_2", Dense(16, 5, rng=rng)),
            ("softmax", Softmax()),
        ],
        name="served-mlp",
    )


def served(cache=None, assignments=None, codec="linefit"):
    archive = compress_model(
        mlp(), assignments if assignments is not None else {"dense_1": 5.0},
        codec=codec,
    )
    return ServedModel(mlp(), archive, cache=cache, input_shape=(12,))


def inputs(n, shape=(12,), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


class TestWiring:
    def test_matches_archive_apply(self):
        """Serving == the established archive restore path."""
        archive = compress_model(mlp(), {"dense_1": 5.0})
        sm = ServedModel(mlp(), archive, input_shape=(12,))
        reference = mlp()
        archive.apply(reference)
        for x in inputs(4):
            assert np.array_equal(sm.forward(x), reference.forward(x[None])[0])

    def test_compressed_layers_resolve_through_cache(self):
        cache = DecodedWeightCache()
        sm = served(cache)
        assert sm.compressed_layers == ["dense_1"]
        sm.forward(inputs(1)[0])
        assert cache.misses == 1
        sm.forward(inputs(1)[0])
        assert cache.hits == 1

    def test_unknown_archive_layer_rejected(self):
        archive = compress_model(mlp(), {"dense_1": 5.0})
        small = Sequential(
            [("other", Dense(12, 5)), ("softmax", Softmax())], name="wrong"
        )
        with pytest.raises(ValueError, match="unknown to model"):
            ServedModel(small, archive)

    def test_layer_without_streamed_forward_rejected(self):
        # a compressed batch norm has parameters but no fused forward:
        # refuse it at construction instead of failing every request
        from repro.nn import zoo

        archive = compress_model(
            zoo.mobilenet.proxy(np.random.default_rng(0)), {"conv1_bn": 10.0}
        )
        with pytest.raises(ValueError, match="'conv1_bn'.*BatchNorm2D"):
            ServedModel(zoo.mobilenet.proxy(np.random.default_rng(0)), archive)

    def test_lossless_codec_roundtrip_exact(self):
        # huffman stores the exact weights: serving equals the original
        original = mlp()
        archive = compress_model(original, {"dense_1": 0.0}, codec="huffman")
        sm = ServedModel(mlp(), archive, input_shape=(12,))
        for x in inputs(3):
            assert np.array_equal(sm.forward(x), original.forward(x[None])[0])


class TestBitIdentity:
    def test_batched_equals_serial_bitwise(self):
        sm = served()
        xs = inputs(16)
        batched = sm.forward_batch(xs)
        serial = [sm.forward(x) for x in xs]
        for b, s in zip(batched, serial):
            assert b.dtype == s.dtype and b.shape == s.shape
            assert np.array_equal(b, s), "batched forward must be bit-identical"

    def test_cache_fill_equals_streamed_decode(self):
        # the weights a hot replica caches are the weights a streamed
        # forward decodes, bit for bit, on every layer of a LeNet-5
        from repro.core.codecs import CompressedBlob
        from repro.core.provider import provider_for
        from repro.nn import zoo

        model = zoo.lenet5.proxy(np.random.default_rng(0))
        archive = compress_model(
            model, {name: 10.0 for name, _ in model.parametric_layers()}
        )
        assert len(archive.compressed) == 5
        for name, (payload, _) in archive.compressed.items():
            cached, _ = archive.decode_layer(name)
            blob = CompressedBlob.rebuild(archive.codecs[name], payload)
            np.testing.assert_array_equal(cached, provider_for(blob).materialize())

    def test_empty_batch(self):
        assert served().forward_batch([]) == []

    def test_raw_layers_batch_like_lone_requests(self):
        # the bench MLP leaves dense_2 (64 -> 10) raw: one GEMM over the
        # stacked batch would round its rows differently from lone ones
        from repro.serve.demo import BENCH_INPUT_SHAPE, bench_model

        sm = bench_model()
        assert sm.compressed_layers == ["dense_1"]
        xs = inputs(8, BENCH_INPUT_SHAPE)
        for b, s in zip(sm.forward_batch(xs), [sm.forward(x) for x in xs]):
            assert b.tobytes() == s.tobytes()

    def test_mixed_input_sizes_equal_lone_replies(self):
        # global pooling takes any input size; without an input_shape a
        # batch may mix sizes, and each walks with its own shape
        from repro.nn import zoo

        model = zoo.mobilenet.proxy(np.random.default_rng(0))
        archive = compress_model(
            model, {"conv1": 10.0, "conv_dw_1": 10.0, "conv_preds": 10.0}
        )
        sm = ServedModel(zoo.mobilenet.proxy(np.random.default_rng(0)), archive)
        xs = [
            x
            for a, b in zip(inputs(3, (3, 32, 32), seed=1), inputs(3, (3, 24, 24), seed=2))
            for x in (a, b)
        ]
        batched = sm.forward_batch(xs)
        assert len(batched) == len(xs)
        for b, x in zip(batched, xs):
            s = sm.forward(x)
            assert b.dtype == s.dtype and b.shape == s.shape
            assert b.tobytes() == s.tobytes()

    def test_identity_survives_eviction(self):
        # a cache too small for the layer: every batch re-decodes, the
        # outputs must not care
        sm_tight = served(cache=DecodedWeightCache(max_bytes=8))
        sm_roomy = served(cache=DecodedWeightCache())
        xs = inputs(6)
        for a, b in zip(sm_tight.forward_batch(xs), sm_roomy.forward_batch(xs)):
            assert np.array_equal(a, b)


def damaged_archive(raw_fallback: bool = False, seed: int = 3):
    """Compress the mlp, then bit-flip dense_1's payload in place."""
    archive = compress_model(
        mlp(), {"dense_1": 5.0}, codec="linefit", raw_fallback=raw_fallback
    )
    payload, shape = archive.compressed["dense_1"]
    archive.compressed["dense_1"] = (
        BitFlipInjector(seed=seed, ber=1e-3).corrupt_bytes(payload),
        shape,
    )
    return archive


class TestDegradedMode:
    def test_default_policy_raises_on_damage(self):
        sm = ServedModel(mlp(), damaged_archive(), input_shape=(12,))
        with pytest.raises(CodecError):
            sm.forward(inputs(1)[0])
        assert sm.damage == {}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="degradation policy"):
            ServedModel(mlp(), damaged_archive(), on_fault="explode")

    def test_zero_policy_serves_with_damage_report(self):
        sm = ServedModel(
            mlp(), damaged_archive(), input_shape=(12,), on_fault="zero"
        )
        out = sm.forward(inputs(1)[0])
        assert out.shape == (5,) and np.all(np.isfinite(out))
        assert "dense_1" in sm.damage
        report = sm.damage["dense_1"]
        assert report["action"].startswith("zero-fill")
        assert "error" in report
        # the salvage path carries the structured DamageReport fields
        if "salvaged" in report["action"]:
            assert report["damaged_segments"] >= 1
            assert report["num_segments"] > report["damaged_segments"]

    def test_zero_policy_output_matches_archive_apply(self):
        """ServedModel degradation == the established archive restore
        degradation: same damaged bytes, same salvaged weights."""
        archive = damaged_archive()
        sm = ServedModel(mlp(), archive, input_shape=(12,), on_fault="zero")
        reference = mlp()
        archive.apply(reference, on_fault="zero")
        for x in inputs(3):
            assert np.array_equal(sm.forward(x), reference.forward(x[None])[0])

    def test_damage_report_equals_archive_apply_report(self):
        # one decode-with-policy routine, one report shape
        archive = damaged_archive()
        sm = ServedModel(mlp(), archive, input_shape=(12,), on_fault="zero")
        sm.forward(inputs(1)[0])
        assert sm.damage == archive.apply(mlp(), on_fault="zero")

    def test_raw_policy_restores_fallback_exactly(self):
        pristine = mlp()
        sm = ServedModel(
            mlp(),
            damaged_archive(raw_fallback=True),
            input_shape=(12,),
            on_fault="raw",
        )
        for x in inputs(3):
            assert np.array_equal(sm.forward(x), pristine.forward(x[None])[0])
        assert sm.damage["dense_1"]["action"] == "raw-fallback"

    def test_raw_policy_without_fallback_raises(self):
        sm = ServedModel(
            mlp(),
            damaged_archive(raw_fallback=False),
            input_shape=(12,),
            on_fault="raw",
        )
        with pytest.raises(IntegrityError, match="no.*raw fallback"):
            sm.forward(inputs(1)[0])

    def test_damage_recorded_once_across_forwards(self):
        sm = ServedModel(
            mlp(),
            damaged_archive(),
            cache=DecodedWeightCache(max_bytes=8),  # force re-decode each time
            input_shape=(12,),
            on_fault="zero",
        )
        a = sm.forward(inputs(1)[0])
        b = sm.forward(inputs(1)[0])
        assert np.array_equal(a, b)
        assert list(sm.damage) == ["dense_1"]

    def test_pristine_archive_reports_no_damage(self):
        sm = served()
        sm.forward(inputs(1)[0])
        assert sm.damage == {}


class TestKeys:
    def test_key_is_content_addressed(self):
        spec = {"name": "linefit", "params": {"delta_pct": 5.0}}
        k1 = decoded_weight_key(b"payload", spec, (4, 5))
        assert k1 == decoded_weight_key(b"payload", spec, (4, 5))
        assert k1 != decoded_weight_key(b"other", spec, (4, 5))
        assert k1 != decoded_weight_key(b"payload", spec, (5, 4))
        assert k1 != decoded_weight_key(
            b"payload", {"name": "linefit", "params": {"delta_pct": 10.0}}, (4, 5)
        )

    def test_legacy_spec_none_has_distinct_namespace(self):
        spec = {"name": "linefit", "params": {}}
        assert decoded_weight_key(b"p", None, (2,)) != decoded_weight_key(
            b"p", spec, (2,)
        )

    def test_identical_blobs_share_one_entry(self):
        # two served models built from the same deterministic weights
        # produce identical payloads -> one cache entry serves both
        cache = DecodedWeightCache()
        sm1 = served(cache)
        sm2 = served(cache)
        sm1.forward(inputs(1)[0])
        sm2.forward(inputs(1)[0])
        assert len(cache) == 1
        assert cache.misses == 1 and cache.hits == 1
