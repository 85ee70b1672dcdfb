"""Whole-model compressed archives: round trips, footprint, errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codecs import get_codec
from repro.core.errors import CodecError, IntegrityError
from repro.core.model_store import FORMAT_VERSION, compress_model, load_archive
from repro.datasets import train_test
from repro.nn import TrainConfig, evaluate, train
from repro.nn.zoo import lenet5
from repro.resilience import BitFlipInjector


@pytest.fixture(scope="module")
def trained():
    split = train_test("digits", 1500, 300, seed=21)
    model = lenet5.proxy(np.random.default_rng(21))
    train(model, split.x_train, split.y_train, TrainConfig(epochs=5, lr=0.05))
    return model, split


class TestCompressModel:
    def test_partition_of_layers(self, trained):
        model, _ = trained
        archive = compress_model(model, {"dense_1": 10.0})
        assert set(archive.compressed) == {"dense_1"}
        assert set(archive.raw) == {"conv2d_1", "conv2d_2", "dense_2", "dense_3"}

    def test_footprint_smaller_than_raw(self, trained):
        model, _ = trained
        plain = compress_model(model, {})
        squeezed = compress_model(model, {"dense_1": 15.0})
        assert squeezed.weights_footprint() < plain.weights_footprint()

    def test_unknown_layer_rejected(self, trained):
        model, _ = trained
        with pytest.raises(ValueError, match="unknown layers"):
            compress_model(model, {"nope": 5.0})

    def test_state_rides_along(self, trained):
        model, _ = trained
        archive = compress_model(model, {"dense_1": 5.0})
        # biases are state (param1 of dense layers)
        assert any(k.endswith("param1") for k in archive.state)


class TestApplyAndRoundTrip:
    def test_apply_reproduces_compressed_inference(self, trained):
        model, split = trained
        archive = compress_model(model, {"dense_1": 10.0})
        fresh = lenet5.proxy(np.random.default_rng(99))
        archive.apply(fresh)
        # the fresh model behaves like the original with dense_1 put
        # through the codec directly
        original = model.get_weights("dense_1")
        codec = get_codec("linefit", delta_pct=10.0)
        approx = codec.decode(codec.encode(original.ravel()))
        model.set_weights("dense_1", approx.reshape(original.shape))
        try:
            np.testing.assert_allclose(
                fresh.predict(split.x_test[:64]),
                model.predict(split.x_test[:64]),
                rtol=1e-5,
            )
        finally:
            model.set_weights("dense_1", original)

    def test_file_roundtrip(self, trained, tmp_path):
        model, split = trained
        archive = compress_model(model, {"dense_1": 10.0, "dense_2": 15.0})
        path = tmp_path / "model.npz"
        archive.to_file(path)
        loaded = load_archive(path)
        assert loaded.assignments == archive.assignments
        assert set(loaded.compressed) == set(archive.compressed)

        a, b = lenet5.proxy(np.random.default_rng(1)), lenet5.proxy(
            np.random.default_rng(2)
        )
        archive.apply(a)
        loaded.apply(b)
        np.testing.assert_allclose(
            a.predict(split.x_test[:32]), b.predict(split.x_test[:32]), rtol=1e-6
        )

    def test_applied_model_accuracy_reasonable(self, trained):
        model, split = trained
        base = evaluate(model, split.x_test, split.y_test).top1
        archive = compress_model(model, {"dense_1": 10.0})
        fresh = lenet5.proxy(np.random.default_rng(3))
        archive.apply(fresh)
        acc = evaluate(fresh, split.x_test, split.y_test).top1
        assert acc > base - 0.10

    def test_unknown_state_key_rejected(self, trained):
        model, _ = trained
        archive = compress_model(model, {})
        archive.state["bogus.key"] = np.zeros(3, dtype=np.float32)
        fresh = lenet5.proxy(np.random.default_rng(4))
        with pytest.raises(ValueError, match="unknown to model"):
            archive.apply(fresh)


def _corrupt_layer(archive, name, seed=5, ber=1e-3):
    payload, shape = archive.compressed[name]
    damaged = BitFlipInjector(seed, ber).corrupt_bytes(payload)
    assert damaged != payload
    archive.compressed[name] = (damaged, shape)
    return archive


class TestIntegrityAndDegradation:
    def test_archive_records_format_version_and_checksums(self, trained, tmp_path):
        model, _ = trained
        archive = compress_model(model, {"dense_1": 10.0})
        path = tmp_path / "m.npz"
        archive.to_file(path)
        loaded = load_archive(path)
        assert loaded.version == FORMAT_VERSION
        assert "crc32" in loaded.codecs["dense_1"]["meta"]

    def test_corrupted_payload_raises_by_default(self, trained):
        model, _ = trained
        archive = _corrupt_layer(compress_model(model, {"dense_1": 10.0}), "dense_1")
        fresh = lenet5.proxy(np.random.default_rng(6))
        with pytest.raises(CodecError):
            archive.apply(fresh)

    def test_zero_policy_reports_and_completes(self, trained):
        model, split = trained
        archive = _corrupt_layer(compress_model(model, {"dense_1": 10.0}), "dense_1")
        fresh = lenet5.proxy(np.random.default_rng(7))
        report = archive.apply(fresh, on_fault="zero")
        assert set(report) == {"dense_1"}
        assert report["dense_1"]["action"].startswith("zero-fill")
        # the model still runs end to end
        fresh.predict(split.x_test[:8])

    def test_raw_policy_restores_exact_weights(self, trained):
        model, _ = trained
        archive = _corrupt_layer(
            compress_model(model, {"dense_1": 10.0}, raw_fallback=True), "dense_1"
        )
        fresh = lenet5.proxy(np.random.default_rng(8))
        report = archive.apply(fresh, on_fault="raw")
        assert set(report) == {"dense_1"}
        assert report["dense_1"]["action"] == "raw-fallback"
        np.testing.assert_array_equal(
            fresh.get_weights("dense_1"), model.get_weights("dense_1")
        )

    def test_raw_policy_without_fallback_raises(self, trained):
        model, _ = trained
        archive = _corrupt_layer(compress_model(model, {"dense_1": 10.0}), "dense_1")
        fresh = lenet5.proxy(np.random.default_rng(9))
        with pytest.raises(IntegrityError, match="no raw fallback"):
            archive.apply(fresh, on_fault="raw")

    def test_clean_archive_reports_nothing(self, trained):
        model, _ = trained
        archive = compress_model(model, {"dense_1": 10.0})
        fresh = lenet5.proxy(np.random.default_rng(10))
        assert archive.apply(fresh, on_fault="zero") == {}

    def test_unknown_policy_rejected(self, trained):
        model, _ = trained
        archive = compress_model(model, {"dense_1": 10.0})
        fresh = lenet5.proxy(np.random.default_rng(11))
        with pytest.raises(ValueError, match="degradation policy"):
            archive.apply(fresh, on_fault="retry")

    def test_fallback_excluded_from_footprint(self, trained):
        model, _ = trained
        lean = compress_model(model, {"dense_1": 10.0})
        padded = compress_model(model, {"dense_1": 10.0}, raw_fallback=True)
        assert lean.weights_footprint() == padded.weights_footprint()

    def test_legacy_v1_archive_still_loads_and_applies(self, trained, tmp_path):
        """An archive written before the format bump (no meta.format, no
        payload CRCs, v2 wire payloads) loads and applies unchanged."""
        model, split = trained
        archive = compress_model(model, {"dense_1": 10.0})
        # strip everything format-2: rebuild payloads as legacy v2 wire
        # messages with no codec specs (the pre-registry layout)
        from repro.core import codec as wire
        from repro.core.compression import compress
        from repro.core.segmentation import delta_from_percent

        w = model.get_weights("dense_1").ravel().astype(np.float64)
        stream = compress(w, delta_from_percent(w, 10.0))
        archive.compressed["dense_1"] = (
            wire.encode_legacy(stream),
            model.get_weights("dense_1").shape,
        )
        archive.codecs = {}
        archive.version = 1
        path = tmp_path / "legacy.npz"
        archive.to_file(path)
        # forge the pre-format-version file layout: drop meta.format
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "meta.format"}
        np.savez_compressed(path, **arrays)

        loaded = load_archive(path)
        assert loaded.version == 1
        assert loaded.codecs == {}
        fresh = lenet5.proxy(np.random.default_rng(12))
        assert loaded.apply(fresh) == {}
        fresh.predict(split.x_test[:8])
