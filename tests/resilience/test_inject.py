"""Seeded injectors: determinism, rates, and the pool fault tasks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import FaultError
from repro.resilience import (
    BitFlipInjector,
    crash,
    crash_once,
    digest,
    hang_once,
)


class TestDigest:
    def test_bytes_and_array_views_agree(self):
        arr = np.arange(16, dtype=np.uint8)
        assert digest(arr) == digest(arr.tobytes())

    def test_distinct_payloads_distinct_digests(self):
        assert digest(b"abc") != digest(b"abd")


class TestBitFlipInjector:
    def test_same_seed_same_corruption(self):
        data = bytes(range(256)) * 64
        a = BitFlipInjector(seed=3, ber=1e-3).corrupt_bytes(data)
        b = BitFlipInjector(seed=3, ber=1e-3).corrupt_bytes(data)
        assert a == b
        assert digest(a) == digest(b)

    def test_different_seeds_differ(self):
        data = bytes(range(256)) * 64
        a = BitFlipInjector(seed=3, ber=1e-2).corrupt_bytes(data)
        b = BitFlipInjector(seed=4, ber=1e-2).corrupt_bytes(data)
        assert a != b

    def test_zero_ber_is_identity(self):
        data = b"\x00\xff" * 512
        inj = BitFlipInjector(seed=1, ber=0.0)
        assert inj.corrupt_bytes(data) == data
        arr = np.linspace(-1, 1, 333, dtype=np.float32)
        np.testing.assert_array_equal(inj.corrupt_array(arr), arr)

    def test_full_ber_flips_every_bit(self):
        data = b"\x00" * 64
        out = BitFlipInjector(seed=1, ber=1.0).corrupt_bytes(data)
        assert out == b"\xff" * 64

    def test_flip_count_tracks_rate(self):
        data = b"\x00" * 100_000  # 800k bits
        out = BitFlipInjector(seed=9, ber=1e-3).corrupt_bytes(data)
        flipped = int(
            np.unpackbits(np.frombuffer(out, dtype=np.uint8)).sum()
        )
        assert 600 < flipped < 1000  # ~800 expected

    def test_corrupt_array_preserves_shape_dtype_and_source(self):
        arr = np.linspace(-1, 1, 4096, dtype=np.float32).reshape(64, 64)
        before = arr.copy()
        out = BitFlipInjector(seed=5, ber=1e-3).corrupt_array(arr)
        assert out.shape == arr.shape and out.dtype == arr.dtype
        np.testing.assert_array_equal(arr, before)  # input untouched
        assert np.any(out.view(np.uint8) != arr.view(np.uint8))

    def test_empty_inputs(self):
        inj = BitFlipInjector(seed=0, ber=0.5)
        assert inj.corrupt_bytes(b"") == b""
        assert inj.corrupt_array(np.zeros(0, dtype=np.float32)).size == 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="bit-error rate"):
            BitFlipInjector(seed=0, ber=1.5)


class TestPoolFaultTasks:
    def test_crash_always_raises(self):
        with pytest.raises(FaultError, match="injected worker crash"):
            crash()

    def test_crash_once_fails_then_succeeds(self, tmp_path):
        sentinel = str(tmp_path / "crash.sentinel")
        with pytest.raises(FaultError, match="first attempt"):
            crash_once(sentinel, 42)
        assert crash_once(sentinel, 42) == 42
        assert crash_once(sentinel, 42) == 42  # stays recovered

    def test_hang_once_sleeps_then_returns_instantly(self, tmp_path):
        sentinel = str(tmp_path / "hang.sentinel")
        assert hang_once(sentinel, 0.05, "v") == "v"  # first call sleeps
        assert hang_once(sentinel, 0.05, "v") == "v"  # retry is instant
