"""Tier-1 zero-delta smoke: the identical class stays bitwise zero.

This is the correctness net pinned into the default test run: every
``identical``-class feature — cycle-skip fast path over a tiny LeNet
layer, result cache, streamed decode, CRC framing, the vectorized
segmenter — is toggled on a reduced workload and its delta table is
asserted bitwise zero.  A failure here is a real bug in the toggled
subsystem, not a flaky measurement (see the ``core.storage_format``
wire-format bug this harness surfaced).
"""

from __future__ import annotations

from repro.ablation import (
    DEFAULT_FEATURES,
    IDENTICAL,
    AblationConfig,
    run_ablation,
)


def test_identical_class_is_bitwise_zero():
    names = tuple(f.name for f in DEFAULT_FEATURES.features(IDENTICAL))
    assert "noc.cycle_skip" in names  # the tiny-LeNet-layer NoC arm
    report = run_ablation(AblationConfig(features=names, fast=True), jobs=1)
    report.check_identical()  # raises IdenticalDeltaViolation on any delta
    assert report.rows, "smoke must compare at least one metric row"
    assert all(r.delta_class == IDENTICAL for r in report.rows)
    assert {r.feature for r in report.rows} == set(names)


def test_crc_framing_row_reads_the_packed_payload(monkeypatch):
    """Every metric of the ``core.crc_framing`` row comes from the bytes
    its arm packed, so a packer that changes the segments shows up as a
    delta in CR and segment count, not only in the decoded weights."""
    import numpy as np

    from repro.ablation import toggles
    from repro.core.compression import CompressedStream

    legacy = toggles.wire.encode_legacy

    def one_weight_per_segment(stream):
        w = stream.decompress(np.float64)
        return legacy(
            CompressedStream(
                m=np.zeros(w.size),
                q=w,
                lengths=np.ones(w.size, dtype=np.int64),
                delta=stream.delta,
                fmt=stream.fmt,
            )
        )

    monkeypatch.setattr(toggles.wire, "encode_legacy", one_weight_per_segment)
    on = toggles.run_crc_framing("lenet-dense", True, True)
    off = toggles.run_crc_framing("lenet-dense", False, True)
    assert off["num_segments"] > on["num_segments"]
    assert off["cr"] < on["cr"]
