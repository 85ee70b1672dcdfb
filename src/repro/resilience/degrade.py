"""Graceful degradation: salvage what a corrupted payload still holds.

A line-fit payload is *regenerative*: each ⟨m, q, len⟩ triple expands
into a whole sub-succession of weights.  When a frame CRC fails, the
strict decoder (:func:`repro.core.codec.decode`) refuses the payload;
:func:`decode_degraded` instead reconstructs best-effort:

* undamaged segments regenerate normally, through the same accumulator
  as the strict decode (:meth:`CompressedStream.decompress`), so a clean
  payload degrades to exactly the strict decoder's weights;
* segments in damaged frames (plus any segment with a non-finite
  coefficient or a zero length) contribute **zeros** over their parsed
  length — a zeroed weight is a benign dropout, a garbage coefficient
  is a poisoned sub-succession;
* the output is padded/truncated to the declared weight count, because
  a corrupted length field can desynchronize everything after it.

This is the ``"zero"`` policy of
:meth:`repro.core.model_store.ModelArchive.decode_layer`; the campaign
(``fig_fault_campaign``) quantifies how much accuracy it buys back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.codec import parse_lenient
from ..core.compression import CompressedStream

__all__ = ["DamageReport", "decode_degraded"]


@dataclass(frozen=True)
class DamageReport:
    """What degradation salvaged from one payload."""

    num_segments: int
    damaged_segments: int
    #: output elements that came back as zero fill instead of data
    zeroed_weights: int
    #: parsed lengths summed to a different total than declared
    resynchronized: bool
    #: segments whose cumulative length extends past the declared weight
    #: count (the strict decoder rejects these; here their tail is
    #: truncated) — a corrupted length field usually shows up this way
    overrun_segments: int = 0
    #: weights produced past the declared count and dropped
    overrun_weights: int = 0

    @property
    def clean(self) -> bool:
        return self.damaged_segments == 0 and not self.resynchronized


def decode_degraded(
    payload: bytes,
    num_weights: int,
    dtype=np.float32,
) -> tuple[np.ndarray, DamageReport]:
    """Best-effort reconstruction of a (possibly corrupted) payload.

    Structural damage — bad magic, truncation, a header-CRC mismatch —
    still raises :class:`~repro.core.errors.CodecError`: when the
    framing itself cannot be trusted there is nothing to salvage, and
    the caller falls back to its next policy rung (zero the layer, or
    restore the raw copy).
    """
    declared = int(num_weights)
    parsed = parse_lenient(payload)
    m = parsed.m.copy()
    q = parsed.q.copy()
    lengths = parsed.lengths.copy()

    bad = parsed.damaged | ~(np.isfinite(m) & np.isfinite(q)) | (lengths <= 0)
    m[bad] = 0.0
    q[bad] = 0.0
    zeroed = int(lengths[bad & (lengths > 0)].sum())

    keep = lengths > 0
    out = CompressedStream(
        m=m[keep], q=q[keep], lengths=lengths[keep], delta=parsed.delta, fmt=parsed.fmt
    ).decompress(dtype)
    produced = int(out.size)
    # overruns: which parsed segments spill past the declared count
    # (mirrors the strict decoder's expected_weights bounds check, which
    # names the first overrunning segment and raises)
    ends = np.cumsum(lengths[keep])
    overrun_segments = int(np.count_nonzero(ends > declared))
    if produced > declared:
        out = out[:declared]
    elif produced < declared:
        out = np.concatenate([out, np.zeros(declared - produced, dtype=out.dtype)])
        zeroed += declared - produced
    report = DamageReport(
        num_segments=parsed.num_segments,
        damaged_segments=int(np.count_nonzero(bad)),
        zeroed_weights=min(int(zeroed), declared),
        resynchronized=produced != declared,
        overrun_segments=overrun_segments,
        overrun_weights=max(produced - declared, 0),
    )
    return out, report
