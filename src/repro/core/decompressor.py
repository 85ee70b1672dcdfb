"""Cycle-level model of the on-PE decompression unit (Sec. III-C, Fig. 6).

The hardware unit is a two-state FSM driving an accumulator datapath:

* **Init** — latch ``q_i`` into the accumulator and emit ``w~_1 = q_i``;
* **Run** — each cycle add ``m_i`` and emit ``w~_j = w~_{j-1} + m_i``
  until ``|M_i|`` weights have been produced (Eq. (2)).

No multiplier is required; the paper contrasts this with a naive
``m * x + q`` datapath.  We model both so the multiplier-free claim can
be quantified (cycles are identical — one weight per cycle — but the
energy per emitted weight differs; see :mod:`repro.energy.params`).

Numerical faithfulness: the accumulator runs in the dtype the consumer
asks for — ``float32`` on the fused nn path — whatever the storage
format (the int8 format's ``float16`` coefficients are widened before
accumulating), so the emitted stream differs slightly from the
mathematically evaluated line for long segments.
``decompress_accumulate`` reproduces the accumulator bit pattern exactly:
NumPy's ``cumsum`` is strictly sequential, so a per-segment cumsum in the
accumulator dtype *is* the hardware recurrence.  The batch decoder
exploits that along ``axis=1`` of a segments-by-length matrix — every
same-length segment is one row, and one axis-1 cumsum runs all their
accumulators in parallel, bit-identical to looping the FSM per segment.
The Python-level loop is over *distinct segment lengths* only (a handful
for real weight streams), not over segments, and certainly not weights.

:class:`WeightStream` is the tile-cursor face of the same decoder: it
walks the segment list front to back and materializes decoded weights
tile by tile, so a consumer (the fused decode+MAC path in
:mod:`repro.nn.layers`, via :mod:`repro.core.provider`) never holds more
than one tile plus one segment batch — the full-size weight buffer the
paper's PE avoids in hardware is avoided in the model too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compression import CompressedStream

__all__ = [
    "DecompressorTiming",
    "DecompressionUnit",
    "WeightStream",
    "decompress_accumulate",
]

#: default tile size of the fused nn path, in weights — 16 KB of
#: float32, two PE-local memories' worth
DEFAULT_TILE_WEIGHTS = 4096


@dataclass(frozen=True)
class DecompressorTiming:
    """Cycle costs of the decompression unit.

    ``init_cycles`` covers fetching a segment descriptor and loading the
    accumulator (the FSM *Init* state); ``run_cycles_per_weight`` is the
    steady-state throughput of the *Run* state (1 weight/cycle in the
    paper's design).
    """

    init_cycles: int = 1
    run_cycles_per_weight: int = 1


def _accumulate_batch(
    m: np.ndarray,
    q: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray,
    starts: np.ndarray,
) -> None:
    """Run the accumulator FSM for a batch of segments, segment-parallel.

    Writes each segment's emitted weights into ``out`` at its ``starts``
    offset.  Same-length segments are stacked into one ``(k, L)`` matrix
    whose rows are ``[q, m, m, ...]``; an axis-1 ``cumsum`` in the
    output dtype performs all ``k`` sequential recurrences at once —
    NumPy's cumsum is a strict left-to-right accumulation, so each row is
    bit-identical to the scalar FSM.
    """
    acc_dtype = out.dtype
    order = np.argsort(lengths, kind="stable")
    ls = lengths[order]
    group_starts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1]])
    group_ends = np.r_[group_starts[1:], ls.size]
    for gs, ge in zip(group_starts, group_ends):
        length = int(ls[gs])
        idx = order[gs:ge]
        block = np.empty((idx.size, length), dtype=acc_dtype)
        block[:, 0] = q[idx]
        if length > 1:
            block[:, 1:] = m[idx, None]
            np.cumsum(block, axis=1, dtype=acc_dtype, out=block)
        pos = starts[idx, None] + np.arange(length, dtype=np.int64)
        out[pos.ravel()] = block.ravel()


def decompress_accumulate(
    stream: CompressedStream, acc_dtype=np.float32
) -> np.ndarray:
    """Bit-faithful accumulator decompression of a compressed stream.

    Segment-parallel batch decode: segments are grouped by length and
    each group's recurrences run as one vectorized axis-1 cumsum in the
    accumulator dtype, reproducing the sequential recurrence of Eq. (2)
    exactly (see :func:`_accumulate_batch`).  For accuracy studies
    prefer :meth:`CompressedStream.decompress`, which evaluates the
    mathematical line in float64.
    """
    m, q = stream.storage_coefficients()
    lengths = np.asarray(stream.lengths, dtype=np.int64)
    n = int(lengths.sum()) if lengths.size else 0
    out = np.empty(n, dtype=acc_dtype)
    if n == 0:
        return out
    starts = np.cumsum(lengths) - lengths
    _accumulate_batch(
        m.astype(acc_dtype), q.astype(acc_dtype), lengths, out, starts
    )
    return out


class WeightStream:
    """Forward tile cursor over a compressed stream's decoded weights.

    Decodes on demand: :meth:`read` materializes exactly the requested
    number of weights (decoding whole segments internally and carrying
    the partial tail to the next call).  Peak memory is one tile plus
    one decoded segment batch — the full weight array is never
    allocated.

    Every emitted value is bit-identical to the corresponding element of
    :func:`decompress_accumulate` on the same stream, because segments
    are always decoded whole through the same batch accumulator.
    """

    def __init__(
        self, stream: CompressedStream, acc_dtype=np.float32
    ) -> None:
        m, q = stream.storage_coefficients()
        self._acc_dtype = np.dtype(acc_dtype)
        self._m = m.astype(self._acc_dtype)
        self._q = q.astype(self._acc_dtype)
        self._lengths = np.asarray(stream.lengths, dtype=np.int64)
        self._ends = np.cumsum(self._lengths) if self._lengths.size else np.zeros(0, np.int64)
        self.num_weights = int(self._ends[-1]) if self._lengths.size else 0
        self.reset()

    @property
    def dtype(self) -> np.dtype:
        return self._acc_dtype

    @property
    def position(self) -> int:
        """Absolute index of the next weight :meth:`read` will return."""
        return self._pos

    @property
    def remaining(self) -> int:
        return self.num_weights - self._pos

    def reset(self) -> None:
        """Rewind the cursor to the start of the stream."""
        self._pos = 0
        self._seg = 0  # next segment to decode
        self._carry: np.ndarray = np.empty(0, dtype=self._acc_dtype)
        self._carry_off = 0

    def _decode_through(self, needed: int) -> None:
        """Decode whole segments until the carry holds >= ``needed``."""
        carried = self._carry.size - self._carry_off
        if carried >= needed or self._seg >= self._lengths.size:
            return
        # first segment index whose end covers the request
        target = self._pos + needed
        last = int(np.searchsorted(self._ends, target, side="left"))
        last = min(last + 1, int(self._lengths.size))
        sl = slice(self._seg, last)
        lengths = self._lengths[sl]
        total = int(lengths.sum())
        batch = np.empty(total, dtype=self._acc_dtype)
        starts = np.cumsum(lengths) - lengths
        _accumulate_batch(self._m[sl], self._q[sl], lengths, batch, starts)
        self._seg = last
        if carried:
            self._carry = np.concatenate(
                [self._carry[self._carry_off :], batch]
            )
        else:
            self._carry = batch
        self._carry_off = 0

    def read(self, n: int) -> np.ndarray:
        """The next ``min(n, remaining)`` decoded weights, in order."""
        n = min(int(n), self.remaining)
        if n <= 0:
            return np.empty(0, dtype=self._acc_dtype)
        self._decode_through(n)
        out = self._carry[self._carry_off : self._carry_off + n]
        self._carry_off += n
        self._pos += n
        if self._carry_off == self._carry.size:
            self._carry = np.empty(0, dtype=self._acc_dtype)
            self._carry_off = 0
        return out


@dataclass
class DecompressionUnit:
    """Timing/energy facade used by the PE model.

    The unit streams segment descriptors from the PE's local memory and
    emits one approximated weight per cycle after a per-segment init
    penalty.  :meth:`cycles` is what the NoC/PE simulator charges for
    decompressing a whole layer tile.
    """

    timing: DecompressorTiming = DecompressorTiming()

    def cycles(self, stream: CompressedStream) -> int:
        """Total cycles to emit every weight of ``stream``."""
        t = self.timing
        return int(
            stream.num_segments * t.init_cycles
            + stream.num_weights * t.run_cycles_per_weight
        )

    def cycles_for(self, num_weights: int, num_segments: int) -> int:
        """Cycle cost from aggregate counts (transaction-level model)."""
        t = self.timing
        return int(num_segments * t.init_cycles + num_weights * t.run_cycles_per_weight)
