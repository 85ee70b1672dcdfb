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
asks for — ``float32`` by default — whatever the storage format (the
int8 format's ``float16`` coefficients are widened before
accumulating), so the emitted stream differs slightly from the
mathematically evaluated line ``m * x + q`` for long segments.  The
software decoder reproduces the accumulator bit pattern exactly: every
emitted weight is the result of the same float additions, in the same
order, as the scalar Eq. (2) loop.  This is the repo's only line-fit
decoder: :meth:`CompressedStream.decompress` (and through it every
codec, archive, degraded and accuracy decode) is one read of a
:class:`WeightStream`, so the weights an experiment measures are the
weights the streamed serve path computes.

The decoder is split in two.  A :class:`DecodePlan` is built once per
parsed stream and accumulator dtype: it rounds ⟨m, q⟩ to storage
precision, cuts the segments into blocks of about :data:`_BLOCK`
weights at segment boundaries, and sorts each block's segments longest
first.  The kernel then runs a block *column by column* — one
accumulator per segment, all advanced by one in-place vector add per
column, the ``c_j`` segments still running being a prefix of the sorted
block — so the Python-level loop is over the columns of a block (about
its longest short segment), not over segments or weights.  When a
block's remaining columns outnumber its running segments, the segments
still running (the *tail*) finish by ``cumsum``, seeded from their
accumulators: NumPy's ``cumsum`` is a strict left-to-right
accumulation, so that too is the hardware recurrence.  A *wide* tail
segment (a long ramp) finishes alone, in one in-place ``cumsum`` over
its contiguous remaining weights, so a 65535-weight segment costs one
``cumsum``, not 65535 Python steps; the *narrow* rest of the tail, a
contiguous slice of the sorted block, finishes together in one padded
row-wise ``cumsum`` and one scatter.

A block is a unit of decode work, sized for one core's L2 cache, and is
independent of the tile a consumer reads: :data:`DEFAULT_TILE_WEIGHTS`
is the nn layers' tile.  :class:`WeightStream` is the tile-cursor face
of the kernel, and :meth:`CompressedStream.decompress` is one read of
all of it.  The cursor decodes whole plan blocks as reads need them, so
it holds one tile plus one block for its consumer (the fused decode+MAC
path in :mod:`repro.nn.layers`, via :mod:`repro.core.provider`; a tile
the consumer still holds keeps its block alive too) — the full-size
weight buffer the paper's PE avoids in hardware is avoided in the model
too.  Each cursor decodes on its own: no cursor returns weights that
another cursor decoded.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .compression import CompressedStream

__all__ = [
    "DecompressorTiming",
    "DecodePlan",
    "WeightStream",
]

#: default tile size of the fused nn path, in weights — 16 KB of
#: float32, two PE-local memories' worth.  It fixes the summation order
#: of the Dense tile GEMMs, so served replies depend on it.
DEFAULT_TILE_WEIGHTS = 4096

#: weights per decode-plan block: 256 KiB of float32 output plus the
#: block's per-segment state, so a block's working set stays near a
#: core's L2 cache (the encode window's reasoning,
#: :data:`repro.core.segmentation._WINDOW`)
_BLOCK = 1 << 16

#: padded weights of the narrow-tail grid that cost about as much as one
#: per-segment Python step of the wide-tail path (≈3.9 µs a step against
#: ≈8.5 ns a padded weight on a 2-vCPU host; rounded down, which keeps
#: the grids small)
_STEP_WEIGHTS = 256


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


class DecodePlan:
    """A parsed line-fit stream laid out for the column-step kernel.

    Built once per stream and accumulator dtype; every cursor and every
    decode of that pair reuses it.  Holds only O(num_segments) data:

    * ⟨m, q⟩ rounded to storage precision and cast to the accumulator
      dtype, and the segment lengths;
    * the segments cut into blocks of about :data:`_BLOCK` weights
      (cuts only at segment boundaries, so a block can exceed that by
      up to one segment), each block's segments sorted longest first
      (stable) with their block-local start offsets;
    * per block, the count ``c_j`` of segments longer than ``j`` for
      each column the kernel steps, how many segments are still running
      after the last stepped column (the tail, which finishes by
      ``cumsum``), and how many of those are wide.  A block steps
      columns while it has at least as many running segments as columns
      left — past that point one Python step per segment is cheaper
      than one per column — so it never stores more counts than it has
      segments.  The tail is sorted widest first; its first ``wide``
      segments each finish alone and the narrow rest are padded to the
      widest of them, with ``wide`` chosen to minimize
      ``wide * _STEP_WEIGHTS`` plus the padded area.

    The block size bounds what a streamed read decodes ahead of the
    tile it was asked for.
    """

    def __init__(self, stream: CompressedStream, acc_dtype=np.float32) -> None:
        self.dtype = np.dtype(acc_dtype)
        m, q = stream.storage_coefficients()
        lengths = np.asarray(stream.lengths, dtype=np.int64)
        self.num_segments = int(lengths.size)
        ends = np.cumsum(lengths)
        self.num_weights = int(ends[-1]) if lengths.size else 0
        # cut after the segment that reaches each multiple of the block size
        targets = np.arange(_BLOCK, self.num_weights, _BLOCK)
        cuts = np.unique(
            np.r_[0, np.searchsorted(ends, targets) + 1, lengths.size]
        )
        seg_counts = np.diff(cuts)
        longest = int(lengths.max()) if lengths.size else 0
        # each block's segments longest first, stable so ties keep stream
        # order; a length field of 2 bytes (every wire format) caps
        # lengths at 65535, so the key fits uint16, which NumPy sorts by
        # radix
        key = (longest - lengths).astype(np.uint16 if longest <= 0xFFFF else np.int64)
        order = np.empty(lengths.size, dtype=np.intp)
        seg_starts = ends - lengths
        #: per block, the stream offset one past its last weight
        self.block_ends: list[int] = ends[cuts[1:] - 1].tolist()
        #: per block ``(first segment, last segment, counts, wide, tail)``
        self._blocks: list[tuple[int, int, list[int], int, int]] = []
        bounds = cuts.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            by_length = np.argsort(key[lo:hi], kind="stable")
            order[lo:hi] = by_length + lo
            sorted_lengths = lengths[lo:hi][by_length]
            ascending = sorted_lengths[::-1]
            n, ncols = hi - lo, int(ascending[-1])
            # columns past n + 1 never matter: a block with fewer
            # segments than columns hands off at column 1
            cols = np.arange(1, min(ncols, n + 2))
            running = n - np.searchsorted(ascending, cols, side="right")
            handoff = np.flatnonzero(ncols - cols > running)
            stepped = int(handoff[0]) if handoff.size else cols.size
            tail = int(running[stepped]) if handoff.size else 0
            # the tail's remaining widths, widest first, then 0: k wide
            # segments cost k Python steps, the rest a grid padded to
            # widths[k]
            widths = np.zeros(tail + 1, dtype=np.int64)
            widths[:tail] = sorted_lengths[:tail] - stepped
            k = np.arange(tail + 1)
            wide = int(np.argmin(k * _STEP_WEIGHTS + (tail - k) * widths))
            self._blocks.append((lo, hi, running[:stepped].tolist(), wide, tail))
        self._m = m[order].astype(self.dtype)
        self._q = q[order].astype(self.dtype)
        self._lengths = lengths[order].astype(np.int32)
        self._starts = (
            seg_starts[order] - np.repeat(seg_starts[cuts[:-1]], seg_counts)
        ).astype(np.int32)

    def block_start(self, block: int) -> int:
        """Stream offset of a block's first weight."""
        return self.block_ends[block - 1] if block else 0

    def decode_blocks(self, first: int, last: int, out: np.ndarray) -> None:
        """Decode blocks ``[first, last)`` into ``out``, which must hold
        exactly their weights, in stream order."""
        base = w0 = self.block_start(first)
        for b in range(first, last):
            w1 = self.block_ends[b]
            self._decode_block(b, out[w0 - base : w1 - base])
            w0 = w1

    def _decode_block(self, block: int, out: np.ndarray) -> None:
        """The column-step kernel: Eq. (2) for one block, all segments
        at once, each weight from exactly the scalar loop's additions."""
        lo, hi, counts, wide, tail = self._blocks[block]
        m = self._m[lo:hi]
        acc = self._q[lo:hi].copy()
        # where each running segment's next weight goes; the running
        # segments are always a prefix, so one in-place increment per
        # column advances exactly them
        pos = self._starts[lo:hi].astype(np.intp)
        out[pos] = acc
        for c in counts:
            running = acc[:c]
            running += m[:c]
            at = pos[:c]
            at += 1
            out[at] = running
        if not tail:
            return
        # each tail segment's remaining weights are contiguous: [acc, m,
        # m, ...] (re-emitting the last stepped column) run through
        # cumsum is the recurrence
        widths = self._lengths[lo : lo + tail] - len(counts)
        for p0, w, mi, ai in zip(pos[:wide].tolist(), widths[:wide].tolist(), m, acc):
            seg = out[p0 : p0 + w]
            seg.fill(mi)
            seg[0] = ai
            np.cumsum(seg, out=seg)
        if wide < tail:
            # the narrow rest as rows of one grid: each row's first
            # `width` entries are its weights, the padding is dropped
            widths, cols = widths[wide:], np.arange(int(widths[wide]))
            grid = np.empty((tail - wide, cols.size), dtype=self.dtype)
            grid[:] = m[wide:tail, None]
            grid[:, 0] = acc[wide:tail]
            np.cumsum(grid, axis=1, out=grid)
            keep = cols < widths[:, None]
            out[(pos[wide:tail, None] + cols)[keep]] = grid[keep]


class WeightStream:
    """Forward tile cursor over a decode plan's weights.

    Decodes on demand: :meth:`read` materializes exactly the requested
    number of weights, decoding whole plan blocks and carrying the
    partial tail to the next call.  Peak memory is one tile plus one
    block (its weights and the kernel's per-segment state) — the full
    weight array is never allocated, and the previous block's buffer is
    released before the next one decodes unless the consumer still
    holds a tile of it.  Nothing is re-planned per read, and nothing
    decoded is shared with another cursor.

    Every emitted value is bit-identical to the scalar Eq. (2) loop
    however the reads are chunked: the kernel gives each weight exactly
    the scalar loop's additions, whichever block it falls in.
    """

    def __init__(self, plan: DecodePlan) -> None:
        self._plan = plan
        self.num_weights = plan.num_weights
        self.reset()

    @property
    def dtype(self) -> np.dtype:
        return self._plan.dtype

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
        self._block = 0  # next plan block to decode
        self._carry: np.ndarray = np.empty(0, dtype=self.dtype)
        self._carry_off = 0

    def read(self, n: int) -> np.ndarray:
        """The next ``min(n, remaining)`` decoded weights, in order."""
        n = min(int(n), self.remaining)
        if n <= 0:
            return np.empty(0, dtype=self.dtype)
        carried = self._carry.size - self._carry_off
        if carried < n:
            plan, first = self._plan, self._block
            last = bisect_left(plan.block_ends, self._pos + n, lo=first) + 1
            # move the carried weights (fewer than n) out first, so the
            # old block's buffer is freed before the next block decodes
            self._carry, self._carry_off = self._carry[self._carry_off :].copy(), 0
            buf = np.empty(
                carried + plan.block_ends[last - 1] - plan.block_start(first),
                dtype=self.dtype,
            )
            buf[:carried] = self._carry
            plan.decode_blocks(first, last, buf[carried:])
            self._block = last
            self._carry = buf
        out = self._carry[self._carry_off : self._carry_off + n]
        self._carry_off += n
        self._pos += n
        return out
