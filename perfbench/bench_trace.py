"""Timing shims for the traced run, and the per-layer attribution.

The benchmark records spans only at seams it already hands to the
program, never inside ``src/``:

* :class:`TimedProvider` / :class:`TimedCursor` wrap weight providers,
  so every cursor ``read()`` (the decode, on the streamed path) is timed;
* :class:`TimedCache` is a ``DecodedWeightCache`` whose misses (the
  cache fill) are timed and whose providers are wrapped as above;
* :class:`TimedForward` wraps the model handed to ``InferenceService``;
* :class:`TimedLayer` wraps each node while the benchmark builds the
  LeNet-5 skeleton;
* :class:`TimedAccelerator` times ``schedule_layer`` and ``run_layer``;
* :func:`timed` brackets ``materialize`` and ``encode`` in the sweep task.

Spans stay in memory as :class:`Span` records.  A layer's self time is
its span minus its child spans; :func:`exec_self_times` and
:func:`nested_self_times` compute it, and the time no span covers is
reported as ``unattributed_frac``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.core.provider import WeightCursor, WeightProvider
from repro.mapping import Accelerator
from repro.nn.layers.base import Layer
from repro.nn.sequential import Sequential
from repro.runtime import ResultCache
from repro.serve import DecodedWeightCache

perf = time.perf_counter

#: the modules a span can be charged to, in table order
MODULES = ("serve", "core", "nn", "mapping", "noc", "runtime")


class Span:
    """One timed call into a program module.

    Node spans fill the decode/weight/MAC fields; other spans carry one
    ``extra`` value: the batch size (``forward_batch``), the simulated
    cycles (``run_layer.*``) or ``(weights, segments)`` (``encode``).
    """

    __slots__ = ("layer", "name", "t0", "t1", "track", "rid", "decode_s", "reads",
                 "out_bytes", "weight_bytes", "macs", "extra")

    def __init__(self, layer, name, t0, t1, track, rid):
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.track = track
        self.rid = rid
        self.decode_s = 0.0
        self.reads = 0
        self.out_bytes = 0
        self.weight_bytes = 0
        self.macs = 0
        self.extra = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Recorder:
    """In-memory span store shared by the shims of one traced build.

    Serve forwards run on one executor thread and the sweep on the main
    thread, so the running counters below are only ever advanced by one
    thread at a time; ``list.append`` is atomic under the GIL for the
    client spans recorded from the event loop.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # cursor reads since start: TimedLayer diffs these around a node
        self.read_s = 0.0
        self.reads = 0
        self.read_bytes = 0
        # request id of the sample being forwarded (serve) or grid point
        # being computed (sweep)
        self.rid = -1
        #: id() of a submitted request tensor -> its request id
        self.rid_of: dict[int, int] = {}
        #: request id -> seconds its batch's forward_batch took
        self.forward_s: dict[int, float] = {}

    def add(self, layer, name, t0, t1, track="exec", rid=None) -> Span:
        span = Span(layer, name, t0, t1, track, self.rid if rid is None else rid)
        self.spans.append(span)
        return span

    def window(self, t0: float, t1: float) -> list[Span]:
        return [s for s in self.spans if s.t0 >= t0 and s.t1 <= t1]


# -- core: providers and cursors -------------------------------------------


class TimedCursor(WeightCursor):
    def __init__(self, inner: WeightCursor, rec: Recorder) -> None:
        self._inner = inner
        self._rec = rec

    @property
    def remaining(self) -> int:
        return self._inner.remaining

    def read(self, n: int) -> np.ndarray:
        t0 = perf()
        out = self._inner.read(n)
        rec = self._rec
        rec.read_s += perf() - t0
        rec.reads += 1
        rec.read_bytes += out.nbytes
        return out


class TimedProvider(WeightProvider):
    """Provider wrapper timing its cursors; ``weight_bytes`` is what one
    pass moves in stored form (compressed payload, or the decoded array
    when the weights come from the cache)."""

    def __init__(self, inner: WeightProvider, rec: Recorder, weight_bytes: int) -> None:
        self._inner = inner
        self._rec = rec
        self.weight_bytes = int(weight_bytes)
        self.num_weights = inner.num_weights
        self.num_segments = inner.num_segments
        self.compression_ratio = inner.compression_ratio

    def cursor(self, dtype=np.float32) -> WeightCursor:
        return TimedCursor(self._inner.cursor(dtype=dtype), self._rec)


class TimedCache(DecodedWeightCache):
    """Decoded-weight cache whose misses are timed as ``core`` spans."""

    def __init__(self, rec: Recorder, node_of_key: dict[str, str]) -> None:
        super().__init__()
        self._rec = rec
        self._node_of_key = node_of_key
        self.fill_s = 0.0

    def provider(self, key, decode):
        rec = self._rec

        def timed_decode():
            t0 = perf()
            out = decode()
            t1 = perf()
            self.fill_s += t1 - t0
            rec.add("core", f"cache_fill.{self._node_of_key.get(key, key[:8])}", t0, t1)
            return out

        inner = super().provider(key, timed_decode)
        return TimedProvider(inner, rec, weight_bytes=inner.num_weights * 4)


# -- serve: the forward_batch seam ----------------------------------------


class TimedForward:
    """The model handed to ``InferenceService``: times ``forward_batch``
    and tells the node wrappers which request each sample belongs to."""

    def __init__(self, rec: Recorder) -> None:
        self._model = None
        self._rec = rec
        self._rids: list[int] = []
        self._next = 0
        self.input_shape = None

    def wrap(self, model) -> None:
        self._model = model
        self.input_shape = getattr(model, "input_shape", None)

    def forward_batch(self, samples):
        rec = self._rec
        self._rids = [rec.rid_of.get(id(x), -1) for x in samples]
        self._next = 0
        t0 = perf()
        out = self._model.forward_batch(samples)
        span = rec.add("serve", "forward_batch", t0, perf(), rid=self._rids[0])
        span.extra = len(samples)
        for rid in self._rids:
            rec.forward_s[rid] = span.dur
        return out

    def next_sample(self) -> None:
        """Called by the first node: the model forwards a batch's samples
        in order, so the n-th call belongs to the n-th request."""
        if self._next < len(self._rids):
            self._rec.rid = self._rids[self._next]
            self._next += 1


# -- nn: per-node wrappers ------------------------------------------------


class TimedLayer(Layer):
    """A skeleton node that records its forward as an ``nn`` span, with
    the cursor-read (decode) time spent inside it."""

    def __init__(self, inner: Layer, rec: Recorder, on_enter=None) -> None:
        self.inner = inner
        self._rec = rec
        self._on_enter = on_enter

    def params(self):
        return self.inner.params()

    def buffers(self):
        return self.inner.buffers()

    def forward(self, x, training=False, weight_provider=None):
        rec = self._rec
        if self._on_enter is not None:
            self._on_enter()
        s0, r0, b0 = rec.read_s, rec.reads, rec.read_bytes
        t0 = perf()
        if weight_provider is None:
            out = self.inner.forward(x, training=training)
        else:
            out = self.inner.forward(x, training=training, weight_provider=weight_provider)
        span = rec.add("nn", self.name, t0, perf())
        span.decode_s = rec.read_s - s0
        span.reads = rec.reads - r0
        span.out_bytes = rec.read_bytes - b0
        params = self.inner.params()
        if params:
            # MACs: one per weight per output position per sample
            positions = int(np.prod(out.shape[2:])) if out.ndim > 2 else 1
            span.macs = params[0].size * positions * out.shape[0]
            span.weight_bytes = getattr(weight_provider, "weight_bytes", params[0].data.nbytes)
        return out


def wrap_skeleton(model, rec: Recorder, forward: TimedForward):
    """Rebuild ``model`` (a sequential zoo proxy) with timed nodes; the
    first node tells ``forward`` a new sample started."""
    names = model.node_names
    return Sequential(
        [(n, TimedLayer(model[n], rec, forward.next_sample if i == 0 else None))
         for i, n in enumerate(names)],
        name=model.name,
    )


# -- mapping / noc / runtime seams of the sweep --------------------------


class TimedAccelerator(Accelerator):
    def __init__(self, rec: Recorder, config=None) -> None:
        super().__init__(config)
        self._rec = rec

    def schedule_layer(self, layer, *args, **kwargs):
        t0 = perf()
        out = super().schedule_layer(layer, *args, **kwargs)
        self._rec.add("mapping", "schedule_layer", t0, perf(), track="main")
        return out

    def run_layer(self, schedule, mode="txn"):
        t0 = perf()
        out = super().run_layer(schedule, mode=mode)
        span = self._rec.add("noc", f"run_layer.{mode}", t0, perf(), track="main")
        span.extra = out.latency.total
        return out


class TimedResultCache(ResultCache):
    """Result cache whose ``get``/``put`` are ``runtime`` spans, each
    carrying the id of the grid point its key belongs to."""

    def __init__(self, rec: Recorder, root, point_of_key: dict[str, int]) -> None:
        super().__init__(root=root, enabled=True)
        self._rec = rec
        self._point_of_key = point_of_key

    def get(self, key):
        t0 = perf()
        out = super().get(key)
        self._rec.add("runtime", "cache.get", t0, perf(), track="main",
                      rid=self._point_of_key.get(key, -1))
        return out

    def put(self, key, value):
        t0 = perf()
        super().put(key, value)
        self._rec.add("runtime", "cache.put", t0, perf(), track="main",
                      rid=self._point_of_key.get(key, -1))


@contextmanager
def _timed(rec: Recorder, layer: str, name: str):
    span = Span(layer, name, perf(), 0.0, "main", rec.rid)
    try:
        yield span
    finally:
        span.t1 = perf()
        rec.spans.append(span)


def timed(rec: Recorder | None, layer: str, name: str):
    """A span around the with-body (bound by ``as``), or nothing when
    untraced."""
    return nullcontext() if rec is None else _timed(rec, layer, name)


# -- attribution -----------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of ``(t0, t1)`` intervals."""
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


def nested_self_times(spans: list[Span]) -> dict[str, float]:
    """Per-module self time of properly nested spans on one thread.

    A node's cursor-read time is charged to ``core`` and taken out of
    its own (``nn``) self time.
    """
    out = dict.fromkeys(MODULES, 0.0)
    stack: list[list] = []  # [span, child_seconds]

    def close(entry):
        span, child = entry
        own = span.dur - child
        if span.decode_s:
            out["core"] += span.decode_s
            own -= span.decode_s
        out[span.layer] += own

    for span in sorted(spans, key=lambda s: (s.t0, -s.t1)):
        while stack and stack[-1][0].t1 <= span.t0:
            close(stack.pop())
        if stack:
            stack[-1][1] += span.dur
        stack.append([span, 0.0])
    while stack:
        close(stack.pop())
    return out


def exec_self_times(spans: list[Span], window: float) -> tuple[dict[str, float], float]:
    """Wall-time partition of a serve window.

    The executor thread's nested spans (``forward_batch`` > nodes >
    cursor reads) are charged by self time; wall time covered only by
    client request spans (a request queued or being handed between the
    event loop and the executor) is charged to ``serve``; the rest is
    unattributed.
    """
    exec_spans = [s for s in spans if s.track == "exec"]
    client = [(s.t0, s.t1) for s in spans if s.track != "exec"]
    busy = [(s.t0, s.t1) for s in exec_spans if s.layer == "serve"]
    out = nested_self_times(exec_spans)
    covered = union_length(client + busy)
    out["serve"] += covered - union_length(busy)
    return out, window - covered


def chrome_events(spans: list[Span], tracer) -> list[dict]:
    """Chrome trace events on ``tracer``'s timeline (one thread track
    per span track), to sit beside the program's own spans."""
    pid = tracer.pid
    offset_us = tracer.now_us() - perf() * 1e6  # both clocks are perf_counter
    tids: dict[str, int] = {}
    events: list[dict] = []
    for s in spans:
        tid = tids.setdefault(s.track, 1000 + len(tids))
        args = {"id": s.rid, "layer": s.layer}
        events.append({"ph": "B", "name": s.name, "cat": s.layer,
                       "ts": s.t0 * 1e6 + offset_us, "pid": pid, "tid": tid, "args": args})
        events.append({"ph": "E", "name": s.name, "cat": s.layer,
                       "ts": s.t1 * 1e6 + offset_us, "pid": pid, "tid": tid})
    for track, tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "ts": 0,
                       "args": {"name": f"perfbench {track}"}})
    return events


def render_table(workload: str, modules: dict[str, float], wall: float) -> str:
    """One row per workload x module: self seconds and share of wall."""
    lines = [f"{'workload':<13}{'module':<9}{'self s':>10}{'share':>9}"]
    for module in MODULES:
        seconds = modules[module]
        lines.append(f"{workload:<13}{module:<9}{seconds:>10.4f}{seconds / wall:>9.1%}")
    return "\n".join(lines)
