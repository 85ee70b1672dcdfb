"""Observability wired through the grid runner, cache, and NoC.

The headline invariant: a serial and a parallel run of the same grid
produce *identical* metric dumps and structurally identical traces,
modulo wall-clock-valued metrics (``*_seconds``).  And with the default
:data:`repro.obs.NULL` scope, nothing is recorded anywhere.
"""

from __future__ import annotations

import json

import repro.obs as obs
from repro.noc import Mesh, NocSimulator, Node, Packet, TrafficClass
from repro.obs import Obs, is_time_metric, write_outputs
from repro.runtime import GridTask, ResultCache, RunPolicy, run_tasks

from .test_trace import assert_spans_balanced


def _observed_square(x: int) -> int:
    """Grid point that records spans and metrics (module-level: picklable)."""
    o = obs.current()
    with o.span("task.compute", cat="test", x=x):
        o.count("task.calls")
        o.count("task.value_total", x * x)
        o.observe("task.sleep_seconds", 0.001)  # time-valued: excluded from identity
    return x * x


def _grid(n: int = 6) -> list[GridTask]:
    return [
        GridTask(fn=_observed_square, args=(i,), key=f"{i:064x}") for i in range(n)
    ]


def _run(
    jobs: int, cache: ResultCache, policy: RunPolicy | None = None
) -> tuple[list, Obs]:
    scope = Obs(pid=0)
    with obs.use(scope):
        results = run_tasks(_grid(), jobs=jobs, cache=cache, policy=policy)
    return results, scope


def _identity_rows(scope: Obs) -> list[dict]:
    """Metric rows minus wall-clock values — the comparable dump."""
    return [r for r in scope.metrics.snapshot() if not is_time_metric(r["name"])]


def _trace_shape(scope: Obs) -> list[tuple]:
    """Structure of the trace without timestamps or args."""
    return [(e["ph"], e.get("name"), e["tid"]) for e in scope.trace.events]


class TestSerialParallelIdentity:
    """Each test runs under ``policy``; the subclass below repeats them
    all under a retrying policy."""

    policy: RunPolicy | None = None

    def _run(self, jobs: int, cache: ResultCache) -> tuple[list, Obs]:
        return _run(jobs, cache, self.policy)

    def test_cold_cache(self, tmp_path):
        r1, serial = self._run(jobs=1, cache=ResultCache(tmp_path / "a", enabled=True))
        r2, parallel = self._run(jobs=2, cache=ResultCache(tmp_path / "b", enabled=True))
        assert r1 == r2 == [i * i for i in range(6)]
        assert _identity_rows(serial) == _identity_rows(parallel)
        assert _trace_shape(serial) == _trace_shape(parallel)
        # the dump proves the work happened: per-task metrics summed in
        # task order, cache misses and puts counted once per point
        assert serial.metrics.value("task.calls") == 6
        assert serial.metrics.value("task.value_total") == sum(i * i for i in range(6))
        assert serial.metrics.value("cache.misses") == 6
        assert serial.metrics.value("cache.puts") == 6

    def test_warm_cache(self, tmp_path):
        cache_a = ResultCache(tmp_path / "a", enabled=True)
        cache_b = ResultCache(tmp_path / "b", enabled=True)
        self._run(jobs=1, cache=cache_a)
        self._run(jobs=2, cache=cache_b)
        r1, serial = self._run(jobs=1, cache=cache_a)
        r2, parallel = self._run(jobs=2, cache=cache_b)
        assert r1 == r2
        assert _identity_rows(serial) == _identity_rows(parallel)
        # warm: every point is a hit, no task ran, no worker spans exist
        assert serial.metrics.value("cache.hits") == 6
        assert serial.metrics.value("task.calls") == 0.0
        assert _trace_shape(serial) == []

    def test_trace_is_valid_and_tracked_per_task(self, tmp_path):
        _, scope = self._run(jobs=2, cache=ResultCache(tmp_path / "c", enabled=True))
        events = scope.trace.events
        assert_spans_balanced(events)
        # one track per task (tid = task index + 1), named via metadata
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {i + 1: f"task {i}" for i in range(6)}
        # every worker span was re-parented onto its task's track
        for i in range(6):
            task_spans = [e for e in events if e.get("tid") == i + 1 and e["ph"] == "B"]
            assert [e["name"] for e in task_spans] == ["task.compute"]
        # the dispatch span itself lives on the main track
        main = [e["name"] for e in events if e["tid"] == 0 and e["ph"] == "B"]
        assert main == ["pool.run_tasks"]

    def test_histogram_records_per_task_durations(self, tmp_path):
        _, scope = self._run(jobs=1, cache=ResultCache(tmp_path / "d", enabled=True))
        row = [
            r for r in scope.metrics.snapshot() if r["name"] == "pool.task_run_seconds"
        ][0]
        assert row["kind"] == "histogram"
        assert row["count"] == 6


class TestSerialParallelIdentityUnderRetryPolicy(TestSerialParallelIdentity):
    """A retrying policy dispatches through the same capture: worker
    spans and metric rows are adopted at ``jobs=1`` and ``jobs=2``."""

    policy = RunPolicy(retries=1)


class TestDisabledPath:
    def test_default_scope_is_null(self):
        assert obs.current() is obs.NULL
        assert not obs.enabled()

    def test_null_records_nothing(self):
        obs.NULL.count("x")
        obs.NULL.gauge("x", 1.0)
        obs.NULL.observe("x", 1.0)
        with obs.NULL.span("x"):
            pass
        assert len(obs.NULL.metrics) == 0
        assert obs.NULL.trace.events == []

    def test_null_span_is_a_shared_object(self):
        # zero-allocation guard: the disabled span path must not build
        # context managers per call
        assert obs.NULL.span("a") is obs.NULL.span("b")

    def test_run_tasks_without_scope_touches_nothing(self):
        before = len(obs.NULL.metrics)
        results = run_tasks(_grid(3), jobs=1)
        assert results == [0, 1, 4]
        assert len(obs.NULL.metrics) == before
        assert obs.NULL.trace.events == []

    def test_use_restores_previous_scope(self):
        with obs.use(Obs()) as scope:
            assert obs.current() is scope
        assert obs.current() is obs.NULL


# -- NoC counters -------------------------------------------------------------


class _Collector(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_packet(self, packet, cycle):
        self.received.append(packet)


class _Sender(Node):
    def __init__(self, node_id, sendlist):
        super().__init__(node_id)
        self.sendlist = list(sendlist)

    def step(self, cycle):
        while self.sendlist and self.sendlist[0][0] <= cycle:
            _, packet = self.sendlist.pop(0)
            self.send(packet, cycle)

    @property
    def idle(self):
        return not self.sendlist


def _sim() -> NocSimulator:
    sim = NocSimulator(Mesh(4, 4))
    packets = [
        (c, Packet(src=0, dst=15, payload_bytes=64, traffic_class=TrafficClass.WEIGHTS))
        for c in (0, 3, 10)
    ]
    sim.attach_node(_Sender(0, packets))
    sim.attach_node(_Collector(15))
    return sim


class TestNocCounters:
    def test_enabled_run_exports_phase_counters(self):
        sim = _sim()
        scope = Obs()
        with obs.use(scope):
            stats = sim.run()
        m = scope.metrics
        assert m.value("noc.cycles.total") == sim.cycle
        assert m.value("noc.cycles.stepped") >= 1
        # phase split: stepped + fast-forwarded(empty) + fast-forwarded(stall)
        # tile the whole run
        ff = m.value("noc.cycles.fast_forwarded", reason="network_empty") + m.value(
            "noc.cycles.fast_forwarded", reason="pipeline_stall"
        )
        assert m.value("noc.cycles.stepped") + ff == sim.cycle
        assert m.value("noc.flits.delivered") == stats.flits_delivered > 0
        assert m.value("noc.packets.delivered") == 3
        assert m.value("noc.mean_packet_latency") == stats.mean_packet_latency > 0
        spans = [e["name"] for e in scope.trace.events if e["ph"] == "B"]
        assert spans == ["noc.run"]

    def test_disabled_run_records_nothing(self):
        sim = _sim()
        before = len(obs.NULL.metrics)
        sim.run()
        assert len(obs.NULL.metrics) == before
        assert not sim._obs_track

    def test_repeat_runs_export_per_run_deltas(self):
        sim = _sim()
        with obs.use(Obs()) as first:
            sim.run()
        assert first.metrics.value("noc.cycles.total") == sim.cycle > 0
        # nothing left to simulate: the second run's delta is zero even
        # though the simulator's cumulative counters are not
        with obs.use(Obs()) as second:
            sim.run()
        assert second.metrics.value("noc.cycles.total") == 0
        assert second.metrics.value("noc.flits.delivered") == 0


# -- disk outputs -------------------------------------------------------------


class TestWriteOutputs:
    def test_files_parse_and_are_nonempty(self, tmp_path):
        scope = Obs(pid=0)
        with obs.use(scope):
            run_tasks(_grid(3), jobs=1)
        out = write_outputs(scope, tmp_path / "dump")
        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"]
        assert_spans_balanced(
            [e for e in trace["traceEvents"] if e["ph"] in "BE"]
        )
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["version"] == 1
        names = {r["name"] for r in doc["metrics"]}
        assert "task.calls" in names
        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert csv_lines[0] == "name,kind,labels,value,count,sum"
        assert len(csv_lines) == 1 + len(doc["metrics"])
