"""ResultCache: typed round-trips, miss semantics, corruption safety,
the ``REPRO_RESULT_CACHE`` kill switch, and hit/miss counters."""

from __future__ import annotations

import json

import numpy as np

from repro.core.metrics import CompressionReport
from repro.core.pipeline import DeltaRecord
from repro.energy.model import EnergyBreakdown
from repro.mapping.accelerator import LayerResult, ModelResult
from repro.noc.transaction import LatencyComponents
from repro.runtime import MISS, ResultCache
from repro.runtime.serialize import decode, encode

RECORD = DeltaRecord(
    delta_pct=5.0, top1=0.91, top5=0.99, cr=1.38, mse=8.8e-5, num_segments=321
)


def _model_result() -> ModelResult:
    energy = EnergyBreakdown()
    energy.dynamic["router"] = 1.5e-6
    layer = LayerResult(
        layer_name="conv_1",
        latency=LatencyComponents(memory=10, communication=20, computation=30),
        energy=energy,
        events={"macs": 1234, "flit_hops": 99},
    )
    return ModelResult(model_name="LeNet-5", layers=[layer, layer])


class TestSerialize:
    def test_delta_record_roundtrip(self):
        assert decode(encode(RECORD)) == RECORD

    def test_report_list_roundtrip(self):
        reports = [
            CompressionReport(
                delta_pct=0.0, cr=1.21, weighted_cr=1.17, mem_fp_reduction=0.14,
                mse=5.9e-5,
            )
        ]
        assert decode(encode(reports)) == reports

    def test_model_result_roundtrip(self):
        res = _model_result()
        back = decode(encode(res))
        assert back == res
        assert back.total_latency.total == res.total_latency.total
        assert back.total_energy.total == res.total_energy.total

    def test_float_fidelity(self):
        # JSON floats round-trip IEEE doubles exactly via repr
        values = [0.1, 1 / 3, 2.2250738585072014e-308, 0.9999999999999999]
        assert decode(encode(values)) == values


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        assert cache.get("k" * 64) is MISS
        cache.put("k" * 64, [RECORD])
        assert cache.get("k" * 64) == [RECORD]
        assert cache.hits == 1 and cache.misses == 1 and cache.puts == 1

    def test_cache_survives_reopen(self, tmp_path):
        ResultCache(tmp_path, enabled=True).put("a" * 64, RECORD)
        assert ResultCache(tmp_path, enabled=True).get("a" * 64) == RECORD

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.put("b" * 64, RECORD)
        path = cache._path("b" * 64)
        path.write_text("{truncated")
        assert cache.get("b" * 64) is MISS

    def test_corrupt_entry_is_quarantined_not_clobbered(self, tmp_path):
        """A hand-truncated entry moves aside to *.corrupt, the key reads
        as a miss, and the next put repopulates it cleanly."""
        cache = ResultCache(tmp_path, enabled=True)
        key = "b" * 64
        cache.put(key, RECORD)
        path = cache._path(key)
        truncated = path.read_text()[: len(path.read_text()) // 2]
        path.write_text(truncated)

        assert cache.get(key) is MISS
        assert cache.quarantined == 1
        assert cache.counters()["cache_quarantined"] == 1
        quarantine = path.with_suffix(".corrupt")
        assert quarantine.exists()
        assert quarantine.read_text() == truncated  # damage kept for autopsy
        assert not path.exists()

        cache.put(key, RECORD)
        assert cache.get(key) == RECORD

    def test_absent_entry_is_plain_miss_not_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        assert cache.get("e" * 64) is MISS
        assert cache.quarantined == 0

    def test_wrong_schema_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        path = cache._path("c" * 64)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"unexpected": 1}))
        assert cache.get("c" * 64) is MISS

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        cache = ResultCache(tmp_path)
        cache.put("d" * 64, RECORD)
        assert cache.get("d" * 64) is MISS
        assert list(tmp_path.iterdir()) == []

    def test_default_root_lives_under_repro_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        cache = ResultCache()
        assert cache.root == tmp_path / "results-v2"

    def test_uncacheable_value_skipped(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.put("e" * 64, {"arr": np.arange(3)})  # ndarray: not serializable
        assert cache.get("e" * 64) is MISS
        assert cache.puts == 0

    def test_refuses_foreign_import_tags(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        path = cache._path("f" * 64)
        path.parent.mkdir(parents=True)
        doc = {
            "key": "f" * 64,
            "value": {"__dataclass__": "os:system", "fields": {}},
        }
        path.write_text(json.dumps(doc))
        assert cache.get("f" * 64) is MISS


def _hammer(root: str, key: str, worker: int, iterations: int) -> int:
    """Multiprocess stress worker: interleave puts and gets on one key.

    Returns the number of reads that came back as a value written by
    *some* worker (a plain MISS before the first put is fine; anything
    else readable must be a well-formed entry).
    """
    cache = ResultCache(root, enabled=True)
    good = 0
    for i in range(iterations):
        cache.put(key, {"worker": worker, "i": i})
        value = cache.get(key)
        if value is not MISS:
            assert set(value) == {"worker", "i"}, f"malformed entry: {value}"
            good += 1
    return good


class TestAtomicWriteRaces:
    def test_racing_writers_never_quarantine(self, tmp_path):
        """Two processes racing a put on the same shard key must both
        land a readable entry — a benign race is not corruption, so no
        ``*.corrupt`` quarantine file may appear."""
        from concurrent.futures import ProcessPoolExecutor

        key = "a1" + "0" * 62
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_hammer, str(tmp_path), key, w, 25) for w in range(4)
            ]
            reads = [f.result(timeout=60) for f in futures]
        # every read after the first put saw a well-formed entry
        assert all(r > 0 for r in reads)
        corrupt = list(tmp_path.rglob("*.corrupt"))
        assert not corrupt, f"benign write race quarantined entries: {corrupt}"
        # the surviving entry is readable by a fresh cache
        cache = ResultCache(tmp_path, enabled=True)
        value = cache.get(key)
        assert value is not MISS
        assert set(value) == {"worker", "i"}

    def test_entry_bytes_are_complete_after_put(self, tmp_path):
        """The renamed file parses standalone — the flush+fsync landed
        the whole document before os.replace published it."""
        cache = ResultCache(tmp_path, enabled=True)
        key = "b2" + "1" * 62
        cache.put(key, {"v": 7})
        doc = json.loads(cache._path(key).read_text())
        assert doc["key"] == key
        assert cache.get(key) == {"v": 7}
