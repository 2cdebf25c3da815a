"""Span arithmetic and the delegating proxies."""

import threading

import pytest

from repro.core import DedupConfig, MHDDeduplicator
from repro.storage import MemoryBackend
from repro.workloads import tiny_corpus
from tracing import (
    Recorder,
    SpanRecord,
    TimingBackend,
    self_by_name,
    self_times,
    total_by_name,
    wrap_deduplicator,
)


def test_self_time_on_a_synthetic_tree():
    spans = [
        SpanRecord(0, "root", 0.0, 10.0, -1),
        SpanRecord(1, "a", 1.0, 4.0, 0),
        SpanRecord(2, "b", 5.0, 7.0, 0),
        SpanRecord(3, "c", 5.5, 6.5, 2),
    ]
    own = self_times(spans)
    assert own == {0: pytest.approx(5.0), 1: pytest.approx(3.0), 2: pytest.approx(1.0), 3: pytest.approx(1.0)}
    # Self times partition the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_the_parent():
    spans = [
        SpanRecord(0, "p", 0.0, 10.0, -1),
        SpanRecord(1, "x", 1.0, 4.0, 0),
        SpanRecord(2, "x", 3.0, 6.0, 0),  # overlaps the first child by 1
        SpanRecord(3, "x", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_by_name(spans)["x"] == pytest.approx(3 + 3 + 3)
    assert total_by_name(spans) == {"p": pytest.approx(10.0), "x": pytest.approx(9.0)}


def test_recorder_nests_per_thread():
    rec = Recorder()

    def work():
        with rec.span("outer"):
            rec.call("inner", lambda: None)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    by_id = {s.span_id: s for s in rec.spans}
    inner = [s for s in rec.spans if s.name == "inner"]
    assert len(inner) == 2
    for s in inner:
        assert by_id[s.parent].name == "outer"
    assert {s.parent for s in rec.spans if s.name == "outer"} == {-1}


def test_recorder_snapshot_is_frozen():
    rec = Recorder()
    rec.add("n", 2)
    rec.call("a", lambda: None)
    snap = rec.snapshot()
    rec.add("n")
    rec.call("a", lambda: None)
    assert snap.count("n") == 2 and len(snap.spans) == 1


def test_proxies_leave_the_program_s_statistics_unchanged():
    config = DedupConfig(ecs=1024, sd=8)
    files = tiny_corpus().files()
    plain = MHDDeduplicator(config).process(files)

    rec = Recorder()
    dedup = MHDDeduplicator(config, backend=TimingBackend(MemoryBackend(), rec))
    wrap_deduplicator(dedup, rec)
    traced = dedup.process(files)
    assert traced == plain
    for f in files:
        assert dedup.restore(f.file_id) == f.data
    names = total_by_name(rec.spans)
    assert {"chunking", "hashing.bloom_query", "hashing.bloom_add", "core.cache", "storage"} <= set(names)
    assert rec.count("chunking.bytes") == plain.input_bytes
    assert rec.count("storage.puts") > 0 and rec.count("storage.gets") > 0
