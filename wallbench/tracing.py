"""Outside-in tracing: spans recorded around calls into each layer.

Nothing here reaches inside the program.  The traced run hands the
program delegating proxies in place of a deduplicator's public
``chunker``, ``bloom`` and ``cache`` attributes, a
:class:`TimingBackend` in place of its storage backend, and wraps the
service client and cluster workers the same way.  Every wrapped call
becomes one :class:`SpanRecord` (name, start, end, parent) kept in
memory; :meth:`Recorder.write` dumps them as JSON lines when the run
ends.  Parents come from a per-thread stack, so calls made from the
service's two client threads nest correctly.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from typing import IO, Any, NamedTuple, TypeVar

from repro.storage import StorageBackend

T = TypeVar("T")


class SpanRecord(NamedTuple):
    """One timed call: ``parent`` is the enclosing span's id, or -1."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log plus named counters."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def __getstate__(self) -> dict[str, Any]:
        # Only what was recorded crosses a process boundary.
        return {"spans": self.spans, "counts": self.counts}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__()  # type: ignore[misc]
        self.spans, self.counts = state["spans"], state["counts"]

    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., T], *args: Any, **kwargs: Any) -> T:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(SpanRecord(span_id, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(SpanRecord(span_id, name, start, end, parent))

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> Recorder:
        """A copy of what has been recorded so far (later calls do not show)."""
        copy = Recorder()
        copy.spans = list(self.spans)
        with self._lock:
            copy.counts = dict(self.counts)
        return copy

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)

    def write(self, fh: IO[str], **extra: Any) -> None:
        """Dump every span as one JSON object per line, tagged with ``extra``."""
        for s in self.spans:
            json.dump({**extra, **s._asdict()}, fh, separators=(",", ":"))
            fh.write("\n")


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo  # everything before ``reach`` is already counted
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Iterable[SpanRecord]) -> dict[int, float]:
    """Span id -> self time: duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent != -1:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - _covered(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def total_by_name(spans: Iterable[SpanRecord]) -> dict[str, float]:
    """Name -> summed duration of every span with that name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def self_by_name(spans: Iterable[SpanRecord]) -> dict[str, float]:
    """Name -> summed self time of every span with that name."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.span_id]
    return out


def durations(spans: Iterable[SpanRecord], name: str) -> list[float]:
    """Durations of the spans called ``name``, in recording order."""
    return [s.duration for s in spans if s.name == name]


# ---- delegating proxies ---------------------------------------------------


class _Delegate:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, inner: Any, rec: Recorder) -> None:
        self._inner = inner
        self._rec = rec

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class ChunkerProxy(_Delegate):
    """Times ``chunk`` / ``chunk_stream`` of a deduplicator's chunker."""

    def _count(self, batch: list[Any]) -> None:
        self._rec.add("chunking.chunks", len(batch))
        self._rec.add("chunking.bytes", sum(c.size for c in batch))

    def chunk(self, data: Any) -> list[Any]:
        batch: list[Any] = self._rec.call("chunking", self._inner.chunk, data)
        self._count(batch)
        return batch

    def chunk_stream(self, *args: Any, **kwargs: Any) -> Iterator[list[Any]]:
        stream = self._inner.chunk_stream(*args, **kwargs)
        while True:
            batch = self._rec.call("chunking", next, stream, None)
            if batch is None:
                return
            self._count(batch)
            yield batch


class BloomProxy(_Delegate):
    """Times Bloom membership queries and insertions."""

    def __contains__(self, digest: bytes) -> bool:
        hit: bool = self._rec.call("hashing.bloom_query", self._inner.__contains__, digest)
        if hit:
            self._rec.add("hashing.bloom_positives")
        return hit

    def add(self, digest: bytes) -> None:
        self._rec.call("hashing.bloom_add", self._inner.add, digest)


class CacheProxy(_Delegate):
    """Times the manifest cache's public operations."""

    def search(self, digest: bytes) -> Any:
        self._rec.add("core.cache_searches")
        return self._rec.call("core.cache", self._inner.search, digest)

    def load(self, manifest_id: bytes) -> Any:
        return self._rec.call("core.cache", self._inner.load, manifest_id)

    def reindex(self, manifest: Any) -> None:
        self._rec.call("core.cache", self._inner.reindex, manifest)

    def add(self, manifest: Any, pin: bool = False) -> None:
        self._rec.call("core.cache", self._inner.add, manifest, pin=pin)

    def flush(self) -> None:
        self._rec.call("core.cache", self._inner.flush)


def wrap_deduplicator(dedup: Any, rec: Recorder) -> None:
    """Swap a deduplicator's chunker, Bloom filter and cache for proxies."""
    dedup.chunker = ChunkerProxy(dedup.chunker, rec)
    if dedup.bloom is not None:
        dedup.bloom = BloomProxy(dedup.bloom, rec)
    dedup.cache = CacheProxy(dedup.cache, rec)


class TimingBackend(StorageBackend):
    """A storage backend that times and counts every call it forwards."""

    def __init__(self, inner: StorageBackend, rec: Recorder) -> None:
        self.inner = inner
        self._rec = rec

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        self._rec.add("storage.puts")
        self._rec.add("storage.put_bytes", len(data))
        self._rec.add(f"storage.put_bytes@{namespace}", len(data))
        self._rec.call("storage", self.inner.put, namespace, key, data)

    def get(self, namespace: str, key: bytes) -> bytes:
        data = self._rec.call("storage", self.inner.get, namespace, key)
        self._rec.add("storage.gets")
        self._rec.add("storage.get_bytes", len(data))
        return data

    def exists(self, namespace: str, key: bytes) -> bool:
        self._rec.add("storage.exists")
        return self._rec.call("storage", self.inner.exists, namespace, key)

    def keys(self, namespace: str) -> list[bytes]:
        return self._rec.call("storage", self.inner.keys, namespace)

    def delete(self, namespace: str, key: bytes) -> bool:
        return self._rec.call("storage", self.inner.delete, namespace, key)

    def object_count(self, namespace: str) -> int:
        return self._rec.call("storage", self.inner.object_count, namespace)

    def bytes_stored(self, namespace: str) -> int:
        return self._rec.call("storage", self.inner.bytes_stored, namespace)

    def namespaces(self) -> list[str]:
        return self._rec.call("storage", self.inner.namespaces)

    def purge_incomplete(self, prefix: str = "") -> int:
        purge = getattr(self.inner, "purge_incomplete", None)
        if not callable(purge):
            return 0
        return int(self._rec.call("storage", purge, prefix))


class ClientProxy(_Delegate):
    """Times a :class:`~repro.service.ServiceClient`'s calls on the caller's side."""

    def open(self, tenant: str) -> Any:
        return self._rec.call("service.open", self._inner.open, tenant)

    def push_many(self, files: list[tuple[str, bytes]]) -> Any:
        return self._rec.call("service.push", self._inner.push_many, files)

    def commit(self) -> Any:
        return self._rec.call("service.commit", self._inner.commit)

    def get(self, tenant: str, path: str) -> bytes:
        return self._rec.call("service.get", self._inner.get, tenant, path)


class WorkerProxy(_Delegate):
    """Times a cluster shard worker's segment ingests."""

    def ingest_segment(self, segment_id: str, data: bytes) -> None:
        self._rec.add("cluster.segments")
        self._rec.add(f"cluster.routed_bytes@{self._inner.name}", len(data))
        self._rec.call("cluster.ingest_segment", self._inner.ingest_segment, segment_id, data)
