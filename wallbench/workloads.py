"""The four nightly-backup workloads and the checks on their outputs.

Every workload starts from a store that already holds the earlier
backup generations, written untimed when the workload is built.  One
*round* then does what a backup server does at night: open the
existing store (``setup``), ingest tonight's generation (``ingest``,
including ``finalize``/``commit``) and read files back (``restore``).
Each round runs on a fresh copy of the preloaded store, so every round
does exactly the same work.

Phases are timed on two clocks at once: the wall clock and the
process's CPU clock (``time.process_time``, every thread of the
process).  The end-to-end metrics use CPU time, scaled to reference
speed by the kernel in :mod:`reference`: on a shared 2-core host the
wall time of the same round moved by half its median between runs,
and CPU time, which leaves out waiting for a core, still moved by
twice between phases of the host (see README).

Every store is a ``MemoryBackend``.  On the 2-core VM this benchmark
was built on, the median latency of a ``DirectoryBackend`` put swung
between 78 and 850 µs within ten minutes of the same code, so no
wall-clock figure over the directory backend held still (see README).

A round runs in one of three modes:

* ``plain`` — nothing wrapped; the end-to-end metrics come from these;
* ``traced`` — the layers' public objects are wrapped by the proxies
  in :mod:`tracing`; the per-layer metrics come from these;
* ``obs`` — the program's own ``Telemetry`` + ``InMemorySink``
  attached instead (library workloads only).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import shutil
import threading
import time
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple, TypeVar

from repro.chunking import VectorizedChunker
from repro.cluster import ClusterConfig, ClusterRouter
from repro.core import DedupConfig, MHDDeduplicator
from repro.hashing import sha1_many
from repro.obs import InMemorySink, Telemetry, load_trace, summarize
from repro.service import DedupServer, ServiceClient
from repro.service.session import DedupSession
from repro.service.tenancy import TenantRegistry
from repro.storage import MemoryBackend, StorageBackend
from repro.storage.verify import verify_store
from repro.workloads import BackupFile, make_corpus

from tracing import (
    ClientProxy,
    Recorder,
    TimingBackend,
    WorkerProxy,
    durations,
    self_by_name,
    total_by_name,
    wrap_deduplicator,
)
from metrics import median

T = TypeVar("T")

#: bf-mhd at ECS=1024, SD=8; default 1 MB Bloom budget, 64-manifest cache.
CONFIG = DedupConfig(ecs=1024, sd=8)
#: Client threads (service) and cluster workers: the machine has 2 cores.
CLIENTS = 2
SHARDS = 2
#: Longest the benchmark waits on the in-process server's event loop.
_LOOP_TIMEOUT = 120.0

MB = 1e6


# ---- corpus ------------------------------------------------------------------


def generation(file_id: str) -> int:
    """``pc01/gen003/...`` -> 3."""
    return int(file_id.split("/")[1].removeprefix("gen"))


def machine(file_id: str) -> str:
    """``pc01/gen003/...`` -> ``pc01``."""
    return file_id.split("/", 1)[0]


def client_path(file_id: str) -> str:
    """The path a machine's backup agent pushes: ``pc01/gen003/os0/f`` -> ``os0/f``."""
    return file_id.split("/", 2)[2]


@dataclass
class Corpus:
    """A seeded corpus split into the preloaded and tonight's generations."""

    preload: list[BackupFile]
    tonight: list[BackupFile]
    sha256: dict[str, bytes]
    #: Every file id, in backup order: what a round restores.
    file_ids: list[str]

    @classmethod
    def make(cls, profile: str, seed: int) -> Corpus:
        files = make_corpus(profile, seed).files()
        last = max(generation(f.file_id) for f in files)
        return cls(
            preload=[f for f in files if generation(f.file_id) < last],
            tonight=[f for f in files if generation(f.file_id) == last],
            sha256={f.file_id: hashlib.sha256(f.data).digest() for f in files},
            file_ids=[f.file_id for f in files],
        )

    def drop_preload(self) -> None:
        """Forget the preloaded generations' bytes once they are in the store.

        Rounds need only their ids and digests, and the worker processes
        then hold no input bytes that no round reads.
        """
        self.preload = []

    @staticmethod
    def nbytes(files: list[BackupFile]) -> int:
        return sum(f.size for f in files)


def digest_mb_s(files: list[BackupFile]) -> float:
    """``sha1_many`` replayed standalone over the chunks of ``files``."""
    chunker = VectorizedChunker(CONFIG.small_chunker_config())
    chunks = [c.data for f in files for c in chunker.chunk(f.data)]
    nbytes = sum(len(c) for c in chunks)
    t0 = time.perf_counter()
    sha1_many(chunks)
    return nbytes / MB / (time.perf_counter() - t0)


# ---- stores ------------------------------------------------------------------


def clone(store: MemoryBackend) -> MemoryBackend:
    """A copy of a preloaded store, so that every round does the same work."""
    copy = MemoryBackend()
    for ns in store.namespaces():
        for key in store.keys(ns):
            copy.put(ns, key, store.get(ns, key))
    return copy


# ---- rounds ------------------------------------------------------------------

#: The phases of a round, in order.
PHASES = ("setup", "ingest", "restore")


class Stamp(NamedTuple):
    """One moment on the wall clock and on the process's CPU clock."""

    wall: float
    cpu: float

    @classmethod
    def now(cls) -> Stamp:
        return cls(time.perf_counter(), time.process_time())


@dataclass
class RoundResult:
    """What one round measured, and what its checks found."""

    #: Seconds of each phase in :data:`PHASES`, on each clock.
    wall: dict[str, float] = field(default_factory=dict)
    cpu: dict[str, float] = field(default_factory=dict)
    ingest_bytes: int = 0
    restore_bytes: int = 0
    #: Wall time of each service session, open to commit.
    sessions_ms: list[float] = field(default_factory=list)
    #: CPU seconds of the reference kernel, timed just before the round.
    kernel_s: float = 0.0
    real_der: float = 0.0
    metadata_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Program statistics that must not depend on the round's mode.
    stats: Any = None
    layers: dict[str, float] = field(default_factory=dict)
    recorder: Recorder | None = None
    #: Guards the counters above when client threads update them.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __getstate__(self) -> dict[str, Any]:
        # Rounds travel from the worker processes to the parent by pickle.
        return {k: v for k, v in self.__dict__.items() if k != "lock"}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state, lock=threading.Lock())

    def time_phases(self, *stamps: Stamp) -> None:
        """Record the phases between consecutive ``stamps``."""
        for phase, start, end in zip(PHASES, stamps, stamps[1:], strict=False):
            self.wall[phase] = end.wall - start.wall
            self.cpu[phase] = end.cpu - start.cpu

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu.values())

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            with self.lock:
                self.errors.append(message)

    def attempt(self, fn: Callable[..., T], *args: Any) -> T | None:
        """Run one counted operation; a raise counts it as failed."""
        with self.lock:
            self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            with self.lock:
                self.failed += 1
                self.failures.append(f"operation failed: {type(exc).__name__}: {exc}")
            return None

    def check_der(self, total_input: int, stored_chunks: int, output: int) -> None:
        """Store-wide DER over every generation: ``1 <= real <= data-only``."""
        self.check(stored_chunks <= total_input, "stored chunk bytes exceed input bytes")
        self.real_der = total_input / output
        data_only = total_input / max(1, stored_chunks)
        self.check(1.0 <= self.real_der <= data_only, f"real DER {self.real_der} out of [1, {data_only}]")


def _span(rec: Recorder | None, name: str) -> contextlib.AbstractContextManager[None]:
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _call(rec: Recorder | None, name: str, fn: Callable[..., T], *args: Any, **kw: Any) -> T:
    return rec.call(name, fn, *args, **kw) if rec is not None else fn(*args, **kw)


#: Restore passes in a plain round of the library and cluster workloads.
#: One pass over their corpus takes 20–60 ms of CPU and moved by ±20%
#: from one round to the next, so the round keeps its median pass.
#: Traced and telemetry rounds make one pass, so that their per-layer
#: counts are per pass.
RESTORE_PASSES = 5


def _read_back(
    res: RoundResult, mode: str, file_ids: list[str], restore: Callable[[str], bytes]
) -> list[tuple[str, bytes | None]]:
    """Restore every file in passes; the median pass is the round's restore time."""
    first: list[tuple[str, bytes | None]] = []
    walls, cpus = [], []
    for k in range(RESTORE_PASSES if mode == "plain" else 1):
        start = Stamp.now()
        restored = [(file_id, res.attempt(restore, file_id)) for file_id in file_ids]
        end = Stamp.now()
        walls.append(end.wall - start.wall)
        cpus.append(end.cpu - start.cpu)
        if k == 0:
            first = restored
        else:
            res.check(restored == first, "a restore pass returned other bytes than the first pass")
    res.wall["restore"], res.cpu["restore"] = median(walls), median(cpus)
    return first


def _ms_median(rec: Recorder, name: str) -> float:
    values = durations(rec.spans, name)
    return median(values) * 1000 if values else 0.0


def _storage_layers(rec: Recorder, input_bytes: int, model_ops: int) -> dict[str, float]:
    return {
        "storage.puts": rec.count("storage.puts"),
        "storage.gets": rec.count("storage.gets"),
        "storage.exists": rec.count("storage.exists"),
        "storage.put_bytes": rec.count("storage.put_bytes"),
        "storage.get_bytes": rec.count("storage.get_bytes"),
        "storage.seconds": total_by_name(rec.spans).get("storage", 0.0),
        "storage.bytes_written_per_input_byte": rec.count("storage.put_bytes") / input_bytes,
        "storage.model_disk_ops": model_ops,
    }


class Workload:
    """One workload: a preloaded store and a round that repeats on copies of it."""

    #: Round modes the traced run cycles through.
    traced_modes: tuple[str, ...] = ("plain", "traced")
    #: The store holding the earlier generations, written untimed.
    store: MemoryBackend

    def round(self, mode: str) -> RoundResult:
        raise NotImplementedError


class LibraryWorkload(Workload):
    """bf-mhd through the library API: ``office-nightly`` and ``vm-images-restart``."""

    traced_modes = ("plain", "traced", "obs")

    def __init__(self, profile: str, seed: int) -> None:
        self.corpus = Corpus.make(profile, seed)
        self.store = MemoryBackend()
        preload = MHDDeduplicator(CONFIG, backend=self.store)
        self.preload_stats = preload.process(self.corpus.preload)
        if self.preload_stats.input_bytes != Corpus.nbytes(self.corpus.preload):
            raise RuntimeError("preload ingested a different byte count than generated")
        self.corpus.drop_preload()

    def round(self, mode: str) -> RoundResult:
        rec = Recorder() if mode == "traced" else None
        res = RoundResult(recorder=rec)
        sink = InMemorySink() if mode == "obs" else None
        raw = clone(self.store)
        backend: StorageBackend = TimingBackend(raw, rec) if rec is not None else raw
        tonight = self.corpus.tonight

        t0 = Stamp.now()
        with _span(rec, "setup"):
            dedup = MHDDeduplicator(CONFIG, backend=backend)
            if rec is not None:
                wrap_deduplicator(dedup, rec)
            if sink is not None:
                dedup.telemetry = Telemetry(sinks=[sink])
            hooks = _call(rec, "core.warm_start", dedup.warm_start)
        t1 = Stamp.now()
        with _span(rec, "ingest"):
            for f in tonight:
                res.attempt(dedup.ingest, f)
            stats = dedup.finalize()
        t2 = Stamp.now()
        model_ops = dedup.meter.total_ops
        with _span(rec, "restore"):
            restored = _read_back(res, mode, self.corpus.file_ids, dedup.restore)

        res.time_phases(t0, t1, t2)
        res.ingest_bytes = Corpus.nbytes(tonight)
        for file_id, data in restored:
            if data is not None:
                res.restore_bytes += len(data)
                res.check(
                    hashlib.sha256(data).digest() == self.corpus.sha256[file_id],
                    f"{file_id}: restored bytes differ from the generator's",
                )
        res.stats = stats
        res.metadata_bytes = stats.manifest_bytes + stats.hook_bytes + stats.file_manifest_bytes
        if res.failed == 0:
            res.check(stats.input_bytes == res.ingest_bytes, "input_bytes != generated bytes")
            res.check(
                stats.unique_bytes + stats.duplicate_bytes == stats.input_bytes,
                "unique_bytes + duplicate_bytes != input_bytes",
            )
            res.check_der(
                self.preload_stats.input_bytes + stats.input_bytes,
                stats.stored_chunk_bytes,
                stats.output_bytes,
            )
            report = verify_store(raw)
            res.check(report.ok, f"verify_store: {report.summary()}")

        if rec is not None:
            spans = rec.spans
            totals = total_by_name(spans)
            queries = len(durations(spans, "hashing.bloom_query"))
            searches = rec.count("core.cache_searches")
            chunk_s = totals.get("chunking", 0.0)
            res.layers = {
                "chunking.seconds": chunk_s,
                "chunking.mb_s": rec.count("chunking.bytes") / MB / chunk_s,
                "chunking.chunks": rec.count("chunking.chunks"),
                "hashing.bloom_queries": queries,
                "hashing.bloom_query_us": totals.get("hashing.bloom_query", 0.0) / max(1, queries) * 1e6,
                "hashing.bloom_positive_ratio": rec.count("hashing.bloom_positives") / max(1, queries),
                "hashing.bloom_adds": len(durations(spans, "hashing.bloom_add")),
                "hashing.bloom_add_seconds": totals.get("hashing.bloom_add", 0.0),
                "hashing.digest_mb_s": digest_mb_s(tonight),
                "core.self_seconds": self_by_name(spans)["ingest"],
                "core.cache_hits": dedup.cache.hits,
                "core.cache_loads": dedup.cache.loads,
                "core.cache_hit_ratio": dedup.cache.hits / max(1, searches),
                "core.cache_seconds": totals.get("core.cache", 0.0),
                "core.warm_start_hooks": hooks,
                "core.warm_start_seconds": totals["core.warm_start"],
                **_storage_layers(rec, res.ingest_bytes, model_ops),
            }
        if sink is not None:
            rows = {r.name: r.self_s for r in summarize(sink.spans).rows}
            res.layers = {
                "obs.traced_ingest_mb_per_cpu_s": res.ingest_bytes / MB / res.cpu["ingest"],
                "obs.spans": len(sink.spans),
                "obs.stage_chunk_s": rows.get("chunk", 0.0),
                "obs.stage_dedup_s": rows.get("dedup", 0.0),
                "obs.stage_end_file_s": rows.get("end_file", 0.0),
            }
        return res


class ServiceWorkload(Workload):
    """``service-sessions``: a ``DedupServer`` over loopback with two closed-loop clients.

    A round's ingest is one session per machine (open, ``push_many``,
    commit); its restore then ``get``s every file pushed tonight.  The
    reads follow the writes rather than run beside them, so that each
    phase has its own CPU time.
    """

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.corpus = Corpus.make("office-fleet", seed)
        self.store = MemoryBackend()
        registry = TenantRegistry(self.store)
        self.preload_input: dict[str, int] = {}
        self.paths: dict[str, set[str]] = {}
        for tenant_id, files in self._sessions(self.corpus.preload):
            session = DedupSession(registry.register(tenant_id), config=CONFIG)
            session.open()
            for f in files:
                session.write(client_path(f.file_id), f.data)
            stats = session.commit()
            if stats.input_bytes != Corpus.nbytes(files):
                raise RuntimeError("preload session ingested a different byte count")
            self.preload_input[tenant_id] = self.preload_input.get(tenant_id, 0) + stats.input_bytes
        for file_id in self.corpus.file_ids:
            self.paths.setdefault(machine(file_id), set()).add(client_path(file_id))
        self.corpus.drop_preload()

    @staticmethod
    def _sessions(files: list[BackupFile]) -> list[tuple[str, list[BackupFile]]]:
        """One session per machine-generation, in backup order; tenant = machine."""
        groups: dict[tuple[int, str], list[BackupFile]] = {}
        for f in files:
            groups.setdefault((generation(f.file_id), machine(f.file_id)), []).append(f)
        return [(m, groups[(g, m)]) for g, m in sorted(groups)]

    def round(self, mode: str) -> RoundResult:
        rec = Recorder() if mode == "traced" else None
        res = RoundResult(recorder=rec)
        trace_dir = self.workdir / "server-traces" if rec is not None else None
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
        raw = clone(self.store)
        backend: StorageBackend = TimingBackend(raw, rec) if rec is not None else raw
        sessions = self._sessions(self.corpus.tonight)
        commits: dict[str, dict[str, Any]] = {}
        got: list[tuple[str, bytes | None]] = []

        def push(client: Any, job: tuple[str, list[BackupFile]]) -> None:
            tenant_id, files = job
            t = time.perf_counter()
            if job is not sessions[0]:  # the first session was opened in set-up
                client.open(tenant_id)
            replies = client.push_many([(client_path(f.file_id), f.data) for f in files])
            commit = client.commit()
            elapsed_ms = (time.perf_counter() - t) * 1000
            with res.lock:
                res.sessions_ms.append(elapsed_ms)
                res.attempted += len(files)
                res.failed += sum(1 for r in replies if not r.get("ok"))
                commits[tenant_id] = commit["stats"]

        def read_back(client: Any, job: tuple[str, list[BackupFile]]) -> None:
            tenant_id, files = job
            restored = [(f.file_id, res.attempt(client.get, tenant_id, client_path(f.file_id))) for f in files]
            with res.lock:
                got.extend(restored)

        t0 = Stamp.now()
        server = DedupServer(backend, config=CONFIG, trace_dir=trace_dir)
        with _served(server) as port:
            clients = [ServiceClient("127.0.0.1", port) for _ in range(CLIENTS)]
            try:
                wrapped = [ClientProxy(c, rec) if rec is not None else c for c in clients]
                # Set-up ends when the server can take the first file: the
                # first session is open, its tenant's store warm-started.
                wrapped[0].open(sessions[0][0])
                t1 = Stamp.now()
                _closed_loop(wrapped, sessions, lambda c, job: res.attempt(push, c, job))
                t2 = Stamp.now()
                _closed_loop(wrapped, sessions, read_back)
                t3 = Stamp.now()
                if rec is not None:  # the checks below are not part of the round
                    res.recorder = rec = rec.snapshot()
                listed = {t: set(clients[0].list_files(t)) for t in sorted(self.paths)}
            finally:
                for c in clients:
                    c.close()
        views = TenantRegistry(raw)

        res.time_phases(t0, t1, t2, t3)
        res.ingest_bytes = Corpus.nbytes(self.corpus.tonight)
        for file_id, data in got:
            if data is not None:
                res.restore_bytes += len(data)
                res.check(
                    hashlib.sha256(data).digest() == self.corpus.sha256[file_id],
                    f"{file_id}: get returned bytes that differ from the generator's",
                )
        res.stats = commits
        res.metadata_bytes = sum(
            s["manifest_bytes"] + s["hook_bytes"] + s["file_manifest_bytes"] for s in commits.values()
        )
        if res.failed == 0:
            tonight_input: dict[str, int] = {}
            for f in self.corpus.tonight:
                tonight_input[machine(f.file_id)] = tonight_input.get(machine(f.file_id), 0) + f.size
            for tenant_id, s in sorted(commits.items()):
                res.check(s["input_bytes"] == tonight_input[tenant_id], f"{tenant_id}: input_bytes != pushed bytes")
                res.check(
                    s["unique_bytes"] + s["duplicate_bytes"] == s["input_bytes"],
                    f"{tenant_id}: unique_bytes + duplicate_bytes != input_bytes",
                )
            res.check(sorted(commits) == sorted(self.paths), "a tenant's session never committed")
            res.check_der(
                sum(self.preload_input.values()) + sum(tonight_input.values()),
                sum(s["stored_chunk_bytes"] for s in commits.values()),
                sum(s["stored_chunk_bytes"] + s["metadata_bytes"] for s in commits.values()),
            )
            for tenant_id, paths in sorted(self.paths.items()):
                res.check(listed[tenant_id] == paths, f"{tenant_id}: list_files != pushed paths")
                report = verify_store(views.view(tenant_id))
                res.check(report.ok, f"{tenant_id}: verify_store: {report.summary()}")

        if rec is not None:
            rows: dict[str, float] = {}
            totals: dict[str, float] = {}
            span_count = 0
            assert trace_dir is not None
            for path in sorted(trace_dir.glob("*.jsonl")):
                spans, _ = load_trace(str(path))
                summary = summarize(spans)
                span_count += summary.span_count
                for row in summary.rows:
                    rows[row.name] = rows.get(row.name, 0.0) + row.self_s
                    totals[row.name] = totals.get(row.name, 0.0) + row.total_s
            res.layers = {
                "hashing.digest_mb_s": digest_mb_s(self.corpus.tonight),
                **_storage_layers(
                    rec, res.ingest_bytes, sum(s["disk_accesses"] for s in commits.values())
                ),
                "service.open_ms": _ms_median(rec, "service.open"),
                "service.push_ms": _ms_median(rec, "service.push"),
                "service.commit_ms": _ms_median(rec, "service.commit"),
                "service.get_ms": _ms_median(rec, "service.get"),
                "service.server_ingest_seconds": totals.get("file", 0.0),
                "service.wait_queue_s": rows.get("wait.queue", 0.0),
                "service.wait_tenant_lock_s": rows.get("wait.tenant_lock", 0.0),
                "parallel.lane_wait_s": rows.get("wait.lane", 0.0),
                "obs.traced_ingest_mb_per_cpu_s": res.ingest_bytes / MB / res.cpu["ingest"],
                "obs.spans": span_count,
                "obs.stage_chunk_s": rows.get("chunk", 0.0),
                "obs.stage_dedup_s": rows.get("dedup", 0.0),
                "obs.stage_end_file_s": rows.get("end_file", 0.0),
            }
        return res


def _closed_loop(clients: list[Any], jobs: list[T], run: Callable[[Any, T], Any]) -> None:
    """Run ``jobs`` in order, one client thread each; client 0 takes the first job.

    Closed loop: a client takes the next job only when its last one is done.
    """
    pending = list(jobs)
    lock = threading.Lock()

    def loop(client: Any, job: T | None) -> None:
        while True:
            if job is None:
                with lock:
                    if not pending:
                        return
                    job = pending.pop(0)
            run(client, job)
            job = None

    first = pending.pop(0)
    with ThreadPoolExecutor(len(clients), thread_name_prefix="bench-client") as pool:
        futures = [pool.submit(loop, c, first if k == 0 else None) for k, c in enumerate(clients)]
        for fut in futures:
            fut.result()


@contextlib.contextmanager
def _served(server: DedupServer) -> Iterator[int]:
    """Run ``server`` on an event loop in a thread; yields its port."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="bench-server-loop")
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(_LOOP_TIMEOUT)
        yield server.port
    finally:
        try:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(_LOOP_TIMEOUT)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(_LOOP_TIMEOUT)
            if thread.is_alive():
                raise RuntimeError("server event loop did not stop")
            loop.close()


class ClusterWorkload(Workload):
    """``cluster-2shard``: a cold-restarted ``ClusterRouter`` over two shards."""

    def __init__(self, seed: int) -> None:
        self.corpus = Corpus.make("office-fleet", seed)
        self.store = MemoryBackend()
        router = ClusterRouter(self.store, workers=SHARDS, config=ClusterConfig(dedup=CONFIG))
        for f in self.corpus.preload:
            router.put_file(f)
        self.preload_input = router.finalize().input_bytes
        if self.preload_input != Corpus.nbytes(self.corpus.preload):
            raise RuntimeError("preload ingested a different byte count than generated")
        self.corpus.drop_preload()

    def round(self, mode: str) -> RoundResult:
        rec = Recorder() if mode == "traced" else None
        res = RoundResult(recorder=rec)
        raw = clone(self.store)
        backend: StorageBackend = TimingBackend(raw, rec) if rec is not None else raw
        tonight = self.corpus.tonight

        t0 = Stamp.now()
        with _span(rec, "setup"):
            router = ClusterRouter(backend, workers=SHARDS, config=ClusterConfig(dedup=CONFIG))
        t1 = Stamp.now()
        if rec is not None:
            for name in list(router.workers):
                router.workers[name] = WorkerProxy(router.workers[name], rec)
        with _span(rec, "ingest"):
            for f in tonight:
                res.attempt(_call, rec, "cluster.put_file", router.put_file, f)
            fleet = _call(rec, "cluster.finalize", router.finalize)
        t2 = Stamp.now()
        with _span(rec, "restore"):
            restored = _read_back(
                res,
                mode,
                self.corpus.file_ids,
                lambda file_id: _call(rec, "cluster.restore_file", router.restore_file, file_id),
            )
        if rec is not None:  # fsck below is not part of the round
            res.recorder = rec = rec.snapshot()

        res.time_phases(t0, t1, t2)
        res.ingest_bytes = Corpus.nbytes(tonight)
        for file_id, data in restored:
            if data is not None:
                res.restore_bytes += len(data)
                res.check(
                    hashlib.sha256(data).digest() == self.corpus.sha256[file_id],
                    f"{file_id}: restored bytes differ from the generator's",
                )
        shard_stats = tuple(s.stats for s in fleet.shards)
        res.stats = shard_stats
        res.metadata_bytes = sum(
            s.manifest_bytes + s.hook_bytes + s.file_manifest_bytes for s in shard_stats
        )
        if res.failed == 0:
            res.check(fleet.input_bytes == res.ingest_bytes, "input_bytes != generated bytes")
            for s in shard_stats:
                res.check(
                    s.unique_bytes + s.duplicate_bytes == s.input_bytes,
                    "a shard's unique_bytes + duplicate_bytes != input_bytes",
                )
            res.check_der(
                self.preload_input + fleet.input_bytes,
                fleet.stored_chunk_bytes,
                sum(s.output_bytes for s in shard_stats),
            )
            for name, report in router.fsck().items():
                res.check(report.ok, f"fsck {name}: {report.summary()}")
            res.check(not raw.keys("cluster.wal"), "write-ahead journal not drained")

        if rec is not None:
            spans = rec.spans
            routed = [v for k, v in rec.counts.items() if k.startswith("cluster.routed_bytes@")]
            res.layers = {
                "hashing.digest_mb_s": digest_mb_s(tonight),
                **_storage_layers(rec, res.ingest_bytes, sum(s.io.count() for s in shard_stats)),
                "cluster.put_file_ms": _ms_median(rec, "cluster.put_file"),
                "cluster.route_self_seconds": self_by_name(spans).get("cluster.put_file", 0.0),
                "cluster.worker_ingest_seconds": total_by_name(spans).get("cluster.ingest_segment", 0.0),
                "cluster.segments": rec.count("cluster.segments"),
                "cluster.wal_put_bytes": rec.count("storage.put_bytes@cluster.wal"),
                "cluster.shard_bytes_imbalance": max(routed) / (sum(routed) / SHARDS),
            }
        return res


WORKLOADS = ("office-nightly", "vm-images-restart", "service-sessions", "cluster-2shard")


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    """Build (and preload, untimed) the named workload."""
    if name == "office-nightly":
        return LibraryWorkload("office-fleet", seed)
    if name == "vm-images-restart":
        return LibraryWorkload("vm-images", seed)
    if name == "service-sessions":
        return ServiceWorkload(seed, workdir)
    if name == "cluster-2shard":
        return ClusterWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
