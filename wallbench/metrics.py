"""Metric table and order statistics of the wall-clock backup benchmark.

The tables below are the single source of the metric names and units
the benchmark prints; ``tests/test_benchmark_json.py`` checks that they
match ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: End-to-end metrics (untraced run): name -> unit.  Timings are CPU
#: time of the whole process at reference speed (see ``reference.py``),
#: so ``setup_s`` is CPU seconds at reference speed.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ingest_mb_per_ref_s": "MB/ref-s",
    "restore_mb_per_ref_s": "MB/ref-s",
    "real_der": "ratio",
    "metadata_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  A layer that a
#: workload does not wrap reports 0 (no call was observed).
PER_LAYER: dict[str, str] = {
    "chunking.seconds": "s",
    "chunking.mb_s": "MB/s",
    "chunking.chunks": "count",
    "hashing.bloom_queries": "count",
    "hashing.bloom_query_us": "us",
    "hashing.bloom_positive_ratio": "ratio",
    "hashing.bloom_adds": "count",
    "hashing.bloom_add_seconds": "s",
    "hashing.digest_mb_s": "MB/s",
    "core.self_seconds": "s",
    "core.cache_hits": "count",
    "core.cache_loads": "count",
    "core.cache_hit_ratio": "ratio",
    "core.cache_seconds": "s",
    "core.warm_start_hooks": "count",
    "core.warm_start_seconds": "s",
    "storage.puts": "count",
    "storage.gets": "count",
    "storage.exists": "count",
    "storage.put_bytes": "bytes",
    "storage.get_bytes": "bytes",
    "storage.seconds": "s",
    "storage.bytes_written_per_input_byte": "ratio",
    "storage.model_disk_ops": "count",
    "service.session_p50_ms": "ms",
    "service.open_ms": "ms",
    "service.push_ms": "ms",
    "service.commit_ms": "ms",
    "service.get_ms": "ms",
    "service.server_ingest_seconds": "s",
    "service.wait_queue_s": "s",
    "service.wait_tenant_lock_s": "s",
    "parallel.lane_wait_s": "s",
    "cluster.put_file_ms": "ms",
    "cluster.route_self_seconds": "s",
    "cluster.worker_ingest_seconds": "s",
    "cluster.segments": "count",
    "cluster.wal_put_bytes": "bytes",
    "cluster.shard_bytes_imbalance": "ratio",
    "obs.traced_ingest_mb_per_cpu_s": "MB/cpu-s",
    "obs.spans": "count",
    "obs.stage_chunk_s": "s",
    "obs.stage_dedup_s": "s",
    "obs.stage_end_file_s": "s",
    "trace.overhead_ratio": "ratio",
}


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def combine_draws(per_draw: Sequence[dict[str, float]], nbytes: dict[str, Sequence[int]]) -> dict[str, float]:
    """One value per metric from each draw's value.

    A throughput named in ``nbytes`` (the bytes each draw moved) becomes
    the total bytes over the total seconds; any other metric the mean.
    """
    values = {}
    for name in per_draw[0]:
        draws = [d[name] for d in per_draw]
        if name in nbytes:
            moved = nbytes[name]
            values[name] = sum(moved) / sum(b / v for b, v in zip(moved, draws, strict=True))
        else:
            values[name] = sum(draws) / len(draws)
    return values


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten of ``n`` samples beyond it.

    Under forty samples there is no tail worth the name (fewer than ten
    samples would lie beyond p75), so ``None``: report the median alone.
    """
    if n < 40:
        return None
    # Largest integer p with n * (100 - p) / 100 >= 10, in exact integers.
    return (100 * (n - 10)) // n


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = -(-p * len(ordered) // 100)  # ceil(p/100 * n), exact
    return float(ordered[max(rank, 1) - 1])


def describe(values: Sequence[float]) -> str:
    """``median=… (n=…)`` plus the tail percentile when the rule allows one."""
    text = f"median={median(values):.4g} (n={len(values)})"
    p = tail_percentile(len(values))
    if p is not None:
        text += f" p{p}={percentile(values, p):.4g}"
    return text
