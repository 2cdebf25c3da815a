"""Backup benchmark of ``repro``: one command, four workloads.

Usage, from the root of a checkout::

    python3 wallbench/run.py --workload office-nightly --seed 1 --seconds 6 --trace 0

``--trace 0`` measures untraced rounds and prints the end-to-end
metrics; ``--trace 1`` cycles untraced, traced (and, on the library
workloads, program-telemetry) rounds and prints the per-layer metrics.
A human-readable report goes to standard error; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

A run measures :data:`DRAWS` draws of the workload's corpus, with
seeds ``seed * DRAWS + k``: the restore cost of one draw depends on how
its chunks fall into containers, and moved by a quarter between seeds,
so one draw a run would make the seed, not the program, set the
figures.  The parent builds and preloads each draw's store, untimed;
then one fresh worker process per draw, one after another, with
``PYTHONHASHSEED=k``, runs an untimed warm-up round and whole rounds for
``--seconds / DRAWS``.  Before each round it times the reference
kernel (:mod:`reference`); a round's timings are its CPU seconds at
reference speed.  A timing is each draw's median over its rounds,
combined over the draws: throughputs as total bytes over total
seconds, everything else as the mean.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".wallbench_work"
OUT = ROOT / ".wallbench_out"
#: Corpus draws per run; draw ``k`` is measured in its own worker
#: process with ``PYTHONHASHSEED=k``.
DRAWS = 4
#: Longest the draws may take together, preloads and workers, so that
#: a hung worker ends the run (with an error) well within three minutes.
_WORKERS_DEADLINE_S = 160


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check ``repro`` comes from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"wallbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"wallbench: imported repro from {repro.__file__}, not {src}")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as a worker over the pickled workload in this directory.
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _worker(args: argparse.Namespace) -> int:
    """Measure the pickled draw; leave the rounds next to it."""
    from reference import kernel_seconds

    with open(args.worker / "workload.pickle", "rb") as fh:
        workload = pickle.load(fh)  # written by this benchmark's parent process
    warmup = workload.round("plain")  # untimed: imports, power tables, caches
    modes = workload.traced_modes if args.trace else ("plain",)
    rounds: list[tuple[str, Any]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        for mode in modes:
            # Every round starts from an empty young generation, so a
            # full collection lands in the same place in each round.
            gc.collect()
            kernel_s = kernel_seconds()
            result = workload.round(mode)
            result.kernel_s = kernel_s
            rounds.append((mode, result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.worker / "rounds.pickle", "wb") as fh:
        pickle.dump({"warmup": warmup, "rounds": rounds, "peak_rss_mb": peak_rss_mb}, fh)
    return 0


def _measure(args: argparse.Namespace, workdir: Path) -> list[dict[str, Any]]:
    """Preload every draw, then measure each in its own worker, one after another."""
    from workloads import make_workload

    deadline = time.monotonic() + _WORKERS_DEADLINE_S
    results = []
    for k in range(DRAWS):
        drawdir = workdir / f"draw{k}"
        drawdir.mkdir()
        workload = make_workload(args.workload, args.seed * DRAWS + k, drawdir)
        with open(drawdir / "workload.pickle", "wb") as fh:
            pickle.dump(workload, fh)
        del workload
        command = [
            sys.executable, __file__,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / DRAWS), "--trace", str(args.trace),
            "--worker", str(drawdir),
        ]  # fmt: skip
        env = dict(os.environ, PYTHONHASHSEED=str(k))
        timeout = max(1.0, deadline - time.monotonic())
        subprocess.run(command, env=env, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
        with open(drawdir / "rounds.pickle", "rb") as fh:
            results.append(pickle.load(fh))  # written by our own worker
    return results


def _samples(rounds: list[Any]) -> dict[str, list[float]]:
    """Per-round samples of one draw's end-to-end timings, in CPU time at reference speed."""
    from reference import speed_scale

    scale = speed_scale([r.kernel_s for r in rounds])
    return {
        "setup_s": [r.cpu["setup"] * scale for r in rounds],
        "ingest_mb_per_ref_s": [r.ingest_bytes / 1e6 / (r.cpu["ingest"] * scale) for r in rounds],
        "restore_mb_per_ref_s": [r.restore_bytes / 1e6 / (r.cpu["restore"] * scale) for r in rounds],
    }


def _raw_samples(rounds: list[Any]) -> dict[str, list[float]]:
    """The same timings as measured, for the report only."""
    samples = {
        "kernel_ms": [r.kernel_s * 1000 for r in rounds],
        "cpu_ingest_mb_s": [r.ingest_bytes / 1e6 / r.cpu["ingest"] for r in rounds],
        "cpu_restore_mb_s": [r.restore_bytes / 1e6 / r.cpu["restore"] for r in rounds],
        "wall_setup_s": [r.wall["setup"] for r in rounds],
        "wall_ingest_mb_s": [r.ingest_bytes / 1e6 / r.wall["ingest"] for r in rounds],
        "wall_restore_mb_s": [r.restore_bytes / 1e6 / r.wall["restore"] for r in rounds],
    }
    sessions = [ms for r in rounds for ms in r.sessions_ms]
    if sessions:
        samples["wall_session_ms"] = sessions
    return samples


def _plain(result: dict[str, Any]) -> list[Any]:
    return [r for mode, r in result["rounds"] if mode == "plain"]


def _end_to_end(results: list[dict[str, Any]]) -> dict[str, float]:
    from metrics import END_TO_END, combine_draws, median

    per_draw = []
    for result in results:
        rounds = _plain(result)
        values = {name: median(samples) for name, samples in _samples(rounds).items()}
        values.update(
            real_der=rounds[0].real_der,
            metadata_bytes=rounds[0].metadata_bytes,
            peak_rss_mb=result["peak_rss_mb"],
        )
        per_draw.append(values)
    nbytes = {
        "ingest_mb_per_ref_s": [_plain(result)[0].ingest_bytes for result in results],
        "restore_mb_per_ref_s": [_plain(result)[0].restore_bytes for result in results],
    }
    values = combine_draws(per_draw, nbytes)
    return {name: values[name] for name in END_TO_END}


def _per_layer(results: list[dict[str, Any]]) -> dict[str, float]:
    from metrics import PER_LAYER, combine_draws, median

    per_draw = []
    for result in results:
        layers: dict[str, list[float]] = {}
        for _, r in result["rounds"]:
            for name, value in r.layers.items():
                layers.setdefault(name, []).append(value)
        values = {name: median(layers[name]) if name in layers else 0.0 for name in PER_LAYER}
        sessions = [ms for r in _plain(result) for ms in r.sessions_ms]
        values["service.session_p50_ms"] = median(sessions) if sessions else 0.0
        cpu = {
            mode: median([r.cpu_s for m, r in result["rounds"] if m == mode]) for mode in ("plain", "traced")
        }
        values["trace.overhead_ratio"] = cpu["traced"] / cpu["plain"]
        per_draw.append(values)
    return combine_draws(per_draw, {})


def _report(name: str, results: list[dict[str, Any]], metrics: dict[str, float], units: dict[str, str]) -> None:
    from metrics import describe

    out = sys.stderr
    rounds = sum(len(result["rounds"]) for result in results)
    print(f"wallbench {name}: {rounds} measured rounds of {DRAWS} draws", file=out)
    samples: dict[str, list[float]] = {}
    for result in results:
        for metric, values in _samples(_plain(result)).items():
            samples.setdefault(metric, []).extend(values)
    plain = [r for result in results for r in _plain(result)]
    for metric, value in metrics.items():
        extra = f"  [{describe(samples[metric])}]" if metric in samples else ""
        print(f"  {metric:38s} {value:14.6g} {units[metric]}{extra}", file=out)
    print("  as measured, plain rounds (not metrics):", file=out)
    for metric, values in _raw_samples(plain).items():
        print(f"  {metric:38s} {describe(values)}", file=out)


def _errors(results: list[dict[str, Any]]) -> list[str]:
    """Check failures over every draw's rounds, warm-up included."""
    errors = []
    for result in results:
        warmup = result["warmup"]
        errors += [e for r in [warmup] + [r for _, r in result["rounds"]] for e in r.errors]
        for mode, r in result["rounds"]:
            if r.stats != warmup.stats:
                errors.append(f"a {mode} round's statistics differ from the warm-up round's")
            for key in ("real_der", "metadata_bytes"):
                if getattr(r, key) != getattr(warmup, key):
                    errors.append(f"a {mode} round's {key} differs from the warm-up round's")
    return errors


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_program()
    if args.worker is not None:
        return _worker(args)
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"wallbench: unknown workload {args.workload!r}; choose from {WORKLOADS}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # On SIGTERM, unwind: ``subprocess.run`` then kills and waits for the
    # worker, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        results = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = [mode_round for result in results for mode_round in result["rounds"]]
    measured = [r for _, r in rounds]
    errors = _errors(results)
    failures = [f for result in results for _, r in result["rounds"] for f in r.failures]
    for message in errors[:20] + failures[:20]:
        print(f"wallbench {args.workload}: {message}", file=sys.stderr)

    if args.trace:
        metrics, units = _per_layer(results), PER_LAYER
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", "w", encoding="utf-8") as fh:
            for draw, result in enumerate(results):
                for k, (_, r) in enumerate(result["rounds"]):
                    if r.recorder is not None:
                        r.recorder.write(fh, draw=draw, round=k)
    else:
        metrics, units = _end_to_end(results), END_TO_END
    _report(args.workload, results, metrics, units)
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)
    print(f"wallbench {args.workload}: attempted {attempted} failed {failed} correct {not errors}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
