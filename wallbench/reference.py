"""The reference kernel: a fixed piece of backup-like work that uses no code of ``repro``.

The host this benchmark runs on changes speed for minutes at a time:
the same office-nightly round took 220 ms of CPU in one phase and
450 ms in another, with no steal time to account for it.  Every round
therefore also times this kernel, and the end-to-end timings are: a round's CPU seconds times
``REFERENCE_S / kernel CPU seconds`` measured beside it.  The kernel
mixes the same kinds of work as a backup — a vectorised multiply-shift
pass over a buffer (chunking), SHA-1 of 4 KiB pieces kept in a dict
(hashing and indexing), a Python loop over small integers (the dedup
core) and a buffer copy (storage and restore) — so that a slower host
slows it about as much as the program.  A change to the program does
not move it.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

#: Kernel CPU seconds that define reference speed.
REFERENCE_S = 0.010
#: Kernel runs per measurement; the median is kept.
RUNS = 7

_BUFFER = np.random.default_rng(2013).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()
_WORDS = np.frombuffer(_BUFFER, dtype=np.uint64)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(40)


def _kernel() -> int:
    cuts = 0
    for k in range(8):
        cuts += int(np.count_nonzero(((_WORDS * (_GOLDEN + np.uint64(k))) >> _SHIFT) & np.uint64(0xFF) == 0))
    view = memoryview(_BUFFER)
    index: dict[bytes, int] = {}
    for off in range(0, len(_BUFFER), 4096):
        digest = hashlib.sha1(view[off : off + 4096]).digest()
        index[digest] = index.get(digest, 0) + 1
    total = 0
    for i in range(40_000):
        total += (i * 31) & 0xFFFF
    copy = bytes(view[1:])
    return cuts + len(index) + total + len(copy)


def kernel_seconds() -> float:
    """CPU seconds of one kernel run: the median of :data:`RUNS` runs."""
    times = []
    for _ in range(RUNS):
        start = time.process_time()
        _kernel()
        times.append(time.process_time() - start)
    return statistics.median(times)


def speed_scale(kernel_times: list[float]) -> float:
    """The factor that takes CPU seconds measured beside ``kernel_times`` to reference speed.

    The median over a worker's rounds, not each round's own kernel time:
    one kernel timing moved by ±15% from round to round while the host's
    slow phases last minutes.
    """
    return REFERENCE_S / statistics.median(kernel_times)
