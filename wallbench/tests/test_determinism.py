"""DER, metadata bytes and chunk counts do not depend on ``PYTHONHASHSEED``."""

import json
import os
import subprocess
import sys

from conftest import BENCH, ROOT

_PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from workloads import make_workload
with tempfile.TemporaryDirectory(dir=sys.argv[3]) as tmp:
    workload = make_workload(sys.argv[4], 7, Path(tmp))
    plain, traced = workload.round("plain"), workload.round("traced")
print(json.dumps({
    "real_der": plain.real_der,
    "metadata_bytes": plain.metadata_bytes,
    "chunking.chunks": traced.layers["chunking.chunks"],
    "errors": plain.errors + traced.errors,
    "same_stats": plain.stats == traced.stats,
}))
"""


def _probe(hash_seed: str, workload: str, tmp_path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src"), str(BENCH), str(tmp_path), workload],
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_library_workload_is_hash_seed_independent(tmp_path):
    first = _probe("0", "vm-images-restart", tmp_path)
    second = _probe("4242", "vm-images-restart", tmp_path)
    assert first["errors"] == [] and first["same_stats"]
    assert first == second
