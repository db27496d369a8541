"""Host fingerprint and the benchmark's trajectory of result rows.

Every run appends one JSON line to ``perfbench/out/trajectory.jsonl``
carrying its metrics, the host fingerprint (cpu count, BLAS and its
thread count, numpy and python versions) and the code it measured (git
commit when available, and always a SHA-256 of ``src/`` and of the
benchmark's own code).  Timings are
only comparable between rows of the same host fingerprint (``host_key``).
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterator

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
TRAJECTORY = OUT / "trajectory.jsonl"


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def host_fingerprint() -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def host_key(host: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]


def source_digest() -> str:
    """SHA-256 over every Python file of the program (``src/``) and of
    the benchmark (path and bytes): a changed workload layout draws other
    federations from the same episode seeds, so its digests differ."""
    h = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(bench.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def rows() -> Iterator[dict]:
    if not TRAJECTORY.exists():
        return
    with TRAJECTORY.open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue


def prior_digests(workload: str, source: str, host: str) -> Dict[int, str]:
    """Final-parameter digest per episode seed seen by earlier runs of
    the same workload and code on the same host fingerprint (the BLAS
    thread count can change the last bits of a reduction)."""
    seen: Dict[int, str] = {}
    for row in rows():
        if (
            row.get("workload") == workload
            and row.get("source_sha256") == source
            and row.get("host_key") == host
        ):
            for sub_seed, value in (row.get("digests") or {}).items():
                seen.setdefault(int(sub_seed), value)
    return seen


def append(row: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    row = dict(row, time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    with TRAJECTORY.open("a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
