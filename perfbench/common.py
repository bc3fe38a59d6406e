"""Shared plumbing of the benchmark: checkout paths, a hermetic
environment per run, host facts and the summary statistics.

Everything the benchmark writes goes under ``<checkout>/.perfbench_tmp``
and is removed when the run ends.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: variables that would change what the program does or measures; the
#: benchmark measures the program's own defaults
_SCRUBBED = ("REPRO_TRACE", "REPRO_TRACE_OUT", "REPRO_LOG",
             "REPRO_LOG_OUT", "REPRO_CACHE_DIR", "REPRO_CACHE_CAPACITY",
             "REPRO_NATIVE_DIR", "REPRO_OPTDB_PATH")


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def scrub_environment(env: Optional[Dict[str, str]] = None
                      ) -> Dict[str, str]:
    """Remove tracing, logging, cache-location and OpenMP settings from
    *env* (default: this process's environment, edited in place)."""
    env = os.environ if env is None else env
    for key in list(env):
        if key in _SCRUBBED or key.startswith("OMP_"):
            del env[key]
    return env


def make_run_dir(tag: str) -> str:
    """A fresh directory for one benchmark run, inside the checkout."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT)
    # compiler and interpreter temp files land here too
    tempfile.tempdir = path
    return path


def remove_run_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)           # only when no other run is using it
    except OSError:
        pass


def fresh_state(run_dir: str, name: str) -> Dict[str, str]:
    """Empty native workdir, compilation cache and tuned store: the
    environment of one fresh start of the program."""
    base = tempfile.mkdtemp(prefix=f"{name}-", dir=run_dir)
    dirs = {"REPRO_NATIVE_DIR": os.path.join(base, "native"),
            "REPRO_CACHE_DIR": os.path.join(base, "cache"),
            "REPRO_OPTDB_PATH": os.path.join(base, "optdb.json"),
            "TMPDIR": os.path.join(base, "tmp")}
    for key in ("REPRO_NATIVE_DIR", "REPRO_CACHE_DIR", "TMPDIR"):
        os.makedirs(dirs[key])
    return dirs


def child_env(state: Dict[str, str]) -> Dict[str, str]:
    """Environment for a program process started from a fresh state."""
    env = scrub_environment(dict(os.environ))
    env.update(state)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, BENCH_DIR] + ([env["PYTHONPATH"]]
                            if env.get("PYTHONPATH") else []))
    return env


def use_sources() -> None:
    """Make ``repro`` and the benchmark modules importable here."""
    for path in (BENCH_DIR, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def host_facts() -> Dict[str, str]:
    import numpy as np
    from repro.runtime.native import compiler_signature, find_c_compiler

    cc = find_c_compiler()
    return {"nproc": str(os.cpu_count()),
            "compiler": compiler_signature(cc) if cc else "none",
            "numpy": np.__version__,
            "python": sys.version.split()[0]}


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile (q in 0..100) of a non-empty sample, interpolated
    linearly between the nearest ranks."""
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux ru_maxrss is KiB)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit_line(doc: Dict) -> None:
    """One machine-readable line for the orchestrating process."""
    sys.stdout.write("PERFBENCH " + json.dumps(doc) + "\n")
    sys.stdout.flush()


def parse_line(line: str) -> Optional[Dict]:
    if line.startswith("PERFBENCH "):
        return json.loads(line[len("PERFBENCH "):])
    return None


def fmt(value: float) -> str:
    return f"{value:.6g}"


def summarize_ops(latencies_ms: List[float], busy_s: float,
                  pixels: int) -> Dict[str, float]:
    """Latency percentiles and rates of the completed ops."""
    if not latencies_ms:
        return {"op_p50_ms": 0.0, "op_p95_ms": 0.0, "ops_per_s": 0.0,
                "mpix_per_s": 0.0}
    return {"op_p50_ms": percentile(latencies_ms, 50),
            "op_p95_ms": percentile(latencies_ms, 95),
            "ops_per_s": len(latencies_ms) / busy_s,
            "mpix_per_s": pixels / busy_s / 1e6}
