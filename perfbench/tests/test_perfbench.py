"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs end to end through ``run.py``: every named metric
must be emitted with its unit, every layer wrapper must fire where the
layer table expects work (a renamed program function fails here instead
of reading zero), and a deliberately corrupted output must fail the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("serve_edge", "graph_large", "compile_sweep")

_NATIVE = ("native_graph.compile_ms", "native_graph.plan_ms",
           "native_graph.emit_ms", "native_graph.fingerprint_ms",
           "native_graph.prove_ms", "native_graph.exec_ms",
           "native_graph.node_share", "native_graph.nodes")
_SERVE = ("serve.transport_ms", "serve.protocol_ms", "serve.plan_ms",
          "serve.service_wait_ms", "serve.queue_wait_ms",
          "serve.requests")
_GRAPH = ("graph.run_self_ms", "graph.fuse_ms", "graph.compile_self_ms",
          "graph.launches", "runtime.compile_self_ms",
          "runtime.compile_calls", "lint.absint_ms", "sim.launch_ms",
          "sim.launches", "sim.estimate_ms", "trace.spans",
          "trace.overhead_ratio", "native_graph.cc_runs")
#: serve compiles through the process's default cache; a library
#: caller's execute_graph uses none
_CACHED = ("cache.get_ms", "cache.ir_hit_ratio", "cache.ir_lookups")
_COLD = ("cache.put_ms", "frontend.parse_ms", "backends.codegen_ms",
         "backends.source_bytes", "hwmodel.resources_ms",
         "mapping.select_ms")

#: per-layer metrics that must be non-zero on each workload's traced run
EXPECTED = {
    "serve_edge": _SERVE + _GRAPH + _NATIVE + _CACHED,
    "graph_large": _GRAPH + _NATIVE + (
        "graph.lint_ms", "lint.verify_ms", "frontend.parse_ms",
        "backends.codegen_ms", "backends.source_bytes",
        "hwmodel.resources_ms", "mapping.select_ms"),
    "compile_sweep": _COLD + (
        "runtime.compile_self_ms", "runtime.compile_calls", "cache.get_ms",
        "cache.ir_lookups", "lint.verify_ms", "lint.absint_ms",
        "sim.estimate_ms", "trace.spans"),
}


def bench(workload, trace=0, seconds=1.0, corrupt_every=0):
    argv = [sys.executable, os.path.join(BENCH, "run.py"),
            "--workload", workload, "--seed", "3",
            "--seconds", str(seconds), "--trace", str(trace),
            "--tiny", "1", "--setups", "1",
            "--corrupt-every", str(corrupt_every)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def printed_figures(stdout):
    """``name value unit`` lines of the report: name -> (value, unit)."""
    units = {**run.END_TO_END, **run.REPORTED}
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in units:
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


@pytest.mark.parametrize("boundary", ["clamp", "mirror", "repeat",
                                      "constant"])
def test_references_agree_with_scipy(boundary):
    ndimage = pytest.importorskip("scipy.ndimage")
    mode = {"clamp": "nearest", "mirror": "reflect", "repeat": "wrap",
            "constant": "constant"}[boundary]
    x = np.random.default_rng(0).random((37, 29), dtype=np.float32)
    assert np.array_equal(reference.median3(x, boundary, 0.5),
                          ndimage.median_filter(x, 3, mode=mode, cval=0.5))
    coeffs = reference.gaussian_mask(5)
    assert np.allclose(reference.correlate(x, coeffs, boundary, 0.5),
                       ndimage.correlate(x.astype(np.float64),
                                         coeffs.astype(np.float64),
                                         mode=mode, cval=0.5))


def test_edge_rows_match_the_whole_frame():
    x = np.random.default_rng(1).random((50, 40), dtype=np.float32)
    whole = reference.edge(x)
    for rows in (slice(0, 8), slice(20, 31), slice(44, 50)):
        assert np.array_equal(reference.edge_rows(x, rows), whole[rows])


def test_matches_flags_a_single_wrong_pixel():
    ref = np.linspace(0, 1, 64).reshape(8, 8)
    out = ref.astype(np.float32)
    assert reference.matches(out, ref)
    out[3, 3] += 1e-2
    assert not reference.matches(out, ref)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    code, doc, stdout = bench(workload)
    assert code == 0, stdout
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == set(run.END_TO_END)
    for name, entry in doc["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name]
        assert entry["value"] > 0, name
    printed = printed_figures(stdout)
    expected = ["op_p95_ms", "failed_share"] + (
        ["modelled_device_ms"] if workload == "compile_sweep" else [])
    for name in list(run.END_TO_END) + expected:
        assert printed[name][1] == {**run.END_TO_END,
                                    **run.REPORTED}[name], name
    assert printed["failed_share"][0] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_every_layer(workload):
    code, doc, stdout = bench(workload, trace=1)
    assert code == 0, stdout
    assert set(doc["metrics"]) == set(run.PER_LAYER)
    metrics = {n: e["value"] for n, e in doc["metrics"].items()}
    silent = [n for n in EXPECTED[workload] if not metrics[n] > 0]
    assert not silent, f"layers with no recorded work: {silent}"
    assert "native_graph.exec_ms is" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_the_run(workload):
    code, doc, stdout = bench(workload, corrupt_every=2)
    assert code == 1
    assert not doc["correct"] and doc["failed"] > 0
    assert printed_figures(stdout)["failed_share"][0] > 0
