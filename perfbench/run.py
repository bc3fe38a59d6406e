"""The benchmark's one command: run one seeded workload against the
program's public surfaces and print every metric by name with its unit.

    python3 perfbench/run.py --workload serve_edge --seed 1 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve_edge``  — closed loop, one connection, named ``edge`` pipeline on
  distinct 64x64 frames against a ``repro serve`` process;
* ``graph_large`` — ``execute_graph`` with the library's defaults on the
  ``edge`` pipeline over distinct 1024x1024 frames;
* ``compile_sweep`` — cold ``compile_kernel`` over seeded rounds of
  builtin filter configurations.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer self time.  Every output is
checked against ``reference.py``; a wrong output counts as a failed op,
and the command exits 1 when any op failed.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import common

#: the gated metrics, name -> unit: ``end_to_end`` ones with ``--trace
#: 0``, ``per_layer`` ones with ``--trace 1``
with open(os.path.join(common.ROOT, "BENCHMARK.json")) as _fh:
    _DECLARED = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
#: end-to-end figures printed by name but kept out of the final JSON
#: line.  ``failed_share`` is zero on a correct run (the line carries
#: ``attempted`` and ``failed``), ``modelled_device_ms`` exists on one
#: workload only and repeats exactly, and ``op_p95_ms`` rests on too
#: few ops per run for a bound.
REPORTED = {"op_p95_ms": "ms", "failed_share": "ratio",
            "modelled_device_ms": "ms"}

#: fresh starts per run; set-up time is their median.  compile_sweep
#: sets up in well under a second, where start-up noise weighs most
SETUPS = {"serve_edge": 3, "graph_large": 3, "compile_sweep": 5}
EDGE_SIZE = 64
EDGE_WARMUP = 3
#: seconds a program process may take to come up or answer at all
START_TIMEOUT = 120.0


class Failure(RuntimeError):
    """The benchmark could not run the workload at all."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Process:
    """A program process started from a fresh state; its stdout carries
    line-oriented events, its stderr goes to a log in the run dir."""

    def __init__(self, argv: List[str], run_dir: str, name: str):
        self.name = name
        self.state = common.fresh_state(run_dir, name)
        self.log_path = os.path.join(run_dir, f"{name}.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable] + argv, stdout=subprocess.PIPE,
            stderr=self._log, env=common.child_env(self.state),
            cwd=common.ROOT, text=True)
        _RUNNING.append(self)

    def readline(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise Failure(f"{self.name}: no output within {timeout}s"
                              f"{self.log_tail()}")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    raise Failure(f"{self.name} exited with "
                                  f"{self.proc.wait()}{self.log_tail()}")
                return line.rstrip("\n")

    def event(self, timeout: float) -> Dict[str, Any]:
        while True:
            doc = common.parse_line(self.readline(timeout))
            if doc is not None:
                return doc

    def log_tail(self) -> str:
        self._log.flush()
        with open(self.log_path) as fh:
            tail = fh.read()[-2000:]
        return f"\n--- {self.name} stderr ---\n{tail}" if tail else ""

    def finish(self, timeout: float = 90.0, terminate: bool = True) -> int:
        if terminate and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        if self in _RUNNING:
            _RUNNING.remove(self)
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.finish(timeout=30.0, terminate=False)


_RUNNING: List[Process] = []


class Server(Process):
    """``repro serve`` in its own process, through ``serve_launcher.py``."""

    def __init__(self, run_dir: str, trace: bool, name: str):
        self.dump_path = os.path.join(run_dir, f"{name}.json")
        super().__init__([os.path.join(common.BENCH_DIR,
                                       "serve_launcher.py"),
                          "--dump", self.dump_path,
                          "--trace", str(int(trace))], run_dir, name)
        line = self.readline(START_TIMEOUT)
        match = re.match(r"listening on http://([^:/]+):(\d+)", line)
        if not match:
            raise Failure(f"unexpected server banner {line!r}")
        from repro.serve.client import ServeClient
        self.client = ServeClient(match.group(1), int(match.group(2)),
                                  timeout=60.0)

    def stop(self) -> Dict[str, Any]:
        self.client.close()
        code = self.finish()
        if code != 0:
            raise Failure(f"server exited with {code}{self.log_tail()}")
        with open(self.dump_path) as fh:
            return json.load(fh)


def _stop_all() -> None:
    for process in list(_RUNNING):
        process.kill()


# ---------------------------------------------------------------------------
# serve_edge
# ---------------------------------------------------------------------------


def _serve_errors():
    from repro.serve.client import ServeError
    return (ServeError, OSError, ValueError, KeyError)


def _hist_delta(before: Dict, after: Dict, name: str) -> Tuple[float, float]:
    b, a = before.get("hist", {}), after.get("hist", {})
    return (a.get(f"{name}.sum", 0.0) - b.get(f"{name}.sum", 0.0),
            a.get(f"{name}.count", 0) - b.get(f"{name}.count", 0))


def serve_layers(dump: Dict[str, Any], window: Tuple[float, float],
                 rtt_ms: List[float], before: Dict, after: Dict
                 ) -> Dict[str, float]:
    """Per-layer metrics of a serve run: the server's spans, the
    client's round trips and the ``/metrics`` deltas."""
    import layers

    spans = dump["spans"]
    lo, hi = window
    handled = sum(s[3] - s[2] for s in spans
                  if s[0] == "serve.service_wait_ms" and s[1] is None
                  and s[3] is not None and lo <= s[2] <= hi)
    ops = len(rtt_ms)
    transport = (sum(rtt_ms) - handled * 1e3) / max(ops, 1)
    out = layers.layer_metrics(spans, [window], ops, sum(rtt_ms),
                               dump["span_cost_ms"],
                               {"serve.transport_ms": transport})
    wait_sum, wait_count = _hist_delta(before, after,
                                       "serve.hist.queue_wait_ms")
    requests = (after["serve"]["serve.requests"]
                - before["serve"]["serve.requests"])
    out["serve.queue_wait_ms"] = wait_sum / wait_count if wait_count else 0
    out["serve.requests"] = float(requests)
    return out


def run_serve_edge(args, run_dir: str) -> Dict[str, Any]:
    import numpy as np

    import inputs
    import reference

    rng = np.random.default_rng([args.seed, 3])
    setups = []
    server = None
    setup_ok = True
    for i in range(1 if args.trace else args.setups):
        start = time.monotonic()
        server = Server(run_dir, args.trace, f"serve_edge-{i}")
        for _ in range(1 + EDGE_WARMUP):
            frame = inputs.frame(rng, EDGE_SIZE, EDGE_SIZE)
            result = server.client.execute(frame, pipeline="edge")
            setup_ok &= reference.matches(result.image,
                                          reference.edge(frame))
        setups.append(time.monotonic() - start)
        if i < args.setups - 1 and not args.trace:
            server.stop()

    before = server.client.metrics()
    latencies: List[float] = []
    rtts: List[float] = []
    attempted = failed = launches = 0
    busy = 0.0
    errors = _serve_errors()
    window_start = time.monotonic()
    while busy < args.seconds:
        frame = inputs.frame(rng, EDGE_SIZE, EDGE_SIZE)
        attempted += 1
        t0 = time.monotonic()
        try:
            result = server.client.execute(frame, pipeline="edge")
        except errors as exc:
            print(f"request failed: {exc}", file=sys.stderr)
            result = None
        elapsed = time.monotonic() - t0
        busy += elapsed
        rtts.append(elapsed * 1e3)
        image = None
        if result is not None:
            launches += result.meta.get("launches", 0)
            image = _maybe_corrupt(args, attempted, result.image)
        if image is not None and reference.matches(
                image, reference.edge(frame)):
            latencies.append(elapsed * 1e3)
        else:
            failed += 1
    window_end = time.monotonic()
    after = server.client.metrics()
    dump = server.stop()

    figures = common.summarize_ops(latencies, busy,
                                   EDGE_SIZE * EDGE_SIZE * len(latencies))
    figures.update(setup_s=common.median(setups),
                   peak_rss_mb=dump["peak_rss_mb"])
    out = {"attempted": attempted, "failed": failed,
           "setup_ok": setup_ok, "figures": figures,
           "notes": {"ops": len(latencies), "setups": setups}}
    if args.trace:
        out["layers"] = serve_layers(dump, (window_start, window_end),
                                     rtts, before, after)
        out["layers"]["graph.launches"] = launches / max(len(rtts), 1)
    return out


def _maybe_corrupt(args, index: int, image):
    if args.corrupt_every and index % args.corrupt_every == 0:
        image = image.copy()
        image[0, 0] += 1.0
    return image


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def run_worker(args, run_dir: str) -> Dict[str, Any]:
    setups = []
    result = None
    runs = 1 if args.trace else args.setups
    for i in range(runs):
        last = i == runs - 1
        start = time.monotonic()
        worker = Process(
            [os.path.join(common.BENCH_DIR, "worker.py"), args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace)), "--measure", str(int(last)),
             "--tiny", str(int(args.tiny)),
             "--corrupt-every", str(args.corrupt_every)],
            run_dir, f"{args.workload}-{i}")
        ready = worker.event(START_TIMEOUT)
        setups.append(time.monotonic() - start)
        if last:
            result = worker.event(args.seconds + START_TIMEOUT)
        code = worker.finish(terminate=False)
        if code != 0:
            raise Failure(f"worker exited with {code}{worker.log_tail()}")
    latencies = result["latencies_ms"]
    figures = common.summarize_ops(latencies, result["busy_s"],
                                   result["pixels"])
    figures.update(setup_s=common.median(setups),
                   peak_rss_mb=result["peak_rss_mb"], **result["figures"])
    out = {"attempted": result["attempted"], "failed": result["failed"],
           "setup_ok": ready["ok"], "figures": figures,
           "notes": {"ops": len(latencies), "setups": setups}}
    if args.trace:
        out["layers"] = result["layers"]
    return out


WORKLOADS = {"serve_edge": run_serve_edge, "graph_large": run_worker,
             "compile_sweep": run_worker}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _layer_report(layers: Dict[str, float]) -> None:
    print("layer self time per op (traced run):")
    for name in sorted(PER_LAYER):
        if PER_LAYER[name] == "ms" and name != "serve.queue_wait_ms":
            print(f"  {name:<30} {common.fmt(layers.get(name, 0.0)):>12} ms")
    print(f"  {'op wall':<30} {common.fmt(layers['op_wall_ms']):>12} ms")
    print(f"native_graph.exec_ms is {layers['native_graph.exec_share']:.1%}"
          f" and sim.launch_ms {layers['sim.launch_share']:.1%} of op wall")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        dest="corrupt_every", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.setups = args.setups or SETUPS[args.workload]

    if not common.program_present():
        print(f"perfbench: no program sources under {common.SRC}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so every started process is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    common.scrub_environment()
    common.use_sources()
    run_dir = common.make_run_dir(args.workload)
    try:
        out = WORKLOADS[args.workload](args, run_dir)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        _stop_all()
        common.remove_run_dir(run_dir)

    attempted, failed = out["attempted"], out["failed"]
    figures = out["figures"]
    figures["failed_share"] = failed / attempted if attempted else 1.0
    correct = failed == 0 and out["setup_ok"]
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for key, value in common.host_facts().items():
        print(f"host.{key} {value}")
    for key, value in out["notes"].items():
        print(f"note.{key} {value}")
    print(f"attempted {attempted} failed {failed} "
          f"set-up outputs correct {out['setup_ok']}")
    for name, unit in {**END_TO_END, **REPORTED}.items():
        if name in figures:
            print(f"{name} {common.fmt(figures[name])} {unit}")
    if args.trace:
        layers = out["layers"]
        _layer_report(layers)
        metrics = {name: {"value": float(layers.get(name, 0.0)),
                          "unit": unit} for name, unit in PER_LAYER.items()}
        for name, entry in metrics.items():
            print(f"{name} {common.fmt(entry['value'])} {entry['unit']}")
    else:
        metrics = {name: {"value": float(figures[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
