"""Per-layer self time for the traced run, measured from outside the
program.

:func:`install` wraps the public entry points of each layer of
``repro`` in place.  Every module attribute that refers to a wrapped
function is replaced, so callers that imported the name into their own
namespace (the scheduler's ``fuse_point_ops``, the service's
``execute_graph``) resolve the wrapper too.  A target that no longer
exists raises at install time instead of reading zero.

Each wrapped call records a span ``[metric, parent, start, end,
counts]`` in memory.  A layer's **self time** is its spans' durations
minus the part of each interval covered by child spans.  Work handed to
another thread keeps its parent: the graph scheduler's pool tasks and
the serve worker executing a request are linked back to the span that
submitted them.  Timestamps are ``time.monotonic()``, which is one
clock for every process of the host, so spans recorded in the server
can be cut to the client's measurement windows.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (metric, "module:qualname" targets) — self time in ms per op
TIMED: List[Tuple[str, Tuple[str, ...]]] = [
    ("serve.service_wait_ms", ("repro.serve.service:ServeService.handle",)),
    ("serve.protocol_ms", ("repro.serve.protocol:decode_image",
                           "repro.serve.protocol:encode_image",
                           "repro.serve.protocol:request_fingerprint")),
    ("serve.plan_ms", ("repro.serve.planner:plan_request",)),
    ("graph.run_self_ms", ("repro.graph.scheduler:execute_graph",)),
    ("graph.fuse_ms", ("repro.graph.fusion:fuse_point_ops",)),
    ("graph.compile_self_ms", ("repro.graph.scheduler:compile_graph",)),
    ("graph.lint_ms", ("repro.lint:lint_graph",)),
    ("runtime.compile_self_ms", ("repro.runtime.compile:compile_kernel",
                                 "repro.runtime.compile:compile_ir")),
    ("cache.get_ms", ("repro.cache.store:CompilationCache.get",
                      "repro.cache.store:CompilationCache.get_artifact",
                      "repro.cache.store:CompilationCache.frontend_get",
                      "repro.cache.store:CompilationCache.lint_get")),
    ("cache.put_ms", ("repro.cache.store:CompilationCache.put",
                      "repro.cache.store:CompilationCache.put_artifact",
                      "repro.cache.store:CompilationCache.frontend_put",
                      "repro.cache.store:CompilationCache.lint_put")),
    ("frontend.parse_ms", ("repro.frontend.parser:parse_kernel",
                           "repro.ir.typecheck:typecheck_kernel")),
    ("lint.verify_ms", ("repro.lint:lint_ir",)),
    ("lint.absint_ms", ("repro.lint.absint:interpret",
                        "repro.lint.footprint:compute_footprint")),
    ("backends.codegen_ms", ("repro.backends.base:generate",)),
    ("hwmodel.resources_ms", ("repro.hwmodel.resources:estimate_resources",)),
    ("mapping.select_ms", ("repro.mapping.heuristic:select_configuration",)),
    ("sim.estimate_ms", ("repro.sim.timing:estimate_time",)),
    ("native_graph.compile_ms",
     ("repro.runtime.native_graph:compile_native_graph",)),
    ("native_graph.plan_ms",
     ("repro.runtime.native_graph:plan_native_graph",)),
    ("native_graph.emit_ms",
     ("repro.runtime.native_graph:emit_graph_source",)),
    ("native_graph.fingerprint_ms",
     ("repro.runtime.native_graph:graph_fingerprint",)),
    ("native_graph.prove_ms",
     ("repro.runtime.native_graph:prove_ineligibility",)),
    ("native_graph.exec_ms",
     ("repro.runtime.native_graph:NativeGraphExecutor.run_segment",)),
    ("sim.launch_ms", ("repro.sim.launch:simulate_launch",)),
]

TIMED_METRICS = [metric for metric, _ in TIMED]


def _count_compile(args, result) -> Dict[str, int]:
    return {"compile_calls": 1}


def _count_get(args, result) -> Dict[str, int]:
    return {"ir_lookups": 1, "ir_hits": int(result is not None)}


def _count_frontend(args, result) -> Dict[str, int]:
    return {"frontend_lookups": 1, "frontend_hits": int(result is not None)}


def _count_source(args, result) -> Dict[str, int]:
    return {"source_bytes": len(result.device_code)}


def _count_native(args, result) -> Dict[str, int]:
    return {"cc_runs": int(result.origin == "fresh")}


def _count_segment(args, result) -> Dict[str, int]:
    executor, k = args[0], args[1]
    return {"native_nodes": len(executor.module.plan.segments[k])}


def _count_launch(args, result) -> Dict[str, int]:
    return {"sim_launches": 1}


#: target -> counts(args, result) recorded on the target's span
COUNTERS: Dict[str, Callable[[tuple, Any], Dict[str, int]]] = {
    "repro.runtime.compile:compile_kernel": _count_compile,
    "repro.runtime.compile:compile_ir": _count_compile,
    "repro.cache.store:CompilationCache.get": _count_get,
    "repro.cache.store:CompilationCache.frontend_get": _count_frontend,
    "repro.backends.base:generate": _count_source,
    "repro.runtime.native_graph:compile_native_graph": _count_native,
    "repro.runtime.native_graph:NativeGraphExecutor.run_segment":
        _count_segment,
    "repro.sim.launch:simulate_launch": _count_launch,
}


class Recorder:
    """In-memory span log shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: serve: id(request body) -> span index of its handle() call
        self.request_spans: Dict[int, int] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Index of the innermost open span of this thread, or the span
        another thread linked it to."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "link", None)

    def linked(self, parent: Optional[int], fn, *args, **kwargs):
        """Run *fn* with this thread's top-level spans parented to
        *parent* (a span recorded on another thread)."""
        saved = getattr(self._local, "link", None)
        self._local.link = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.link = saved

    def wrap(self, fn: Callable, metric: str,
             counter: Optional[Callable] = None) -> Callable:
        spans, lock = self.spans, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [metric, self.current(), 0.0, None, None]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.monotonic()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, result)
            return result

        return wrapper

    def dump(self) -> List[list]:
        """Every span so far; a span still open has end ``None``."""
        with self._lock:
            return [list(s) for s in self.spans]


def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _import_program() -> None:
    """Load every ``repro`` module so each imported alias of a target
    exists before the aliases are rebound."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name in ("repro.__main__",):
            continue
        importlib.import_module(info.name)


def install(recorder: Recorder) -> Dict[str, int]:
    """Wrap every target of :data:`TIMED`; returns the number of
    bindings replaced per target.  Raises when a target is missing."""
    _import_program()
    # the links go on first, so the span wrappers sit outside them
    _link_threads(recorder)
    replaced: Dict[str, int] = {}
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "repro"
                                     or name.startswith("repro."))]
    for metric, targets in TIMED:
        for target in targets:
            owner, attr, original = _resolve(target)
            wrapper = recorder.wrap(original, metric, COUNTERS.get(target))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                replaced[target] = 1
                continue
            count = 0
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        count += 1
            replaced[target] = count
    return replaced


def _link_threads(recorder: Recorder) -> None:
    """Keep parents across the thread hand-offs of the scheduler and of
    the serve worker pool."""
    from repro.graph import scheduler
    from repro.serve import service

    current_id, run_stitched = scheduler.current_id, scheduler._run_stitched

    def linked_current_id():
        return (current_id(), recorder.current())

    def linked_run_stitched(token, fn, *args):
        program_token, parent = token
        return recorder.linked(parent, run_stitched, program_token, fn,
                               *args)

    scheduler.current_id = linked_current_id
    scheduler._run_stitched = linked_run_stitched

    handle = service.ServeService.handle
    run_group = service.ServeService._run_group

    def linked_handle(self, body):
        # runs inside the span wrapper of handle(): note that span so
        # the worker that executes this body can parent to it
        recorder.request_spans[id(body)] = recorder.current()
        try:
            return handle(self, body)
        finally:
            recorder.request_spans.pop(id(body), None)

    def linked_run_group(self, group):
        parent = recorder.request_spans.get(id(group[0].body))
        return recorder.linked(parent, run_group, self, group)

    service.ServeService.handle = functools.wraps(handle)(linked_handle)
    service.ServeService._run_group = linked_run_group


def calibrate(samples: int = 20000) -> float:
    """Cost of one recorded span in ms (wrapped minus bare call)."""
    def bare():
        return None

    wrapped = Recorder().wrap(bare, "calibration")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(samples):
            bare()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / samples * 1e3)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: List[list], windows: List[Tuple[float, float]]
               ) -> Tuple[Dict[str, float], Dict[str, int], int, float]:
    """Sum self ms per metric and counts over spans whose root started
    inside one of the sorted, disjoint *windows* (the timed parts of a
    run); also returns how many spans were counted and the ms of wall
    time at least one of them covers.  Spans on concurrent threads can
    sum to more self time than wall time; their cover cannot."""
    n = len(spans)
    children: List[List[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[1] is not None and s[1] < n:
            children[s[1]].append(i)
    root_start: List[Optional[float]] = [None] * n

    def start_of_root(i: int) -> float:
        path = []
        while root_start[i] is None:
            parent = spans[i][1]
            if parent is None or parent >= n:
                root_start[i] = spans[i][2]
                break
            path.append(i)
            i = parent
        value = root_start[i]
        for j in path:
            root_start[j] = value
        return value

    starts = [lo for lo, _ in windows]

    def timed(t: float) -> bool:
        k = bisect.bisect_right(starts, t) - 1
        return k >= 0 and t <= windows[k][1]

    totals = {metric: 0.0 for metric in TIMED_METRICS}
    counts: Dict[str, int] = {}
    used = 0
    intervals = []
    for i, s in enumerate(spans):
        if s[3] is None or not timed(start_of_root(i)):
            continue
        used += 1
        t0, t1 = s[2], s[3]
        intervals.append((t0, t1))
        covered = 0.0
        cursor = t0
        for c0, c1 in sorted((spans[c][2], spans[c][3])
                             for c in children[i]
                             if spans[c][3] is not None):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        totals[s[0]] = totals.get(s[0], 0.0) + (t1 - t0 - covered) * 1e3
        for key, value in (s[4] or {}).items():
            counts[key] = counts.get(key, 0) + value
    cover = 0.0
    cursor = float("-inf")
    for t0, t1 in sorted(intervals):
        t0 = max(t0, cursor)
        if t1 > t0:
            cover += t1 - t0
            cursor = t1
    return totals, counts, used, cover * 1e3


def layer_metrics(spans: List[list], windows: List[Tuple[float, float]],
                  ops: int, op_wall_ms: float, span_cost_ms: float,
                  extra_ms: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-op layer metrics from one process's spans, which cover one
    fresh start of the program; ``native_graph.cc_runs`` counts the C
    builds of that whole start.

    *extra_ms* holds per-op self times measured outside the spans (the
    client's transport time); they count as covered time.
    """
    totals, counts, used, cover_ms = self_times(spans, windows)
    # C builds happen during set-up, outside the timed windows, so they
    # are counted over every span of the process: one fresh start
    fresh_builds = sum((s[4] or {}).get("cc_runs", 0) for s in spans)
    per_op = max(ops, 1)
    out = {metric: totals[metric] / per_op for metric in TIMED_METRICS}
    out.update(extra_ms or {})
    wall = op_wall_ms / per_op
    native = counts.get("native_nodes", 0)
    launches = counts.get("sim_launches", 0)
    ir_lookups = counts.get("ir_lookups", 0)
    fe_lookups = counts.get("frontend_lookups", 0)
    out.update({
        "runtime.compile_calls": counts.get("compile_calls", 0) / per_op,
        "backends.source_bytes": counts.get("source_bytes", 0) / per_op,
        "native_graph.cc_runs": float(fresh_builds),
        "native_graph.node_share": (native / (native + launches)
                                    if native + launches else 0.0),
        "native_graph.nodes": (native + launches) / per_op,
        "sim.launches": launches / per_op,
        "cache.ir_hit_ratio": (counts.get("ir_hits", 0) / ir_lookups
                               if ir_lookups else 0.0),
        "cache.ir_lookups": ir_lookups / per_op,
        "cache.frontend_hit_ratio": (counts.get("frontend_hits", 0)
                                     / fe_lookups if fe_lookups else 0.0),
        "cache.frontend_lookups": fe_lookups / per_op,
        "op_wall_ms": wall,
        "native_graph.exec_share": (out["native_graph.exec_ms"] / wall
                                    if wall > 0 else 0.0),
        "sim.launch_share": (out["sim.launch_ms"] / wall
                             if wall > 0 else 0.0),
        "other.self_ms": (wall - cover_ms / per_op
                          - sum((extra_ms or {}).values())),
        "trace.overhead_ratio": (used * span_cost_ms / op_wall_ms
                                 if op_wall_ms > 0 else 0.0),
        "trace.spans": used / per_op,
    })
    return out
