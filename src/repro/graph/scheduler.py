"""Compile and execute a :class:`~repro.graph.builder.PipelineGraph`.

The scheduler turns the declarative graph into launches:

* **fusion** (optional) — adjacent point operators collapse into single
  synthesized kernels first (:mod:`repro.graph.fusion`), so the chain
  ships fewer launches and fewer intermediates;
* **concurrent compilation** — every node compiles on a thread pool
  through one shared PR-1 :class:`~repro.cache.CompilationCache`, so
  identical kernels (Sobel-x vs Sobel-y share a frontend, repeated
  pyramid levels share everything) are paid for once;
* **parallel execution** — nodes dispatch in dependency order with
  independent branches (e.g. Sobel-x ∥ Sobel-y) running concurrently on
  a thread pool; outputs are deterministic because every node writes its
  own image and dependencies impose the only ordering that matters;
* **buffer lifetimes** — each intermediate image is backed by the arena
  pool (:mod:`repro.graph.pool`) when its producer launches and released
  after its last consumer finishes, so peak footprint follows the live
  set of the schedule instead of the edge count.

All of that except the launches happens once: :func:`build_plan`
turns a graph into an immutable :class:`ExecutionPlan` (fused graph,
compiled nodes, native module or simulator schedule, memory layout,
footprints) and :meth:`ExecutionPlan.run` executes it over whatever
pixels its input images hold — compile once, bind many.
:func:`execute_graph` is one build followed by one run.

Every phase runs under a :mod:`repro.obs` span (``graph.plan`` wrapping
``graph.validate`` → ``graph.fuse`` → ``graph.lint`` → ``graph.compile``,
then ``graph.schedule`` with one ``graph.node`` per launch); work
submitted to the thread pools
carries the submitting span's id so worker-thread spans stitch back
under the scheduler in the exported trace.  The returned
:class:`~repro.graph.report.GraphReport` aggregates the per-node timing
breakdowns, cache hits, launch counts and pool/fusion stats that the
``repro graph`` CLI prints.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Dict, Optional, Tuple, Union

from ..cache.store import CompilationCache, get_default_cache
from ..dsl.image import Image
from ..errors import CodegenError, GraphError
from ..obs import child_of, current_id, get_registry, span
from ..obs.hist import observe
from ..runtime.compile import compile_ir, compile_kernel
from ..sim.launch import padding_alignment
from .builder import GraphNode, PipelineGraph
from .fusion import FusionStats, _full_cover, fuse_point_ops
from .pool import BufferPool, PoolStats
from .report import GraphReport, NodeReport

ENGINES = ("sim", "native", "auto")


def _resolve_cache(cache: Union[None, bool, CompilationCache]
                   ) -> Optional[CompilationCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return get_default_cache()
    return cache


def _resolve_pool(pool: Union[bool, BufferPool]) -> Optional[BufferPool]:
    """``True`` = fresh arena, ``False`` = unpooled, or bring your own
    (tests inspect a passed-in pool's stats after error paths)."""
    if pool is True:
        return BufferPool()
    if pool is False:
        return None
    return pool


def _compile_node(node: GraphNode,
                  store: Optional[CompilationCache],
                  tuned_engine: str = "sim") -> None:
    options = dict(node.options)
    # tuned-database winners are engine-specific (docs/TUNING.md): tell
    # the compile which tier this graph run targets unless the node
    # pinned its own
    options.setdefault("tuned_engine", tuned_engine)
    with span("graph.node_compile", node=node.name):
        # a DSL node an earlier pass (fusion, graph lint) already parsed
        # compiles from that IR: one parse per node per build.  Same
        # cache key and source as compile_kernel's own parse
        if node.ir is not None and options.get("bake_params", True):
            options.pop("bake_params", None)
            node.compiled = compile_ir(
                node.ir, node.accessor_objs, node.iteration_space,
                cache=store, **options)
        else:
            node.compiled = compile_kernel(node.kernel, cache=store,
                                           **options)


def compile_graph(graph: PipelineGraph,
                  cache: Union[None, bool, CompilationCache] = None,
                  workers: Optional[int] = None,
                  tuned_engine: str = "sim") -> float:
    """Compile every node (concurrently for ``workers != 1``) through one
    shared compilation cache; returns wall-clock milliseconds."""
    store = _resolve_cache(cache)
    with span("graph.compile", graph=graph.name) as sp:
        pending = [n for n in graph.nodes if n.compiled is None]
        if workers == 1 or len(pending) <= 1:
            for node in pending:
                _compile_node(node, store, tuned_engine)
        else:
            token = current_id()
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_stitched, token,
                                       _compile_node, n, store,
                                       tuned_engine)
                           for n in pending]
                for f in futures:
                    f.result()       # surface the first compile error
    return sp.duration_ms


def _node_footprint(node: GraphNode) -> Optional[Dict]:
    """The node's analyzed access footprint for its
    :class:`~repro.graph.report.NodeReport`, read off the IR its compile
    already holds (``None`` when the kernel cannot be analyzed)."""
    try:
        return node.compiled.ir.footprint().to_dict()
    except Exception:
        return None


def _padded_bytes(img: Image, device) -> int:
    """Bytes of *img* allocated at its launch padding on *device*."""
    stride = BufferPool.padded_stride(img.width, padding_alignment(device))
    return img.height * stride * img.pixel_type.np_dtype.itemsize


def _run_stitched(token, fn, *args):
    """Run *fn* in a worker thread with its spans parented to *token*."""
    with child_of(token):
        return fn(*args)


class _RunState:
    """The only mutable part of an :class:`ExecutionPlan`."""

    __slots__ = ("runs",)

    def __init__(self) -> None:
        self.runs = 0


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """A pipeline graph compiled once, ready to run many times.

    :func:`build_plan` derives everything here from the graph's
    structure exactly once: validation, fusion, graph lint, every node
    compile, the native module or the simulator schedule, the memory
    layout and the node footprints.  :meth:`run` only executes.  New
    pixels are bound by writing into the graph's input images
    (``Image.set_data``) before a run; outputs are read from the output
    images after it.

    A plan owns its graph's images and scratch buffers, so it must not
    run on two threads at once (``repro serve`` takes a plan out of its
    cache for the length of a run).
    """

    graph: PipelineGraph
    #: nodes in topological order, after fusion
    order: Tuple[GraphNode, ...]
    engine: str
    workers: Optional[int]
    store: Optional[CompilationCache]
    fusion: FusionStats
    diagnostics: Tuple
    compile_wall_ms: float
    #: the loaded native module and its scratch buffers (None = the
    #: simulator runs every node)
    native: Optional[object]
    executor: Optional[object]
    fallback_reason: Optional[str]
    #: runtime arena for the simulator engine's intermediates
    arena: Optional[BufferPool]
    #: the arena's live stats, or the static layout's accounting
    pool_stats: PoolStats
    #: bytes a naive executor would allocate for the intermediates
    naive_bytes: int
    intermediates: Tuple[Image, ...]
    #: produced images a node does not fully overwrite: zero-filled
    #: before every run after the first, so a rerun equals a fresh run
    zero_fill: Tuple[Image, ...]
    #: modelled device time of every natively executed node
    native_timing: Dict[str, object]
    footprints: Dict[str, Optional[Dict]]
    _state: _RunState = dataclasses.field(
        default_factory=_RunState, repr=False, compare=False)

    @property
    def engine_used(self) -> str:
        return "native" if self.native is not None else "sim"

    @property
    def nbytes(self) -> int:
        """Pixel memory the plan keeps alive between runs: every graph
        image, the native slab and external buffers, and the output
        copy each simulator launch's report holds."""
        images: Dict[int, int] = {}
        for node in self.order:
            for img in [node.output, *node.inputs]:
                images[id(img)] = img.bytes
        total = sum(images.values())
        native = set(self.native_timing)
        total += sum(node.output.bytes for node in self.order
                     if node.name not in native)
        if self.executor is not None:
            total += self.executor.nbytes
        return total

    def run(self, register_metrics: bool = True) -> GraphReport:
        """Execute the plan over the current contents of its input
        images; returns this run's :class:`GraphReport`.

        *register_metrics* installs the run's pool/cache stats as the
        process registry's ``pool``/``cache`` sources (see
        :func:`execute_graph`).
        """
        arena = self.arena
        if self._state.runs:
            # restore what a freshly built graph would start from
            for img in self.zero_fill:
                img.pixels.fill(0)
            if arena is not None:
                arena.reset()
        self._state.runs += 1
        if arena is not None:
            arena.stats.naive_bytes += self.naive_bytes
        if register_metrics:
            registry = get_registry()
            registry.register_source("pool", self.pool_stats.metrics)
            if self.store is not None:
                registry.register_source("cache",
                                         self.store.stats.metrics)

        node_wall_ms: Dict[str, float] = {}
        node_engine: Dict[str, str] = {}
        with span("graph.schedule", workers=self.workers or 0) as sp:
            try:
                if self.native is not None:
                    sp.attrs["engine"] = "native"
                    self._run_native(node_wall_ms, node_engine)
                # match compile_graph's short-circuit: a single-node
                # graph (or workers=1) runs serially — no executor for
                # one launch
                elif self.workers == 1 or len(self.order) <= 1:
                    run_node = self._node_runner(node_wall_ms)
                    for node in self.order:
                        run_node(node)
                else:
                    _run_parallel(self.graph, list(self.order),
                                  self._node_runner(node_wall_ms),
                                  self.workers)
            finally:
                if arena is not None:
                    # normal completion has already released everything
                    # via consumer counting; after a mid-schedule fault
                    # this is what returns current_bytes to zero
                    arena.release_all()
        exec_wall_ms = sp.duration_ms
        observe("graph.hist.execute_ms", exec_wall_ms)
        for wall in node_wall_ms.values():
            observe("graph.hist.node_wall_ms", wall)
        return self._report(node_wall_ms, node_engine, exec_wall_ms)

    def _node_runner(self, node_wall_ms: Dict[str, float]):
        """One simulator launch per call, binding the node's pooled
        output first and releasing inputs after their last consumer."""
        arena = self.arena
        pooled = {id(img) for img in self.intermediates} \
            if arena is not None else set()
        remaining = {id(img): len(self.graph.consumers_of(img))
                     for img in self.intermediates} \
            if arena is not None else {}
        # the decrement below is a read-modify-write racing across branch
        # workers; without the lock two consumers finishing at once could
        # both read the same count and either double-release a buffer or
        # leak it (current_bytes drift)
        consumers_lock = threading.Lock()

        def run_node(node: GraphNode) -> None:
            with span("graph.node", node=node.name) as sp:
                if id(node.output) in pooled:
                    arena.bind(node.output,
                               padding_alignment(node.compiled.device))
                node.report = node.compiled.execute()
                for img in node.inputs:
                    key = id(img)
                    with consumers_lock:
                        left = remaining.get(key)
                        if left is None:
                            continue
                        left -= 1
                        remaining[key] = left
                    if left == 0:
                        arena.release(img)
            node_wall_ms[node.name] = sp.duration_ms

        return run_node

    def _run_native(self, node_wall_ms: Dict[str, float],
                    node_engine: Dict[str, str]) -> None:
        """Walk the interleaved native schedule serially: compiled
        segments via ctypes, ineligible nodes through the simulator."""
        plan = self.native.plan
        for kind, idx in plan.schedule:
            if kind == "native":
                seg = plan.segments[idx]
                with span("native.exec", segment=idx,
                          nodes=len(seg)) as seg_sp:
                    self.executor.run_segment(idx)
                # the segment is one call: attribute its wall clock
                # evenly (device time stays the modelled estimate)
                per_node = seg_sp.duration_ms / len(seg)
                for node_idx in seg:
                    name = self.order[node_idx].name
                    node_wall_ms[name] = per_node
                    node_engine[name] = "native"
            else:
                node = self.order[idx]
                with span("graph.node", node=node.name) as nsp:
                    node.report = node.compiled.execute()
                node_wall_ms[node.name] = nsp.duration_ms

    def _report(self, node_wall_ms: Dict[str, float],
                node_engine: Dict[str, str],
                exec_wall_ms: float) -> GraphReport:
        node_reports = []
        for n in self.order:
            eng = node_engine.get(n.name, "sim")
            if eng == "native":
                # native segments run for real; device time stays the
                # *modelled* estimate so reports are engine-comparable
                timing = self.native_timing[n.name]
                time_ms = timing.total_ms
            else:
                timing = n.report.timing
                time_ms = n.report.time_ms
            node_reports.append(NodeReport(
                name=n.name,
                kernel=n.label(),
                device=n.compiled.device.name,
                backend=n.compiled.options.backend,
                block=tuple(n.compiled.options.block),
                time_ms=time_ms,
                timing=timing,
                compile_ms=n.compiled.compile_ms,
                from_cache=n.compiled.from_cache,
                fused_from=n.fused_from,
                wall_ms=node_wall_ms.get(n.name, 0.0),
                stage_timings=dict(n.compiled.stage_timings),
                engine=eng,
                footprint=self.footprints[n.name],
            ))
        return GraphReport(
            graph_name=self.graph.name,
            nodes=node_reports,
            fusion=self.fusion,
            pool=self.pool_stats,
            compile_wall_ms=self.compile_wall_ms,
            execute_wall_ms=exec_wall_ms,
            cache_stats=(self.store.stats.as_dict()
                         if self.store is not None else None),
            diagnostics=list(self.diagnostics),
            engine=self.engine,
            engine_used=self.engine_used,
            fallback_reason=self.fallback_reason,
        )


def build_plan(graph: PipelineGraph,
               cache: Union[None, bool, CompilationCache] = None,
               workers: Optional[int] = None,
               fuse: bool = True,
               pool: Union[bool, BufferPool] = True,
               engine: str = "sim",
               lint: bool = True) -> ExecutionPlan:
    """Validate, fuse, lint and compile *graph* into an
    :class:`ExecutionPlan`; the arguments mean what they mean for
    :func:`execute_graph`.  The graph is fused in place and its nodes
    keep their compiled kernels: the plan owns it from here on."""
    if engine not in ENGINES:
        raise GraphError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    with span("graph.plan", graph=graph.name, engine=engine):
        with span("graph.validate", graph=graph.name):
            graph.validate()

        fusion_stats = FusionStats(nodes_before=len(graph.nodes),
                                   nodes_after=len(graph.nodes))
        if fuse:
            with span("graph.fuse"):
                fusion_stats = fuse_point_ops(graph)
                graph.validate()     # a bad merge must fail loudly

        # graph lint runs after fusion so HIP302 explains exactly the
        # pairs the fuser declined, not ones it was about to merge anyway
        graph_diags = []
        if lint:
            from ..lint import lint_graph
            from ..lint.collect import emit
            with span("graph.lint"):
                graph_diags = lint_graph(graph)
                emit(graph_diags)

        store = _resolve_cache(cache)
        compile_wall_ms = compile_graph(
            graph, cache=store, workers=workers,
            tuned_engine="native" if engine in ("native", "auto")
            else "sim")
        observe("graph.hist.compile_ms", compile_wall_ms)

        order = graph.topological_order()

        # -- engine selection -------------------------------------------
        native_module = None
        fallback_reason = None
        if engine in ("native", "auto"):
            from ..runtime.native_graph import compile_native_graph
            try:
                native_module = compile_native_graph(graph, order,
                                                     cache=store)
            except CodegenError as exc:
                # transparent fallback: no C compiler, or nothing
                # eligible
                fallback_reason = str(exc)

        # -- memory layout ----------------------------------------------
        # the native tier replaces the runtime arena with its
        # compile-time slab; only the simulator engine pools at runtime
        arena = _resolve_pool(pool) if native_module is None else None
        intermediates = graph.intermediates()
        # naive baseline: every intermediate individually allocated at
        # its launch padding, all simultaneously live
        naive = sum(_padded_bytes(img, graph.producer_of(img)
                                  .compiled.device)
                    for img in intermediates)
        executor = None
        native_timing: Dict[str, object] = {}
        managed = set()              # images a run re-zeroes by itself
        if native_module is not None:
            # slab high-water plus any intermediates left external
            # (touched by simulator-fallback nodes — individually
            # materialised)
            plan = native_module.plan
            ext_inter = [img for img in intermediates
                         if plan.bindings.get(id(img)) is None
                         or plan.bindings[id(img)].kind == "ext"]
            pool_stats = PoolStats(
                naive_bytes=naive,
                peak_bytes=plan.slab_bytes + sum(
                    _padded_bytes(img, graph.producer_of(img)
                                  .compiled.device)
                    for img in ext_inter),
                allocs=plan.slab_allocs + len(ext_inter),
                reuses=plan.slab_reuses)
            executor = native_module.executor()
            for seg in plan.segments:
                for idx in seg:
                    node = order[idx]
                    native_timing[node.name] = \
                        node.compiled.estimate_time()
            managed = {key for key, b in plan.bindings.items()
                       if b.kind == "slab"}
        elif arena is None:
            # unpooled execution allocates every intermediate for the
            # whole run — peak IS the naive footprint
            pool_stats = PoolStats(naive_bytes=naive, peak_bytes=naive)
        else:
            pool_stats = arena.stats
            managed = {id(img) for img in intermediates}
        zero_fill = tuple(n.output for n in order
                          if not _full_cover(n)
                          and id(n.output) not in managed)

        return ExecutionPlan(
            graph=graph,
            order=tuple(order),
            engine=engine,
            workers=workers,
            store=store,
            fusion=fusion_stats,
            diagnostics=tuple(graph_diags),
            compile_wall_ms=compile_wall_ms,
            native=native_module,
            executor=executor,
            fallback_reason=fallback_reason,
            arena=arena,
            pool_stats=pool_stats,
            naive_bytes=naive,
            intermediates=tuple(intermediates),
            zero_fill=zero_fill,
            native_timing=native_timing,
            footprints={n.name: _node_footprint(n) for n in order},
        )


def execute_graph(graph: PipelineGraph,
                  cache: Union[None, bool, CompilationCache] = None,
                  workers: Optional[int] = None,
                  fuse: bool = True,
                  pool: Union[bool, BufferPool] = True,
                  engine: str = "sim",
                  register_metrics: bool = True,
                  lint: bool = True) -> GraphReport:
    """Validate, fuse, compile and run *graph*; returns the
    :class:`GraphReport`.  This is ``build_plan(graph, ...).run(...)``:
    callers that run one structure over many inputs keep the
    :class:`ExecutionPlan` instead.

    *workers* sizes both the compile pool and the execution pool
    (``1`` forces fully serial operation — useful as the determinism
    baseline; single-node graphs always run serially, no executor is
    spun up for them); *fuse* toggles point-operator fusion; *pool*
    toggles the intermediate buffer arena (or accepts a
    :class:`~repro.graph.pool.BufferPool` to use).  *cache* is shared
    by every node compile (``True`` = process default).

    *engine* selects the execution tier: ``"sim"`` (Python simulator,
    the default and the oracle), ``"native"`` (compiled graph segments
    via :mod:`repro.runtime.native_graph`, simulator fallback per
    ineligible node), or ``"auto"`` (native when a C compiler is on
    PATH, simulator otherwise).  Native/auto fall back transparently to
    the simulator when native compilation is impossible; the report's
    ``engine_used``/``fallback_reason`` say what actually ran.

    *register_metrics* controls whether this run's pool/cache stats are
    installed as the process-wide registry's ``pool``/``cache`` sources.
    Hosts that execute many graphs concurrently pass ``False`` and
    register one aggregate source of their own instead, so parallel
    runs do not race to overwrite the global slots.

    *lint* toggles the HIP3xx graph-lint pass.  It is advisory (it
    never changes what executes); hosts that build many throwaway
    graphs (the auto-tuner's one-node trial graphs) skip it.
    """
    with span("graph.run", graph=graph.name, engine=engine) as run_span:
        report = build_plan(graph, cache=cache, workers=workers,
                            fuse=fuse, pool=pool, engine=engine,
                            lint=lint).run(
                                register_metrics=register_metrics)
        run_span.attrs["launches"] = report.launches
        run_span.attrs["engine_used"] = report.engine_used
        return report


def _run_parallel(graph: PipelineGraph, order, run_node,
                  workers: Optional[int]) -> None:
    """Dependency-counting dispatch: a node is submitted the moment its
    producers finish, so independent branches overlap."""
    deps = {n.name: {d.name for d in graph.dependencies(n)} for n in order}
    dependents: Dict[str, list] = {n.name: [] for n in order}
    by_name = {n.name: n for n in order}
    for n in order:
        for d in deps[n.name]:
            dependents[d].append(n.name)
    token = current_id()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        running = {}

        def submit(node):
            fut = pool.submit(_run_stitched, token, run_node, node)
            running[fut] = node.name

        for n in order:
            if not deps[n.name]:
                submit(n)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                finished = running.pop(fut)
                fut.result()     # propagate launch faults
                for dep_name in dependents[finished]:
                    deps[dep_name].discard(finished)
                    if not deps[dep_name]:
                        submit(by_name[dep_name])
