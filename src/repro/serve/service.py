"""The serve request engine: queue, batching window, dedup, workers.

Lifecycle of one request::

    handle() -> submit() -> [bounded queue] -> dispatcher thread
        -> batching window -> group by fingerprint -> worker pool
        -> bind + run the cached plan (once per group) -> wake every waiter

The **dispatcher** is a single thread that sleeps until work arrives,
keeps collecting for ``batch_window_ms`` so concurrent identical
requests land in the same batch, then groups the drained batch by
:func:`~repro.serve.protocol.request_fingerprint`.  Each group is
handed to the worker pool as *one* unit: it plans once, executes once,
and every member request receives the same response document
(``serve.dedup_hits`` counts the members that got an answer without an
execution of their own).

The service keeps one LRU of idle built
:class:`~repro.graph.scheduler.ExecutionPlan` objects keyed by request
*structure* (:func:`~repro.serve.protocol.plan_key`: the work, target,
engine and image dtype/shape, not the pixels) and bounded by
:data:`PLAN_CACHE_BYTES`.  A request whose structure has no idle plan
builds one — validate, fuse, compile, native module, memory layout;
otherwise the worker takes an idle plan, copies the decoded pixels into
its source image, runs it and encodes the output.  A plan is out of the
LRU while it runs and goes back before its waiters are woken, so no plan
ever runs on two threads, and concurrent requests of one structure each
run their own copy.  All workers share one process-wide
:class:`~repro.cache.CompilationCache`, whose per-key single-flight
locking makes N concurrent builds of the same kernel compile it once.

Robustness is explicit state, not best effort:

* the queue is bounded — :meth:`ServeService.submit` raises
  :class:`QueueFull` (HTTP 429 + Retry-After) instead of buffering
  without limit;
* every request carries a deadline — waiters that hit it get
  :class:`RequestTimedOut` (HTTP 504); a group whose waiters have *all*
  given up before execution starts is cancelled without executing;
* :meth:`ServeService.drain` (SIGTERM) stops intake, rejects whatever
  is still queued as retriable (HTTP 503), waits for in-flight groups
  to finish, and leaves the cache and plans intact for inspection.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..cache import CompilationCache
from ..dsl.image import Image
from ..graph.pool import PoolStats
from ..graph.scheduler import ExecutionPlan, build_plan
from ..obs import get_registry, span
from ..obs.hist import get_histograms, observe
from ..obs.log import log_event, new_request_id
from ..obs.schema import SERVE_COUNTERS
from .planner import plan_request
from .protocol import (PROTOCOL_VERSION, ProtocolError, decode_image,
                       encode_image, error_response, plan_key,
                       request_fingerprint)

#: budget of the service's idle execution plans, in bytes.  Each plan
#: is charged its pixel memory (:attr:`ExecutionPlan.nbytes`) plus
#: :data:`PLAN_ENTRY_BYTES` for the graph, compiled kernels and native
#: module it pins; a plan larger than the whole budget runs once and is
#: not kept.  64 MiB is the smallest power of two that keeps one 1024²
#: ``edge`` plan (``nbytes`` 40 MiB native, 36 MiB simulator)
PLAN_CACHE_BYTES = 64 * 1024 * 1024
#: above the resident memory a kept ``edge`` plan holds beyond its
#: ``nbytes``: about 40 KiB (simulator) and 190 KiB (native) at 64²
PLAN_ENTRY_BYTES = 256 * 1024

#: the cumulative ``pool.*`` counters; the others are per-run gauges
_POOL_TOTALS = ("pool.allocs", "pool.reuses", "pool.releases")


class ServeRejected(RuntimeError):
    """Base for submissions the service refused; carries the HTTP
    status and response document the front door should send."""

    http_status = 500
    code = "rejected"

    def __init__(self, message: str, **extra: Any):
        super().__init__(message)
        self.doc = error_response(self.code, message, **extra)


class QueueFull(ServeRejected):
    """Load shed: the bounded queue is at capacity (HTTP 429)."""

    http_status = 429
    code = "queue_full"


class Draining(ServeRejected):
    """The service is shutting down; retry against a healthy instance
    (HTTP 503, retriable)."""

    http_status = 503
    code = "draining"


class RequestTimedOut(ServeRejected):
    """The per-request deadline expired before a result was ready
    (HTTP 504).  The shared execution may still complete for other
    waiters; this waiter just stopped caring."""

    http_status = 504
    code = "timeout"


@dataclasses.dataclass
class ServeConfig:
    """Tunables for one :class:`ServeService` instance."""

    #: worker threads executing request groups
    workers: int = 2
    #: how long the dispatcher keeps collecting after the first request
    #: of a batch arrives; 0 disables coalescing (every request is its
    #: own group unless already queued together)
    batch_window_ms: float = 4.0
    #: submissions beyond this many pending requests — awaiting
    #: dispatch or awaiting a worker — are shed (429)
    queue_limit: int = 64
    #: deadline for requests that do not carry ``timeout_ms``
    default_timeout_ms: float = 30000.0
    #: engine for requests that do not name one
    engine: str = "auto"
    #: intra-graph scheduler workers; 1 keeps each request serial and
    #: leaves concurrency to the request-level worker pool
    graph_workers: int = 1
    #: Retry-After seconds advertised on 429/503
    retry_after_s: float = 1.0
    #: largest fingerprint-group batch one dispatch drains (backstop so
    #: one window cannot monopolise the pool)
    max_batch: int = 256


class ServeStats:
    """Thread-safe counters for the ``serve.*`` metrics namespace."""

    _FIELDS = SERVE_COUNTERS

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self._FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {field: getattr(self, field)
                    for field in self._FIELDS}


@dataclasses.dataclass
class _CachedPlan:
    """A built plan for one request structure."""

    plan: ExecutionPlan
    source: Image
    output: Image
    nbytes: int


class _PlanCache:
    """The service's LRU of idle execution plans, bounded by plan bytes.

    Each key holds a list of idle plans: :meth:`take` hands one out for
    a run and :meth:`put` returns it, so a running plan is never handed
    out twice.  Plans that leave for good (evicted, too large, failed)
    go through :meth:`retire`, which keeps their cumulative ``pool.*``
    counters so the summed metrics never run backwards."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.nbytes = 0
        self._idle: "collections.OrderedDict[str, List[_CachedPlan]]" = \
            collections.OrderedDict()
        #: every plan handed out or idle, by identity
        self._live: Dict[int, _CachedPlan] = {}
        self._retired: Dict[str, int] = dict.fromkeys(_POOL_TOTALS, 0)
        self._lock = threading.Lock()

    def take(self, key: str) -> Optional[_CachedPlan]:
        """Remove and return an idle plan for *key*, or None."""
        with self._lock:
            plans = self._idle.get(key)
            if not plans:
                return None
            entry = plans.pop()
            if not plans:
                del self._idle[key]
            self.nbytes -= entry.nbytes
            return entry

    def put(self, key: str, entry: _CachedPlan) -> int:
        """Keep *entry* as the most recent idle plan, evicting the least
        recent ones until the budget holds; returns how many went."""
        if entry.nbytes > self.capacity:
            self.retire(entry)
            return 0
        evicted = 0
        with self._lock:
            while self.nbytes + entry.nbytes > self.capacity:
                old_key, plans = next(iter(self._idle.items()))
                old = plans.pop(0)
                if not plans:
                    del self._idle[old_key]
                self.nbytes -= old.nbytes
                self._retire_locked(old)
                evicted += 1
            self._idle.setdefault(key, []).append(entry)
            self._idle.move_to_end(key)
            self.nbytes += entry.nbytes
            self._live[id(entry)] = entry
        return evicted

    def retire(self, entry: _CachedPlan) -> None:
        """Drop *entry* for good, keeping its cumulative counters."""
        with self._lock:
            self._retire_locked(entry)

    def _retire_locked(self, entry: _CachedPlan) -> None:
        self._live.pop(id(entry), None)
        metrics = entry.plan.pool_stats.metrics()
        for key in _POOL_TOTALS:
            self._retired[key] += metrics[key]

    def pool_metrics(self) -> Dict[str, float]:
        """Every live plan's ``pool.*`` stats summed, plus the
        cumulative counters of the retired ones."""
        with self._lock:
            entries = list(self._live.values())
            total: Dict[str, float] = dict.fromkeys(
                PoolStats().metrics(), 0)
            total.update(self._retired)
        for entry in entries:
            for key, value in entry.plan.pool_stats.metrics().items():
                total[key] += value
        return total


@dataclasses.dataclass
class _Pending:
    """One submitted request waiting for its group's result."""

    body: Dict[str, Any]
    fingerprint: str
    deadline: float
    #: id minted at intake; echoed in the response, the structured log
    #: and the ``serve.*`` span attrs
    request_id: str = ""
    #: monotonic intake time — queue-wait/request-latency histograms
    submitted_at: float = 0.0
    done: threading.Event = dataclasses.field(
        default_factory=threading.Event)
    #: (http_status, response_doc) once done is set
    result: Optional[Tuple[int, Dict[str, Any]]] = None
    #: flipped by a waiter that stopped waiting; cancellation checks it
    abandoned: bool = False

    def finish(self, status: int, doc: Dict[str, Any]) -> None:
        self.result = (status, doc)
        self.done.set()


class ServeService:
    """The long-running request engine behind the HTTP front door."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 cache: Optional[CompilationCache] = None):
        self.config = config or ServeConfig()
        if cache is None:
            from ..cache import get_default_cache
            cache = get_default_cache()
        self.cache = cache
        self.stats = ServeStats()
        self._queue: Deque[_Pending] = collections.deque()
        self._lock = threading.Lock()
        # two conditions on the one lock, so a notify can never be
        # consumed by the wrong kind of waiter: only the dispatcher
        # waits on _queue_wake (intake), only workers wait on
        # _work_wake (grouped work)
        self._queue_wake = threading.Condition(self._lock)
        self._work_wake = threading.Condition(self._lock)
        self._draining = False
        self._stopped = False
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._plans = _PlanCache(PLAN_CACHE_BYTES)
        self._workers: List[threading.Thread] = []
        self._work: Deque[List[_Pending]] = collections.deque()
        self._dispatcher: Optional[threading.Thread] = None
        self.started_at_unix = time.time()
        self._started_monotonic = time.monotonic()
        self._engine_fp: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeService":
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        for i in range(max(1, self.config.workers)):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._workers.append(t)
        # plans run with register_metrics=False under serve (parallel
        # requests would race to overwrite the global slots), so the
        # service installs the aggregate sources itself: the one shared
        # cache, and the memory plans of the service's plans summed
        registry = get_registry()
        registry.register_source("serve", self.metrics)
        registry.register_source("cache", self.cache.stats.metrics)
        registry.register_source("pool", self._pool_metrics)
        # materialise the default histogram set so the "hist" source is
        # registered before the first snapshot, not after the first
        # request happens to record a latency
        get_histograms()
        log_event("serve.started", workers=self.config.workers,
                  engine=self.config.engine,
                  queue_limit=self.config.queue_limit)
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: reject queued work as retriable, let
        in-flight groups finish.  Returns True when fully drained."""
        with self._lock:
            first = not self._draining
            if first:
                self._draining = True
                flushed = list(self._queue)
                self._queue.clear()
            else:
                flushed = []
        if first:
            log_event("serve.draining", flushed=len(flushed))
        for pending in flushed:
            self.stats.bump("drained")
            self._deliver(pending, 503, error_response(
                "draining", "server is draining; retry elsewhere",
                retriable=True,
                retry_after=self.config.retry_after_s),
                event="request.drained")
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._idle:
            while self._inflight or self._work or self._queue:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        with self._lock:
            self._stopped = True
            self._queue_wake.notify_all()
            self._work_wake.notify_all()
        return True

    @property
    def draining(self) -> bool:
        return self._draining

    # -- health --------------------------------------------------------------

    def engine_fingerprint(self) -> str:
        """Identity of what executes requests: the C compiler signature
        when the configured engine can compile natively, ``"sim"``
        otherwise.  Memoised — the compiler probe shells out once."""
        if self._engine_fp is None:
            fp = "sim"
            if self.config.engine in ("native", "auto"):
                from ..runtime.native import (compiler_signature,
                                              find_c_compiler)
                cc = find_c_compiler()
                fp = compiler_signature(cc) if cc else "sim (no C compiler)"
            self._engine_fp = fp
        return self._engine_fp

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document (status key set by the caller)."""
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 3),
            "started_at_unix": round(self.started_at_unix, 3),
            "engine": self.config.engine,
            "engine_fingerprint": self.engine_fingerprint(),
        }

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """The canonical ``serve.*`` metrics namespace."""
        counters = self.stats.as_dict()
        with self._lock:
            depth = len(self._queue) + len(self._work)
        out = {f"serve.{k}": v for k, v in counters.items()}
        out["serve.queue_depth"] = depth
        return out

    def _pool_metrics(self) -> Dict[str, float]:
        """The memory plans of the service's plans as one ``pool.*``
        view."""
        return self._plans.pool_metrics()

    # -- intake --------------------------------------------------------------

    def submit(self, body: Dict[str, Any],
               request_id: Optional[str] = None) -> _Pending:
        """Fingerprint + enqueue *body*; raises :class:`ServeRejected`
        subclasses (shed/drain) or :class:`ProtocolError` (400).  The
        *request_id* (minted here when the caller did not) rides the
        raised documents too, so even a shed request is greppable."""
        if request_id is None:
            request_id = new_request_id()
        fingerprint, _ = request_fingerprint(
            body, default_engine=self.config.engine)
        timeout_ms = body.get("timeout_ms",
                              self.config.default_timeout_ms)
        if (not isinstance(timeout_ms, (int, float))
                or isinstance(timeout_ms, bool) or timeout_ms <= 0):
            raise ProtocolError(
                f"timeout_ms must be a positive number, got "
                f"{timeout_ms!r}")
        now = time.monotonic()
        pending = _Pending(body=body, fingerprint=fingerprint,
                           deadline=now + timeout_ms / 1e3,
                           request_id=request_id, submitted_at=now)
        try:
            with self._lock:
                if self._draining:
                    raise Draining(
                        "server is draining; retry elsewhere",
                        retriable=True,
                        retry_after=self.config.retry_after_s)
                # backpressure counts everything awaiting a worker, not
                # just the pre-dispatch queue: with a zero batching
                # window the dispatcher drains _queue into _work almost
                # instantly, and sheds must engage on the same depth
                # /metrics reports
                if (len(self._queue) + len(self._work)
                        >= self.config.queue_limit):
                    self.stats.bump("shed")
                    raise QueueFull(
                        f"queue is at its {self.config.queue_limit}"
                        f"-request limit",
                        retry_after=self.config.retry_after_s)
                self._queue.append(pending)
                self._queue_wake.notify()
        except ServeRejected as exc:
            exc.doc["request_id"] = request_id
            log_event("request.shed" if isinstance(exc, QueueFull)
                      else "request.rejected",
                      request_id=request_id,
                      fingerprint=fingerprint[:16], code=exc.code)
            raise
        self.stats.bump("requests")
        log_event("request.received", request_id=request_id,
                  fingerprint=fingerprint[:16])
        return pending

    def handle(self, body: Any) -> Tuple[int, Dict[str, Any]]:
        """Synchronous request-to-response: submit, wait, classify.

        This is the whole behaviour of ``POST /v1/execute`` minus HTTP
        framing, so tests can drive the service without sockets.
        """
        request_id = new_request_id()
        if not isinstance(body, dict):
            log_event("request.rejected", request_id=request_id,
                      code="bad_request")
            return 400, error_response(
                "bad_request", "request body must be an object",
                request_id=request_id)
        try:
            pending = self.submit(body, request_id=request_id)
        except ServeRejected as exc:
            return exc.http_status, exc.doc
        except ProtocolError as exc:
            log_event("request.rejected", request_id=request_id,
                      code="bad_request")
            return 400, error_response("bad_request", str(exc),
                                       request_id=request_id)
        remaining = pending.deadline - time.monotonic()
        if not pending.done.wait(timeout=max(0.0, remaining)):
            pending.abandoned = True
            self.stats.bump("timeouts")
            timeout_ms = body.get("timeout_ms",
                                  self.config.default_timeout_ms)
            log_event("request.timeout", request_id=request_id,
                      fingerprint=pending.fingerprint[:16],
                      timeout_ms=float(timeout_ms))
            return 504, error_response(
                "timeout",
                f"no result within {timeout_ms:.0f} ms", retriable=True,
                request_id=request_id)
        assert pending.result is not None
        return pending.result

    # -- dispatcher ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    self._queue_wake.wait()
                if self._stopped and not self._queue:
                    return
            # first request seen: hold the batching window open so
            # concurrent identical requests coalesce into one group
            window_s = self.config.batch_window_ms / 1e3
            if window_s > 0:
                time.sleep(window_s)
            # pop, group and publish under ONE lock hold: every pending
            # request is visible in _queue, _work or _inflight at all
            # times, so drain()'s idle predicate can never observe a
            # clean state while requests sit in a dispatcher local
            with self._lock:
                batch: List[_Pending] = []
                while self._queue and len(batch) < self.config.max_batch:
                    batch.append(self._queue.popleft())
                if not batch:
                    continue
                groups: Dict[str, List[_Pending]] = {}
                for pending in batch:
                    groups.setdefault(pending.fingerprint,
                                      []).append(pending)
                for group in groups.values():
                    if len(group) > 1:
                        self.stats.bump("batched", len(group))
                        self.stats.bump("dedup_hits", len(group) - 1)
                    self._inflight += 1
                    self._work.append(group)
                self._work_wake.notify_all()
                published = list(groups.values())
            # observe/log outside the lock: sinks take their own locks
            for group in published:
                observe("serve.hist.batch_size", len(group))
                log_event("request.grouped",
                          request_id=group[0].request_id,
                          fingerprint=group[0].fingerprint[:16],
                          group=len(group))

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._work and not self._stopped:
                    self._work_wake.wait()
                if not self._work:
                    return
                group = self._work.popleft()
            try:
                self._run_group(group)
            finally:
                with self._idle:
                    self._inflight -= 1
                    self._idle.notify_all()

    # -- execution -----------------------------------------------------------

    def _deliver(self, pending: _Pending, status: int,
                 doc: Dict[str, Any],
                 event: str = "request.completed") -> None:
        """Personalise *doc* for one waiter (its ``request_id``), record
        the end-to-end latency and emit the lifecycle event."""
        doc = dict(doc)
        doc["request_id"] = pending.request_id
        meta = doc.get("meta")
        if isinstance(meta, dict):
            meta = dict(meta)
            meta["request_id"] = pending.request_id
            doc["meta"] = meta
        request_ms = (time.monotonic() - pending.submitted_at) * 1e3
        observe("serve.hist.request_ms", request_ms)
        log_event(event, request_id=pending.request_id,
                  fingerprint=pending.fingerprint[:16],
                  http_status=status, request_ms=round(request_ms, 3))
        pending.finish(status, doc)

    def _run_group(self, group: List[_Pending]) -> None:
        if all(p.abandoned for p in group):
            # every waiter gave up during the queue wait: executing
            # would burn a worker on an answer nobody reads
            self.stats.bump("cancelled", len(group))
            for pending in group:
                log_event("request.cancelled",
                          request_id=pending.request_id,
                          fingerprint=pending.fingerprint[:16])
            return
        lead = group[0]
        now = time.monotonic()
        for pending in group:
            observe("serve.hist.queue_wait_ms",
                    (now - pending.submitted_at) * 1e3)
            log_event("request.dispatched",
                      request_id=pending.request_id,
                      fingerprint=pending.fingerprint[:16],
                      group=len(group))
        try:
            status, doc = self._execute(lead, len(group))
        except ProtocolError as exc:
            status, doc = 400, error_response("bad_request", str(exc))
            self.stats.bump("errors", len(group))
        except Exception as exc:    # noqa: BLE001 - one bad request
            # must never take down the worker thread
            status, doc = 500, error_response(
                "internal", f"{type(exc).__name__}: {exc}")
            self.stats.bump("errors", len(group))
        else:
            if status == 200:
                self.stats.bump("completed", len(group))
            else:
                self.stats.bump("errors", len(group))
        for pending in group:
            self._deliver(pending, status, doc)

    def _execute(self, lead: _Pending,
                 group_size: int) -> Tuple[int, Dict[str, Any]]:
        """Bind and run one request group on an idle plan for its
        structure, building the plan first on a miss.

        ``serve.plan``/``serve.exec`` are deliberately *top-level*
        spans in the worker thread, correlated to ``serve.request`` by
        the ``fingerprint`` attr rather than stitched as children: a
        waiter may time out (closing its request span) while the shared
        execution continues, and a child outliving its parent would
        violate the trace validator's containment rule.
        """
        body, fingerprint = lead.body, lead.fingerprint
        key = plan_key(body, self.config.engine)
        with span("serve.plan", fingerprint=fingerprint[:16],
                  group=group_size, request_id=lead.request_id) as sp:
            data = decode_image(body.get("image"))
            entry = self._plans.take(key)
            built = entry is None
            if built:
                planned = plan_request(body, data)
                engine = (planned.engine if body.get("engine")
                          else self.config.engine)
                # lint=False: the HIP3xx pass is advisory and serve has
                # no reader for its diagnostics, so on a stream of new
                # structures it would only add to every build
                plan = build_plan(planned.graph, cache=self.cache,
                                  workers=self.config.graph_workers,
                                  engine=engine, lint=False)
                entry = _CachedPlan(plan, planned.source, planned.output,
                                    plan.nbytes + PLAN_ENTRY_BYTES)
            else:
                entry.source.set_data(data)
            sp.attrs["plan"] = "built" if built else "hit"
        self.stats.bump("plan_builds" if built else "plan_hits")
        with span("serve.exec", fingerprint=fingerprint[:16],
                  engine=entry.plan.engine, group=group_size,
                  request_id=lead.request_id):
            self.stats.bump("executions")
            try:
                report = entry.plan.run(register_metrics=False)
                encoded = encode_image(entry.output.get_data())
            except BaseException:
                # a plan that failed mid-run is not trusted again
                self._plans.retire(entry)
                raise
        # back in the LRU before the waiters wake: the next request of
        # this structure finds it idle whichever worker takes it
        evicted = self._plans.put(key, entry)
        if evicted:
            self.stats.bump("plan_evictions", evicted)
        meta = {
            "fingerprint": fingerprint,
            "engine": report.engine_used,
            "plan": "built" if built else "hit",
            "launches": report.launches,
            "cache_hits": report.cache_hits,
            # a hit compiled nothing for this request
            "compile_wall_ms": (round(report.compile_wall_ms, 3)
                                if built else 0.0),
            "execute_wall_ms": round(report.execute_wall_ms, 3),
            "group_size": group_size,
            "protocol": PROTOCOL_VERSION,
        }
        return 200, {"status": "ok", "image": encoded, "meta": meta}
