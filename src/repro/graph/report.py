"""Aggregated results of one pipeline-graph execution.

Per-node the scheduler records the modelled :class:`TimingBreakdown`,
the compile wall time and whether the artifact came out of the
compilation cache; graph-wide it folds in the launch count, fusion and
buffer-pool accounting and a snapshot of the shared cache's counters.
``repro graph`` prints :meth:`GraphReport.summary`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..sim.timing import TimingBreakdown
from .fusion import FusionStats
from .pool import PoolStats


@dataclasses.dataclass
class NodeReport:
    """One node's launch, as scheduled."""

    name: str
    kernel: str
    device: str
    backend: str
    block: Tuple[int, int]
    #: modelled device time of the launch (timing.total_ms)
    time_ms: float
    timing: TimingBreakdown
    #: wall-clock compile time (0-ish on a cache hit)
    compile_ms: float
    from_cache: bool
    fused_from: Tuple[str, ...] = ()
    #: wall-clock ms of the node's ``graph.node`` span (bind + simulate
    #: + release) — host time, distinct from the modelled ``time_ms``
    wall_ms: float = 0.0
    #: the compile's per-stage wall-clock view
    #: (:data:`repro.obs.schema.TIMING_KEYS` schema — identical key set
    #: on fresh and cached compiles)
    stage_timings: Dict[str, float] = dataclasses.field(
        default_factory=dict)
    #: which tier ran this node: "sim" (Python simulator) or "native"
    #: (compiled graph segment) — per node because a hybrid native run
    #: keeps ineligible nodes on the simulator
    engine: str = "sim"
    #: why a native/auto run kept this node on the simulator (None when
    #: it ran native or the simulator was requested)
    fallback_reason: Optional[str] = None
    #: the node's access footprint as derived by the abstract
    #: interpreter (``KernelIR.footprint().to_dict()`` — per-accessor
    #: read-offset hulls plus the union halo); ``None`` when the node's
    #: kernel could not be analyzed
    footprint: Optional[Dict] = None

    def row(self) -> str:
        origin = "cache" if self.from_cache else "fresh"
        label = self.kernel if not self.fused_from \
            else "+".join(self.fused_from)
        return (f"{self.name:<34} {label:<28} {self.backend:<7}"
                f"{self.block[0]}x{self.block[1]:<4} "
                f"{self.time_ms:>9.4f} ms   compile {self.compile_ms:>8.2f}"
                f" ms ({origin}, {self.engine})")


@dataclasses.dataclass
class GraphReport:
    """Everything one :func:`~repro.graph.scheduler.execute_graph` did."""

    graph_name: str
    nodes: List[NodeReport]
    fusion: FusionStats
    pool: PoolStats
    #: wall-clock ms to compile all nodes (concurrent, shared cache)
    compile_wall_ms: float
    #: wall-clock ms to execute the schedule
    execute_wall_ms: float
    cache_stats: Optional[Dict[str, float]] = None
    #: HIP3xx graph-lint findings (:mod:`repro.lint`), recorded after
    #: fusion so missed-fusion explanations refer to the final schedule
    diagnostics: List = dataclasses.field(default_factory=list)
    #: engine the caller requested: "sim" | "native" | "auto"
    engine: str = "sim"
    #: engine that actually executed — "native" only when the native
    #: tier compiled and ran at least one segment; otherwise "sim"
    #: (transparent fallback)
    engine_used: str = "sim"
    #: why a native/auto request fell back to the simulator (None when
    #: it didn't)
    fallback_reason: Optional[str] = None

    @property
    def launches(self) -> int:
        return len(self.nodes)

    @property
    def native_nodes(self) -> int:
        """How many nodes executed through compiled segments."""
        return sum(1 for n in self.nodes if n.engine == "native")

    @property
    def total_device_ms(self) -> float:
        """Sum of modelled per-launch device times (serial device cost)."""
        return sum(n.time_ms for n in self.nodes)

    @property
    def cache_hits(self) -> int:
        return sum(1 for n in self.nodes if n.from_cache)

    def metrics(self) -> Dict[str, float]:
        """The canonical ``graph.*`` metrics namespace, folded together
        with the run's ``pool.*`` and ``cache.*`` counters — one flat
        dict under the documented schema (docs/OBSERVABILITY.md)."""
        out: Dict[str, float] = {
            "graph.launches": self.launches,
            "graph.fused_away": self.fusion.launches_saved,
            "graph.cache_hits": self.cache_hits,
            "graph.compile_wall_ms": self.compile_wall_ms,
            "graph.execute_wall_ms": self.execute_wall_ms,
            "graph.device_ms": self.total_device_ms,
            "graph.native_nodes": self.native_nodes,
        }
        out.update(self.pool.metrics())
        if self.cache_stats is not None:
            out.update({
                "cache.ir.hits": self.cache_stats.get("hits", 0),
                "cache.ir.disk_hits": self.cache_stats.get("disk_hits", 0),
                "cache.ir.misses": self.cache_stats.get("misses", 0),
                "cache.ir.stores": self.cache_stats.get("stores", 0),
                "cache.ir.hit_rate":
                    self.cache_stats.get("ir_hit_rate", 0.0),
                "cache.frontend.hits":
                    self.cache_stats.get("frontend_hits", 0),
                "cache.frontend.hit_rate":
                    self.cache_stats.get("frontend_hit_rate", 0.0),
            })
        return out

    def node(self, name: str) -> NodeReport:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def summary(self) -> str:
        engine_line = f"  engine:  {self.engine_used}"
        if self.engine_used == "native":
            engine_line += (f" ({self.native_nodes}/{self.launches} "
                            "nodes in compiled segments)")
        elif self.engine != "sim":
            engine_line += f" (requested {self.engine}"
            if self.fallback_reason:
                engine_line += f"; fallback: {self.fallback_reason}"
            engine_line += ")"
        lines = [
            f"pipeline {self.graph_name!r}: {self.launches} launches "
            f"({self.fusion.launches_saved} saved by fusion), "
            f"modelled device time {self.total_device_ms:.4f} ms",
            engine_line,
            f"  compile: {self.compile_wall_ms:.1f} ms wall, "
            f"{self.cache_hits}/{self.launches} nodes from cache",
            f"  execute: {self.execute_wall_ms:.1f} ms wall",
            f"  fusion:  {self.fusion.summary()}",
            f"  pool:    {self.pool.summary()}",
        ]
        if self.cache_stats is not None:
            cs = self.cache_stats
            lines.append(
                f"  cache:   hits={cs.get('hits', 0)} "
                f"misses={cs.get('misses', 0)} "
                f"stores={cs.get('stores', 0)} "
                f"ir_hit_rate={cs.get('ir_hit_rate', 0.0):.1%} "
                f"frontend_hits={cs.get('frontend_hits', 0)} "
                f"frontend_hit_rate="
                f"{cs.get('frontend_hit_rate', 0.0):.1%}")
        if self.diagnostics:
            lines.append(f"  lint:    {len(self.diagnostics)} finding(s)")
            for d in self.diagnostics:
                lines.append("    " + d.format().splitlines()[0])
        lines.append("  nodes:")
        for n in self.nodes:
            lines.append("    " + n.row())
        return "\n".join(lines)
