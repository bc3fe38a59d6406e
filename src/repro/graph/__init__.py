"""Declarative multi-kernel pipeline graphs (PR-2 subsystem).

Build a :class:`PipelineGraph` from DSL kernels (or a linear chain with
:func:`pipe`), then :meth:`~PipelineGraph.run` it (or
:func:`build_plan` it once and :meth:`~ExecutionPlan.run` the plan over
many inputs): the scheduler fuses adjacent point operators, compiles
every node concurrently through one shared compilation cache, executes
independent branches in parallel and services intermediate images from
a lifetime-aware buffer pool.  See docs/PIPELINES.md.
"""

from .builder import GraphNode, PipelineGraph, Stage, pipe, stage  # noqa: F401
from .fusion import FusionStats, fuse_point_ops, is_point_op  # noqa: F401
from .pool import BufferPool, PoolStats  # noqa: F401
from .report import GraphReport, NodeReport  # noqa: F401
from .scheduler import (ExecutionPlan, build_plan, compile_graph,  # noqa: F401
                        execute_graph)
