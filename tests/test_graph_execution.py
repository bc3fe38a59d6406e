"""Differential tests for the graph scheduler.

The bar is *byte-identical*: a pipeline graph run — any combination of
fusion, buffer pooling and thread-parallel branches — must produce
exactly the pixels of the manual ``compile_kernel(...).execute()``
chain, because every transformation (fusion's intermediate cast, the
pool's pre-padded zeroed buffers, the dependency-ordered parallel
dispatch) is designed to be value-preserving.
"""

import numpy as np
import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    CompilationCache,
    Image,
    IterationSpace,
    Mask,
    PipelineGraph,
    compile_kernel,
)
from repro.filters.point_ops import AddConstant, GammaCorrection, Scale
from repro.filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                 SobelX, SobelY)
from repro.graph import execute_graph

from .helpers import random_image

# padded rows (stride 128 floats) x 96 land exactly on the pool's 4 KiB
# bucket quantum, so peak-vs-naive comparisons are exact
W, H = 128, 96


def _edge_kernels(frame):
    """median-free edge chain: sobel-x/y -> magnitude -> scale -> gamma."""
    src = Image(W, H, float, name="src")
    src.set_data(frame)
    gx = Image(W, H, float, name="gx")
    gy = Image(W, H, float, name="gy")
    mag = Image(W, H, float, name="mag")
    scaled = Image(W, H, float, name="scaled")
    out = Image(W, H, float, name="out")
    bc = BoundaryCondition(src, 3, 3, Boundary.CLAMP)
    kernels = [
        SobelX(IterationSpace(gx), Accessor(bc), Mask(3, 3).set(SOBEL_X)),
        SobelY(IterationSpace(gy), Accessor(bc), Mask(3, 3).set(SOBEL_Y)),
        GradientMagnitude(IterationSpace(mag), Accessor(gx), Accessor(gy)),
        Scale(IterationSpace(scaled), Accessor(mag), 0.25),
        GammaCorrection(IterationSpace(out), Accessor(scaled), 0.8),
    ]
    return kernels, out


def _manual_reference(frame):
    kernels, out = _edge_kernels(frame)
    for k in kernels:
        compile_kernel(k, device="Tesla C2050").execute()
    return out.get_data().copy()


def _graph_run(frame, **kwargs):
    kernels, out = _edge_kernels(frame)
    g = PipelineGraph("edge")
    for k in kernels:
        g.add_kernel(k, device="Tesla C2050")
    g.mark_output(out)
    report = execute_graph(g, **kwargs)
    return out.get_data().copy(), report


@pytest.fixture(scope="module")
def frame():
    return random_image(W, H)


@pytest.fixture(scope="module")
def reference(frame):
    return _manual_reference(frame)


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("fuse", [False, True])
@pytest.mark.parametrize("pool", [False, True])
def test_graph_matches_manual_chain(frame, reference, workers, fuse,
                                    pool):
    result, report = _graph_run(frame, workers=workers, fuse=fuse,
                                pool=pool)
    assert np.array_equal(result, reference)
    assert report.launches == (3 if fuse else 5)


def test_threaded_execution_deterministic(frame):
    serial, _ = _graph_run(frame, workers=1)
    for _ in range(5):
        threaded, _ = _graph_run(frame, workers=4)
        assert np.array_equal(serial, threaded)


def test_pool_reuses_buffers_and_reduces_peak(frame):
    # unfused, pooled, serial: the linear tail (mag -> scaled) frees
    # buffers early enough for later intermediates to recycle them
    _, report = _graph_run(frame, workers=1, fuse=False, pool=True)
    stats = report.pool
    assert stats.reuses > 0
    assert stats.releases == stats.allocs + stats.reuses
    assert 0 < stats.peak_bytes < stats.naive_bytes
    assert stats.saved_bytes == stats.naive_bytes - stats.peak_bytes
    assert "KiB saved" in stats.summary()


def test_unpooled_peak_equals_naive(frame):
    _, report = _graph_run(frame, workers=1, fuse=False, pool=False)
    assert report.pool.peak_bytes == report.pool.naive_bytes
    assert report.pool.allocs == 0 and report.pool.reuses == 0


def test_shared_cache_across_nodes(frame):
    # two Scale launches with identical IR + geometry: the second compile
    # must be served from the shared cache (serial compile order)
    src = Image(W, H, float).set_data(frame)
    a = Image(W, H, float)
    b = Image(W, H, float)
    g = PipelineGraph()
    g.add_kernel(Scale(IterationSpace(a), Accessor(src), 2.0), name="s1")
    g.add_kernel(Scale(IterationSpace(b), Accessor(a), 2.0), name="s2")
    cache = CompilationCache()
    report = execute_graph(g, cache=cache, workers=1, fuse=False)
    assert not report.node("s1").from_cache
    assert report.node("s2").from_cache
    assert report.cache_hits == 1
    assert cache.stats.hits == 1
    expected = (frame * np.float32(2.0)) * np.float32(2.0)
    assert np.array_equal(b.get_data(), expected)


def test_graph_report_contents(frame):
    _, report = _graph_run(frame, workers=1, fuse=True, pool=True,
                           cache=CompilationCache())
    assert report.launches == len(report.nodes)
    assert report.total_device_ms == pytest.approx(
        sum(n.time_ms for n in report.nodes))
    text = report.summary()
    assert "launches" in text and "fusion:" in text and "pool:" in text
    assert "cache:" in text
    with pytest.raises(KeyError):
        report.node("nonexistent")


def test_rerun_same_graph_hits_cache(frame):
    cache = CompilationCache()
    _, first = _graph_run(frame, workers=1, cache=cache)
    assert first.cache_hits == 0
    result, second = _graph_run(frame, workers=1, cache=cache)
    assert second.cache_hits == second.launches
    assert np.array_equal(result, _graph_run(frame, workers=1)[0])


def test_single_node_graph_runs_serially(frame, monkeypatch):
    """compile_graph and the schedule short-circuit identically: no
    executor may be spun up for a single-node graph, whatever the
    worker count (the execute side used to check only workers == 1)."""
    import repro.graph.scheduler as sched

    def forbidden(*args, **kwargs):
        raise AssertionError(
            "ThreadPoolExecutor constructed for a single-node graph")

    monkeypatch.setattr(sched, "ThreadPoolExecutor", forbidden)
    src = Image(W, H, float).set_data(frame)
    out = Image(W, H, float)
    g = PipelineGraph("single")
    g.add_kernel(Scale(IterationSpace(out), Accessor(src), 2.0),
                 name="only")
    g.mark_output(out)
    report = execute_graph(g, workers=8)
    assert report.launches == 1
    assert np.array_equal(out.get_data(), frame * np.float32(2.0))


def test_pool_release_is_idempotent():
    from repro.graph.pool import BufferPool

    pool = BufferPool()
    img = Image(64, 64, float, name="tmp")
    pool.bind(img, 64)
    assert pool.stats.current_bytes > 0
    pool.release(img)
    assert pool.stats.current_bytes == 0
    pool.release(img)                   # second release: a no-op
    assert pool.stats.current_bytes == 0
    assert pool.stats.releases == 1
    pool.release(Image(8, 8, float))    # never bound: also a no-op
    assert pool.stats.releases == 1
    assert pool.live_count == 0


@pytest.mark.parametrize("workers", [1, 4])
def test_pool_drains_after_every_execution(frame, workers):
    from repro.graph.pool import BufferPool

    arena = BufferPool()
    _, report = _graph_run(frame, workers=workers, pool=arena)
    assert report.pool is arena.stats
    assert arena.stats.current_bytes == 0
    assert arena.live_count == 0
    assert arena.stats.releases == arena.stats.allocs \
        + arena.stats.reuses


def test_pool_drains_after_mid_schedule_error(frame):
    """A node's kernel raising mid-schedule must not leak pooled
    intermediates: current_bytes returns to 0 via the scheduler's
    error-path drain."""
    from repro.graph.pool import BufferPool
    from repro.graph.scheduler import compile_graph

    kernels, out = _edge_kernels(frame)
    g = PipelineGraph("edge")
    for k in kernels:
        g.add_kernel(k, device="Tesla C2050")
    g.mark_output(out)
    compile_graph(g)
    # magnitude fails after both sobel branches bound their buffers
    victim = next(n for n in g.nodes if "Magnitude" in n.label())

    def boom():
        raise RuntimeError("injected launch fault")

    victim.compiled.execute = boom
    arena = BufferPool()
    with pytest.raises(RuntimeError, match="injected launch fault"):
        execute_graph(g, workers=1, fuse=False, pool=arena)
    assert arena.stats.current_bytes == 0
    assert arena.live_count == 0


def test_pool_reset_keeps_arenas_warm(frame):
    """reset() between runs (an execution plan's rerun) must make the next
    run bind entirely from the free lists: zero new arena allocations,
    fresh per-run accounting, cumulative alloc/reuse counters intact."""
    from repro.graph.pool import BufferPool

    arena = BufferPool()
    _, first = _graph_run(frame, workers=1, fuse=False, pool=arena)
    cold_allocs = arena.stats.allocs
    assert cold_allocs > 0
    assert first.pool.naive_bytes > 0

    dropped = arena.reset()
    assert dropped == 0                       # scheduler already drained
    assert arena.stats.naive_bytes == 0
    assert arena.stats.peak_bytes == 0
    assert arena.stats.current_bytes == 0
    assert arena.stats.allocs == cold_allocs  # cumulative counters kept
    assert arena.reset() == 0                 # idempotent

    _, second = _graph_run(frame, workers=1, fuse=False, pool=arena)
    # the warm run reallocated nothing: every bind recycled a bucket
    assert arena.stats.allocs == cold_allocs
    assert arena.stats.reuses > cold_allocs
    assert second.pool.peak_bytes > 0         # accounting restarted


def test_pool_reset_drops_live_bindings():
    """A reset with live bindings (a request that died mid-flight)
    returns them to the free lists so the next bind reuses, not leaks."""
    from repro.graph.pool import BufferPool

    pool = BufferPool()
    img = Image(64, 64, float, name="tmp")
    pool.bind(img, 64)
    assert pool.live_count == 1
    assert pool.reset() == 1
    assert pool.live_count == 0
    assert pool.stats.current_bytes == 0
    again = Image(64, 64, float, name="tmp2")
    pool.bind(again, 64)
    assert pool.stats.allocs == 1             # recycled, not reallocated
    assert pool.stats.reuses == 1
