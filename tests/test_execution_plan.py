"""Tests for :class:`repro.graph.scheduler.ExecutionPlan`: compile once,
bind many.

A plan built once and run over new input pixels must produce exactly
the bytes of a freshly built graph run on those pixels, on every
engine; a build must parse each DSL node once, and compiling from that
parse must keep the cache keys and generated sources of
``compile_kernel``'s own parse.
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
from repro.filters.median import Median3x3
from repro.filters.point_ops import GammaCorrection, Scale
from repro.filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                 SobelX, SobelY)
from repro.graph import build_plan, execute_graph

from .helpers import random_image

requires_cc = pytest.mark.requires_cc

W, H = 40, 32


def _edge_graph(frame):
    """The serve ``edge`` chain: median -> sobel-x || sobel-y ->
    magnitude -> scale -> gamma (six kernels)."""
    src = Image(W, H, float, name="src").set_data(frame)
    den, gx, gy, mag, scaled, out = (Image(W, H, float, name=n) for n in
                                     ("den", "gx", "gy", "mag", "scaled",
                                      "out"))
    g = PipelineGraph("edge")
    g.add_kernel(Median3x3(IterationSpace(den), Accessor(
        BoundaryCondition(src, 3, 3, Boundary.CLAMP))), name="median")
    bc = BoundaryCondition(den, 3, 3, Boundary.CLAMP)
    g.add_kernel(SobelX(IterationSpace(gx), Accessor(bc),
                        Mask(3, 3).set(SOBEL_X)), name="sobel_x")
    g.add_kernel(SobelY(IterationSpace(gy), Accessor(bc),
                        Mask(3, 3).set(SOBEL_Y)), name="sobel_y")
    g.add_kernel(GradientMagnitude(IterationSpace(mag), Accessor(gx),
                                   Accessor(gy)), name="magnitude")
    g.add_kernel(Scale(IterationSpace(scaled), Accessor(mag), 0.25),
                 name="scale")
    g.add_kernel(GammaCorrection(IterationSpace(out), Accessor(scaled),
                                 0.8), name="gamma")
    g.mark_output(out)
    return g, src, out


def _partial_graph(frame):
    """Scale over an interior window, then a Sobel over another one:
    both the intermediate and the output are only partly written."""
    src = Image(W, H, float, name="src").set_data(frame)
    mid = Image(W, H, float, name="mid")
    out = Image(W, H, float, name="out")
    g = PipelineGraph("partial")
    g.add_kernel(Scale(IterationSpace(mid, W - 8, H - 6, 3, 2),
                       Accessor(src), 2.0), name="scale")
    g.add_kernel(SobelX(IterationSpace(out, W - 4, H - 10, 1, 5),
                        Accessor(BoundaryCondition(mid, 3, 3,
                                                   Boundary.CLAMP)),
                        Mask(3, 3).set(SOBEL_X)), name="sobel")
    g.mark_output(out)
    return g, src, out


def _fresh(build, frame, **kwargs):
    g, _, out = build(frame)
    report = execute_graph(g, **kwargs)
    return out.get_data(), report


ENGINES = ["sim", pytest.param("native", marks=requires_cc)]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("build", [_edge_graph, _partial_graph],
                         ids=["edge", "partial"])
def test_rerun_on_new_pixels_equals_fresh_run(build, engine):
    frames = [random_image(W, H, seed=s) for s in (1, 2, 3)]
    g, src, out = build(frames[0])
    plan = build_plan(g, engine=engine)
    for frame in frames:
        src.set_data(frame)
        report = plan.run()
        expected, fresh = _fresh(build, frame, engine=engine)
        assert np.array_equal(out.get_data(), expected)
        assert report.engine_used == fresh.engine_used
        assert report.launches == fresh.launches
        # a caller scribbling on the output between runs must not leak
        # into the next run's uncovered pixels
        out.pixels[...] = 7.0


@pytest.mark.parametrize("pool", [False, True])
def test_rerun_parallel_schedule_equals_fresh_run(pool):
    frames = [random_image(W, H, seed=s) for s in (4, 5)]
    g, src, out = _edge_graph(frames[0])
    plan = build_plan(g, workers=4, pool=pool)
    for frame in frames:
        src.set_data(frame)
        plan.run()
        expected, _ = _fresh(_edge_graph, frame, workers=1)
        assert np.array_equal(out.get_data(), expected)
    if pool:
        # every run drains its intermediates back into the arena
        assert plan.arena.live_count == 0
        assert plan.arena.stats.current_bytes == 0


def test_rerun_compiles_nothing(monkeypatch):
    import repro.graph.scheduler as sched

    g, src, out = _edge_graph(random_image(W, H, seed=6))
    plan = build_plan(g)
    plan.run()
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a plan run compiled a kernel")

    monkeypatch.setattr(sched, "compile_kernel", forbidden)
    monkeypatch.setattr(sched, "compile_ir", forbidden)
    src.set_data(random_image(W, H, seed=7))
    report = plan.run()
    assert calls == []
    assert report.launches == plan.fusion.nodes_after
    assert report.compile_wall_ms == plan.compile_wall_ms


def test_plan_nbytes_covers_every_image():
    g, _, _ = _edge_graph(random_image(W, H, seed=8))
    plan = build_plan(g, engine="sim")
    # source, den, gx, gy, fused out, plus the four simulator launches'
    # output copies: at least one float32 frame each
    assert plan.nbytes >= 9 * W * H * 4


def test_build_parses_each_dsl_node_once(monkeypatch):
    import repro.frontend.parser as parser_mod
    import repro.graph.fusion as fusion_mod
    import repro.runtime.compile as compile_mod

    parsed = []
    real = parser_mod.parse_kernel

    def counting(kernel, *args, **kwargs):
        parsed.append(type(kernel).__name__)
        return real(kernel, *args, **kwargs)

    monkeypatch.setattr(fusion_mod, "parse_kernel", counting)
    monkeypatch.setattr(compile_mod, "parse_kernel", counting)
    g, _, _ = _edge_graph(random_image(W, H, seed=9))
    execute_graph(g, engine="sim")
    assert sorted(parsed) == sorted(
        ["Median3x3", "SobelX", "SobelY", "GradientMagnitude", "Scale",
         "GammaCorrection"])


def test_parse_once_keeps_cache_keys_and_sources():
    """Nodes compiled from the build's one parse must match what
    ``compile_kernel`` produces from its own parse, byte for byte."""
    g, _, _ = _edge_graph(random_image(W, H, seed=10))
    execute_graph(g, cache=CompilationCache(), engine="sim")
    dsl_nodes = [n for n in g.nodes if not n.is_fused]
    assert [n.name for n in dsl_nodes] == ["median", "sobel_x", "sobel_y"]
    for node in dsl_nodes:
        direct = compile_kernel(node.kernel, cache=CompilationCache(),
                                **node.options)
        assert node.compiled.cache_key == direct.cache_key
        assert node.compiled.device_code == direct.device_code
        assert node.compiled.host_code == direct.host_code
