"""Native graph tier vs the simulator oracle.

Every test here is differential: the same graph runs through the Python
simulator (the oracle) and through the compiled C tier, and the outputs
must be **byte-identical** — the native tier only admits nodes whose
lowering is provably bit-exact, and hybrid graphs interleave compiled
segments with simulator launches (``tests/helpers.py``'s
``assert_native_matches_sim`` is the shared harness).

The artifact tests pin the warm-start contract: a second compilation of
the same graph must not invoke the C compiler at all (workdir, then
artifact store), corrupt or stale artifacts heal transparently, and a
compiler-version change misses the cache.
"""

import ctypes
import os

import numpy as np
import pytest

from repro import (
    Accessor,
    Boundary,
    BoundaryCondition,
    CompilationCache,
    Image,
    IterationSpace,
    Kernel,
    Mask,
    PipelineGraph,
)
from repro.cli import build_edge_pipeline
from repro.data import impulse_noise_image
from repro.dsl.math import log10  # noqa: F401 (kernel intrinsic)
from repro.errors import CodegenError, GraphError
from repro.filters.gaussian import GaussianFilter, gaussian_mask_2d
from repro.filters.point_ops import AddConstant, Scale, Threshold
from repro.filters.sobel import SOBEL_X, SobelX
from repro.graph import compile_graph, execute_graph
from repro.runtime import native, native_graph
from repro.runtime.native import clear_compiler_cache, find_c_compiler
from repro.runtime.native_graph import (
    NATIVE_GRAPH_FORMAT,
    compile_native_graph,
    native_ineligibility,
    plan_native_graph,
)

from .helpers import assert_native_matches_sim, random_image

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

requires_cc = pytest.mark.requires_cc

W, H = 24, 16


@pytest.fixture
def native_env(tmp_path, monkeypatch):
    """Hermetic native workdir + fresh compiler probes per test."""
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
    clear_compiler_cache()
    yield tmp_path
    clear_compiler_cache()


def _img(data=None, name=None, w=W, h=H):
    img = Image(w, h, float, name=name)
    if data is not None:
        img.set_data(data)
    return img


def _sobel(space, acc_img):
    return SobelX(space,
                  Accessor(BoundaryCondition(acc_img, 3, 3,
                                             Boundary.CLAMP)),
                  Mask(3, 3).set(SOBEL_X))


class Log10Kernel(Kernel):
    """``out = log10(in + 1)``: log10 stays off the native tier, so this
    is the stock simulator-only node of these tests."""

    def __init__(self, iteration_space, inp):
        super().__init__(iteration_space)
        self.inp = inp
        self.add_accessor(inp)

    def kernel(self):
        self.output(log10(self.inp(0, 0) + 1.0))


def _simple_graph(frame):
    """Scale -> SobelX: one slab intermediate, fully native."""
    src = _img(frame, "src")
    a, out = _img(name="a"), _img(name="out")
    g = PipelineGraph("native-simple")
    g.add_kernel(Scale(IterationSpace(a), Accessor(src), 2.0),
                 name="scale")
    g.add_kernel(_sobel(IterationSpace(out), a), name="sobel")
    g.mark_output(out)
    return g, out


# --------------------------------------------------------------------------
# Example pipelines, differentially
# --------------------------------------------------------------------------


@requires_cc
def test_edge_example_pipeline_fully_native(native_env):
    from examples.edge_pipeline import build_chain

    size = 48
    frame = impulse_noise_image(size, size, seed=11, density=0.03)

    def build():
        kernels, out = build_chain(frame, size)
        g = PipelineGraph("edge-example")
        for k, name in zip(kernels, ["median", "sobel_x", "sobel_y",
                                     "magnitude"]):
            g.add_kernel(k, name=name, backend="cuda",
                         device="Tesla C2050")
        g.mark_output(out)
        return g, out

    report = assert_native_matches_sim(build, workers=1)
    # median/sobel/sqrt-magnitude are all bit-exact lowerings: the whole
    # chain runs in compiled segments
    assert report.engine_used == "native"
    assert report.fallback_reason is None
    assert report.native_nodes == report.launches
    assert all(n.engine == "native" for n in report.nodes)


@requires_cc
def test_cli_edge_pipeline_fully_native(native_env):
    # median -> sobel x2 -> magnitude -> scale -> gamma: the fused
    # scale+gamma tail's pow(x, 0.8) evaluates in double and rounds once
    # on both engines, so every node runs compiled
    def build():
        return build_edge_pipeline(48, "Tesla C2050", "cuda")

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    assert report.fallback_reason is None
    assert report.native_nodes == report.launches
    assert any("gamma" in n.name for n in report.nodes)


def _edge_with_log10_tail(size):
    """The CLI edge pipeline plus a log10 node on its output."""
    g, edges = build_edge_pipeline(size, "Tesla C2050", "cuda")
    out = _img(name="log_edges", w=size, h=size)
    g.add_kernel(Log10Kernel(IterationSpace(out), Accessor(edges)),
                 name="log10", device="Tesla C2050", backend="cuda")
    g.mark_output(out)
    return g, [edges, out]


@requires_cc
def test_cli_edge_pipeline_is_hybrid(native_env):
    # log10 stays off the native tier, so that node (and only it) runs
    # on the simulator
    report = assert_native_matches_sim(lambda: _edge_with_log10_tail(48),
                                       workers=1)
    assert report.engine_used == "native"
    assert 0 < report.native_nodes < report.launches
    sim_nodes = [n for n in report.nodes if n.engine == "sim"]
    assert sim_nodes and all("log10" in n.name for n in sim_nodes)


@requires_cc
def test_graph_run_span_records_fallback_nodes(native_env):
    # a simulator fallback inside a native run shows in the trace: the
    # graph.run span names each fallback node with its reason
    from repro.obs import tracing

    g, _ = _edge_with_log10_tail(32)
    with tracing() as tracer:
        report = execute_graph(g, cache=False, workers=1,
                               engine="native")
    (run,) = [sp for sp in tracer.spans() if sp.name == "graph.run"]
    fallbacks = {k: v for k, v in run.attrs.items()
                 if k.startswith("fallback.")}
    assert fallbacks == {"fallback.log10": "inexact intrinsic 'log10'"}
    assert report.node("log10").fallback_reason == \
        "inexact intrinsic 'log10'"
    assert all(n.fallback_reason is None for n in report.nodes
               if n.engine == "native")

    # a requested simulator run has no fallbacks to record
    g, _ = build_edge_pipeline(32, "Tesla C2050", "cuda")
    with tracing() as tracer:
        execute_graph(g, cache=False, workers=1, engine="sim")
    (run,) = [sp for sp in tracer.spans() if sp.name == "graph.run"]
    assert not any(k.startswith("fallback.") for k in run.attrs)


@requires_cc
def test_enhance_pipeline_square_gamma_native(native_env):
    # scale -> gamma(2.0): pow(x, 2.0) lowers like any other exponent,
    # through double pow rounded once — no strength reduction
    from repro.serve.planner import plan_request

    frame = random_image(48, 48)

    def build():
        plan = plan_request({"pipeline": "enhance"}, frame)
        return plan.graph, plan.output

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    assert report.fallback_reason is None
    assert report.native_nodes == report.launches
    assert all(n.engine == "native" for n in report.nodes)

    plan = plan_request({"pipeline": "enhance"}, frame)
    compile_graph(plan.graph, cache=False, workers=1)
    gamma = next(n for n in plan.graph.nodes if "gamma" in n.name)
    assert native_ineligibility(gamma) is None
    lowering = next(lw for lw in plan_native_graph(plan.graph).lowerings
                    if lw.node is gamma)
    assert any("hip_round_f(pow((double)" in line
               for line in lowering.unit.func_lines)


@requires_cc
def test_dsa_frontend_fully_native(native_env):
    from examples.dsa_pipeline import build_frontend

    size = 32
    rng = np.random.default_rng(7)
    mask_frame = rng.random((size, size), dtype=np.float32)
    fill_frame = rng.random((size, size), dtype=np.float32)

    def build():
        stages, img_den = build_frontend(size, mask_frame, fill_frame)
        g = PipelineGraph("dsa-frontend")
        for kernel, name, opts in stages:
            g.add_kernel(kernel, name=name, **opts)
        g.mark_output(img_den)
        return g, img_den

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    # subtract + median compile, and so does the bilateral: its exp()
    # evaluates in double and rounds once on both engines
    assert report.node("subtract").engine == "native"
    assert report.node("median").engine == "native"
    assert report.node("bilateral").engine == "native"
    assert report.native_nodes == report.launches


@requires_cc
def test_multiresolution_style_chain(native_env):
    # blur -> detail gain -> threshold -> blur: the Gaussian smoothing /
    # point-op alternation of the multiresolution example
    frame = random_image(W, H, seed=5)

    def build():
        src = _img(frame, "src")
        b1, s1, t1 = _img(name="b1"), _img(name="s1"), _img(name="t1")
        out = _img(name="out")
        g = PipelineGraph("multires")
        g.add_kernel(GaussianFilter(
            IterationSpace(b1),
            Accessor(BoundaryCondition(src, 5, 5, Boundary.MIRROR)),
            gaussian_mask_2d(5), 2), name="blur0")
        g.add_kernel(Scale(IterationSpace(s1), Accessor(b1), 1.8),
                     name="gain")
        g.add_kernel(Threshold(IterationSpace(t1), Accessor(s1), 0.75),
                     name="clip")
        g.add_kernel(GaussianFilter(
            IterationSpace(out),
            Accessor(BoundaryCondition(t1, 5, 5, Boundary.MIRROR)),
            gaussian_mask_2d(5), 2), name="blur1")
        g.mark_output(out)
        return g, out

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "native"
    assert report.native_nodes == report.launches


# --------------------------------------------------------------------------
# Randomized point-op chains (same generators as the fusion suite)
# --------------------------------------------------------------------------

_OPS = st.sampled_from(["add", "scale", "threshold", "gamma", "log10"])
_PARAM = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                   width=32)


def _make_op(op, param, space, acc):
    from repro.filters.point_ops import GammaCorrection

    if op == "add":
        return AddConstant(space, acc, param)
    if op == "scale":
        return Scale(space, acc, param, offset=0.125)
    if op == "threshold":
        return Threshold(space, acc, param)
    if op == "log10":
        return Log10Kernel(space, acc)
    return GammaCorrection(space, acc, abs(param) + 0.5)


@requires_cc
@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.tuples(_OPS, _PARAM), min_size=1, max_size=5),
       seed=st.integers(min_value=0, max_value=2**16),
       fuse=st.booleans())
def test_randomized_point_chain_native(ops, seed, fuse):
    rng = np.random.default_rng(seed)
    frame = rng.random((H, W), dtype=np.float32)

    def build():
        src = _img(frame, "src")
        g = PipelineGraph("rand-chain")
        current = src
        for i, (op, param) in enumerate(ops):
            out = _img(name=f"t{i}")
            g.add_kernel(_make_op(op, param, IterationSpace(out),
                                  Accessor(current)))
            current = out
        g.mark_output(current)
        return g, current

    report = assert_native_matches_sim(build, workers=1, fuse=fuse)
    if all(op != "log10" for op, _ in ops):
        # add/scale/threshold lower exactly and gamma's pow() rounds
        # once from double on both engines, whatever its exponent (a
        # negative base gives the canonical NaN on both) — the whole
        # chain runs native
        assert report.engine_used == "native"
        assert report.native_nodes == report.launches
    else:
        # log10 pins its node (or the whole fused chain) to the
        # simulator; output equality held either way
        assert report.native_nodes < report.launches


# --------------------------------------------------------------------------
# Eligibility, fallback, engine plumbing
# --------------------------------------------------------------------------


def test_native_ineligibility_reasons():
    frame = random_image(W, H)
    src = _img(frame, "src")
    a, out = _img(name="a"), _img(name="out")
    g = PipelineGraph("elig")
    g.add_kernel(Scale(IterationSpace(a), Accessor(src), 2.0),
                 name="scale")
    b = _img(name="b")
    from repro.filters.point_ops import GammaCorrection
    g.add_kernel(GammaCorrection(IterationSpace(b), Accessor(a), 1.4),
                 name="gamma")
    g.add_kernel(Log10Kernel(IterationSpace(out), Accessor(b)),
                 name="log10")
    g.mark_output(out)
    compile_graph(g, cache=False, workers=1)
    by_name = {n.name: n for n in g.nodes}
    assert native_ineligibility(by_name["scale"]) is None
    assert native_ineligibility(by_name["gamma"]) is None
    reason = native_ineligibility(by_name["log10"])
    assert reason is not None and "log10" in reason


def test_plan_segments_and_slab():
    g, _ = _simple_graph(random_image(W, H))
    compile_graph(g, cache=False, workers=1)
    plan = plan_native_graph(g)
    assert plan.native_count == 2
    assert plan.segments == [[0, 1]]          # one contiguous segment
    assert plan.schedule == [("native", 0)]
    # src + out are external; the intermediate lives in the slab
    assert len(plan.ext_images) == 2
    assert plan.slab_bytes > 0 and plan.slab_allocs == 1


def test_uncompiled_graph_rejected():
    g, _ = _simple_graph(random_image(W, H))
    with pytest.raises(CodegenError, match="not compiled"):
        plan_native_graph(g)


def test_unknown_engine_rejected():
    g, _ = _simple_graph(random_image(W, H))
    with pytest.raises(GraphError, match="unknown engine"):
        execute_graph(g, engine="gpu")


def test_auto_engine_without_compiler_falls_back(monkeypatch):
    clear_compiler_cache()
    native._PROBE_CACHE["cc"] = None          # simulate a bare machine
    try:
        def build():
            return _simple_graph(random_image(W, H, seed=3))

        report = assert_native_matches_sim(build, engine="auto",
                                           workers=1)
        assert report.engine == "auto"
        assert report.engine_used == "sim"
        assert "no C compiler" in report.fallback_reason
        assert all(n.engine == "sim" for n in report.nodes)
        assert all(n.fallback_reason == report.fallback_reason
                   for n in report.nodes)
    finally:
        clear_compiler_cache()


@requires_cc
def test_native_engine_with_nothing_eligible_falls_back(native_env):
    frame = random_image(W, H, seed=9)

    def build():
        src = _img(frame, "src")
        out = _img(name="out")
        g = PipelineGraph("all-sim")
        g.add_kernel(Log10Kernel(IterationSpace(out), Accessor(src)),
                     name="log10")
        g.mark_output(out)
        return g, out

    report = assert_native_matches_sim(build, workers=1)
    assert report.engine_used == "sim"
    assert "no native-eligible nodes" in report.fallback_reason
    assert "log10" in report.fallback_reason


# --------------------------------------------------------------------------
# Artifact round-trips: warm starts never invoke the compiler
# --------------------------------------------------------------------------


def _compiled_simple(cache, seed=0):
    g, out = _simple_graph(random_image(W, H, seed=seed))
    compile_graph(g, cache=cache, workers=1)
    return g, out


class _CcSpy:
    """Counting (or forbidding) stand-in for ``subprocess.run``."""

    def __init__(self, real=None):
        self.calls = 0
        self.real = real

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.real is None:
            raise AssertionError(
                "C compiler invoked on a warm start")
        return self.real(*args, **kwargs)


@requires_cc
def test_warm_start_zero_compiler_invocations(native_env, tmp_path,
                                              monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    assert mod1.origin == "fresh"

    # from here on, *any* subprocess is a failure (compiler probes are
    # memoized, so only a cc invocation could reach it)
    spy = _CcSpy(real=None)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)

    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "workdir"
    assert mod2.fingerprint == mod1.fingerprint
    assert spy.calls == 0

    # drop the materialised .so: the artifact store must satisfy the
    # next start, still without a compiler
    os.unlink(mod1.library_path)
    mod3 = compile_native_graph(g, cache=cache)
    assert mod3.origin == "store"
    assert mod3.fingerprint == mod1.fingerprint
    assert spy.calls == 0

    # and the store-restored library actually executes
    run = ctypes.CDLL(mod3.library_path)
    assert all(hasattr(run, e) for e in mod3.entries)


@requires_cc
def test_warm_execute_graph_end_to_end(native_env, tmp_path, monkeypatch):
    # the scheduler path: second execute_graph(engine="native") with the
    # same shared cache must not compile anything
    cache = CompilationCache(directory=str(tmp_path / "store"))
    frame = random_image(W, H, seed=21)

    g1, out1 = _simple_graph(frame)
    execute_graph(g1, cache=cache, workers=1, engine="native")
    ref = out1.get_data().copy()

    spy = _CcSpy(real=None)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    g2, out2 = _simple_graph(frame)
    report = execute_graph(g2, cache=cache, workers=1, engine="native")
    assert report.engine_used == "native"
    assert spy.calls == 0
    assert np.array_equal(ref, out2.get_data())


@requires_cc
def test_corrupt_workdir_so_heals_from_store(native_env, tmp_path,
                                             monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    # plant a garbage .so in a *fresh* workdir (dlopen caches loaded
    # paths per process, so corrupting mod1's own path is invisible)
    wd2 = tmp_path / "wd2"
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(wd2))
    corrupt = (wd2 / "hipacc_py_native_graph"
               / os.path.basename(mod1.library_path))
    corrupt.parent.mkdir(parents=True)
    corrupt.write_bytes(b"\x00garbage, not ELF\x00")
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "store"          # healed without a compiler
    assert mod2.library_path == str(corrupt)


@requires_cc
def test_corrupt_store_entry_heals_to_fresh(native_env, tmp_path,
                                            monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    key = f"ng_{mod1.fingerprint}"
    os.unlink(mod1.library_path)
    # blob is not valid base64: get_artifact must invalidate the entry
    cache.put(key, {"kind": "native-graph",
                    "format": NATIVE_GRAPH_FORMAT,
                    "blob_b64": "!!! not base64 !!!"})
    spy = _CcSpy(real=native_graph.subprocess.run)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "fresh" and spy.calls == 1
    assert cache.get_artifact(key) is not None   # re-stored


@requires_cc
def test_stale_format_entry_misses(native_env, tmp_path, monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)
    key = f"ng_{mod1.fingerprint}"
    os.unlink(mod1.library_path)
    entry = cache.get(key)
    entry = dict(entry, format=NATIVE_GRAPH_FORMAT + 1)
    cache.put(key, entry)
    spy = _CcSpy(real=native_graph.subprocess.run)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.origin == "fresh" and spy.calls == 1


@requires_cc
def test_compiler_version_change_misses_cache(native_env, tmp_path,
                                              monkeypatch):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    g, _ = _compiled_simple(cache)
    mod1 = compile_native_graph(g, cache=cache)

    cc = find_c_compiler()
    native._PROBE_CACHE[f"sig:{cc}"] = "fake-cc (Fake) 99.9.9"
    spy = _CcSpy(real=native_graph.subprocess.run)
    monkeypatch.setattr(native_graph.subprocess, "run", spy)
    mod2 = compile_native_graph(g, cache=cache)
    assert mod2.fingerprint != mod1.fingerprint
    assert mod2.origin == "fresh" and spy.calls == 1


def test_artifact_store_roundtrip(tmp_path):
    cache = CompilationCache(directory=str(tmp_path / "store"))
    blob = bytes(range(256)) * 3
    cache.put_artifact("ng_x", {"kind": "native-graph", "format": 1},
                       blob)
    hit = cache.get_artifact("ng_x")
    assert hit is not None
    payload, restored = hit
    assert restored == blob
    assert payload["kind"] == "native-graph"
    assert "blob_b64" not in payload
    # a fresh process sees it through the disk tier too
    cache2 = CompilationCache(directory=str(tmp_path / "store"))
    payload2, restored2 = cache2.get_artifact("ng_x")
    assert restored2 == blob

    # an entry without a blob is not an artifact
    cache.put("ng_y", {"kind": "native-graph"})
    assert cache.get_artifact("ng_y") is None


# --------------------------------------------------------------------------
# Reporting and observability
# --------------------------------------------------------------------------


@requires_cc
def test_report_and_spans(native_env):
    from repro.obs import tracing
    from repro.obs.schema import NATIVE_SPANS

    g, out = _simple_graph(random_image(W, H, seed=13))
    with tracing() as tracer:
        report = execute_graph(g, cache=False, workers=1,
                               engine="native")
    assert report.engine == "native"
    assert report.engine_used == "native"
    assert report.metrics()["graph.native_nodes"] == report.launches
    assert "engine:  native" in report.summary()
    names = {s.name for s in tracer.spans()}
    for span_name in NATIVE_SPANS:
        assert span_name in names, f"missing {span_name} span"
