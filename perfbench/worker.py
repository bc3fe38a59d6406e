"""The library workloads, each run in a fresh process of its own.

``graph_large`` calls :func:`repro.graph.execute_graph` with the
library's defaults on the ``edge`` pipeline over distinct large frames;
``compile_sweep`` calls :func:`repro.runtime.compile.compile_kernel`
cold over seeded rounds of builtin filter configurations.  The process
prints one ``PERFBENCH`` line when set-up is done and, when asked to
measure, one with the results (see ``run.py``)::

    python3 perfbench/worker.py graph_large --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import common
import inputs
import reference

common.use_sources()


# ---------------------------------------------------------------------------
# graph_large
# ---------------------------------------------------------------------------


def build_edge_graph(data: np.ndarray):
    """The ``edge`` pipeline as a library caller writes it, over *data*;
    returns ``(graph, output_image)``."""
    from repro.dsl import (Accessor, Boundary, BoundaryCondition, Image,
                           IterationSpace, Mask)
    from repro.filters.median import Median3x3
    from repro.filters.point_ops import GammaCorrection, Scale
    from repro.filters.sobel import (SOBEL_X, SOBEL_Y, GradientMagnitude,
                                     SobelX, SobelY)
    from repro.graph import PipelineGraph

    h, w = data.shape
    src = Image(w, h, float, name="src")
    src.set_data(data)
    den, gx, gy, mag, scaled, out = (
        Image(w, h, float, name=n) for n in
        ("denoised", "grad_x", "grad_y", "magnitude", "scaled", "edges"))
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
    return g, out


class GraphLarge:
    """Each op: build the graph over a new frame, execute it with the
    library's defaults (no compilation cache), read the output back."""

    size = 1024
    #: rows per compared band
    band = 64

    def __init__(self, args):
        self.rng = np.random.default_rng([args.seed, 5])
        if args.tiny:
            self.size = 96
        self.corrupt_every = args.corrupt_every
        self.launches = 0
        self.checked = 0

    def op(self) -> Tuple[float, float, bool, int]:
        """``(start, end, output correct, pixels)`` of one op."""
        from repro.graph import execute_graph

        data = inputs.frame(self.rng, self.size, self.size)
        t0 = time.monotonic()
        graph, out = build_edge_graph(data)
        report = execute_graph(graph, engine="auto")
        result = out.get_data()
        t1 = time.monotonic()
        self.launches += report.launches
        return t0, t1, self.check(result, data), result.size

    def warm_up(self) -> bool:
        ok = all(self.op()[2] for _ in range(2))
        self.launches = 0
        return ok

    def check(self, result: np.ndarray, data: np.ndarray) -> bool:
        """Compare the first and last rows and one seeded band between
        them: every border of the frame, at a fifth of the cost of the
        whole frame's reference."""
        self.checked += 1
        if self.corrupt_every and self.checked % self.corrupt_every == 0:
            result = result.copy()
            result[0, 0] += 1.0
        h = result.shape[0]
        band = min(self.band, h // 3)
        mid = int(self.rng.integers(band, h - 2 * band + 1))
        return all(reference.matches(result[rows],
                                     reference.edge_rows(data, rows))
                   for rows in (slice(0, band), slice(mid, mid + band),
                                slice(h - band, h)))

    def figures(self) -> Dict[str, float]:
        return {}

    def extra_layers(self, ops: int) -> Dict[str, float]:
        return {"graph.launches": self.launches / max(ops, 1)}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# compile_sweep
# ---------------------------------------------------------------------------


def _image(width: int, height: int, data=None):
    from repro.dsl import Image

    img = Image(width, height, float)
    if data is not None:
        img.set_data(data)
    return img


#: inputs of the point operators that read more than one image
ARITY = {"absdiff": 2, "blend": 2, "multiply": 2, "harris": 3}


def _arity(cfg: inputs.CompileConfig) -> int:
    return ARITY.get(cfg.params.get("kind"), 1)


def build_kernel(cfg: inputs.CompileConfig, width: int, height: int,
                 datas: List[np.ndarray] = ()
                 ) -> Tuple[Any, Any, Callable[[], np.ndarray]]:
    """``(kernel, output_image, reference())`` for *cfg* at ``width`` x
    ``height``; *datas* fill the input images."""
    from repro.dsl import (Accessor, Boundary, BoundaryCondition,
                           IterationSpace)
    from repro.filters import (bilateral, diffusion, gaussian, harris,
                               laplacian, median, morphology, point_ops,
                               sobel)

    p = dict(cfg.params)
    data = datas[0] if datas else None
    boundary = p.get("boundary", "clamp")
    bmode = Boundary(boundary)
    if cfg.family == "bilateral":
        k, _, out = bilateral.make_bilateral(
            width, height, p["sigma_d"], p["sigma_r"], bmode,
            p["constant"], p["use_mask"], data)
        return k, out, lambda: reference.bilateral(
            data, p["sigma_d"], p["sigma_r"], boundary, p["constant"],
            p["use_mask"])
    if cfg.family == "gaussian":
        k, _, out = gaussian.make_gaussian(
            width, height, p["size"], None, bmode, p["constant"], data)
        return k, out, lambda: reference.correlate(
            data, reference.gaussian_mask(p["size"]), boundary,
            p["constant"])
    if cfg.family == "sobel":
        k, _, out = sobel.make_sobel(width, height, p["axis"], bmode,
                                     p["constant"], data)
        coeffs = reference.SOBEL_X if p["axis"] == "x" \
            else reference.SOBEL_Y
        return k, out, lambda: reference.correlate(
            data, coeffs, boundary, p["constant"])
    if cfg.family == "laplacian":
        k, _, out = laplacian.make_laplacian(
            width, height, p["connectivity"], bmode, data)
        return k, out, lambda: reference.correlate(
            data, reference.LAPLACIAN[p["connectivity"]], boundary)
    if cfg.family == "median":
        k, _, out = median.make_median(width, height, bmode, data)
        return k, out, lambda: reference.median3(data, boundary)
    if cfg.family == "diffusion":
        k, _, out = diffusion.make_diffusion_step(
            width, height, p["kappa"], p["lam"], bmode, data)
        return k, out, lambda: reference.diffusion(
            data, p["kappa"], p["lam"], boundary)
    if cfg.family == "morphology":
        k, _, out = morphology.make_morphology(
            width, height, p["operation"], p["size"], p["shape"], bmode,
            data)
        return k, out, lambda: reference.morphology(
            data, p["operation"], p["size"], p["shape"], boundary)

    # point operators over one or more inputs
    kind = p["kind"]
    imgs = [_image(width, height, datas[i] if datas else None)
            for i in range(_arity(cfg))]
    out = _image(width, height)
    space = IterationSpace(out)
    accs = [Accessor(img) for img in imgs]
    if kind == "scale":
        k = point_ops.Scale(space, accs[0], p["factor"], p["offset"])
    elif kind == "add":
        k = point_ops.AddConstant(space, accs[0], p["value"])
    elif kind == "threshold":
        k = point_ops.Threshold(space, accs[0], p["value"])
    elif kind == "gamma":
        k = point_ops.GammaCorrection(space, accs[0], p["gamma"])
    elif kind == "absdiff":
        k = point_ops.AbsDiff(space, accs[0], accs[1])
    elif kind == "blend":
        k = point_ops.LinearBlend(space, accs[0], accs[1], p["alpha"])
    elif kind == "multiply":
        k = harris.Multiply(space, accs[0], accs[1])
    else:
        k = harris.HarrisResponse(space, *accs, p["k"])
    return k, out, lambda: reference.point(kind, datas, p)


class CompileSweep:
    """Each op: one round, a configuration of every family, compiled
    cold (each with a fresh on-disk cache), plus the timing model's
    device time of each result.  Timing a whole round makes every op
    the same mix of families whatever the seed.

    One compiled configuration in ``check_every`` is also compiled at a
    small geometry, executed on the simulator and compared with its
    reference.  Configurations with undefined border handling are not:
    their border pixels have no defined value and the simulator faults
    on out-of-bounds reads.
    """

    check_every = 12
    check_size = (40, 33)

    def __init__(self, args):
        self.rng = np.random.default_rng([args.seed, 11])
        self.check_rng = np.random.default_rng([args.seed, 13])
        self.shapes = inputs.SHAPES
        if args.tiny:
            self.shapes = tuple((w // 16, h // 16) for w, h in self.shapes)
        self.corrupt_every = args.corrupt_every
        self.device_ms: List[float] = []
        self.cache_root = tempfile.mkdtemp(prefix="caches-")
        self.checked = 0

    def op(self) -> Tuple[float, float, bool, int]:
        """``(start, end, outputs correct, compiled pixels)`` of one
        round; building the kernels and the empty caches is not timed."""
        from repro.cache import CompilationCache
        from repro.runtime.compile import compile_kernel

        configs = inputs.compile_round(self.rng, self.shapes)
        jobs = [(cfg, build_kernel(cfg, cfg.width, cfg.height)[0],
                 CompilationCache(directory=tempfile.mkdtemp(
                     dir=self.cache_root)))
                for cfg in configs]
        t0 = time.monotonic()
        for cfg, kernel, cache in jobs:
            compiled = compile_kernel(kernel, backend=cfg.backend,
                                      device=cfg.device, cache=cache)
            self.device_ms.append(compiled.estimate_time().total_ms)
        t1 = time.monotonic()
        for _, _, cache in jobs:
            shutil.rmtree(cache.directory, ignore_errors=True)
        ok = True
        for cfg in configs:
            if (self.check_rng.random() < 1.0 / self.check_every
                    and cfg.params.get("boundary") != "undefined"):
                ok = self.check(cfg) and ok
        return t0, t1, ok, sum(cfg.width * cfg.height for cfg in configs)

    def warm_up(self) -> bool:
        """The first op already ran every family's code."""
        self.device_ms.clear()
        return True

    def check(self, cfg: inputs.CompileConfig) -> bool:
        from repro.runtime.compile import compile_kernel

        w, h = self.check_size
        datas = [inputs.frame(self.check_rng, h, w)
                 for _ in range(_arity(cfg))]
        kernel, out, ref = build_kernel(cfg, w, h, datas)
        compile_kernel(kernel, backend=cfg.backend,
                       device=cfg.device).execute()
        result = out.get_data()
        self.checked += 1
        if self.corrupt_every and self.checked % self.corrupt_every == 0:
            result[h // 2, w // 2] += 1.0
        return reference.matches(result, ref())

    def figures(self) -> Dict[str, float]:
        """Geometric mean of the modelled device time of the kernels."""
        logs = [math.log(v) for v in self.device_ms if v > 0]
        return {"modelled_device_ms": math.exp(sum(logs) / len(logs))
                if logs else 0.0}

    def extra_layers(self, ops: int) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)


WORKLOADS = {"graph_large": GraphLarge, "compile_sweep": CompileSweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--measure", type=int, default=1)
    parser.add_argument("--tiny", type=int, default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        dest="corrupt_every")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import layers
        recorder = layers.Recorder()
        layers.install(recorder)
    work = WORKLOADS[args.workload](args)
    try:
        # set-up: the first op must succeed, then warm-up
        ok = work.op()[2]
        ok = work.warm_up() and ok
        common.emit_line({"event": "ready", "ok": ok})
        if args.measure:
            common.emit_line(measure(work, args.seconds, recorder))
    finally:
        work.close()
    return 0


def measure(work, seconds: float, recorder) -> Dict[str, Any]:
    """Run ops until *seconds* of op time have passed; returns the
    ``result`` event.  Only the timed part of
    each op counts in the traced figures, not its output check."""
    latencies: List[float] = []
    windows: List[Tuple[float, float]] = []
    attempted = failed = pixels = 0
    busy = 0.0
    while busy < seconds:
        attempted += 1
        try:
            t0, t1, ok, size = work.op()
        except Exception as exc:   # noqa: BLE001 - a failed op is counted
            print(f"op failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += 1
            continue
        busy += t1 - t0
        if ok:
            latencies.append((t1 - t0) * 1e3)
            windows.append((t0, t1))
            pixels += size
        else:
            failed += 1
    doc: Dict[str, Any] = {
        "event": "result", "attempted": attempted, "failed": failed,
        "latencies_ms": latencies, "busy_s": busy, "pixels": pixels,
        "peak_rss_mb": common.peak_rss_mb(), "figures": work.figures()}
    if recorder is not None:
        import layers
        doc["layers"] = layers.layer_metrics(
            recorder.dump(), windows, len(latencies), sum(latencies),
            layers.calibrate())
        doc["layers"].update(work.extra_layers(len(latencies)))
    return doc


if __name__ == "__main__":
    sys.exit(main())
