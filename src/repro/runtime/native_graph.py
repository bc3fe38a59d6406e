"""Native JIT execution of whole pipeline graphs.

One C translation unit per graph: every native-eligible node's CPU
lowering (:mod:`repro.backends.cpu`), the buffer pool's arena flattened
into a single byte slab with compile-time first-fit offsets
(:func:`repro.graph.pool.first_fit_layout`), and one exported segment
function per contiguous run of native nodes.  The TU compiles once with
``cc -O2 -fopenmp`` and executes through ctypes — OpenMP parallelises
the interior loop nest of each kernel exactly as the single-kernel
:mod:`repro.runtime.native` path does.

**The simulator stays the oracle.**  A node joins the native tier only
when its C lowering is provably byte-identical to the simulator.  The
gate is *prove-based*: the abstract interpreter
(:mod:`repro.lint.absint`) must prove every accessor read stays inside
its declared boundary window (and an ``undefined``-boundary accessor
reads only the centre pixel — the C lowering does raw reads there, the
simulator clamps).  Every intrinsic call must be in
:data:`EXACT_INTRINSICS`: the IEEE-exact operations, plus the
transcendentals whose float64-round-once result
(:mod:`repro.intrinsics`) measured byte-identical between NumPy and
glibc — ``pow`` with any exponent among them.

The structural conditions come on top: no interpolated accessors
(``floorf`` resampling drifts by ULPs), no dynamic masks, no casting
accessors and no explicit border-mode overrides.  When the interpreter
itself cannot analyze a kernel, the node is rejected with the error.

Ineligible nodes keep running through the simulator *inside* the native
engine (the scheduler interleaves segment calls with simulator
launches), so a hybrid run is still byte-identical to a pure simulator
run — which is what the differential harness in ``tests/helpers.py``
asserts for every graph.

Compiled artifacts are content-addressed through the PR-1 store: the
graph fingerprint folds every canonical IR, the topology and segment
structure, the slab layout, the codegen options and the compiler
version.  Warm starts resolve the ``.so`` from the materialised workdir
or the artifact store and never invoke the C compiler (proven by test
via a monkeypatched ``subprocess.run``).
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import __version__
from ..backends.base import CodegenOptions, c_float_literal
from ..backends.cpu import CpuBackend, CpuKernelUnit, cpu_common_preamble
from ..cache.store import CompilationCache
from ..dsl.image import Image
from ..errors import CodegenError
from ..graph.fusion import _renamed_ir
from ..graph.pool import BufferPool, first_fit_layout
from ..ir.nodes import KernelIR, MaskRead
from ..ir.visitors import map_exprs
from ..obs import span
from .native import compiler_signature, find_c_compiler, native_workdir

#: bump when the emitted TU shape or the ABI of segment entry points
#: changes — stored entries with another format are ignored
NATIVE_GRAPH_FORMAT = 3

#: slab row alignment in *elements* (64 bytes for float32 rows — the
#: same padding the simulator's launch path would apply)
SLAB_ALIGNMENT = 16

#: round every slab tenant to this many bytes so rows of the next
#: tenant start cache-line aligned
_SLAB_PAD = 64

#: intrinsics whose C lowering is byte-identical to the simulator.
#: IEEE 754 requires correctly-rounded sqrt; fabs/floor/ceil/trunc/
#: fmin/fmax/fmod are exact operations; min/max lower to comparison
#: macros.  The transcendentals evaluate in double and round once on
#: both sides, which NumPy and glibc agreed on for millions of samples
#: each (docs/NATIVE.md; pow at exponents 0.8, 2.2 and random [-4, 4])
#: plus the special values ±0, ±inf, NaN, subnormals, FLT_MAX and
#: negative bases (tests/test_intrinsic_agreement.py checks it on every
#: run).  Out:
#: log10/asin/acos (not admitted until their agreement is measured
#: like the others'), `round` (NumPy banker's vs C half-away ties), and
#: clamp/rsqrt (no libm spelling).
EXACT_INTRINSICS = frozenset({
    "sqrt", "fabs", "abs", "floor", "ceil", "trunc",
    "fmin", "fmax", "min", "max", "fmod",
    "exp", "exp2", "log", "log2", "sin", "cos", "tan", "atan", "atan2",
    "sinh", "cosh", "tanh", "pow",
})


# --------------------------------------------------------------------------
# Eligibility
# --------------------------------------------------------------------------


def _structural_ineligibility(node) -> Optional[str]:
    """The rejects that need no analysis."""
    if node.compiled is None:
        raise CodegenError(
            f"node {node.name!r} is not compiled; run compile_graph "
            "before planning native execution")
    if "border" in node.options:
        return "explicit border-mode override"
    ir = node.compiled.ir
    out_img = node.iteration_space.image
    if ir.pixel_type.name != out_img.pixel_type.name:
        return "output cast: kernel and image pixel types differ"
    for acc in ir.accessors:
        if acc.interpolation is not None:
            return f"interpolated accessor {acc.name!r}"
        image = node.accessor_objs[acc.name].image
        if acc.pixel_type.name != image.pixel_type.name:
            return f"casting accessor {acc.name!r}"
    for mask in ir.masks:
        if mask.coefficients is None:
            return f"dynamic mask {mask.name!r}"
    return None


def _fmt_bound(v: float) -> str:
    if v == float("-inf"):
        return "-inf"
    if v == float("inf"):
        return "inf"
    return f"{int(v)}" if float(v).is_integer() else f"{v:g}"


def prove_ineligibility(node) -> Optional[str]:
    """The prove-based gate: run the abstract interpreter over the
    node's typed IR and demand a proof for every access and intrinsic.
    Returns the first unproven fact as the reason, or ``None`` when the
    whole kernel is proven bit-exact-lowerable."""
    from ..lint.absint import interpret

    reason = _structural_ineligibility(node)
    if reason is not None:
        return reason
    result = interpret(node.compiled.ir)
    for r in result.reads:
        if r.in_window is not True:
            dx, dy = r.dx, r.dy
            return (f"unproven access: accessor {r.accessor!r} offsets "
                    f"[{_fmt_bound(dx.lo)}..{_fmt_bound(dx.hi)}]x"
                    f"[{_fmt_bound(dy.lo)}..{_fmt_bound(dy.hi)}] not "
                    f"proven inside its {r.window[0]}x{r.window[1]} "
                    f"window")
        if r.boundary_mode == "undefined" and not (
                r.dx.lo >= 0 >= r.dx.hi and r.dy.lo >= 0 >= r.dy.hi):
            # the C lowering reads raw memory where the simulator
            # clamps: only centre-pixel reads are provably identical
            return (f"unproven access: accessor {r.accessor!r} reads a "
                    f"halo under undefined boundary handling")
    for c in result.calls:
        if c.func not in EXACT_INTRINSICS:
            return f"inexact intrinsic {c.func!r}"
    return None


def native_ineligibility(node) -> Optional[str]:
    """Why *node* cannot join the native tier, or None when it can.

    The rules are exactly the bit-exactness argument in the module
    docstring; anything rejected here runs through the simulator
    instead, keeping hybrid output byte-identical by construction.
    A kernel the abstract interpreter cannot analyze is rejected with
    the interpreter's error.
    """
    try:
        return prove_ineligibility(node)
    except CodegenError:
        raise
    except Exception as exc:
        return f"analysis failed: {type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------
# Planning
# --------------------------------------------------------------------------


@dataclasses.dataclass
class BufferBinding:
    """Where one image lives during native execution."""

    kind: str          # "slab" | "ext"
    index: int         # slab tenant ordinal / ext pointer slot
    offset: int        # byte offset into the slab (0 for ext)
    stride: int        # row stride in elements


@dataclasses.dataclass
class NodeLowering:
    """One node's place in the native plan."""

    index: int                    # position in topological order
    node: object                  # GraphNode
    native: bool
    reason: Optional[str] = None  # ineligibility reason when not native
    ir: Optional[KernelIR] = None         # renamed IR (call-site truth)
    unit: Optional[CpuKernelUnit] = None
    acc_objs: Optional[Dict[str, object]] = None  # renamed name -> Accessor


@dataclasses.dataclass
class NativeGraphPlan:
    """Everything the emitter and the executor need, precomputed."""

    graph_name: str
    lowerings: List[NodeLowering]
    #: node indices per exported segment function, in execution order
    segments: List[List[int]]
    #: interleaved execution plan: ("native", segment) | ("sim", node idx)
    schedule: List[Tuple[str, int]]
    #: externally-visible images, in ext[] slot order
    ext_images: List[Image]
    bindings: Dict[int, BufferBinding]    # id(image) -> binding
    slab_bytes: int
    slab_allocs: int
    slab_reuses: int
    #: per segment: (ext slots to seed before the call,
    #:               ext slots to write back after it)
    seg_io: List[Tuple[List[int], List[int]]]
    reasons: Dict[str, str]               # node name -> fallback reason

    @property
    def native_count(self) -> int:
        return sum(1 for lw in self.lowerings if lw.native)


def _sanitize(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z_]", "_", name)


def _rename_masks(ir: KernelIR, prefix: str) -> KernelIR:
    """Prefix mask names (``_renamed_ir`` leaves them alone — fine for
    fusion's single-kernel output, a collision hazard in a shared TU)."""
    mask_map = {m.name: prefix + m.name for m in ir.masks}
    if not mask_map:
        return ir

    def rename(e):
        if isinstance(e, MaskRead) and e.mask in mask_map:
            return dataclasses.replace(e, mask=mask_map[e.mask])
        return e

    return dataclasses.replace(
        ir,
        body=map_exprs(ir.body, rename),
        masks=[dataclasses.replace(m, name=mask_map[m.name])
               for m in ir.masks])


def _lower_node(node, index: int) -> NodeLowering:
    """Namespace one node's IR into the shared TU and lower it."""
    prefix = f"g{index}_"
    renamed, acc_map = _renamed_ir(node.compiled.ir, prefix)
    renamed = _rename_masks(renamed, prefix)
    renamed = dataclasses.replace(
        renamed, name=_sanitize(f"n{index}_{node.compiled.ir.name}"))
    acc_objs = {new: node.accessor_objs[old]
                for old, new in acc_map.items()}
    space = node.iteration_space
    backend = CpuBackend(CodegenOptions(backend="cpu"))
    unit = backend.kernel_unit(renamed, (space.width, space.height))
    return NodeLowering(index=index, node=node, native=True,
                        ir=renamed, unit=unit, acc_objs=acc_objs)


def plan_native_graph(graph, order=None) -> NativeGraphPlan:
    """Partition *graph* into native segments and simulator launches,
    classify every image as slab-backed or external, and assign slab
    offsets by first-fit over topological lifetimes."""
    order = list(order if order is not None else graph.topological_order())
    lowerings: List[NodeLowering] = []
    reasons: Dict[str, str] = {}
    for i, node in enumerate(order):
        reason = native_ineligibility(node)
        if reason is None:
            try:
                lowerings.append(_lower_node(node, i))
                continue
            except CodegenError as exc:
                reason = f"cpu lowering failed: {exc}"
        reasons[node.name] = reason
        lowerings.append(NodeLowering(index=i, node=node, native=False,
                                      reason=reason))

    # maximal contiguous runs of native nodes become segments
    segments: List[List[int]] = []
    schedule: List[Tuple[str, int]] = []
    for lw in lowerings:
        if lw.native:
            if segments and schedule and schedule[-1][0] == "native":
                segments[-1].append(lw.index)
            else:
                segments.append([lw.index])
                schedule.append(("native", len(segments) - 1))
        else:
            schedule.append(("sim", lw.index))

    # -- image classification ----------------------------------------------
    native_set = {id(lw.node) for lw in lowerings if lw.native}
    outputs = graph.outputs()

    def touched_by_sim(img: Image) -> bool:
        producer = graph.producer_of(img)
        if producer is not None and id(producer) not in native_set:
            return True
        return any(id(c) not in native_set
                   for c in graph.consumers_of(img))

    slab_images: List[Tuple[Image, int, int]] = []   # (img, start, end)
    ext_images: List[Image] = []
    ext_index: Dict[int, int] = {}
    topo_pos = {id(lw.node): lw.index for lw in lowerings}

    def bind_ext(img: Image) -> None:
        if id(img) not in ext_index:
            ext_index[id(img)] = len(ext_images)
            ext_images.append(img)

    for lw in lowerings:
        if not lw.native:
            continue
        images = [lw.node.output] + [a.image for a in lw.acc_objs.values()]
        for img in images:
            if id(img) in ext_index \
                    or any(img is s for s, _, _ in slab_images):
                continue
            producer = graph.producer_of(img)
            consumers = graph.consumers_of(img)
            is_intermediate = (producer is not None and consumers
                               and not any(img is o for o in outputs))
            if is_intermediate and not touched_by_sim(img):
                start = topo_pos[id(producer)]
                end = max(topo_pos[id(c)] for c in consumers)
                slab_images.append((img, start, end))
            else:
                bind_ext(img)

    # -- slab layout ---------------------------------------------------------
    requests = []
    for img, start, end in slab_images:
        stride = BufferPool.padded_stride(img.width, SLAB_ALIGNMENT)
        nbytes = img.height * stride * img.pixel_type.np_dtype.itemsize
        nbytes = -(-nbytes // _SLAB_PAD) * _SLAB_PAD
        requests.append((start, end, nbytes))
    offsets, slab_bytes, allocs, reuses = first_fit_layout(requests)

    bindings: Dict[int, BufferBinding] = {}
    for slot, ((img, _, _), off) in enumerate(zip(slab_images, offsets)):
        stride = BufferPool.padded_stride(img.width, SLAB_ALIGNMENT)
        bindings[id(img)] = BufferBinding(kind="slab", index=slot,
                                          offset=off, stride=stride)
    for img in ext_images:
        bindings[id(img)] = BufferBinding(kind="ext",
                                          index=ext_index[id(img)],
                                          offset=0, stride=img.width)

    # -- per-segment external I/O -------------------------------------------
    seg_io: List[Tuple[List[int], List[int]]] = []
    for seg in segments:
        touched, written = set(), set()
        for idx in seg:
            lw = lowerings[idx]
            out_b = bindings[id(lw.node.output)]
            if out_b.kind == "ext":
                touched.add(out_b.index)
                written.add(out_b.index)
            for acc in lw.ir.accessors:
                b = bindings[id(lw.acc_objs[acc.name].image)]
                if b.kind == "ext":
                    touched.add(b.index)
        seg_io.append((sorted(touched), sorted(written)))

    return NativeGraphPlan(
        graph_name=graph.name,
        lowerings=lowerings,
        segments=segments,
        schedule=schedule,
        ext_images=ext_images,
        bindings=bindings,
        slab_bytes=slab_bytes,
        slab_allocs=allocs,
        slab_reuses=reuses,
        seg_io=seg_io,
        reasons=reasons,
    )


# --------------------------------------------------------------------------
# Emission
# --------------------------------------------------------------------------


def _binding_ptr(b: BufferBinding) -> str:
    if b.kind == "slab":
        return f"slab + {b.offset}"
    return f"ext[{b.index}]"


def _call_line(lw: NodeLowering,
               bindings: Dict[int, BufferBinding]) -> str:
    node, ir = lw.node, lw.ir
    space = node.iteration_space
    out_b = bindings[id(node.output)]
    out_t = ir.pixel_type.cuda_name
    args = [f"({out_t} *)({_binding_ptr(out_b)})", str(out_b.stride)]
    for acc in ir.accessors:
        img = lw.acc_objs[acc.name].image
        b = bindings[id(img)]
        t = acc.pixel_type.cuda_name
        args += [f"(const {t} *)({_binding_ptr(b)})",
                 str(img.width), str(img.height), str(b.stride)]
    args += [str(space.width), str(space.height),
             str(space.offset_x), str(space.offset_y)]
    for p in ir.params:
        if not p.baked:
            if p.type.is_float:
                args.append(c_float_literal(float(p.value), p.type))
            else:
                args.append(str(int(p.value)))
    return f"    {lw.unit.entry}({', '.join(args)});"


def emit_graph_source(plan: NativeGraphPlan) -> str:
    """The whole graph as one C99 translation unit."""
    lines: List[str] = [
        f"// pipeline graph {plan.graph_name!r}: generated by hipacc-py "
        "(native graph tier)",
        f"// {plan.native_count} native node(s), "
        f"{len(plan.segments)} segment(s), "
        f"{plan.slab_bytes} slab byte(s)",
    ]
    lines += cpu_common_preamble()
    lines += ["#include <string.h>", ""]
    for lw in plan.lowerings:
        if not lw.native:
            continue
        lines.append(f"// node {lw.node.name!r} ({lw.node.label()})")
        lines += lw.unit.interp_lines
        lines += lw.unit.mask_lines
        lines += lw.unit.func_lines
        lines.append("")
    for k, seg in enumerate(plan.segments):
        lines.append(f"void repro_graph_seg{k}(void * const *ext, "
                     "unsigned char *slab) {")
        lines.append("    (void)ext; (void)slab;")
        for idx in seg:
            lw = plan.lowerings[idx]
            lines.append(f"    // node {lw.node.name!r}")
            out_b = plan.bindings[id(lw.node.output)]
            if out_b.kind == "slab":
                img = lw.node.output
                nbytes = (img.height * out_b.stride
                          * img.pixel_type.np_dtype.itemsize)
                # fresh-Image / pool zero-fill semantics: the producer
                # may cover only part of the image
                lines.append(f"    memset(slab + {out_b.offset}, 0, "
                             f"{nbytes});")
            lines.append(_call_line(lw, plan.bindings))
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Fingerprinting
# --------------------------------------------------------------------------


def graph_fingerprint(source: str, cc: str, openmp: bool = True) -> str:
    """sha256 content address of the native compilation: the emitted
    TU (every lowered node, geometry, bindings, slab offsets and baked
    parameters are literals in it), the format, the compiler version
    and the flags.  A change to the lowering changes the source, so a
    stale ``.so`` can never be resurrected."""
    doc = {
        "kind": "native-graph",
        "format": NATIVE_GRAPH_FORMAT,
        "version": __version__,
        "cc": compiler_signature(cc),
        "openmp": bool(openmp),
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
    }
    blob = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------------
# Compilation (workdir -> artifact store -> fresh compile)
# --------------------------------------------------------------------------


@dataclasses.dataclass
class NativeGraphModule:
    """A compiled-and-loaded native graph, ready to execute."""

    plan: NativeGraphPlan
    fingerprint: str
    library_path: str
    source: str
    #: where the loaded ``.so`` came from: "workdir" (materialised file
    #: from an earlier run), "store" (artifact cache), or "fresh"
    #: (C compiler invoked this call)
    origin: str
    entries: List[str]
    _lib: ctypes.CDLL = dataclasses.field(repr=False, default=None)

    def executor(self) -> "NativeGraphExecutor":
        return NativeGraphExecutor(self)


class NativeGraphExecutor:
    """Per-execution buffers: the slab plus one contiguous array per
    external image, with copy-in/copy-out around each segment call."""

    def __init__(self, module: NativeGraphModule):
        self.module = module
        plan = module.plan
        self._slab = np.zeros(max(plan.slab_bytes, 1), dtype=np.uint8)
        self._ext = [np.zeros((img.height, img.width),
                              dtype=img.pixel_type.np_dtype)
                     for img in plan.ext_images]
        self._ptrs = (ctypes.c_void_p * max(len(self._ext), 1))()
        for j, buf in enumerate(self._ext):
            self._ptrs[j] = buf.ctypes.data
        self._slab_ptr = ctypes.c_void_p(self._slab.ctypes.data)

    @property
    def nbytes(self) -> int:
        return self._slab.nbytes + sum(buf.nbytes for buf in self._ext)

    def run_segment(self, k: int) -> None:
        plan = self.module.plan
        touched, written = plan.seg_io[k]
        for j in touched:
            # seed reads *and* writes: a partial iteration space must
            # preserve the pixels outside it, exactly like the simulator
            self._ext[j][...] = plan.ext_images[j].pixels
        fn = getattr(self.module._lib, self.module.entries[k])
        fn(self._ptrs, self._slab_ptr)
        for j in written:
            plan.ext_images[j].pixels[...] = self._ext[j]


def _atomic_write(path: str, blob: bytes) -> None:
    fd, tmp = tempfile.mkstemp(suffix=".tmp",
                               dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def compile_native_graph(graph, order=None,
                         cache: Optional[CompilationCache] = None,
                         cc: Optional[str] = None,
                         openmp: bool = True) -> NativeGraphModule:
    """Plan, fingerprint and load the native module for *graph*.

    Resolution order — materialised ``.so`` in the workdir, then the
    artifact *cache*, then a fresh ``cc`` invocation; the first two
    never spawn a subprocess, which is what keeps warm starts free of
    compiler invocations.
    Raises :class:`CodegenError` when no compiler is on PATH or no node
    is native-eligible (callers fall back to the simulator).
    """
    cc = cc or find_c_compiler()
    if cc is None:
        raise CodegenError("no C compiler found on PATH")
    with span("native.compile", graph=graph.name) as sp:
        plan = plan_native_graph(graph, order)
        if plan.native_count == 0:
            raise CodegenError(
                "no native-eligible nodes in graph "
                f"{graph.name!r}: " + "; ".join(
                    f"{n}: {r}" for n, r in sorted(plan.reasons.items())))
        source = emit_graph_source(plan)
        fingerprint = graph_fingerprint(source, cc, openmp)
        key = f"ng_{fingerprint}"
        entries = [f"repro_graph_seg{k}"
                   for k in range(len(plan.segments))]
        workdir = native_workdir("hipacc_py_native_graph")
        so_path = os.path.join(workdir, f"graph_{fingerprint[:16]}.so")

        lib = None
        origin = "fresh"
        if os.path.exists(so_path):
            try:
                lib = ctypes.CDLL(so_path)
                origin = "workdir"
            except OSError:
                # stale or truncated .so: heal by falling through
                try:
                    os.unlink(so_path)
                except OSError:
                    pass
        if lib is None and cache is not None:
            hit = cache.get_artifact(key)
            if hit is not None:
                payload, blob = hit
                if (payload.get("kind") == "native-graph"
                        and payload.get("format") == NATIVE_GRAPH_FORMAT):
                    _atomic_write(so_path, blob)
                    try:
                        lib = ctypes.CDLL(so_path)
                        origin = "store"
                    except OSError:
                        cache.invalidate(key)
                        try:
                            os.unlink(so_path)
                        except OSError:
                            pass
                else:
                    cache.invalidate(key)
        if lib is None:
            c_path = so_path[:-3] + ".c"
            with open(c_path, "w") as fh:
                fh.write(source)
            cmd = [cc, "-O2", "-shared", "-fPIC", "-std=c99",
                   c_path, "-o", so_path, "-lm"]
            if openmp:
                cmd.insert(1, "-fopenmp")
            result = subprocess.run(cmd, capture_output=True, text=True,
                                    timeout=240)
            if result.returncode != 0:
                raise CodegenError(
                    f"native graph compilation failed:\n{result.stderr}")
            lib = ctypes.CDLL(so_path)
            origin = "fresh"
            if cache is not None:
                with open(so_path, "rb") as fh:
                    blob = fh.read()
                cache.put_artifact(key, {
                    "kind": "native-graph",
                    "format": NATIVE_GRAPH_FORMAT,
                    "cc": compiler_signature(cc),
                    "entries": entries,
                    "source_sha256":
                        hashlib.sha256(source.encode()).hexdigest(),
                }, blob)

        for entry in entries:
            fn = getattr(lib, entry)
            fn.restype = None
            fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                           ctypes.c_void_p]
        sp.attrs.update(origin=origin, segments=len(plan.segments),
                        native_nodes=plan.native_count,
                        slab_bytes=plan.slab_bytes)
        return NativeGraphModule(plan=plan, fingerprint=fingerprint,
                                 library_path=so_path, source=source,
                                 origin=origin, entries=entries,
                                 _lib=lib)
