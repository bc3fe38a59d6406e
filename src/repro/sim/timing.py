"""Analytical GPU timing model.

Estimates kernel execution time from first-principles mechanisms — the ones
the paper credits for its measured effects — rather than per-table lookup:

* **compute**: the per-pixel instruction mix issued at the device's ALU rate
  (VLIW underutilisation for scalar code on AMD, dual-issue on GT200), with
  transcendental work charged against a separate SFU throughput;
* **boundary conditionals**: per-access adjustment cost depending on the
  boundary mode (clamp is two min/max, repeat a modulo, constant a
  predicated select) — paid by *every* pixel with inline handling, but only
  by the border-region fraction with the paper's nine-region specialisation,
  which is what makes generated code's time constant across modes;
* **memory**: per-pixel global traffic after cache/texture reuse,
  coalescing efficiency of the block shape, the scratchpad-staging
  alternative (less traffic, but a barrier and lost latency hiding —
  Section IV-A explains why staging rarely pays for small windows);
* **constant memory**: broadcast mask reads are ~1 op on NVIDIA; pricier on
  the era's AMD OpenCL stack;
* **occupancy**: latency hiding degrades below a knee;
* **fixed costs**: kernel launch overhead, backend (CUDA vs OpenCL)
  toolchain efficiency, image-object path penalty.

Absolute milliseconds are calibrated per device to land in the paper's
range; every *relative* effect (who wins, by what factor, what stays
constant) is produced by the mechanisms above.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..backends.base import BorderMode, CodegenOptions, MaskMemory
from ..backends.border import classify_regions
from ..dsl.boundary import Boundary
from ..errors import LaunchError, MappingError
from ..hwmodel.device import DeviceSpec
from ..hwmodel.occupancy import compute_occupancy
from ..ir.analysis import InstructionMix

#: ALU-op cost of full (both-side, both-axis) boundary adjustment per read,
#: calibrated against the per-mode deltas of the paper's manual rows
#: (Tables II/IV): clamp is min/max (often free via saturating address
#: arithmetic), repeat needs integer modulo, constant predicates every load.
BOUNDARY_ADJUST_COST: Dict[Boundary, float] = {
    Boundary.UNDEFINED: 0.0,
    Boundary.CLAMP: 5.0,
    Boundary.MIRROR: 9.0,
    Boundary.REPEAT: 18.0,
    Boundary.CONSTANT: 45.0,
}

#: Single-side adjustments (specialised border regions) cost roughly half.
_SPECIALIZED_SIDE_FACTOR = 0.55

#: Divergence penalty multiplier applied to inline boundary conditionals
#: (border/interior lanes mixing within a warp; mostly hidden by ILP).
_INLINE_DIVERGENCE = 1.0

#: Overlap imperfection: the shorter of compute/memory still steals issue
#: slots from the longer.
_OVERLAP_TAX = 0.15

#: Occupancy knee: below this, latency hiding degrades linearly.
_OCCUPANCY_KNEE = 0.35

#: Scratchpad staging loses part of the multithreading benefit (the paper's
#: stated reason staging rarely helps local operators with small windows).
_SMEM_HIDING_LOSS = 1.12
_SMEM_BARRIER_OPS = 15.0       # per pixel: barrier + staging loop control

#: Fixed costs every thread pays (index setup, scheduling, guards) and
#: every output pixel pays (output addressing) — dominant for small
#: filters (Tables VIII/IX), negligible for the bilateral (Tables II-VII).
#: Mapping several pixels to one thread (OpenCV's PPT=8) amortises the
#: per-thread share, which is exactly why that variant wins.
_THREAD_FIXED_OPS = 90.0
_PIXEL_FIXED_OPS = 20.0

#: OpenCL image-object access overhead: float4 unpack per read plus the
#: write_imagef path (visible on small kernels, hidden under compute on
#: the bilateral — matches Tables III vs VIII).
_OPENCL_IMAGE_READ_OPS = 1.2
_OPENCL_IMAGE_WRITE_OPS = 30.0


@dataclasses.dataclass
class LaunchSpec:
    """Inputs to the timing model for one kernel variant."""

    device: DeviceSpec
    backend: str
    width: int
    height: int
    block: Tuple[int, int]
    window: Tuple[int, int]
    mix: InstructionMix                  # per output pixel
    boundary_mode: Boundary = Boundary.CLAMP
    border: BorderMode = BorderMode.SPECIALIZED
    use_texture: bool = False
    use_smem: bool = False
    mask_memory: MaskMemory = MaskMemory.CONSTANT
    regs_per_thread: int = 20
    smem_bytes_per_block: int = 0
    pixel_bytes: int = 4
    kernel_launches: int = 1
    #: output pixels computed by one thread (OpenCV's PPT); amortises the
    #: per-thread fixed cost
    pixels_per_thread: int = 1
    #: scale on the per-pixel/per-thread fixed costs; < 1 for hand-tuned
    #: library kernels with leaner prologues (OpenCV)
    fixed_ops_scale: float = 1.0
    #: vector width of the generated code (Section VIII): floatN
    #: arithmetic fills AMD's VLIW lanes that scalar code leaves idle
    vector_width: int = 1
    #: multiplicative inefficiency of the producing framework
    #: (1.0 = hand-tuned / generated; RapidMind ~2)
    framework_overhead: float = 1.0
    #: extra per-pixel ALU ops the framework adds (managed arrays etc.)
    framework_ops_per_read: float = 0.0
    #: per-read boundary-adjustment cost override (frameworks with their
    #: own bounds machinery, e.g. RapidMind's managed arrays)
    boundary_cost_override: Optional[float] = None
    #: full per-mode cost table override (libraries with their own border
    #: interpolation, e.g. OpenCV — whose Mirror is its slowest mode)
    boundary_cost_table: Optional[Dict[Boundary, float]] = None

    @classmethod
    def from_options(cls, device: DeviceSpec, options: CodegenOptions,
                     width: int, height: int, window: Tuple[int, int],
                     mix: InstructionMix,
                     boundary_mode: Boundary = Boundary.CLAMP,
                     regs_per_thread: int = 20,
                     smem_bytes_per_block: int = 0,
                     **overrides) -> "LaunchSpec":
        return cls(
            device=device,
            backend=options.backend,
            width=width,
            height=height,
            block=options.block,
            window=window,
            mix=mix,
            boundary_mode=boundary_mode,
            border=options.border,
            use_texture=options.use_texture,
            use_smem=options.use_smem,
            mask_memory=options.mask_memory,
            regs_per_thread=regs_per_thread,
            smem_bytes_per_block=smem_bytes_per_block,
            vector_width=options.vectorize,
            pixels_per_thread=options.pixels_per_thread,
            **overrides,
        )


@dataclasses.dataclass
class TimingBreakdown:
    """Estimated execution time with its components (milliseconds)."""

    total_ms: float
    compute_ms: float
    memory_ms: float
    boundary_ms: float
    launch_ms: float
    occupancy: float
    hiding_factor: float
    border_thread_fraction: float
    traffic_bytes_per_pixel: float
    notes: Dict[str, float] = dataclasses.field(default_factory=dict)


def _boundary_ops_per_pixel(spec: LaunchSpec) -> Tuple[float, float]:
    """(ops, fraction_of_pixels_paying) for boundary handling."""
    mode = spec.boundary_mode
    per_read = BOUNDARY_ADJUST_COST[mode]
    if spec.boundary_cost_table is not None \
            and mode in spec.boundary_cost_table:
        per_read = spec.boundary_cost_table[mode]
    elif spec.device.flat_boundary_cost is not None \
            and mode != Boundary.UNDEFINED:
        # VLIW predication executes every mode at near-identical cost
        per_read = spec.device.flat_boundary_cost
    if spec.boundary_cost_override is not None \
            and mode != Boundary.UNDEFINED:
        per_read = spec.boundary_cost_override
    reads = spec.mix.global_reads
    if spec.border == BorderMode.HARDWARE:
        return 0.0, 0.0
    if spec.border == BorderMode.NONE or mode == Boundary.UNDEFINED:
        return 0.0, 0.0
    if spec.border == BorderMode.INLINE:
        return per_read * reads * _INLINE_DIVERGENCE, 1.0
    # SPECIALIZED: only border-region blocks pay, at single-side cost,
    # plus a handful of dispatch compares for everyone.  A degenerate
    # layout (image smaller than two border spans) falls back to a single
    # both-sides variant — identical cost to inline handling.
    layout = classify_regions(spec.width, spec.height, spec.block,
                              spec.window)
    if layout.degenerate:
        return per_read * reads * _INLINE_DIVERGENCE, 1.0
    frac = layout.border_block_fraction
    ops = per_read * reads * _SPECIALIZED_SIDE_FACTOR
    return ops, frac


def _coalescing_efficiency(spec: LaunchSpec) -> float:
    dev = spec.device
    bx = spec.block[0]
    seg_elems = max(1, dev.memory.coalesce_segment // spec.pixel_bytes)
    contiguous = min(bx, dev.simd_width)
    eff = min(1.0, contiguous / min(dev.simd_width, seg_elems))
    if spec.use_texture:
        eff = max(eff, 0.85)     # texture cache absorbs misalignment
    return max(eff, 0.125)


def _traffic_bytes_per_pixel(spec: LaunchSpec) -> float:
    """Global DRAM traffic per output pixel (reads + the output write)."""
    dev = spec.device
    reads = max(spec.mix.global_reads, 1.0)
    b = spec.pixel_bytes
    windowed = spec.window != (1, 1)

    if spec.use_smem:
        bx, by = spec.block
        wx, wy = spec.window
        tile = (bx + wx - 1) * (by + wy - 1)
        read_traffic = b * tile / float(bx * by)
    elif spec.use_texture and dev.memory.texture_cache:
        reuse = dev.memory.tex_window_reuse
        read_traffic = b * max(1.0, reads * (1.0 - reuse))
    elif dev.memory.has_l1_cache:
        reuse = dev.memory.l1_window_reuse
        read_traffic = b * max(1.0, reads * (1.0 - reuse))
    else:
        # uncached global loads: every read goes to DRAM, but windowed
        # accesses from neighbouring warps hit open DRAM row buffers and
        # overlapping segments, costing roughly half a dedicated fetch
        read_traffic = b * reads
        if windowed:
            read_traffic *= 0.5
    return read_traffic + b      # + output write


def estimate_time(spec: LaunchSpec) -> TimingBreakdown:
    """Estimate one kernel launch (see module docstring).

    Recorded as a ``sim.estimate`` span when tracing is enabled; the
    model itself keeps no timing state of its own (the old ad-hoc
    perf-counter dicts are gone — :mod:`repro.obs` is the one clock).
    """
    from ..obs import span as _span
    with _span("sim.estimate", device=spec.device.name,
               backend=spec.backend):
        return _estimate_time(spec)


def _estimate_time(spec: LaunchSpec) -> TimingBreakdown:
    dev = spec.device
    if not dev.supports_backend(spec.backend):
        raise LaunchError(
            f"{dev.name} does not support backend {spec.backend!r}")
    try:
        occ = compute_occupancy(dev, spec.block[0], spec.block[1],
                                spec.regs_per_thread,
                                spec.smem_bytes_per_block)
    except MappingError as exc:
        raise LaunchError(str(exc)) from exc

    pixels = float(spec.width * spec.height)

    # ---- compute ---------------------------------------------------------
    be_alu = dev.backend_efficiency.get(spec.backend, 1.0)
    be_sfu = dev.backend_sfu_efficiency.get(spec.backend, 1.0)
    # vectorised code fills VLIW lanes scalar code leaves idle (Section
    # VIII: "First manual vectorization shows that the performance
    # improves significantly on graphics cards from AMD"); on scalar
    # (SIMT) architectures the width is already implicit in the warp
    vliw_util = dev.vliw_scalar_utilization
    if spec.vector_width > 1 and dev.vliw_width > 1:
        vliw_util = min(1.0, vliw_util * spec.vector_width * 0.85)
    alu_rate = (dev.total_alus * dev.clock_ghz * 1e9
                * dev.issue_efficiency * vliw_util
                * be_alu)
    sfu_rate = (dev.total_alus * dev.clock_ghz * 1e9
                * dev.sfu_throughput_ratio * dev.issue_efficiency
                * be_sfu)

    alu_ops = spec.mix.alu
    sfu_ops = spec.mix.sfu
    # each thread produces pixels_per_thread * vector_width outputs;
    # per-thread fixed cost amortises over all of them
    outputs_per_thread = max(1, spec.pixels_per_thread) \
        * max(1, spec.vector_width)
    alu_ops += _PIXEL_FIXED_OPS * spec.fixed_ops_scale
    alu_ops += (_THREAD_FIXED_OPS * spec.fixed_ops_scale
                / outputs_per_thread)
    if spec.backend == "opencl" and spec.use_texture:
        alu_ops += (_OPENCL_IMAGE_READ_OPS * spec.mix.global_reads
                    + _OPENCL_IMAGE_WRITE_OPS)
    # constant-memory mask reads: broadcast on NVIDIA, pricier on AMD
    if spec.mask_memory == MaskMemory.CONSTANT:
        alu_ops += spec.mix.mask_reads * dev.constant_mem_read_cost
    elif spec.mask_memory == MaskMemory.GLOBAL:
        alu_ops += spec.mix.mask_reads * 4.0
    if spec.use_smem:
        alu_ops += _SMEM_BARRIER_OPS
    alu_ops += spec.framework_ops_per_read * spec.mix.global_reads

    bh_ops, bh_frac = _boundary_ops_per_pixel(spec)

    t_compute = pixels * (alu_ops / alu_rate + sfu_ops / sfu_rate)
    t_boundary = pixels * bh_frac * bh_ops / alu_rate

    # ---- memory ----------------------------------------------------------
    traffic = _traffic_bytes_per_pixel(spec)
    eff = _coalescing_efficiency(spec)
    bw = dev.memory.bandwidth_gbps * 1e9 * eff
    t_memory = pixels * traffic / bw
    if spec.backend == "opencl" and spec.use_texture:
        t_memory *= dev.image_path_penalty

    # ---- latency hiding ---------------------------------------------------
    hiding = 1.0
    occupancy = occ.occupancy
    if occupancy < _OCCUPANCY_KNEE:
        hiding = _OCCUPANCY_KNEE / max(occupancy, 0.02)
    if spec.use_smem:
        hiding *= _SMEM_HIDING_LOSS

    t_exec = (max(t_compute + t_boundary, t_memory)
              + _OVERLAP_TAX * min(t_compute + t_boundary, t_memory))
    t_exec *= hiding

    # ---- toolchain & fixed costs -----------------------------------------
    # (backend efficiency is already folded into the issue rates above;
    # memory-side toolchain differences ride on the image-path penalty)
    backend_eff = dev.backend_efficiency.get(spec.backend, 1.0)
    t_exec *= spec.framework_overhead
    t_launch = spec.kernel_launches * dev.kernel_launch_overhead_us * 1e-6
    t_exec = t_exec * spec.kernel_launches + t_launch

    return TimingBreakdown(
        total_ms=t_exec * 1e3,
        compute_ms=t_compute * 1e3,
        memory_ms=t_memory * 1e3,
        boundary_ms=t_boundary * 1e3,
        launch_ms=t_launch * 1e3,
        occupancy=occupancy,
        hiding_factor=hiding,
        border_thread_fraction=bh_frac,
        traffic_bytes_per_pixel=traffic,
        notes={
            "alu_ops_per_pixel": alu_ops,
            "sfu_ops_per_pixel": sfu_ops,
            "boundary_ops_per_pixel": bh_ops,
            "coalesce_efficiency": eff,
            "backend_efficiency": backend_eff,
        },
    )
