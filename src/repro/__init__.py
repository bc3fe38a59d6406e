"""hipacc-py: a Python reproduction of *Generating Device-specific GPU Code
for Local Operators in Medical Imaging* (Membarth et al., IPDPS 2012).

The package provides the paper's full pipeline:

* an embedded DSL for image-processing kernels
  (:class:`Image`, :class:`IterationSpace`, :class:`Accessor`,
  :class:`BoundaryCondition`, :class:`Mask`, :class:`Kernel`),
* a source-to-source compiler emitting device-specific CUDA and OpenCL
  (:func:`compile_kernel`), including nine-region boundary-handling
  specialisation, texture/scratchpad/constant-memory lowering and the
  occupancy-driven configuration heuristic (Algorithm 2),
* an abstract GPU hardware model with the paper's four evaluation devices,
* a simulated GPU substrate (functional executor + analytical timing model)
  standing in for the silicon, and
* the baselines of the evaluation section (manual variants, a
  RapidMind-like framework, OpenCV-like separable filters).

Quickstart::

    import numpy as np
    from repro import (Image, IterationSpace, Accessor, BoundaryCondition,
                       Boundary, Mask, Kernel, compile_kernel)

    class Blur(Kernel):
        def __init__(self, IS, inp, mask):
            super().__init__(IS)
            self.inp = inp
            self.mask = mask
            self.add_accessor(inp)

        def kernel(self):
            s = 0.0
            for dy in range(-1, 2):
                for dx in range(-1, 2):
                    s += self.mask(dx, dy) * self.inp(dx, dy)
            self.output(s)

    src = Image(512, 512); dst = Image(512, 512)
    src.set_data(np.random.rand(512, 512))
    acc = Accessor(BoundaryCondition(src, 3, 3, Boundary.CLAMP))
    blur = Blur(IterationSpace(dst), acc, Mask(3, 3).set(np.full((3, 3), 1/9)))
    compiled = compile_kernel(blur, backend="cuda", device="Tesla C2050")
    print(compiled.device_code)          # generated CUDA
    report = compiled.execute()          # simulated run
    print(report.time_ms, dst.get_data().mean())
"""

__version__ = "1.0.0"

from .errors import (  # noqa: F401
    CodegenError,
    DeviceFault,
    DslError,
    FrontendError,
    GraphError,
    HipaccError,
    LaunchError,
    MappingError,
)
from .dsl import (  # noqa: F401
    Accessor,
    Domain,
    Boundary,
    BoundaryCondition,
    Image,
    IterationSpace,
    Kernel,
    Mask,
    Reduce,
    Uniform,
)
from .backends.base import BorderMode, CodegenOptions, MaskMemory  # noqa: F401
from .cache import (  # noqa: F401
    CacheStats,
    CompilationCache,
    get_default_cache,
    set_default_cache,
)
from .hwmodel import (  # noqa: F401
    DEVICES,
    DeviceSpec,
    EVALUATION_DEVICES,
    get_device,
    list_devices,
)
from .dsl.reduction import (  # noqa: F401
    AbsMaxReduction,
    GlobalReduction,
    MaxReduction,
    MinReduction,
    SumReduction,
)
from .runtime import CompiledKernel, compile_ir, compile_kernel  # noqa: F401
from .runtime.reduce import CompiledReduction, compile_reduction  # noqa: F401
from .graph import (  # noqa: F401
    BufferPool,
    ExecutionPlan,
    GraphReport,
    PipelineGraph,
    build_plan,
    execute_graph,
    fuse_point_ops,
    pipe,
    stage,
)

__all__ = [
    "Accessor",
    "Boundary",
    "BoundaryCondition",
    "BorderMode",
    "CacheStats",
    "CodegenError",
    "CodegenOptions",
    "CompilationCache",
    "CompiledKernel",
    "DEVICES",
    "DeviceFault",
    "DeviceSpec",
    "DslError",
    "EVALUATION_DEVICES",
    "FrontendError",
    "HipaccError",
    "Image",
    "IterationSpace",
    "Kernel",
    "LaunchError",
    "MappingError",
    "Mask",
    "MaskMemory",
    "Reduce",
    "Uniform",
    "BufferPool",
    "ExecutionPlan",
    "GraphError",
    "GraphReport",
    "PipelineGraph",
    "CompiledReduction",
    "GlobalReduction",
    "MaxReduction",
    "MinReduction",
    "SumReduction",
    "AbsMaxReduction",
    "compile_ir",
    "compile_kernel",
    "compile_reduction",
    "build_plan",
    "execute_graph",
    "fuse_point_ops",
    "pipe",
    "stage",
    "get_default_cache",
    "get_device",
    "list_devices",
    "set_default_cache",
]
