"""Math-intrinsic registry with per-backend name mapping.

The paper (Section V-A, "Function Mapping") notes that CUDA keeps typed
suffixes on math functions (``expf`` for float) while OpenCL overloads one
name (``exp``), and that HIPAcc keeps the mapping in a table, emitting an
error for unsupported functions.  ``fast_variant`` records the
hardware-accelerated intrinsic (``__expf``) the compiler *could* select; like
the paper we do not enable it by default.

Transcendental intrinsics (``Intrinsic.wide``) have one semantics on every
host: evaluate in float64, then round once to the result type, with a NaN
result made the canonical quiet NaN.  The simulator implements it here (the
caller rounds), the CPU lowering prints ``hip_round_f(f((double)a, ...))``.
NumPy's float32 kernels change bytes with the host's SIMD tier; float64
rounded to float32 does not, and it matches glibc's double functions.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

import numpy as np

from .errors import UnsupportedFunctionError
from .types import FLOAT, INT, DOUBLE, ScalarType


@dataclasses.dataclass(frozen=True)
class Intrinsic:
    """One portable math function available inside kernels."""

    name: str                     # canonical DSL name
    arity: int
    cuda_f32: str                 # CUDA spelling for float operands
    cuda_f64: str                 # CUDA spelling for double operands
    opencl: str                   # OpenCL spelling (overloaded)
    np_func: Callable             # simulator implementation
    fast_variant: Optional[str] = None   # CUDA hardware-accelerated form
    result_type: Optional[ScalarType] = None  # None => follows operand type
    cost: int = 1                 # relative instruction cost (timing model)
    wide: bool = False            # evaluated in float64, rounded once

    def target_name(self, backend: str, t: ScalarType) -> str:
        """Spelling of this intrinsic on *backend* for operand type *t*."""
        if backend == "cuda":
            return self.cuda_f64 if t == DOUBLE else self.cuda_f32
        if backend == "opencl":
            return self.opencl
        raise UnsupportedFunctionError(
            f"no mapping for {self.name!r} on backend {backend!r}")


def _i(name, arity, np_func, fast=None, result_type=None, cost=1,
       cuda_f32=None, cuda_f64=None, opencl=None, wide=False) -> Intrinsic:
    return Intrinsic(
        name=name,
        arity=arity,
        cuda_f32=cuda_f32 or (name + "f"),
        cuda_f64=cuda_f64 or name,
        opencl=opencl or name,
        np_func=np_func,
        fast_variant=fast,
        result_type=result_type,
        cost=cost,
        wide=wide,
    )


def _wide(name, arity, fn, fast=None, cost=1) -> Intrinsic:
    """A transcendental: *fn* runs in float64 and every NaN it returns
    becomes the canonical quiet NaN (its sign is up to the libm or SIMD
    kernel that produced it); the caller rounds once to the result
    type."""
    def evaluate(*args):
        result = fn(*(np.asarray(a, dtype=np.float64) for a in args))
        nan = np.isnan(result)
        if np.ndim(result) == 0:
            return np.float64(np.nan) if nan else result
        if nan.any():
            result[nan] = np.nan
        return result

    return _i(name, arity, evaluate, fast=fast, cost=cost, wide=True)


def _clamp(x, lo, hi):
    return np.minimum(np.maximum(x, lo), hi)


#: Transcendental functions cost ~12 ALU-op equivalents on the SFU; this is
#: the constant the timing model charges (see repro/sim/timing.py),
#: calibrated against the paper's bilateral-filter mask/no-mask ratio.
_SFU_COST = 12

INTRINSICS: Dict[str, Intrinsic] = {
    i.name: i
    for i in [
        _wide("exp", 1, np.exp, fast="__expf", cost=_SFU_COST),
        _wide("exp2", 1, np.exp2, fast="__exp2f", cost=_SFU_COST),
        _wide("log", 1, np.log, fast="__logf", cost=_SFU_COST),
        _wide("log2", 1, np.log2, fast="__log2f", cost=_SFU_COST),
        _wide("log10", 1, np.log10, cost=_SFU_COST),
        _i("sqrt", 1, np.sqrt, fast="__fsqrt_rn", cost=8),
        _i("rsqrt", 1, lambda x: 1.0 / np.sqrt(x), fast="__frsqrt_rn",
           cost=8),
        _wide("sin", 1, np.sin, fast="__sinf", cost=_SFU_COST),
        _wide("cos", 1, np.cos, fast="__cosf", cost=_SFU_COST),
        _wide("tan", 1, np.tan, fast="__tanf", cost=_SFU_COST + 4),
        _wide("asin", 1, np.arcsin, cost=_SFU_COST + 4),
        _wide("acos", 1, np.arccos, cost=_SFU_COST + 4),
        _wide("atan", 1, np.arctan, cost=_SFU_COST + 4),
        _wide("atan2", 2, np.arctan2, cost=_SFU_COST + 8),
        _wide("sinh", 1, np.sinh, cost=_SFU_COST + 4),
        _wide("cosh", 1, np.cosh, cost=_SFU_COST + 4),
        _wide("tanh", 1, np.tanh, cost=_SFU_COST + 4),
        _wide("pow", 2, np.power, fast="__powf", cost=2 * _SFU_COST),
        _i("fabs", 1, np.abs, cost=1),
        _i("floor", 1, np.floor, cost=2),
        _i("ceil", 1, np.ceil, cost=2),
        _i("round", 1, np.round, cost=2),
        _i("trunc", 1, np.trunc, cost=2),
        _i("fmod", 2, np.fmod, cost=12),
        _i("fmin", 2, np.minimum, cost=1),
        _i("fmax", 2, np.maximum, cost=1),
        # Integer / generic helpers.  ``abs``/``min``/``max`` keep one name
        # on both backends.
        _i("abs", 1, np.abs, result_type=None, cost=1,
           cuda_f32="abs", cuda_f64="abs", opencl="abs"),
        _i("min", 2, np.minimum, cost=1,
           cuda_f32="min", cuda_f64="min", opencl="min"),
        _i("max", 2, np.maximum, cost=1,
           cuda_f32="max", cuda_f64="max", opencl="max"),
        _i("clamp", 3, _clamp, cost=2,
           cuda_f32="__hipacc_clamp", cuda_f64="__hipacc_clamp",
           opencl="clamp"),
    ]
}

#: DSL-level aliases: the user may write CUDA-style suffixed names
#: (``expf``) or Python ``math`` names; both resolve to the canonical entry.
ALIASES: Dict[str, str] = {}
for _name in list(INTRINSICS):
    ALIASES[_name + "f"] = _name
ALIASES.update({
    "absf": "fabs",
    "math.exp": "exp",
    "math.sqrt": "sqrt",
    "math.sin": "sin",
    "math.cos": "cos",
    "math.tan": "tan",
    "math.log": "log",
    "math.pow": "pow",
    "math.fabs": "fabs",
    "math.floor": "floor",
    "math.ceil": "ceil",
    "math.atan2": "atan2",
    "math.fmod": "fmod",
})


def resolve(name: str) -> Intrinsic:
    """Look up *name* (canonical or alias); raise like the paper's compiler
    on anything unknown."""
    canonical = ALIASES.get(name, name)
    try:
        return INTRINSICS[canonical]
    except KeyError:
        raise UnsupportedFunctionError(
            f"function {name!r} is not supported inside kernels; "
            f"supported: {', '.join(sorted(INTRINSICS))}") from None


def python_value(name: str, *args):
    """Evaluate an intrinsic at compile time (for constant folding)."""
    intr = resolve(name)
    if len(args) != intr.arity:
        raise UnsupportedFunctionError(
            f"{name} expects {intr.arity} argument(s), got {len(args)}")
    result = intr.np_func(*args)
    if isinstance(result, np.generic):
        result = result.item()
    return result


def intrinsic_result_type(name: str, arg_types) -> ScalarType:
    """Result type of intrinsic *name* given operand types."""
    intr = resolve(name)
    if intr.result_type is not None:
        return intr.result_type
    # Float-only intrinsics promote integer operands to float; min/max/abs
    # follow their operands.
    if intr.name in ("abs", "min", "max", "clamp"):
        t = arg_types[0]
        for other in arg_types[1:]:
            from .types import promote
            t = promote(t, other)
        return t
    for t in arg_types:
        if t == DOUBLE:
            return DOUBLE
    if all(t.is_integer for t in arg_types):
        return FLOAT
    return FLOAT if FLOAT in arg_types or any(t.is_float for t in arg_types) \
        else INT


__all__ = [
    "Intrinsic",
    "INTRINSICS",
    "ALIASES",
    "resolve",
    "python_value",
    "intrinsic_result_type",
]
