"""Seeded inputs of the workloads.  The same seed gives the same frames
and compile configurations; the program sees only what these functions
return."""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

import numpy as np


def frame(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    return rng.random((height, width), dtype=np.float32)


# ---------------------------------------------------------------------------
# compile_sweep
# ---------------------------------------------------------------------------

FAMILIES = ("bilateral", "gaussian", "sobel", "laplacian", "median",
            "point", "harris", "diffusion", "morphology")
TARGETS = (("Tesla C2050", "cuda"), ("Tesla C2050", "opencl"),
           ("Quadro FX 5800", "cuda"), ("Quadro FX 5800", "opencl"),
           ("Radeon HD 5870", "opencl"), ("Radeon HD 6970", "opencl"))
#: the (width, height) of a round's nine compiles: every paper-scale
#: side from 512 to 4096 px, square and oblong.  Each round deals all
#: nine to the families in a seeded order, so every op compiles the same
#: geometry and ops differ only in the configurations.
SHAPES = ((512, 512), (1024, 1024), (2048, 2048), (4096, 4096),
          (512, 2048), (2048, 512), (1024, 4096), (4096, 1024),
          (1024, 2048))
SWEEP_BOUNDARIES = ("clamp", "mirror", "repeat", "constant", "undefined")


@dataclasses.dataclass
class CompileConfig:
    family: str
    params: Dict[str, Any]
    device: str
    backend: str
    width: int
    height: int


def _family_params(rng: np.random.Generator, family: str
                   ) -> Dict[str, Any]:
    boundary = str(rng.choice(SWEEP_BOUNDARIES))
    constant = float(rng.choice([0.0, 0.25])) if boundary == "constant" \
        else 0.0
    if family == "bilateral":
        return {"sigma_d": int(rng.choice([1, 2, 3])),
                "sigma_r": float(rng.choice([0.1, 0.5, 5.0])),
                "use_mask": bool(rng.random() < 0.5),
                "boundary": boundary, "constant": constant}
    if family == "gaussian":
        return {"size": int(rng.choice([3, 5, 7, 9, 11, 13])),
                "boundary": boundary, "constant": constant}
    if family == "sobel":
        return {"axis": str(rng.choice(["x", "y"])), "boundary": boundary,
                "constant": constant}
    if family == "laplacian":
        return {"connectivity": int(rng.choice([4, 8])),
                "boundary": "clamp" if boundary == "constant" else boundary}
    if family == "median":
        return {"boundary": "clamp" if boundary == "constant"
                else boundary}
    if family == "point":
        kind = str(rng.choice(["scale", "add", "threshold", "gamma",
                               "absdiff", "blend"]))
        return {"kind": kind, "factor": float(rng.choice([0.5, 2.0])),
                "offset": float(rng.choice([0.0, 0.1])),
                "value": float(rng.choice([0.25, 0.5])),
                "gamma": float(rng.choice([0.5, 0.8, 2.2])),
                "alpha": float(rng.choice([0.25, 0.75]))}
    if family == "harris":
        return {"kind": str(rng.choice(["harris", "multiply"])),
                "k": float(rng.choice([0.04, 0.06]))}
    if family == "diffusion":
        return {"kappa": float(rng.choice([0.05, 0.1, 0.2])),
                "lam": float(rng.choice([0.1, 0.2])),
                "boundary": "mirror" if boundary in ("constant",
                                                     "undefined")
                else boundary}
    if family == "morphology":
        return {"operation": str(rng.choice(["erode", "dilate"])),
                "size": int(rng.choice([3, 5, 7])),
                "shape": str(rng.choice(["box", "disk", "cross"])),
                "boundary": "clamp" if boundary in ("constant",
                                                    "undefined")
                else boundary}
    raise ValueError(family)


def compile_round(rng: np.random.Generator,
                  shapes: Tuple[Tuple[int, int], ...] = SHAPES
                  ) -> List[CompileConfig]:
    """One configuration of every family, in a seeded order, each at one
    of *shapes*: one op of ``compile_sweep``, so every family and every
    shape weighs the same in every op whatever the seed."""
    configs = []
    for family, k in zip(rng.permutation(FAMILIES),
                         rng.permutation(len(shapes))):
        device, backend = TARGETS[int(rng.integers(len(TARGETS)))]
        width, height = shapes[int(k)]
        configs.append(CompileConfig(
            family=str(family), params=_family_params(rng, str(family)),
            device=device, backend=backend, width=width, height=height))
    return configs
