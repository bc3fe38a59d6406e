"""Independent NumPy references for every output the benchmark checks.

They are written from the operators' definitions, not from the
program's code: the ``edge`` pipeline, and the builtin filter families
``compile_sweep`` samples under each boundary mode (the same operators
the serve planner offers).
Arithmetic is float64; the program computes in float32, so results are
compared with :func:`matches`.

Boundary modes map to ``np.pad``: clamp -> ``edge``, repeat -> ``wrap``,
mirror -> ``symmetric`` (the border pixel is repeated), constant ->
``constant``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

#: |out - ref| <= RTOL * |ref| + ATOL * max(1, max|ref|): float32 sums of
#: at most a few hundred terms stay orders of magnitude inside this,
#: while a wrong border, tap or parameter moves pixels by far more
RTOL = 1e-4
ATOL = 1e-4

_PAD_MODES = {"clamp": "edge", "repeat": "wrap", "mirror": "symmetric"}

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
SOBEL_Y = SOBEL_X.T.copy()
LAPLACIAN = {4: np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], np.float64),
             8: np.array([[1, 1, 1], [1, -8, 1], [1, 1, 1]], np.float64)}


def matches(out: np.ndarray, ref: np.ndarray) -> bool:
    """True when *out* agrees with *ref* within the stated tolerance."""
    out = np.asarray(out, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if out.shape != ref.shape:
        return False
    finite = np.isfinite(ref)
    if not np.array_equal(finite, np.isfinite(out)):
        return False
    if not finite.any():
        return True
    scale = max(1.0, float(np.max(np.abs(ref[finite]))))
    err = np.abs(out[finite] - ref[finite])
    return bool(np.all(err <= RTOL * np.abs(ref[finite]) + ATOL * scale))


def pad(x: np.ndarray, ry: int, rx: int, boundary: str,
        constant: float = 0.0) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    widths = ((ry, ry), (rx, rx))
    if boundary == "constant":
        return np.pad(x, widths, mode="constant", constant_values=constant)
    return np.pad(x, widths, mode=_PAD_MODES[boundary])


def taps(x: np.ndarray, ry: int, rx: int, boundary: str,
         constant: float = 0.0):
    """Yield ``(dy, dx, shifted)``: the input read at offset (dx, dy)
    for every output pixel."""
    h, w = x.shape
    p = pad(x, ry, rx, boundary, constant)
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            yield dy, dx, p[ry + dy:ry + dy + h, rx + dx:rx + dx + w]


def correlate(x: np.ndarray, coeffs: np.ndarray, boundary: str,
              constant: float = 0.0) -> np.ndarray:
    """``out(x, y) = sum coeffs[dy, dx] * in(x + dx, y + dy)``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    ry, rx = coeffs.shape[0] // 2, coeffs.shape[1] // 2
    out = np.zeros(x.shape, dtype=np.float64)
    for dy, dx, view in taps(x, ry, rx, boundary, constant):
        c = coeffs[dy + ry, dx + rx]
        if c:
            out += c * view
    return out


def gaussian_mask(size: int, sigma: Optional[float] = None) -> np.ndarray:
    """The float32 mask of a ``size`` x ``size`` Gaussian (OpenCV's
    default sigma when none is given)."""
    if sigma is None:
        sigma = 0.3 * ((size - 1) * 0.5 - 1) + 0.8
    ax = np.arange(size, dtype=np.float64) - size // 2
    g = np.exp(-0.5 * (ax / sigma) ** 2)
    g = (g / g.sum()).astype(np.float32).astype(np.float64)
    return np.outer(g, g).astype(np.float32)


def median3(x: np.ndarray, boundary: str, constant: float = 0.0
            ) -> np.ndarray:
    """Exact 3x3 median: the middle of the nine taps.  Selection is
    exact in any dtype, so float32 input stays float32."""
    x = np.asarray(x)
    h, w = x.shape
    if boundary == "constant":
        p = np.pad(x, 1, mode="constant", constant_values=constant)
    else:
        p = np.pad(x, 1, mode=_PAD_MODES[boundary])
    v = [np.ascontiguousarray(p[1 + dy:1 + dy + h, 1 + dx:1 + dx + w])
         for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    # Paeth's 19-exchange selection network for the median of nine
    for a, b in ((1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7),
                 (1, 2), (4, 5), (7, 8), (0, 3), (5, 8), (4, 7),
                 (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4), (4, 2)):
        low = np.minimum(v[a], v[b])
        np.maximum(v[a], v[b], out=v[b])
        v[a] = low
    return v[4]


# ---------------------------------------------------------------------------
# Named pipelines
# ---------------------------------------------------------------------------


def edge(x: np.ndarray) -> np.ndarray:
    """The ``edge`` pipeline: median -> Sobel x and y -> magnitude ->
    scale 0.25 -> gamma 0.8, every read clamped."""
    den = median3(x, "clamp")
    gx = correlate(den, SOBEL_X, "clamp")
    gy = correlate(den, SOBEL_Y, "clamp")
    return np.power(np.sqrt(gx * gx + gy * gy) * 0.25, 0.8)


def edge_rows(x: np.ndarray, rows: slice) -> np.ndarray:
    """:func:`edge` for the output rows *rows* only.  Each output row
    depends on the input rows within two of it, so the reference is
    computed over that band; its clamped band edges fall outside
    *rows* unless they are the image's own edges."""
    lo = max(0, rows.start - 2)
    hi = min(x.shape[0], rows.stop + 2)
    band = edge(x[lo:hi])
    return band[rows.start - lo:rows.stop - lo]


# ---------------------------------------------------------------------------
# Builtin filter families (compile_sweep)
# ---------------------------------------------------------------------------


def bilateral(x, sigma_d: int, sigma_r: float, boundary: str,
              constant: float, use_mask: bool) -> np.ndarray:
    half = 2 * sigma_d
    c_d = 1.0 / (2.0 * sigma_d * sigma_d)
    c_r = 1.0 / (2.0 * sigma_r * sigma_r)
    ax = np.arange(-half, half + 1, dtype=np.float64)
    closeness = (np.exp(-c_d * ax[:, None] ** 2)
                 * np.exp(-c_d * ax[None, :] ** 2))
    if use_mask:
        closeness = closeness.astype(np.float32).astype(np.float64)
    x = np.asarray(x, dtype=np.float64)
    num = np.zeros_like(x)
    den = np.zeros_like(x)
    for dy, dx, view in taps(x, half, half, boundary, constant):
        diff = view - x
        weight = np.exp(-c_r * diff * diff) * closeness[dy + half, dx + half]
        den += weight
        num += weight * view
    return num / den


def diffusion(x, kappa: float, lam: float, boundary: str) -> np.ndarray:
    """One Perona-Malik step with exponential conductance."""
    x = np.asarray(x, dtype=np.float64)
    p = pad(x, 1, 1, boundary)
    h, w = x.shape
    inv_k2 = 1.0 / (kappa * kappa)
    flux = np.zeros_like(x)
    for dy, dx in ((-1, 0), (1, 0), (0, 1), (0, -1)):
        d = p[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] - x
        flux += np.exp(-d * d * inv_k2) * d
    return x + lam * flux


def structuring_element(size: int, shape: str) -> np.ndarray:
    half = size // 2
    yy, xx = np.mgrid[-half:half + 1, -half:half + 1]
    if shape == "box":
        return np.ones((size, size), dtype=bool)
    if shape == "disk":
        return xx * xx + yy * yy <= half * half
    if shape == "cross":
        return (xx == 0) | (yy == 0)
    raise ValueError(shape)


def morphology(x, operation: str, size: int, shape: str,
               boundary: str) -> np.ndarray:
    enabled = structuring_element(size, shape)
    half = size // 2
    reduce = np.minimum if operation == "erode" else np.maximum
    out = None
    for dy, dx, view in taps(x, half, half, boundary):
        if enabled[dy + half, dx + half]:
            out = view.copy() if out is None else reduce(out, view)
    return out


def point(kind: str, inputs: Sequence[np.ndarray],
          params: Dict[str, float]) -> np.ndarray:
    a = np.asarray(inputs[0], dtype=np.float64)
    b = np.asarray(inputs[-1], dtype=np.float64)
    if kind == "scale":
        return a * params["factor"] + params.get("offset", 0.0)
    if kind == "add":
        return a + params["value"]
    if kind == "threshold":
        return np.where(a > params["value"], 1.0, 0.0)
    if kind == "gamma":
        return np.power(a, params["gamma"])
    if kind == "absdiff":
        return np.abs(a - b)
    if kind == "blend":
        return params["alpha"] * a + (1.0 - params["alpha"]) * b
    if kind == "multiply":
        return a * b
    if kind == "harris":
        ixx, iyy, ixy = (np.asarray(i, dtype=np.float64) for i in inputs)
        trace = ixx + iyy
        return ixx * iyy - ixy * ixy - params["k"] * trace * trace
    raise ValueError(f"no reference for point op {kind!r}")
