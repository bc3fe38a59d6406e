"""The serve wire format: JSON requests/responses with embedded images.

A request names the work either as a **named pipeline** (``"pipeline":
"edge"``) or an **inline kernel chain** (``"chain": [{"op": ...}, ...]``,
see :mod:`repro.serve.planner` for the op vocabulary), plus the image
payload and the compile target::

    {
      "pipeline": "edge",                  # or "chain": [...]
      "image": {"dtype": "float32", "shape": [h, w], "data_b64": "..."},
      "device": "Tesla C2050",             # optional
      "backend": "cuda",                   # optional
      "engine": "auto",                    # optional: sim | native | auto
      "timeout_ms": 30000                  # optional per-request deadline
    }

Image pixels travel as base64 of the raw C-order array bytes — no pickle
anywhere on the wire, so a malicious payload can at worst fail to
decode.  The response mirrors the encoding::

    {"status": "ok", "image": {...}, "meta": {"launches": 3, ...}}

:func:`request_fingerprint` is the dedup key: a sha256 over the
canonicalised request *including a digest of the pixel bytes*, so two
requests coalesce only when they would provably compute the same result
(same work, same target, same input pixels).  The ``timeout_ms`` field
is deliberately excluded — it affects scheduling, not the answer.
:func:`plan_key` is the same document without the pixel digest: the
key of a worker's cached execution plans.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from typing import Any, Dict, Tuple

import numpy as np

#: bumped when the wire format changes incompatibly; echoed in
#: ``/healthz`` so clients can refuse to talk to a foreign server
PROTOCOL_VERSION = 1

#: dtypes an image payload may declare — the closed set the DSL's pixel
#: types cover, so a request can never make the planner allocate an
#: arbitrary dtype
ALLOWED_DTYPES = ("float32", "float64", "uint8", "int16", "int32",
                  "uint16", "uint32")

#: refuse images above this many pixels (64 MP ~ a whole-slide tile):
#: the queue is bounded in *requests*, this bounds the bytes one
#: request can pin
MAX_PIXELS = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A request that cannot be decoded — always the client's fault
    (HTTP 400), never a server crash."""


def encode_image(array: np.ndarray) -> Dict[str, Any]:
    """Encode *array* (2-D) as the JSON image payload."""
    array = np.ascontiguousarray(array)
    if array.ndim != 2:
        raise ProtocolError(
            f"image must be 2-D, got shape {array.shape}")
    return {
        "dtype": str(array.dtype),
        "shape": [int(array.shape[0]), int(array.shape[1])],
        "data_b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_image(payload: Any) -> np.ndarray:
    """Decode an image payload; raises :class:`ProtocolError` on any
    malformed field (wrong dtype, byte count not matching the shape,
    undecodable base64, oversized image)."""
    if not isinstance(payload, dict):
        raise ProtocolError("image payload must be an object")
    dtype = payload.get("dtype")
    if dtype not in ALLOWED_DTYPES:
        raise ProtocolError(
            f"image dtype {dtype!r} not in {ALLOWED_DTYPES}")
    shape = payload.get("shape")
    if (not isinstance(shape, (list, tuple)) or len(shape) != 2
            or not all(isinstance(s, int) and s > 0 for s in shape)):
        raise ProtocolError(f"image shape {shape!r} must be [h, w] > 0")
    h, w = shape
    if h * w > MAX_PIXELS:
        raise ProtocolError(
            f"image {w}x{h} exceeds the {MAX_PIXELS}-pixel limit")
    encoded = payload.get("data_b64")
    if not isinstance(encoded, str):
        raise ProtocolError("image payload missing data_b64")
    try:
        raw = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ProtocolError(f"undecodable image data: {exc}") from None
    expected = h * w * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise ProtocolError(
            f"image data is {len(raw)} bytes, shape {w}x{h} {dtype} "
            f"needs {expected}")
    return np.frombuffer(raw, dtype=dtype).reshape(h, w).copy()


def _canonical_work(body: Dict[str, Any],
                    default_engine: str = "auto") -> Dict[str, Any]:
    """The request fields that determine the *answer* (not the
    scheduling), in canonical form."""
    work: Dict[str, Any] = {}
    pipeline = body.get("pipeline")
    chain = body.get("chain")
    if (pipeline is None) == (chain is None):
        raise ProtocolError(
            "request must carry exactly one of 'pipeline' or 'chain'")
    if pipeline is not None:
        if not isinstance(pipeline, str):
            raise ProtocolError("'pipeline' must be a string")
        work["pipeline"] = pipeline
    else:
        if not isinstance(chain, list) or not chain:
            raise ProtocolError("'chain' must be a non-empty list")
        work["chain"] = chain
    work["device"] = body.get("device", "Tesla C2050")
    work["backend"] = body.get("backend", "cuda")
    engine = body.get("engine")
    if engine is not None:
        if engine not in ("sim", "native", "auto"):
            raise ProtocolError(
                f"engine {engine!r} must be sim, native or auto")
    # always fingerprint a *resolved* engine, like device/backend: a
    # request that omits the field and one that names the server
    # default are interchangeable and must coalesce
    work["engine"] = engine if engine is not None else default_engine
    return work


def request_fingerprint(body: Dict[str, Any],
                        default_engine: str = "auto") -> Tuple[str, str]:
    """``(fingerprint, image_digest)`` for *body*.

    The fingerprint hashes the canonical work description plus the
    image digest; requests with equal fingerprints are interchangeable
    — one execution answers all of them.  *default_engine* is the
    engine an omitting request resolves to (the server's configured
    default), so omitted-vs-explicit-default requests share a key.
    """
    work = _canonical_work(body, default_engine)
    image = body.get("image")
    if not isinstance(image, dict):
        raise ProtocolError("request missing 'image' payload")
    hasher = hashlib.sha256()
    hasher.update(str(image.get("dtype")).encode())
    hasher.update(str(image.get("shape")).encode())
    hasher.update(str(image.get("data_b64", "")).encode())
    image_digest = hasher.hexdigest()
    doc = dict(work)
    doc["image_sha256"] = image_digest
    doc["protocol"] = PROTOCOL_VERSION
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), image_digest


def plan_key(body: Dict[str, Any], default_engine: str = "auto") -> str:
    """The *structure* of *body*: its canonical work description plus
    the image dtype and shape, without the pixels.  Requests with equal
    keys plan into identical graphs, so one built
    :class:`~repro.graph.scheduler.ExecutionPlan` serves all of them."""
    doc = _canonical_work(body, default_engine)
    image = body.get("image")
    if not isinstance(image, dict):
        raise ProtocolError("request missing 'image' payload")
    doc["dtype"] = str(image.get("dtype"))
    doc["shape"] = str(image.get("shape"))
    doc["protocol"] = PROTOCOL_VERSION
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def error_response(code: str, message: str, **extra: Any
                   ) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"status": "error", "error": code,
                           "message": message}
    doc.update(extra)
    return doc
