"""Size-bucketed arena pool for intermediate images.

A naive pipeline materialises one fresh NumPy buffer per intermediate
image and keeps all of them alive to the end — exactly what the hand
chained examples did.  The graph scheduler instead computes the last use
of every intermediate and services its allocation from this pool: a
buffer released after its final consumer is handed to the next
intermediate of a compatible size, so peak footprint tracks the *live
set* of the schedule, not the total number of edges.

Buckets are rounded up to a quantum so images of slightly different
padded sizes share a free list; slices are re-viewed at the image's
dtype and padded row stride (pre-padded to the device alignment via
:func:`repro.sim.launch.padding_alignment`, so the launch-time
``apply_padding`` becomes a no-op and never silently swaps a pooled
buffer for a fresh allocation).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Tuple

import numpy as np

from ..dsl.image import Image
from ..obs import span


@dataclasses.dataclass
class PoolStats:
    """Accounting for one scheduled execution."""

    #: bytes a naive executor would allocate (every intermediate its own
    #: buffer, all live simultaneously)
    naive_bytes: int = 0
    #: high-water mark of live pooled bytes during execution
    peak_bytes: int = 0
    current_bytes: int = 0
    #: fresh arena allocations
    allocs: int = 0
    #: allocations served by recycling a released buffer
    reuses: int = 0
    releases: int = 0

    @property
    def saved_bytes(self) -> int:
        return max(0, self.naive_bytes - self.peak_bytes)

    def metrics(self) -> Dict[str, int]:
        """The canonical ``pool.*`` metrics namespace
        (:mod:`repro.obs.metrics`)."""
        return {
            "pool.naive_bytes": self.naive_bytes,
            "pool.peak_bytes": self.peak_bytes,
            "pool.current_bytes": self.current_bytes,
            "pool.allocs": self.allocs,
            "pool.reuses": self.reuses,
            "pool.releases": self.releases,
        }

    def summary(self) -> str:
        return (f"naive {self.naive_bytes / 1024:.1f} KiB -> peak "
                f"{self.peak_bytes / 1024:.1f} KiB "
                f"({self.saved_bytes / 1024:.1f} KiB saved), "
                f"{self.allocs} allocs, {self.reuses} reuses")


def first_fit_layout(requests: List[Tuple[int, int, int]]
                     ) -> Tuple[List[int], int, int, int]:
    """Static first-fit offset assignment over lifetime intervals.

    *requests* is a list of ``(start, end, nbytes)`` tuples (inclusive
    interval of schedule indices during which the buffer is live).
    Returns ``(offsets, high_water, allocs, reuses)`` where *offsets*
    parallels *requests* — the compile-time analogue of
    :class:`BufferPool`'s runtime recycling, used by the native graph
    tier to lower the whole arena into one slab.
    """
    offsets: List[int] = []
    high_water = 0
    allocs = reuses = 0
    placed: List[Tuple[int, int, int, int]] = []  # (off, size, start, end)
    for start, end, nbytes in requests:
        active = sorted((off, size) for off, size, s, e in placed
                        if s <= end and start <= e)
        pos = 0
        for off, size in active:
            if off - pos >= nbytes:
                break
            pos = max(pos, off + size)
        if pos + nbytes <= high_water:
            reuses += 1
        else:
            allocs += 1
        placed.append((pos, nbytes, start, end))
        offsets.append(pos)
        high_water = max(high_water, pos + nbytes)
    return offsets, high_water, allocs, reuses


class BufferPool:
    """Arena of byte buffers bucketed by rounded size.

    ``bind(image, alignment)`` installs a pooled, pre-padded backing
    array into *image* (zeroed — identical to a fresh
    :class:`~repro.dsl.image.Image`); ``release(image)`` returns the
    backing to the free list once the scheduler proves the image dead.
    Released images keep a readable view until the buffer is recycled,
    which is why pipeline *outputs* are never pooled.
    """

    def __init__(self, bucket_quantum: int = 4096):
        if bucket_quantum < 1:
            raise ValueError("bucket quantum must be positive")
        self.quantum = bucket_quantum
        self.stats = PoolStats()
        # one lock guards the free lists, the live map and the stats:
        # the scheduler binds/releases from parallel branch workers
        self._lock = threading.Lock()
        self._free: Dict[int, List[np.ndarray]] = {}
        # id(image) -> (raw byte buffer, bucket size)
        self._live: Dict[int, Tuple[np.ndarray, int]] = {}

    def _bucket(self, nbytes: int) -> int:
        return -(-nbytes // self.quantum) * self.quantum

    @staticmethod
    def padded_stride(width: int, alignment: int) -> int:
        return -(-width // alignment) * alignment

    def bind(self, image: Image, alignment: int = 1) -> None:
        """Back *image* with a pooled buffer padded to *alignment*."""
        with span("pool.bind", image=image.name) as sp:
            with self._lock:
                if id(image) in self._live:
                    return
                stride = self.padded_stride(image.width, alignment)
                nbytes = (image.height * stride
                          * image.pixel_type.np_dtype.itemsize)
                bucket = self._bucket(nbytes)
                free = self._free.get(bucket)
                if free:
                    raw = free.pop()
                    self.stats.reuses += 1
                else:
                    raw = np.empty(bucket, dtype=np.uint8)
                    self.stats.allocs += 1
                self._live[id(image)] = (raw, bucket)
                self.stats.current_bytes += bucket
                self.stats.peak_bytes = max(self.stats.peak_bytes,
                                            self.stats.current_bytes)
                sp.attrs["bytes"] = bucket
            view = raw[:nbytes].view(image.pixel_type.np_dtype)
            view = view.reshape(image.height, stride)
            view.fill(0)                      # fresh-Image semantics
            image._data = view
            image._stride = stride

    def release(self, image: Image) -> None:
        """Return *image*'s pooled backing to the free list.

        Idempotent by construction: the second release of an image (and
        a release of one this pool never bound — graph inputs/outputs)
        is a no-op that touches neither the free lists nor the stats,
        so ``current_bytes``/``releases`` cannot drift negative.
        """
        with span("pool.release", image=image.name) as sp:
            with self._lock:
                entry = self._live.pop(id(image), None)
                if entry is None:
                    return
                raw, bucket = entry
                self._free.setdefault(bucket, []).append(raw)
                self.stats.current_bytes -= bucket
                self.stats.releases += 1
                sp.attrs["bytes"] = bucket

    def release_all(self) -> int:
        """Release every live binding; returns how many were released.

        The scheduler's error path runs this so an execution that dies
        mid-schedule still returns ``current_bytes`` to zero instead of
        leaking the not-yet-consumed intermediates.
        """
        with self._lock:
            live = list(self._live.values())
            self._live.clear()
            for raw, bucket in live:
                self._free.setdefault(bucket, []).append(raw)
                self.stats.current_bytes -= bucket
                self.stats.releases += 1
        return len(live)

    def reset(self) -> int:
        """Prepare the arena for the next independent run (an
        :class:`~repro.graph.scheduler.ExecutionPlan` resets its arena
        before every rerun).

        Every live binding returns to the free lists and the *per-run*
        accounting (``naive_bytes``/``peak_bytes``/``current_bytes``)
        zeroes, but the allocated arenas themselves are kept: a warm
        request whose intermediates fit the existing buckets binds
        entirely through ``reuses`` and allocates nothing.  The
        cumulative counters (``allocs``/``reuses``/``releases``) are
        left running so callers can assert "no new allocations since
        the last reset" by diffing ``allocs``.  Idempotent: a second
        reset is a no-op.  Returns how many live bindings were dropped.
        """
        released = self.release_all()
        with self._lock:
            self.stats.naive_bytes = 0
            self.stats.peak_bytes = 0
            self.stats.current_bytes = 0
        return released

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._live)
