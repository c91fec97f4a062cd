"""Per-thread scratch buffers for the k-NN band path.

Every row band of a k-NN tile passes through the same band-sized arrays:
the band itself, the cosine expansion's denominator and mask, and top-k
selection's partition copy and masks. Allocated afresh per band, they
are returned to the kernel between tiles and faulted in again by the
next one. Instead each thread keeps one buffer per named slot here and
reuses it for every band it computes, so what a slot holds is valid only
until the same thread asks for that slot again. Buffers are per thread
because the plan executor runs tiles on worker threads. This module
imports only numpy, so numerics, expansion and selection can all use it.
"""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np

__all__ = ["MAX_CELLS", "scratch"]

#: Cells of the largest buffer a slot keeps. A larger request gets a fresh
#: array, so a band wider than this (one row of more columns) still works.
MAX_CELLS = 1 << 17


class _Buffers(threading.local):
    def __init__(self):
        self.flat = {}


_buffers = _Buffers()


def scratch(slot: str, shape: Tuple[int, int], dtype=np.float64,
            ) -> np.ndarray:
    """An uninitialized ``shape`` array in this thread's ``(slot, dtype)``
    buffer, valid until this thread asks for that slot again."""
    n_cells = shape[0] * shape[1]
    if n_cells > MAX_CELLS:
        return np.empty(shape, dtype=dtype)
    key = (slot, dtype)
    flat = _buffers.flat.get(key)
    if flat is None:
        flat = _buffers.flat[key] = np.empty(MAX_CELLS, dtype=dtype)
    return flat[:n_cells].reshape(shape)
