"""One scratch buffer per thread for the numpy kernels' temporaries.

A kernel call lays its temporaries out in its thread's buffer from offset
0, so one call's scratch is dead when the next call starts, and it returns
a result it allocates itself: no output aliases the buffer, and a plan
stays safe to share across threads.  The buffer grows to the largest call
the thread has made and is then reused, so a steady stream of calls takes
no fresh pages.  No plan holds a buffer.  The arrays of each layout, a
kernel's temporaries at one batch size, are kept under the kernel's key, so
that a call gets its own with one lookup instead of a view per temporary.
"""

from __future__ import annotations

import threading
from itertools import accumulate, count
from math import prod
from typing import Callable, Sequence

import numpy as np

LAYOUTS = 64  # the most layouts a thread keeps; more start the set anew
keys = count()  # one per kernel, never reused

Spec = tuple[tuple[int, ...], type]  # an array's shape and dtype


class _Local(threading.local):
    def __init__(self):
        self.buf = np.empty(0, dtype=np.uint8)
        self.layouts: dict[tuple, list[np.ndarray]] = {}


_local = _Local()


def arrays(key: tuple, specs: Callable[..., Sequence[Spec]], *args) -> list[np.ndarray]:
    """The arrays kept under key in this thread's buffer; else specs(*args)
    laid out one after the other from offset 0, each at a multiple of its
    item size when the specs come in falling item size.  A buffer too small
    is replaced by one of the size asked for, and the layouts in the old one
    go with it."""
    found = _local.layouts.get(key)
    if found is not None:
        return found
    shapes = specs(*args)
    sizes = [np.dtype(dtype).itemsize * prod(shape) for shape, dtype in shapes]
    if len(_local.buf) < sum(sizes) or len(_local.layouts) >= LAYOUTS:
        _local.layouts = {}
    if len(_local.buf) < sum(sizes):
        _local.buf = None  # the smaller buffer goes before the larger comes
        _local.buf = np.empty(sum(sizes), dtype=np.uint8)
    found = _local.layouts[key] = [
        np.ndarray(shape, dtype, _local.buf, at) for (shape, dtype), at in zip(shapes, accumulate(sizes, initial=0))
    ]
    return found
