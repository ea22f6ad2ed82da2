"""The calibration slice: a fixed ~2 ms kernel that measures how fast the box is *now*.

The sandbox drifts (a fixed pure-Python loop was seen to run 1.5x slower
for minutes at a time), so raw wall times do not repeat within a tenth.
One slice runs before every measured op and after the last one; an op's
speed factor is the mean of its two neighbouring slices over
``CALIB_REF_MS`` and its calibrated time is ``raw / factor``.

The kernel mixes what the program under test does — interpreter
dispatch, small-object allocation, dict/tuple/str work and one
200k-element numpy mask — so its slowdown tracks the workload's.  It
imports nothing from ``repro``.

FROZEN: changing ``_kernel`` or ``CALIB_REF_MS`` rescales every
calibrated metric and breaks comparison with earlier records.
"""

from __future__ import annotations

import time

try:  # the program's columnar kernels use numpy when present; so do we
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the numpy-less CI legs
    _np = None

#: The minimum of 500 slices on a quiet sandbox (2-core Xeon @ 2.1 GHz,
#: python 3.11, numpy 2.4).  A constant, never re-measured at run time:
#: the factor must mean the same thing in every run.
CALIB_REF_MS = 1.78

_MASK_ROWS = 200_000
_COLUMN = _np.arange(_MASK_ROWS, dtype=_np.int64) if _np is not None else None
_FALLBACK_COLUMN = list(range(_MASK_ROWS // 40))


def _kernel() -> int:
    table: dict[tuple[int, str], int] = {}
    total = 0
    for i in range(3200):
        key = (i & 63, str(i & 15))
        table[key] = table.get(key, 0) + i
        total += len(key[1]) + (i * 7) % 13
    joined = ",".join(f"{bucket}:{label}" for bucket, label in table)
    total += len(joined.split(","))
    if _COLUMN is not None:
        mask = (_COLUMN % 7 < 3) & (_COLUMN > 1000)
        total += int(mask.sum())
    else:
        total += sum(1 for v in _FALLBACK_COLUMN if v % 7 < 3 and v > 1000)
    return total


def slice_ms() -> float:
    """Run one slice and return its wall time in milliseconds."""
    start = time.perf_counter_ns()
    _kernel()
    return (time.perf_counter_ns() - start) / 1e6
