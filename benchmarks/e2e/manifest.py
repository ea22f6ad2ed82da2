"""The repro manifest stamped on every output file.

Enough to tell, months later, what produced a number: the commit, the
interpreter, whether numpy was there, the box, the calibration constant
and the launch environment.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Mapping

import calib


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"  # an exported checkout is not a git repository
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def repro_manifest(
    root: Path, seed: int, environ: Mapping[str, str] = os.environ
) -> dict[str, Any]:
    """``environ`` is the environment the measuring process ran in."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "calib_ref_ms": calib.CALIB_REF_MS,
        "seed": seed,
        "PYTHONHASHSEED": environ.get("PYTHONHASHSEED"),
        "repro_env": {k: v for k, v in sorted(environ.items()) if k.startswith("REPRO_")},
    }
