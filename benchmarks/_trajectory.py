"""Append points to the root ``BENCH_*.json`` perf trajectories.

Every trajectory file has the shape ``{"benchmark": name, "trajectory":
[point, ...]}``; each bench builds its own ``point`` dict of measured
fields and hands it to :func:`append_point`, which stamps the common
header (``date``, ``git_sha``, ``cpu_count``, ``numpy``, ``quick``) in
front of it so every point says when, on what and from which code it
was measured.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git_sha() -> str | None:
    """The checked-out commit of this repository, or ``None``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def append_point(
    path: Path, name: str, point: dict, *, quick: bool
) -> Path:
    """Append the header plus ``point`` to the trajectory at ``path``.

    ``quick`` records whether the bench ran its shrunken ``--quick``
    workload.  A missing file starts a fresh ``{"benchmark": name,
    ...}`` record; existing points are left as they are.
    """
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": name, "trajectory": []}
    header = {
        "date": datetime.date.today().isoformat(),
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "quick": bool(quick),
    }
    data["trajectory"].append({**header, **point})
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path
