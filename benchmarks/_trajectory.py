"""Append dated points to the root ``BENCH_*.json`` perf trajectories.

Every trajectory file has the shape ``{"benchmark": name, "trajectory":
[point, ...]}``; each bench builds its own ``point`` dict and hands it
to :func:`append_point`.
"""

from __future__ import annotations

import json
from pathlib import Path


def append_point(path: Path, name: str, point: dict) -> Path:
    """Append ``point`` to the trajectory at ``path`` and return it.

    A missing file starts a fresh ``{"benchmark": name, ...}`` record.
    """
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    else:
        data = {"benchmark": name, "trajectory": []}
    data["trajectory"].append(point)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path
