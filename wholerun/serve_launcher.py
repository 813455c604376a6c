"""Start ``repro serve`` with the span wrappers of :mod:`wholerun.trace`.

Usage: ``python3 wholerun/serve_launcher.py TRACE_DIR [serve flags...]``

The wrappers are installed before the server builds its session, so
the forked pool workers inherit them.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from wholerun import common  # noqa: E402

common.pin_threads()
sys.path.insert(0, str(common.SRC))


def main() -> int:
    from repro import cli
    from wholerun import trace

    trace.install(Path(sys.argv[1]))
    return cli.main(["serve", *sys.argv[2:]])


if __name__ == "__main__":
    sys.exit(main())
