"""``repro-mem serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [ARGS...]``.
The spans stay in memory while the server runs and are written to
``SPANS.json`` once it has drained after SIGTERM.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    harness.require_program()
    from repro import cli

    from perfbench import layers
    from perfbench.tracer import Tracer, write

    tracer = Tracer()
    layers.install_serve(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        write(tracer.dump(), out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
