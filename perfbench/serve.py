"""``si-mapper serve`` with the layer timers installed (traced rounds).

    python3 perfbench/serve.py LAYERS.json serve --cache-dir DIR ...

Runs the same entry point as the ``si-mapper`` console script.  When
the daemon stops (SIGTERM), the layer snapshot is written to
``LAYERS.json``.
"""

from __future__ import annotations

import json
import signal
import sys

import layers


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    out_path, command = argv[0], argv[1:]
    # SIGTERM stops the daemon as Ctrl-C would, so the snapshot below
    # is written after the serve loop ends
    signal.signal(signal.SIGTERM, _interrupt)
    tracer = layers.LayerTracer()
    tracer.install()
    from repro.cli import main as cli_main
    try:
        return cli_main(command)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
