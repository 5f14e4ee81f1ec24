"""Launcher that runs the serve daemon for the benchmark.

Usage: ``python3 perfbench/serve_launcher.py LEVEL SPANS_PATH serve ...``

It installs the benchmark's hooks for ``LEVEL`` (0 none, 1 garbage
collections, 2 also every layer's public functions; see ``spans.py``)
and then hands the remaining arguments to ``repro.cli.main``, exactly
as ``repro serve ...`` would run.  When the daemon exits (SIGINT), it
prints ``PEAK_RSS_MB <value>`` and writes the recorded spans to
``SPANS_PATH``.
"""

from __future__ import annotations

import os
import resource
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    level, spans_path, cli_args = int(argv[0]), argv[1], argv[2:]
    # The benchmark stops the daemon with SIGINT, as Ctrl-C would; a
    # parent that runs in the background may have left SIGINT ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans

    log = spans.hooks(level)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"PEAK_RSS_MB {peak}", flush=True)
        if log is not None:
            log.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
