"""Start ``repro serve`` (its own CLI, default settings, ephemeral port)
in this process for ``serve_edge``.

With ``--trace 1`` the layer wrappers of ``layers.py`` are installed
first.  After the server has drained on SIGTERM, the peak resident set
and, when traced, the recorded spans are written to ``--dump``::

    python3 perfbench/serve_launcher.py --dump out.json --trace 1
"""

from __future__ import annotations

import argparse
import json
import sys

import common

common.use_sources()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    recorder = None
    span_cost_ms = 0.0
    if args.trace:
        import layers
        recorder = layers.Recorder()
        layers.install(recorder)
        span_cost_ms = layers.calibrate()

    from repro.cli import main as repro_main
    code = repro_main(["serve", "--port", "0"])
    doc = {"exit_code": code, "peak_rss_mb": common.peak_rss_mb(),
           "span_cost_ms": span_cost_ms,
           "spans": recorder.dump() if recorder is not None else []}
    with open(args.dump, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
