"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve --root ...``

The daemon behaves exactly as ``python -m repro serve``; when it exits
(after SIGTERM) its spans and tallies are written to ``SPANS_OUT``.
"""

from __future__ import annotations

import sys

import tracer


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    spans = tracer.Tracer(run_id="daemon")
    tracer.install(spans)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        spans.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
