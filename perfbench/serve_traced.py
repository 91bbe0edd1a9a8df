"""Traced server launcher: wrap the layers, then run ``repro-euler serve``.

Usage: ``python serve_traced.py <spans.json> [serve options...]``

Installs the benchmark's span wrappers in this process, hands the rest of
the command line to ``repro.cli.main(["serve", ...])``, and writes every
recorded span to ``<spans.json>`` once the server has drained and exited.
"""

import sys

from layers import SERVER_POINTS, Tracer


def main() -> int:
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(SERVER_POINTS)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.enabled = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
