"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve --tcp ...``.
The spans and counts are written to ``SPANS.json`` after the server has
drained on SIGTERM and ``repro.cli.main`` has returned.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.trace import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    tracer.enabled = False
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
