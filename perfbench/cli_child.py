"""Traced stand-in for ``python -m wittkit.cli``.

Usage: ``python cli_child.py SPANS_JSON ARGS...`` with ``src`` as the
working directory.  Imports the CLI, wraps the entry points, runs the same
``main`` on ARGS and writes the spans and the import time to SPANS_JSON,
also when ``main`` raises.
"""

import json
import os
import sys
import time


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.getcwd())
    start = time.perf_counter()
    import wittkit.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = wittkit.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.export()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
