"""Run one ordercones CLI call with the span tracer installed.

Usage: python perfbench/tracecli.py TRACE_JSON <cli arguments...>

Used by traced cli_cold runs in place of ``python -m ordercones.cli``; the
call's span aggregates and spans are written to TRACE_JSON.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from ordercones import cli  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"layers": tracer.aggregates(), "spans": tracer.spans()}, fh)


if __name__ == "__main__":
    sys.exit(main())
