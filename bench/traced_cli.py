"""Run one compbase command under the tracer and save its counters.

    python3 bench/traced_cli.py COUNTERS.json CLI-ARGS...

Behaves like ``python -m compbase.cli CLI-ARGS...`` (same output, same exit
code) and writes the tracer's counters to COUNTERS.json.
"""

import json
import sys
from pathlib import Path

import compbase.cli
from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    tracer.begin_job()
    try:
        return compbase.cli.main(sys.argv[2:])
    finally:
        out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
