"""Traced CLI process: ``python -X importtime bench/cli_child.py SPANS ITEM
COMMAND ARGS...`` imports ``formalconn.cli``, installs the span
recorder, runs ``formalconn.cli.main`` on COMMAND ARGS and writes its
start time, the time spent in ``main`` and every span (tagged with ITEM)
to the JSON file SPANS.  It exits with the code ``main`` returns."""

import time

STARTED = time.time()

import json  # noqa: E402
import sys  # noqa: E402

import formalconn.cli  # noqa: E402

from tracing import Recorder  # noqa: E402


def main():
    spans_path, item = sys.argv[1], int(sys.argv[2])
    rec = Recorder()
    rec.item = item
    rec.install()
    t0 = time.perf_counter()
    try:
        code = formalconn.cli.main(sys.argv[3:])
    finally:
        main_ms = (time.perf_counter() - t0) * 1e3
        rec.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"started": STARTED, "main_ms": main_ms, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
