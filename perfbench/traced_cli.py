"""Run ``ionjc.cli.main`` in-process under the span recorder.

Usage: python traced_cli.py <spans.json> <dim> <ionjc CLI arguments...>

Writes the spans of the run, plus the wall interval of ``main`` after
import, to <spans.json> once the run ends, and exits with main's code.
"""

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out_path, dim, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import ionjc.cli  # from PYTHONPATH, which the benchmark points at the checkout's src/

    rec = spans.SpanRecorder()
    uninstall = spans.install(rec, dim)
    try:
        start = time.perf_counter()
        code = ionjc.cli.main(cli_args)
        stop = time.perf_counter()
    finally:
        uninstall()
    doc = rec.to_doc()
    doc["main_start"], doc["main_stop"] = start, stop
    Path(out_path).write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
