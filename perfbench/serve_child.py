"""Run ``tia-serve`` in this process and, when tracing is on, write its
span events to a JSONL file after it drains.

    python3 perfbench/serve_child.py SPANS.jsonl TIA-SERVE-ARGS...

The daemon's ``--metrics`` dump holds counters and histograms only;
the per-request ``serve.*`` spans the benchmark reads are in the event
log, which ``tia-serve`` itself never writes.
"""

from __future__ import annotations

import sys

from repro.obs import core as obs
from repro.obs import export
from repro.serve.daemon import serve_main


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    rc = serve_main(argv)
    if obs.enabled():
        export.write_jsonl(spans_out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
