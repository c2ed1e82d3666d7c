"""Run one demflag command line with outside-in tracing.

    PERFBENCH_SPANS=spans.json python3 perfbench/trace_cli.py ARGS...

behaves as ``python3 -m demflag.cli ARGS...`` and, when it ends, writes the
time ``import demflag.cli`` took and the per-layer stats of the call to the
file named by ``PERFBENCH_SPANS``.
"""

import json
import os
import sys
import time

from tracer import Tracer


def main() -> int:
    t0 = time.perf_counter()
    import demflag.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return demflag.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "stats": tracer.take()}, fh)


if __name__ == "__main__":
    sys.exit(main())
