"""`python -m stackyrr.cli` with spans, for the traced cli workload.

Times the import of stackyrr.cli, main(), and each serialize.gset_from_json
call main makes; the spans go to stderr on one line tagged
PERFBENCH_SPANS as [name, start, end, parent name].  perf_counter reads
the system-wide monotonic clock on Linux, so the parent can place these
spans inside its own case span.
"""

import json
import sys
import time

start = time.perf_counter()
import stackyrr.cli as cli  # noqa: E402

spans = [["cli.import", start, time.perf_counter(), None]]
parse = cli.gset_from_json


def traced_gset_from_json(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return parse(*args, **kwargs)
    finally:
        spans.append(["serialize.gset_from_json", t0, time.perf_counter(), "cli.main"])


cli.gset_from_json = traced_gset_from_json
t0 = time.perf_counter()
status = cli.main(sys.argv[1:])
spans.insert(1, ["cli.main", t0, time.perf_counter(), None])
sys.stderr.write("PERFBENCH_SPANS " + json.dumps(spans) + "\n")
sys.exit(status)
