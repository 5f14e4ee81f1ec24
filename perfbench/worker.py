"""Process that runs one in-process workload for the benchmark.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED LEVEL SPANS_PATH``

It imports the program, builds the workload, prints ``READY`` and
waits on stdin for ``GO SECONDS WARMUP`` (or ``QUIT``).  It then runs
``WARMUP`` untimed ops followed by ops until ``SECONDS`` have passed,
one op in flight, and prints one ``RESULT {json}`` line: per-op
latencies, elapsed time, the records to check and its peak RSS.

``LEVEL`` 0 runs untraced, 1 records garbage collections only, 2 also
wraps every layer's public functions (see ``spans.py``); at levels
1 and 2 the spans are written to ``SPANS_PATH`` at the end.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    workload, seed, level, spans_path = argv[0], int(argv[1]), \
        int(argv[2]), argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    import workloads

    log = spans.hooks(level)
    state = workloads.WORKLOADS[workload](seed)
    print("READY", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "GO":
        return 0
    seconds, warmup = float(command[1]), int(command[2])
    clock = time.perf_counter
    records = []

    def run_op(k):
        inp = state.op_input(k)
        if log is not None:
            span = log.open(spans.OP_SPAN, k)
        t0 = clock()
        out = state.op(inp)
        t1 = clock()
        if log is not None:
            log.close(span)
        records.append(state.record(k, out))
        return t0, t1

    for k in range(warmup):
        run_op(k)
    latencies = []
    start = clock()
    deadline = start + seconds
    k = warmup
    t1 = start
    while clock() < deadline:
        t0, t1 = run_op(k)
        latencies.append(t1 - t0)
        k += 1
    elapsed = t1 - start
    if log is not None:
        log.save(spans_path)
    result = {
        "latencies": latencies,
        "elapsed": elapsed,
        "records": records,
        "first_op": warmup,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sys.stdout.write("RESULT " + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
