"""One workload in one fresh process; started by run.py, never imported.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --stamps FILE [--spans FILE]

qpyramid is imported from PYTHONPATH (run.py points it at the checkout's
src/).  Set-up is `import qpyramid.cli`, first thing, for every workload.  The
child writes CLOCK_MONOTONIC stamps (set-up done, command start, command end)
and its own peak RSS to --stamps; run.py timed the spawn on the same clock.
With --spans it installs the timing wrappers of tracing.py and writes the
spans at exit.  The workload's output files go to --out in both modes, so
run.py can check that tracing leaves them byte-identical.
"""
import time

import qpyramid.cli  # noqa: F401  (set-up: loads every qpyramid module)

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--out", required=True)
parser.add_argument("--stamps", required=True)
parser.add_argument("--spans", default=None)
args = parser.parse_args()
workload = workloads.WORKLOADS[args.workload]

stamps = {"setup_done": SETUP_DONE}
tracer = None
if args.spans:
    tracer = tracing.install(f"{args.workload}-seed{args.seed}-{os.getpid()}")

code = 0
stamps["start"] = time.monotonic()
try:
    if tracer is None:
        workload.execute(args.seed, args.out)
    else:
        with tracer.span("cli"):
            workload.execute(args.seed, args.out)
except SystemExit as exc:  # click's standalone mode always exits
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
stamps["end"] = time.monotonic()
stamps["peak_rss_kb"] = tracing.status_kb("VmHWM")
if tracer is not None:
    tracer.write(args.spans)
with open(args.stamps, "w") as fh:
    json.dump(stamps, fh)
sys.exit(code)
