"""Host-speed calibration slices, interleaved with a workload process.

The benchmark's host is shared: its speed switches between a fast and a slow
phase that last from seconds to minutes, and in the slow one interpreted
Python runs 1.4-1.9x slower, numpy kernels less.  So the wall time of a whole
workload process spreads by 12-35% from run to run.  run.py therefore stops
the workload process every SLICE_PERIOD_S, times one slice of fixed work here
in its place, on the same pinned CPU, and lets it go on.  The slices sample
the host's speed over the same stretch of time as the process, and run.py
scales the process's running time by their mean time:

    scaled time = running time * (SLICE_S / mean slice time) ** sensitivity

That is the time the process would take on a host where one slice takes
SLICE_S.  A slice formats floats into text, as the CSV writers do, and runs
an integer loop; of the slice mixes tried (these two, small numpy vector
work, small file writes), this one left the least spread on all four
workloads.  About 2% of a run goes to slices.

`sensitivity` is how strongly the slow phase slows the process, relative to a
slice: the slope of log running time over log mean slice time.  Set-up
(interpreter start and imports) has slope 0.9-1.0 and is scaled with 1.  Each
workload has its own exponent (workloads.py), as the slope fitted over ten
runs of each (seeds 1-10, 49-90 processes) on the 2-vCPU host of
baseline.json, rounded to 0.05: numpy-heavy work slows less than a slice,
float formatting more.
"""
import io
import math
import time

SLICE_S = 1e-3          # the unit: one slice's time on the reference host
SLICE_PERIOD_S = 0.05   # how long the workload runs between two slices
FORMATTED_VALUES = [math.sin(i) for i in range(330)]
LOOP_ITERATIONS = 9000


def slice_time() -> float:
    """The wall time of one slice of fixed work."""
    start = time.perf_counter()
    text = io.StringIO()
    for i, value in enumerate(FORMATTED_VALUES):
        text.write(f"{i},{value!r},{-value!r}\n")
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start
