"""Gate-kernel probe: ns per amplitude for single-kind circuits at n = 18.

    python3 perfbench/kernels.py      (qpyramid on PYTHONPATH; prints one JSON line)

Each kind gets a circuit of GATES gates spread over all qubit positions, run
through the public qpyramid.simulator.run.  The cost of an empty circuit
(validation, copy, norm check) is subtracted, and the median of REPEATS
timings is divided by gates * 2^n.  These are computed figures: at n = 18 the
state is 4 MiB and stays in the 105 MiB L3, so they say nothing about memory
bandwidth.
"""
import json
import statistics
import time

from qpyramid.circuit import Circuit
from qpyramid.simulator import StateVector, run

N = 18
GATES = 36
REPEATS = 5


def _circuit(kind: str) -> Circuit:
    c = Circuit(N)
    for i in range(GATES if kind else 0):
        a, b, t = i % N, (i + 1) % N, (i + 2) % N
        args = {"h": (a,), "p": (a, 0.3), "rz": (a, 0.3), "cp": (a, b, 0.3), "cx": (a, b),
                "swap": (a, b), "cswap": (a, b, t)}[kind]
        getattr(c, kind)(*args)
    return c


def _median_seconds(circuit: Circuit, state: StateVector) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run(circuit, state)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    state = StateVector.zero_state(N)
    run(_circuit("h"), state)  # warm-up: first touch of the work arrays
    base = _median_seconds(_circuit(""), state)
    result = {}
    for kind in ("h", "p", "cp", "rz", "cx", "swap", "cswap"):
        seconds = _median_seconds(_circuit(kind), state) - base
        result[kind] = seconds * 1e9 / (GATES * (1 << N))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
