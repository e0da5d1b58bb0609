"""qpyramid benchmark: one workload per invocation, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports qpyramid from ./src only and
writes scratch files only under ./.perfbench_work.  Each workload run is a
fresh child process (perfbench/child.py), one at a time: a closed loop with
one client.  Runs repeat until the next one would not fit in --seconds.

--trace 0 reports the end-to-end metrics, measured with tracing off.  The
workload process runs pinned to one CPU with this process, which stops it every
calibration.SLICE_PERIOD_S and times one calibration slice in its place; the
running time of the process (its wall time minus the stops) is then scaled to
a host on which a slice takes calibration.SLICE_S, by (SLICE_S / mean slice
time) ** phase_sensitivity, with the workload's own exponent for wall_s and 1
for setup_s.  This takes the shared host's speed phases out of the two times
(see calibration.py).
  wall_s       median scaled running time of a fresh workload process,
               set-up included
  setup_s      median scaled time from spawn until `import qpyramid.cli`
               returns, the first thing every workload process does
               (child.py stamps it)
  peak_rss_mb  mean peak RSS (VmHWM) of the workload processes, each read by
               the process itself: its ru_maxrss would include this parent's
The unscaled wall and set-up times and the mean slice times are printed on
`#` lines.
--trace 1 runs the workload in pairs of one untraced and one traced process,
the traced one first in every other pair, checks that both write
byte-identical outputs, and reports the per-layer metrics (see README.md)
from the spans of the traced runs plus one gate-kernel probe.

Every started process is an operation.  It fails on a nonzero exit, a
traceback on stderr, a failed correctness check (workloads.py) or, when
traced, outputs that differ from the untraced run.  failed / attempted is
the failure fraction.  The last stdout line is the JSON result.

This process and every child run with one BLAS/OpenMP thread (THREAD_ENV) on
one CPU: one client and no extra threads.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field

import workloads

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads, here or in a child
import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
HARD_LIMIT_S = 165.0       # every invocation must end within 180 s
KERNEL_KINDS = ("h", "p", "cp", "rz", "cx", "swap", "cswap")
BYTES_PER_GATE_AMP = 32    # computed model: one complex128 read and one write

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Child:
    t0: float                      # CLOCK_MONOTONIC just before the spawn
    wall: float
    ok: bool
    usage: resource.struct_rusage
    stdout: str
    stops: list[tuple[float, float]] = field(default_factory=list)  # (stopped, resumed)
    slices: list[float] = field(default_factory=list)               # calibration slice times

    def running_until(self, stamp: float) -> float:
        """Time from the spawn to stamp during which the process was not stopped."""
        return stamp - self.t0 - sum(end - begin for begin, end in self.stops if end <= stamp)


class Bench:
    """Spawns and times child processes; counts operations and failures."""

    def __init__(self, workload: workloads.Workload, seed: int, begin: float):
        self.workload = workload
        self.seed = seed
        self.deadline = begin + HARD_LIMIT_S
        self.env = {**os.environ, "PYTHONPATH": SRC}
        self.attempted = 0
        self.failures: list[str] = []

    def child_seed(self, index: int) -> int:
        """The seed of the index-th workload process of this invocation.  Each
        process gets its own: sweep's peak RSS is 154 or 166 MiB, by whether
        glibc keeps a block freed in the n = 10 swap tests on its heap, which
        the seed (and the environment) decide; one seed would pin one mode."""
        return self.seed * 1000 + index

    def fail(self, message: str) -> None:
        """Count one failed operation (at most one call per operation)."""
        self.failures.append(message)

    def spawn(self, argv: list[str], scratch: str, calibrate: bool = False) -> Child:
        """Run one child to completion, counting it as an operation; with
        calibrate, interleave calibration slices with it.  A child still
        running at the deadline is killed; like any nonzero exit or
        traceback, that is a failure."""
        self.attempted += 1
        out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=out, stderr=err)
        stops, slices = [], []
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(0.01, self.deadline - time.monotonic()))
        try:
            if calibrate:
                status, usage = _interleave(proc.pid, stops, slices)
            else:
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM (see main) or an error: leave no child behind,
            proc.kill()        # stopped or not
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        ok = proc.returncode == 0 and "Traceback" not in stderr
        if not ok:
            self.fail(f"{argv[1]} exited {proc.returncode}: {stderr.strip()[-500:]}")
        return Child(t0, wall, ok, usage, stdout, stops, slices)

    def run_workload(self, scratch: str, traced: bool, seed: int, calibrate: bool = False) -> dict:
        """One workload process writing to scratch/out; checks its outputs.
        With calibrate, its running time and set-up are also given scaled
        (see calibration.py)."""
        out = os.path.join(scratch, "out")
        os.makedirs(out)
        stamps, spans = os.path.join(scratch, "stamps.json"), os.path.join(scratch, "spans.jsonl")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload.name,
                "--seed", str(seed), "--out", out, "--stamps", stamps]
        if traced:
            argv += ["--spans", spans]
        child = self.spawn(argv, scratch, calibrate)
        run = {"wall": child.wall, "cpu_s": child.usage.ru_utime + child.usage.ru_stime,
               "ok": child.ok, "out": out}
        if not child.ok:
            return run
        with open(stamps) as fh:
            stamp = json.load(fh)
        run["rss_mb"] = stamp["peak_rss_kb"] / 1024.0
        run["setup_s"] = stamp["setup_done"] - child.t0
        run["teardown_s"] = child.t0 + child.wall - stamp["end"]
        if child.slices:
            run["mean_slice_s"] = statistics.fmean(child.slices)
            scale = calibration.SLICE_S / run["mean_slice_s"]
            run["scaled_wall_s"] = (child.running_until(child.t0 + child.wall)
                                    * scale ** self.workload.phase_sensitivity)
            run["scaled_setup_s"] = child.running_until(stamp["setup_done"]) * scale
        try:
            errors = self.workload.check(out)
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        if errors:
            self.fail(f"{self.workload.name} check: " + "; ".join(errors))
        run["ok"] = not errors
        if traced:
            with open(spans) as fh:
                run["spans"] = [json.loads(line) for line in fh]
        return run

    def kernel_probe(self) -> dict:
        with tempfile.TemporaryDirectory(dir=WORK) as scratch:
            child = self.spawn([sys.executable, os.path.join(HERE, "kernels.py")], scratch)
        return json.loads(child.stdout.splitlines()[-1]) if child.ok else {}


def _interleave(pid: int, stops: list, slices: list) -> tuple[int, resource.struct_rusage]:
    """Wait for the child pid, stopping it every SLICE_PERIOD_S to time one
    calibration slice in its place; a last slice follows its exit.  Returns
    its wait status and resource usage."""
    while True:
        time.sleep(calibration.SLICE_PERIOD_S)
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            break
        stopped = time.monotonic()
        os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):  # it exited just before the stop
            break
        slices.append(calibration.slice_time())
        os.kill(pid, signal.SIGCONT)
        stops.append((stopped, time.monotonic()))
    slices.append(calibration.slice_time())
    return status, usage


def _digests(directory: str) -> dict[str, str]:
    result = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def _keep_going(start: float, seconds: float, last: float, bench: Bench) -> bool:
    now = time.monotonic()
    return now - start + last <= seconds and now + last <= bench.deadline - 5.0


def measure_untraced(bench: Bench, seconds: float) -> dict:
    start = time.monotonic()
    runs = []
    while True:
        t = time.monotonic()
        with tempfile.TemporaryDirectory(dir=WORK) as scratch:
            runs.append(bench.run_workload(scratch, traced=False, seed=bench.child_seed(len(runs)),
                                           calibrate=True))
        if not _keep_going(start, seconds, time.monotonic() - t, bench):
            break
    done = [r for r in runs if "scaled_wall_s" in r]
    if not done:
        raise SystemExit(f"no workload process started: {bench.failures}")
    walls = [r["scaled_wall_s"] for r in done]
    print(f"# {bench.workload.name}: {len(runs)} workload runs, unscaled wall "
          + " ".join(f"{r['wall']:.3f}" for r in runs))
    print("# unscaled setup: " + " ".join(f"{r['setup_s']:.4f}" for r in done))
    print("# mean calibration slice (ms): " + " ".join(f"{r['mean_slice_s'] * 1e3:.4f}" for r in done))
    print("# wall_s samples: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"# wall_s tail percentile: {_tail_percentile(walls)}")
    print("# peak_rss_mb: " + " ".join(f"{r['rss_mb']:.1f}" for r in done))
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["scaled_setup_s"] for r in done),
        "peak_rss_mb": statistics.fmean(r["rss_mb"] for r in done),
    }


def _tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten runs beyond it, if any is at
    or above the median."""
    count = len(values)
    if count < 20:
        return f"none (needs >= 20 runs, got {count})"
    q = int(100 * (1 - 10 / count))
    return f"p{q} = {statistics.quantiles(values, n=100)[q - 1]:.4f} s over {count} runs"


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self time per layer (span duration minus its direct children) and the
    work counts recorded on the spans of one traced run."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_s, calls = defaultdict(float), defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    for s in spans:
        name = s["name"]
        self_s[name] += s["end"] - s["start"] - child_time[s["id"]]
        calls[name] += 1
        for key, value in s["attrs"].items():
            if key in ("qubits", "peak_mb"):
                attrs[name][key] = max(attrs[name][key], value)
            elif key == "amps":
                attrs[name]["gate_amps"] += value * s["attrs"]["gates"]
            else:
                attrs[name][key] += value

    def ns_per(seconds: float, count: float) -> float:
        return seconds * 1e9 / count if count else 0.0

    gate_amps = attrs["simulator.run"]["gate_amps"]
    export_bytes = attrs["export"]["bytes"]
    return {
        "analysis.swap_test.s": self_s["analysis.swap_test"],
        "analysis.swap_test.calls": calls["analysis.swap_test"],
        "analysis.swap_test.max_qubits": attrs["analysis.swap_test"]["qubits"],
        "analysis.swap_test.peak_mb": attrs["analysis.swap_test"]["peak_mb"],
        "simulator.run.s": self_s["simulator.run"],
        "simulator.run.calls": calls["simulator.run"],
        "simulator.run.gate_amps": gate_amps,
        "simulator.run.ns_per_gate_amp": ns_per(self_s["simulator.run"], gate_amps),
        "simulator.run.bytes_computed": gate_amps * BYTES_PER_GATE_AMP,
        "simulator.extract_diagonal.s": self_s["simulator.extract_diagonal"],
        "simulator.extract_diagonal.peak_mb": attrs["simulator.extract_diagonal"]["peak_mb"],
        "simulator.extract_unitary.s": self_s["simulator.extract_unitary"],
        "simulator.extract_unitary.calls": calls["simulator.extract_unitary"],
        "export.s": self_s["export"],
        "export.bytes": export_bytes,
        "export.ns_per_byte": ns_per(self_s["export"], export_bytes),
        "evolution.oracle.s": self_s["evolution.oracle"],
        "evolution.trotter_step_circuit.s": self_s["evolution.trotter_step_circuit"],
        "evolution.free_packet_reference.s": self_s["evolution.free_packet_reference"],
        "encoders.build.s": self_s["encoders.build"],
        "encoders.build.gates": attrs["encoders.build"]["gates"],
        "grids.s": self_s["grids"],
        "simulator.sample.s": self_s["simulator.sample"],
        "analysis.emit_report.s": self_s["analysis.emit_report"],
        "cli.self_s": self_s["cli"],
    }


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Pairs of one untraced and one traced run, the traced one first in every
    other pair so that neither order nor drift favours one side."""
    start = time.monotonic()
    pairs, per_run = [], []  # pairs: (untraced wall, traced wall, attributed traced time)
    for index in itertools.count():
        t = time.monotonic()
        traced_first = index % 2 == 1
        with tempfile.TemporaryDirectory(dir=WORK) as a, tempfile.TemporaryDirectory(dir=WORK) as b:
            runs = {}
            for traced, scratch in zip((traced_first, not traced_first), (a, b)):
                runs[traced] = bench.run_workload(scratch, traced=traced, seed=bench.child_seed(index))
            plain, traced_run = runs[False], runs[True]
            if plain["ok"] and traced_run["ok"]:
                if _digests(plain["out"]) != _digests(traced_run["out"]):
                    bench.fail(f"{bench.workload.name}: traced outputs differ from untraced outputs")
                metrics = layer_metrics(traced_run["spans"])
                metrics["process.setup_s"] = traced_run["setup_s"]
                metrics["process.teardown_s"] = traced_run["teardown_s"]
                metrics["process.cpu_s"] = traced_run["cpu_s"]
                attributed = sum(v for k, v in metrics.items()
                                 if k.endswith(".s") or k in ("cli.self_s", "process.setup_s",
                                                              "process.teardown_s"))
                pairs.append((plain["wall"], traced_run["wall"], attributed))
                per_run.append(metrics)
        if not _keep_going(start, seconds, time.monotonic() - t, bench):
            break
    kernels = bench.kernel_probe()
    if not per_run:
        raise SystemExit(f"{bench.workload.name}: no traced run succeeded: {bench.failures}")
    result = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    for kind in KERNEL_KINDS:
        result[f"simulator.kernel.{kind}.ns_per_amp"] = kernels.get(kind, 0.0)
    overhead = statistics.median(tw - pw for pw, tw, _ in pairs)
    result["trace.overhead_s"] = overhead
    result["trace.unattributed_s"] = statistics.median(pw + overhead - att for pw, _, att in pairs)
    print(f"# {bench.workload.name}: {len(pairs)} untraced/traced pairs (traced first in every "
          f"other pair), wall " + " ".join(f"{pw:.3f}/{tw:.3f}" for pw, tw, _ in pairs))
    print("# traced minus untraced per pair: " + " ".join(f"{tw - pw:+.3f}" for pw, tw, _ in pairs)
          + f"; trace.overhead_s = their median = {overhead:+.4f} s")
    print("# traced wall outside every span and stamp: "
          + " ".join(f"{tw - att:+.4f}" for _, tw, att in pairs))
    holds = abs(result["trace.unattributed_s"]) <= abs(overhead)
    print(f"# untraced wall + trace.overhead_s - (process.setup_s + cli.self_s + layer .s + "
          f"process.teardown_s) = trace.unattributed_s = {result['trace.unattributed_s']:+.4f} s; "
          f"{'within' if holds else 'NOT within'} |trace.overhead_s|")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.monotonic()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so spawn reaps its child

    if not os.path.isfile(os.path.join(SRC, "qpyramid", "cli.py")):
        print(f"no qpyramid source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    probe = subprocess.run([sys.executable, "-c", "import qpyramid.cli; print(qpyramid.cli.__file__)"],
                           env={**os.environ, "PYTHONPATH": SRC}, cwd=ROOT, capture_output=True,
                           text=True, timeout=120)
    if probe.returncode != 0 or not probe.stdout.strip().startswith(SRC + os.sep):
        print(f"qpyramid does not import from {SRC}: {probe.stderr.strip()[-500:]}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the correctness checks use the checkout's qpyramid
    for _ in range(20):  # warm-up
        calibration.slice_time()

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, begin)
    if args.trace:
        values = measure_traced(bench, args.seconds)
        units = PER_LAYER_UNITS
    else:
        values = measure_untraced(bench, args.seconds)
        units = END_TO_END_UNITS
    for message in bench.failures:
        print(f"# FAILED: {message}")
    print(f"# fail_frac = {len(bench.failures)}/{bench.attempted}")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


PER_LAYER_UNITS = {
    "analysis.swap_test.s": "s", "analysis.swap_test.calls": "count",
    "analysis.swap_test.max_qubits": "count", "analysis.swap_test.peak_mb": "MiB",
    "simulator.run.s": "s", "simulator.run.calls": "count", "simulator.run.gate_amps": "count",
    "simulator.run.ns_per_gate_amp": "ns/gate_amp", "simulator.run.bytes_computed": "B",
    **{f"simulator.kernel.{k}.ns_per_amp": "ns/amp" for k in KERNEL_KINDS},
    "simulator.extract_diagonal.s": "s", "simulator.extract_diagonal.peak_mb": "MiB",
    "simulator.extract_unitary.s": "s", "simulator.extract_unitary.calls": "count",
    "export.s": "s", "export.bytes": "B", "export.ns_per_byte": "ns/B",
    "evolution.oracle.s": "s", "evolution.trotter_step_circuit.s": "s",
    "evolution.free_packet_reference.s": "s", "encoders.build.s": "s",
    "encoders.build.gates": "count", "grids.s": "s", "simulator.sample.s": "s",
    "analysis.emit_report.s": "s", "cli.self_s": "s", "process.setup_s": "s",
    "process.teardown_s": "s",
    "process.cpu_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

if __name__ == "__main__":
    sys.exit(main())
