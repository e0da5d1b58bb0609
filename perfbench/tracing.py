"""Span recorder for the traced benchmark run.

Timing wrappers are installed on the module attributes that callers look up at
call time (for example ``qpyramid.evolution.run``, which ``evolve_quantum``
finds through its module globals).  Wrapping only ``qpyramid.simulator.*``
would miss every caller that bound the name at import.  The package itself is
not edited: the wrappers live in this process only.

Spans are kept in memory as (id, name, start, end, parent, attrs) and written
out once, as JSON lines, when the traced process ends.
"""
from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

def status_kb(field: str) -> int:
    """A field of /proc/self/status in KiB: VmRSS (current RSS) or VmHWM (this
    process's own RSS high-water mark).  ru_maxrss is not used: after exec it
    still holds the spawning parent's high-water mark."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class Tracer:
    """In-memory spans of one traced process; all spans share `run_id`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, peak: bool = False):
        """Record one span.  With `peak`, also record how far the process RSS
        high-water mark rose above the RSS at span start (an upper bound on the
        memory the span added; exact when the span sets the process peak)."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        rss0 = status_kb("VmRSS") if peak else 0
        record["start"] = time.monotonic()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()
            if peak:
                record["attrs"]["peak_mb"] = max(0, status_kb("VmHWM") - rss0) / 1024.0

    def wrap(self, module, attr: str, name: str, count=None, peak: bool = False) -> None:
        """Replace `module.attr` by a timed wrapper.  `count(attrs, args, result)`
        adds work counts after the call returns."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name, peak) as attrs:
                result = original(*args, **kwargs)
            if count is not None:
                count(attrs, args, result)
            return result

        setattr(module, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps({"run": self.run_id, **record}) + "\n")


def _count_gates(attrs, args, result):
    attrs["gates"] = len(getattr(result, "gates", ()))


def _count_run(attrs, args, result):
    circuit = args[0]
    attrs["gates"] = len(circuit.gates)
    attrs["amps"] = 1 << circuit.n_qubits


def _count_swap(attrs, args, result):
    attrs["qubits"] = 2 * args[0].n_qubits + 1


def _count_file(attrs, args, result):
    attrs["bytes"] = os.path.getsize(args[-1])  # every CSV writer takes the path last


def _count_text(attrs, args, result):
    attrs["bytes"] = len(result.encode())


def _count_paths(attrs, args, result):
    attrs["bytes"] = sum(os.path.getsize(p) for p in result)


_ENCODERS = ("build_qate_circuit", "solve_qate", "build_direct_diagonal", "build_qwe_circuit",
             "build_potential_circuit", "build_qft")
_GRIDS = ("kinetic_phase_profile", "gaussian_packet", "momentum_samples", "position_samples",
          "potential_profile")

# (module, attribute, layer, counter, peak).  Each entry is a lookup site: the
# module whose globals the caller reads the name from.  The swap test's own
# `run` and `sample` calls (qpyramid.analysis.run / .sample) are left unwrapped
# so that their time stays inside `analysis.swap_test`, and `simulator.run`
# counts only Trotter substeps.
_SITES = [
    ("qpyramid.cli", "extract_diagonal", "simulator.extract_diagonal", None, True),
    ("qpyramid.cli", "circuit_to_json", "export", _count_text, False),
    ("qpyramid.cli", "write_diagonal_csv", "export", _count_file, False),
    ("qpyramid.cli", "write_profile_csv", "export", _count_file, False),
    ("qpyramid.cli", "emit_report", "analysis.emit_report", _count_paths, False),
    *[("qpyramid.cli", f, "encoders.build", _count_gates, False) for f in _ENCODERS],
    *[("qpyramid.cli", f, "grids", None, False) for f in _GRIDS],
    ("qpyramid.simulator", "extract_unitary", "simulator.extract_unitary", None, False),
    ("qpyramid.simulator", "run", "simulator.run", _count_run, False),
    ("qpyramid.grids", "gaussian_packet", "grids", None, False),
    ("qpyramid.evolution", "run", "simulator.run", _count_run, False),
    ("qpyramid.evolution", "sample", "simulator.sample", None, False),
    ("qpyramid.evolution", "swap_test_estimate", "analysis.swap_test", _count_swap, True),
    ("qpyramid.evolution", "evolve_classical_oracle", "evolution.oracle", None, False),
    ("qpyramid.evolution", "trotter_step_circuit", "evolution.trotter_step_circuit", None, False),
    ("qpyramid.evolution", "free_packet_reference", "evolution.free_packet_reference", None, False),
    ("qpyramid.evolution", "write_statevector_csv", "export", _count_file, False),
    ("qpyramid.evolution", "write_histogram_csv", "export", _count_file, False),
    *[("qpyramid.evolution", f, "encoders.build", _count_gates, False) for f in _ENCODERS],
    *[("qpyramid.evolution", f, "grids", None, False) for f in _GRIDS],
]


def install(run_id: str) -> Tracer:
    """Wrap every lookup site of the already-imported qpyramid modules."""
    tracer = Tracer(run_id)
    for module_name, attr, layer, count, peak in _SITES:
        module = sys.modules.get(module_name)
        if module is not None and hasattr(module, attr):
            tracer.wrap(module, attr, layer, count, peak)
    return tracer
