"""Swap-test fidelity estimation, closed-form error budget, report emission."""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, InvalidWidth
from .simulator import RandomSource, StateVector, fidelity_exact, run

# Reference circuit depths reported for qubit sizes 3..6 (informational columns
# in metrics output; our own depth metric is ASAP layering and is not asserted
# against these).
QATE_DEPTH_REFERENCE = {3: 9, 4: 18, 5: 22, 6: 36}
BASELINE_DEPTH_REFERENCE = {3: 16, 4: 24, 5: 32, 6: 40}

FIDELITY_REFERENCE = {3: 0.73, 9: 0.99}  # published anchor points, qualitative
FIDELITY_REFERENCE_BAND = 0.15


@dataclass(frozen=True)
class FidelityReport:
    """Exact vs sampled swap-test fidelity.  `std_error` is the binomial
    standard error of Pr(ancilla=0); the estimate's standard error is twice it."""

    exact: float
    estimated: float
    shots: int
    std_error: float


@dataclass(frozen=True)
class ErrorBudgetParams:
    """Closed-form noise/discretization budget inputs.

    h: grid step; l2_gates: two-qubit gate count; gate_variance: per-gate error
    variance; t1, t2: decoherence time constants; dt: evolution time;
    readout_variance: total readout error variance.
    """

    h: float
    l2_gates: int = 0
    gate_variance: float = 0.0
    t1: float = math.inf
    t2: float = math.inf
    dt: float = 0.0
    readout_variance: float = 0.0

    def __post_init__(self):
        if not (0 < self.h < math.inf):
            raise ValueError(f"step size h must be finite and positive, got {self.h}")
        if not (self.t1 > 0 and self.t2 > 0):
            raise ValueError(f"decoherence constants must be positive, got {self.t1}, {self.t2}")
        if self.l2_gates < 0 or not all(
            0 <= x < math.inf for x in (self.dt, self.gate_variance, self.readout_variance)
        ):
            raise ValueError("dt, variances and gate counts must be finite and nonnegative")


def error_budget_terms(params: ErrorBudgetParams) -> dict[str, float]:
    """Itemized budget: h^3 + L2*sigma_g^2 + dt*(T1+T2)/(T1*T2) + sigma_cr^2.

    Asymptotic constants are taken as 1; this is a diagnostic, not a certified
    bound.
    """
    return {
        "discretization": params.h**3,
        "gate": params.l2_gates * params.gate_variance,
        # (T1+T2)/(T1*T2) written as 1/T1 + 1/T2 so infinite constants give 0
        "decoherence": params.dt * (1.0 / params.t1 + 1.0 / params.t2),
        "readout": params.readout_variance,
    }


def error_budget(params: ErrorBudgetParams) -> float:
    return sum(error_budget_terms(params).values())


def swap_test_circuit(n: int) -> Circuit:
    """Width 2n+1: Hadamard on the ancilla (qubit 0), one controlled swap per
    register pair, closing Hadamard.  Pr(ancilla=0) = 1/2 + |<psi|phi>|^2 / 2.

    Simulating it costs O(4^n); it is kept as the explicit cross-check of the
    closed form that `swap_test_estimate` samples from."""
    if n < 1:
        raise InvalidWidth(f"register width must be >= 1, got {n}")
    circuit = Circuit(2 * n + 1)
    circuit.h(0)
    for i in range(n):
        circuit.cswap(0, 1 + i, 1 + n + i)
    circuit.h(0)
    return circuit


def _joint_state(a: StateVector, b: StateVector) -> StateVector:
    amps = np.kron(np.array([1.0, 0.0], dtype=np.complex128),
                   np.kron(a.amplitudes, b.amplitudes))
    return StateVector(2 * a.n_qubits + 1, amps)


def swap_test_probability(a: StateVector, b: StateVector) -> float:
    """Pr(ancilla=0) read off the simulated swap-test circuit (no sampling)."""
    if a.n_qubits != b.n_qubits:
        raise InvalidWidth("swap test requires equal register widths")
    out = run(swap_test_circuit(a.n_qubits), _joint_state(a, b))
    half = 1 << (2 * a.n_qubits)
    return float(np.sum(np.abs(out.amplitudes[:half]) ** 2))


def swap_test_estimate(a: StateVector, b: StateVector, shots: int, rng: RandomSource) -> FidelityReport:
    """Sampled swap test: estimated = clamp(2*Pr^(0) - 1, 0, 1).

    The ancilla-zero count is drawn as Binomial(shots, (1 + |<a|b>|^2) / 2),
    the exact outcome law of the swap-test circuit, so the 2n+1-qubit state is
    never built.  Finite-shot noise can push Pr^(0) below 1/2; the clamp keeps
    the estimate a probability.
    """
    if a.n_qubits != b.n_qubits:
        raise InvalidWidth("swap test requires equal register widths")
    if shots < 1:
        raise ValueError("shots must be positive")
    exact = fidelity_exact(a, b)
    zeros = rng.binomial(shots, min(1.0, (1.0 + exact) / 2.0))
    p0 = zeros / shots
    estimated = min(1.0, max(0.0, 2.0 * p0 - 1.0))
    std_error = math.sqrt(p0 * (1.0 - p0) / shots)
    return FidelityReport(exact, estimated, shots, std_error)


TABLE_CHUNK_ROWS = 16384


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def write_table(path, header: list[str], columns) -> None:
    """CSV table with one iterable per column: floats in shortest round-trip
    repr, None as an empty cell.  Rows are formatted and written
    TABLE_CHUNK_ROWS at a time, so no string of the whole table is built."""
    rows = zip(*columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, TABLE_CHUNK_ROWS)):
            fh.write("".join(",".join(map(_format_cell, row)) + "\n" for row in chunk))


METRICS_HEADER = [
    "n", "qate_1q", "qate_2q", "qate_total", "baseline_total",
    "depth_ours", "depth_paper_ref", "depth_baseline_paper_ref",
]
FIDELITY_HEADER = [
    "n", "mode", "Nt", "exact", "swap_estimate", "std_error",
    "reference", "deviation_note",
]
SUMMARY_HEADER = ["step", "exact_fidelity", "swap_fidelity", "norm"]


def emit_report(out_dir, *, metrics_rows=None, fidelity_rows=None,
                summary_rows=None, fmt: str = "csv") -> list[str]:
    """Write whichever report sections are present; deterministic byte-for-byte.

    csv format writes one file per section; json packs the same tables into one
    report.json.  Returns the paths written.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    sections = [
        ("metrics", METRICS_HEADER, metrics_rows),
        ("fidelity", FIDELITY_HEADER, fidelity_rows),
        ("summary", SUMMARY_HEADER, summary_rows),
    ]
    if fmt == "csv":
        for name, header, rows in sections:
            if rows is None:
                continue
            path = os.path.join(out_dir, f"{name}.csv")
            write_table(path, header, zip(*rows))
            written.append(path)
        return written
    payload = {}
    for name, header, rows in sections:
        if rows is None:
            continue
        payload[name] = [dict(zip(header, row)) for row in rows]
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    written.append(path)
    return written


def metrics_row(n: int) -> list:
    """One metrics table row comparing encoder cost against the reference count."""
    from .circuit import baseline_gate_count, qate_gate_count

    m = qate_gate_count(n)
    return [
        n, m.one_qubit_count, m.two_qubit_count, m.total, baseline_gate_count(n),
        m.depth, QATE_DEPTH_REFERENCE.get(n), BASELINE_DEPTH_REFERENCE.get(n),
    ]


def fidelity_row(n: int, mode: str, trotter_steps: int, report: FidelityReport) -> list:
    reference = FIDELITY_REFERENCE.get(n)
    note = None
    if reference is not None and abs(report.exact - reference) > FIDELITY_REFERENCE_BAND:
        note = f"deviates from reference {reference} by {abs(report.exact - reference):.3f}"
    return [n, mode, trotter_steps, report.exact, report.estimated, report.std_error,
            reference, note]
