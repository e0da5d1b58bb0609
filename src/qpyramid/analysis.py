"""Swap-test fidelity estimation, closed-form error budget, report emission."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import InvalidWidth
from .simulator import RandomSource, StateVector, fidelity_exact

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
    bound.  A term that overflows float64 from finite inputs is rejected.
    """
    terms = {
        "discretization": params.h**3,
        "gate": params.l2_gates * params.gate_variance,
        # (T1+T2)/(T1*T2) written as 1/T1 + 1/T2 so infinite constants give 0
        "decoherence": params.dt * (1.0 / params.t1 + 1.0 / params.t2),
        "readout": params.readout_variance,
    }
    for name, value in terms.items():
        if not math.isfinite(value):
            raise ValueError(f"error budget term {name} overflows float64")
    return terms


def error_budget(params: ErrorBudgetParams) -> float:
    return sum(error_budget_terms(params).values())


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
    zeros = rng.binomial(shots, (1.0 + exact) / 2.0)
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


def _mirrored(column) -> bool:
    """A float64 array that reads the same reversed, compared bit for bit, so
    0.0 and -0.0 differ and one ulp breaks the symmetry."""
    if column.dtype != np.float64 or column.ndim != 1:
        return False
    bits = column.view(np.int64)
    return np.array_equal(bits, bits[::-1])


def _mirrored_chunks(column):
    """Cells of each chunk of a column equal to its reverse.  Only rows below
    N - N // 2 are formatted; row r of the second half reuses the text of row
    N-1-r.  The cells of rows below N // 2 are held as one newline-joined
    string per chunk, which the second half splits again and reverses."""
    n = len(column)
    low, half = n // 2, n - n // 2
    held = []   # joined text of rows [0, low), one string per chunk
    spare = []  # cells of the last split string not yet reused
    for a in range(0, n, TABLE_CHUNK_ROWS):
        b = min(a + TABLE_CHUNK_ROWS, n)
        cells = list(map(repr, column[a:min(b, half)].tolist()))
        if a < low:
            held.append("\n".join(cells[:low - a]))
        need = b - max(a, half)
        while need > 0:
            if not spare:
                spare = held.pop().split("\n")
            k = min(need, len(spare))
            cells += reversed(spare[-k:])
            del spare[-k:]
            need -= k
        yield cells


def _column_chunks(column):
    """The cells of one column, TABLE_CHUNK_ROWS rows at a time."""
    if isinstance(column, np.ndarray):
        if _mirrored(column):
            return _mirrored_chunks(column)
        cells = lambda a, b: map(repr, column[a:b].tolist())
    elif isinstance(column, range):
        cells = lambda a, b: map(str, column[a:b])
    else:
        cells = lambda a, b: map(_format_cell, column[a:b])
    return (cells(a, a + TABLE_CHUNK_ROWS) for a in range(0, len(column), TABLE_CHUNK_ROWS))


def write_table(path, header: list[str], columns) -> None:
    """CSV table with one sequence per column: floats in shortest round-trip
    repr, None as an empty cell.  Each chunk of TABLE_CHUNK_ROWS rows is
    formatted column by column and written at once, so no string of the whole
    table is built.  A float64 array column equal to its reverse, bit for bit,
    is formatted once per mirrored pair of rows."""
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError("table columns differ in length")
    chunks = [_column_chunks(column) for column in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for cells in zip(*chunks):
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


REPORT_HEADERS = {
    "metrics": ["n", "qate_1q", "qate_2q", "qate_total", "baseline_total",
                "depth_ours", "depth_paper_ref", "depth_baseline_paper_ref"],
    "fidelity": ["n", "mode", "Nt", "exact", "swap_estimate", "std_error",
                 "reference", "deviation_note"],
    "summary": ["step", "exact_fidelity", "swap_fidelity", "norm"],
}


def emit_report(out_dir, section: str, rows, fmt: str = "csv") -> list[str]:
    """Write one report table, whose columns REPORT_HEADERS[section] names;
    deterministic byte-for-byte.

    csv format writes `<section>.csv`; json writes report.json holding
    {section: [one object per row]}.  Returns the list of paths written.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    header = REPORT_HEADERS[section]
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "csv":
        path = os.path.join(out_dir, f"{section}.csv")
        write_table(path, header, zip(*rows))
        return [path]
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump({section: [dict(zip(header, row)) for row in rows]}, fh, indent=2)
        fh.write("\n")
    return [path]


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
