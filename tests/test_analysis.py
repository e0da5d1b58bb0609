import json
import math
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpyramid import cli
from qpyramid.analysis import (
    ErrorBudgetParams,
    FidelityReport,
    error_budget,
    error_budget_terms,
    swap_test_estimate,
)
from qpyramid.cli import emit_report, fidelity_row, metrics_row, write_table
from qpyramid.circuit import GateKind, InvalidWidth, count_gates
from qpyramid.simulator import RandomSource, StateVector, fidelity_exact

from oracles import reference_write_table, swap_test_circuit, swap_test_probability


def _random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector.from_amplitudes(amps)


# --- circuit structure ---


def test_swap_circuit_layout():
    circuit = swap_test_circuit(3)
    assert circuit.n_qubits == 7
    kinds = [g.kind for g in circuit.gates]
    assert kinds[0] == GateKind.HADAMARD and kinds[-1] == GateKind.HADAMARD
    assert kinds.count(GateKind.CONTROLLED_SWAP) == 3
    metrics = count_gates(circuit)
    assert metrics.three_qubit_count == 3
    assert metrics.total == 5


def test_swap_circuit_invalid_width():
    with pytest.raises(InvalidWidth):
        swap_test_circuit(0)


# --- analytic endpoints ---


def test_probability_identical_states_is_one():
    rng = np.random.default_rng(8)
    state = _random_state(2, rng)
    assert swap_test_probability(state, state) == pytest.approx(1.0, abs=1e-12)


def test_probability_orthogonal_states_is_half():
    a = StateVector.basis_state(2, 0)
    b = StateVector.basis_state(2, 3)
    assert swap_test_probability(a, b) == pytest.approx(0.5, abs=1e-12)


def test_probability_half_overlap():
    a = StateVector.zero_state(1)
    b = StateVector.from_amplitudes([1.0, 1.0])
    # |<a|b>|^2 = 1/2  ->  Pr(0) = 3/4
    assert swap_test_probability(a, b) == pytest.approx(0.75, abs=1e-12)


def test_probability_formula_for_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = _random_state(3, rng)
        b = _random_state(3, rng)
        expected = 0.5 + 0.5 * fidelity_exact(a, b)
        assert swap_test_probability(a, b) == pytest.approx(expected, abs=1e-12)


# --- closed-form draw against the explicit circuit ---


class _RecordingSource(RandomSource):
    """Real PCG64 stream that also records each binomial success probability."""

    def __init__(self, seed):
        super().__init__(seed)
        self.probabilities = []

    def binomial(self, trials, probability):
        self.probabilities.append(probability)
        return super().binomial(trials, probability)


def _estimator_probability(a, b):
    rng = _RecordingSource(0)
    swap_test_estimate(a, b, 100, rng)
    assert len(rng.probabilities) == 1
    return rng.probabilities[0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       angle=st.floats(0.0, math.pi / 2))
def test_estimator_probability_matches_circuit(n, seed, angle):
    # b = cos(angle) a + sin(angle) c spans overlaps from identical to random
    rng = np.random.default_rng(seed)
    a = _random_state(n, rng)
    c = _random_state(n, rng)
    b = StateVector.from_amplitudes(math.cos(angle) * a.amplitudes + math.sin(angle) * c.amplitudes)
    assert _estimator_probability(a, b) == pytest.approx(swap_test_probability(a, b), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
def test_estimator_probability_endpoints_match_circuit(n):
    rng = np.random.default_rng(n)
    state = _random_state(n, rng)
    assert _estimator_probability(state, state) == pytest.approx(
        swap_test_probability(state, state), abs=1e-12)
    assert _estimator_probability(state, state) <= 1.0
    a = StateVector.basis_state(n, 0)
    b = StateVector.basis_state(n, (1 << n) - 1)
    assert _estimator_probability(a, b) == pytest.approx(swap_test_probability(a, b), abs=1e-12)
    assert _estimator_probability(a, b) == 0.5


def test_estimate_does_not_simulate_the_circuit(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("swap_test_estimate simulated the joint state")

    monkeypatch.setattr("qpyramid.simulator.Plan.apply", fail)
    rng = np.random.default_rng(5)
    report = swap_test_estimate(_random_state(4, rng), _random_state(4, rng), 1000, RandomSource(2))
    assert 0.0 <= report.estimated <= 1.0


# --- sampled estimator ---


def test_estimate_identical_states_exact_one():
    rng = np.random.default_rng(0)
    state = _random_state(2, rng)
    report = swap_test_estimate(state, state, 200, RandomSource(1))
    assert report.estimated == pytest.approx(1.0)
    assert report.exact == pytest.approx(1.0)


def test_estimate_orthogonal_within_three_sigma():
    a = StateVector.basis_state(2, 1)
    b = StateVector.basis_state(2, 2)
    report = swap_test_estimate(a, b, 10000, RandomSource(7))
    assert report.exact == pytest.approx(0.0)
    assert report.estimated <= 3 * 2 * report.std_error + 1e-12


def test_estimate_random_pairs_three_sigma_coverage():
    rng = np.random.default_rng(12)
    hits = 0
    trials = 40
    for seed in range(trials):
        a = _random_state(3, rng)
        b = _random_state(3, rng)
        report = swap_test_estimate(a, b, 10000, RandomSource(seed))
        if abs(report.estimated - report.exact) <= 3 * 2 * report.std_error:
            hits += 1
    assert hits >= int(0.9 * trials)


def test_estimate_error_shrinks_with_shots():
    rng = np.random.default_rng(3)
    a = _random_state(3, rng)
    b = _random_state(3, rng)
    errors = []
    for shots in (1000, 10000, 100000):
        per_seed = [
            abs(swap_test_estimate(a, b, shots, RandomSource(seed)).estimated
                - fidelity_exact(a, b))
            for seed in range(8)
        ]
        errors.append(np.mean(per_seed))
    assert errors[2] < errors[0]


def test_estimate_clamps_to_unit_interval():
    a = StateVector.basis_state(1, 0)
    b = StateVector.basis_state(1, 1)
    for seed in range(30):
        report = swap_test_estimate(a, b, 50, RandomSource(seed))
        assert 0.0 <= report.estimated <= 1.0


def test_estimate_width_mismatch():
    with pytest.raises(InvalidWidth):
        swap_test_estimate(StateVector.zero_state(1), StateVector.zero_state(2), 10, RandomSource(0))


# --- error budget ---


def test_budget_worked_example():
    params = ErrorBudgetParams(h=1e-3, l2_gates=8, gate_variance=1e-4,
                               t1=100.0, t2=100.0, dt=0.1, readout_variance=1e-4)
    assert error_budget(params) == pytest.approx(1e-9 + 8e-4 + 2e-3 + 1e-4)
    terms = error_budget_terms(params)
    assert terms["discretization"] == pytest.approx(1e-9)
    assert terms["gate"] == pytest.approx(8e-4)
    assert terms["decoherence"] == pytest.approx(2e-3)
    assert terms["readout"] == pytest.approx(1e-4)


def test_budget_pure_discretization():
    params = ErrorBudgetParams(h=2.0**-10)
    value = error_budget(params)
    assert value == pytest.approx((2.0**-10) ** 3)
    assert 9.0e-10 < value < 9.5e-10


def test_budget_zero_limit():
    params = ErrorBudgetParams(h=1e-12)
    assert error_budget(params) == pytest.approx(0.0, abs=1e-30)


def test_budget_monotonicity():
    base = ErrorBudgetParams(h=1e-3, l2_gates=10, gate_variance=1e-4,
                             t1=50.0, t2=80.0, dt=0.2, readout_variance=1e-4)
    reference = error_budget(base)
    assert error_budget(ErrorBudgetParams(2e-3, 10, 1e-4, 50.0, 80.0, 0.2, 1e-4)) > reference
    assert error_budget(ErrorBudgetParams(1e-3, 20, 1e-4, 50.0, 80.0, 0.2, 1e-4)) > reference
    assert error_budget(ErrorBudgetParams(1e-3, 10, 2e-4, 50.0, 80.0, 0.2, 1e-4)) > reference
    assert error_budget(ErrorBudgetParams(1e-3, 10, 1e-4, 100.0, 80.0, 0.2, 1e-4)) < reference
    assert error_budget(ErrorBudgetParams(1e-3, 10, 1e-4, 50.0, 160.0, 0.2, 1e-4)) < reference
    assert error_budget(ErrorBudgetParams(1e-3, 10, 1e-4, 50.0, 80.0, 0.4, 1e-4)) > reference
    assert error_budget(ErrorBudgetParams(1e-3, 10, 1e-4, 50.0, 80.0, 0.2, 2e-4)) > reference


def test_budget_rejects_invalid():
    with pytest.raises(ValueError):
        ErrorBudgetParams(h=0.0)
    with pytest.raises(ValueError):
        ErrorBudgetParams(h=1e-3, t1=-1.0)
    with pytest.raises(ValueError):
        ErrorBudgetParams(h=1e-3, gate_variance=-1e-4)
    for bad in ({"h": math.nan}, {"h": math.inf}, {"dt": -1.0}, {"dt": math.nan}, {"dt": math.inf},
                {"t1": math.nan}, {"t2": math.nan}, {"gate_variance": math.nan},
                {"gate_variance": math.inf}, {"readout_variance": math.nan}):
        with pytest.raises(ValueError):
            ErrorBudgetParams(**{"h": 1e-3, **bad})
    assert error_budget(ErrorBudgetParams(h=1e-3, t1=math.inf, t2=math.inf, dt=0.5)) == pytest.approx(1e-9)


# --- reporting ---


def test_metrics_row_n4():
    row = metrics_row(4)
    assert row[:5] == [4, 3, 9, 12, 18]
    assert row[6] == 18  # published depth reference
    assert row[7] == 24


def test_emit_report_csv_deterministic(tmp_path):
    rows = [metrics_row(n) for n in range(3, 7)]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    emit_report(dir_a, "metrics", rows)
    emit_report(dir_b, "metrics", rows)
    assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
    lines = (dir_a / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("n,qate_1q,qate_2q,qate_total,baseline_total")
    assert len(lines) == 5


def test_emit_report_empty_rows_headers_only(tmp_path):
    assert emit_report(tmp_path, "metrics", []) == [str(tmp_path / "metrics.csv")]
    emit_report(tmp_path, "fidelity", [])
    assert (tmp_path / "metrics.csv").read_text().splitlines() == [
        "n,qate_1q,qate_2q,qate_total,baseline_total,depth_ours,depth_paper_ref,depth_baseline_paper_ref"
    ]
    assert len((tmp_path / "fidelity.csv").read_text().splitlines()) == 1


def _palindromes(n_rows):
    """A float64 column equal to its reverse, bit for bit; the same column one
    ulp off at its first row; and the same with 0.0 against -0.0 at its first
    mirrored pair.  Only the first takes the mirrored path."""
    exact = np.array([math.sqrt(min(i, n_rows - 1 - i) + 0.5) for i in range(n_rows)])
    ulp, zeros = exact.copy(), exact.copy()
    if n_rows >= 2:
        ulp[0] = np.nextafter(ulp[0], 0.0)
        zeros[[0, -1]] = 0.0, -0.0
    return exact, ulp, zeros


@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 6, 7, 9, 10])
def test_write_table_chunk_boundaries(tmp_path, monkeypatch, n_rows):
    # chunks of 3 rows: empty, partial, exact and multi-chunk tables, odd and
    # even, with the mirror point inside a chunk and on a chunk boundary
    monkeypatch.setattr(cli, "TABLE_CHUNK_ROWS", 3)
    floats = [i / 7 for i in range(n_rows)]
    notes = [None if i % 2 else f"r{i}" for i in range(n_rows)]
    mirrored = _palindromes(n_rows)
    assert [cli._mirrored(c) for c in mirrored] == [True, n_rows < 2, n_rows < 2]
    write_table(tmp_path / "t.csv", ["i", "x", "note", "a", "b", "c"],
                [range(n_rows), floats, notes, *mirrored])
    expected = ["i,x,note,a,b,c"] + [
        f"{i},{x!r},{'' if note is None else note},{a!r},{b!r},{c!r}"
        for i, x, note, a, b, c in zip(range(n_rows), floats, notes,
                                       *(c.tolist() for c in mirrored))]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"


@st.composite
def _tables(draw):
    """A table whose float64 array columns are palindromes, exact or broken at
    one row by one ulp or at one mirrored pair by the sign of zero, next to
    range, string, None, integer and numpy-scalar columns."""
    n = draw(st.integers(0, 40))
    columns, exact = [range(n)], []
    for strided in (False, True):
        half = draw(st.lists(st.floats(allow_nan=False), min_size=(n + 1) // 2,
                             max_size=(n + 1) // 2))
        col = np.array(half + half[: n // 2][::-1], dtype=np.float64)
        flaw = draw(st.sampled_from(["exact", "ulp", "zero"])) if n >= 2 else "exact"
        r = draw(st.integers(0, n // 2 - 1)) if n >= 2 else 0
        if flaw == "ulp":
            col[r] = np.nextafter(col[r], 0.0 if col[r] else 1.0)
        elif flaw == "zero":
            col[r], col[n - 1 - r] = 0.0, -0.0
        if strided:  # a .real view, as encode-ke passes it
            col = col.astype(complex).real
        columns.append(col)
        exact.append(flaw == "exact")
    ints = draw(st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n))
    text = draw(st.lists(st.none() | st.text("abc_", max_size=3), min_size=n, max_size=n))
    columns += [ints, text, np.arange(n) - 3, [np.float64(x) / 3 for x in range(n)]]
    return columns, exact


@settings(max_examples=100)
@given(_tables(), st.sampled_from([1, 2, 3, 4, 5, 7]))
def test_write_table_matches_per_cell_reference(table, chunk_rows):
    columns, exact = table
    assert [cli._mirrored(c) for c in columns[1:3]] == exact
    header = [f"c{k}" for k in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        fast, ref = pathlib.Path(tmp, "fast.csv"), pathlib.Path(tmp, "ref.csv")
        mp.setattr(cli, "TABLE_CHUNK_ROWS", chunk_rows)
        write_table(fast, header, columns)
        reference_write_table(ref, header, columns)
        assert fast.read_bytes() == ref.read_bytes()


def test_write_table_peak_holds_no_table_sized_text(tmp_path):
    # 2^16 rows of an index and three mirrored float64 columns, 2 MiB of
    # values made before tracing: the writer holds one chunk's cells and the
    # mirrored first half's text, never a list of every cell of a column
    n_rows = 1 << 16
    exact = _palindromes(n_rows)[0]
    columns = [range(n_rows), exact, 2 * exact, 3 * exact]
    assert all(cli._mirrored(column) for column in columns[1:])
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.csv", ["i", "a", "b", "c"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    reference_write_table(tmp_path / "ref.csv", ["i", "a", "b", "c"], columns)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [range(3), [0.5, 1.5]])


def test_report_writers_reject_a_cell_count_other_than_the_header(tmp_path):
    # zip used to cut every csv row to the shortest one, and a json row to
    # its first keys, and a table had two cells per row under one name
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="each summary row must have 4 cells"):
            emit_report(tmp_path, "summary", [[0, 1.0, 0.9, 1.0], [1, 0.5]], fmt=fmt)
    with pytest.raises(ValueError, match=r"one column per header name \(1\)"):
        write_table(tmp_path / "t.csv", ["a"], [[1, 2], [3, 4]])
    assert list(tmp_path.iterdir()) == []


def test_write_table_numpy_scalars_as_plain_floats(tmp_path):
    write_table(tmp_path / "t.csv", ["x"], [[np.float64(0.1), np.float64(1e-300)]])
    assert (tmp_path / "t.csv").read_text() == "x\n0.1\n1e-300\n"


def test_writers_make_the_directory_and_take_a_bare_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_table("t.csv", ["x"], [[1]])
    cli.write_json(pathlib.Path("a", "b", "d.json"), {"z": 1, "a": [None]})
    assert (tmp_path / "t.csv").read_text() == "x\n1\n"
    assert (tmp_path / "a" / "b" / "d.json").read_text() == '{\n  "z": 1,\n  "a": [\n    null\n  ]\n}\n'


def test_emit_report_json(tmp_path):
    assert emit_report(tmp_path, "metrics", [metrics_row(4)], fmt="json") == [
        str(tmp_path / "report.json")]
    data = json.loads((tmp_path / "report.json").read_text())
    assert list(data) == ["metrics"]
    assert data["metrics"][0]["qate_total"] == 12
    assert data["metrics"][0]["baseline_total"] == 18


def test_fidelity_row_deviation_note():
    close = FidelityReport(exact=0.80, estimated=0.81, shots=100, std_error=0.01)
    far = FidelityReport(exact=0.40, estimated=0.42, shots=100, std_error=0.01)
    assert fidelity_row(3, "paper", 10, close)[-1] is None
    note = fidelity_row(3, "paper", 10, far)[-1]
    assert note is not None and "0.73" in note
