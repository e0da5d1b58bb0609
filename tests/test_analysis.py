import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpyramid import analysis
from qpyramid.analysis import (
    ErrorBudgetParams,
    FidelityReport,
    emit_report,
    error_budget,
    error_budget_terms,
    fidelity_row,
    metrics_row,
    swap_test_circuit,
    swap_test_estimate,
    swap_test_probability,
    write_table,
)
from qpyramid.circuit import GateKind, InvalidWidth, count_gates
from qpyramid.simulator import RandomSource, StateVector, fidelity_exact, run


def _random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector.from_amplitudes(amps, normalize=True)


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
    b = StateVector.from_amplitudes([1.0, 1.0], normalize=True)
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
    b = StateVector.from_amplitudes(
        math.cos(angle) * a.amplitudes + math.sin(angle) * c.amplitudes, normalize=True)
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

    monkeypatch.setattr("qpyramid.analysis.run", fail)
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
    emit_report(dir_a, metrics_rows=rows)
    emit_report(dir_b, metrics_rows=rows)
    assert (dir_a / "metrics.csv").read_bytes() == (dir_b / "metrics.csv").read_bytes()
    lines = (dir_a / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("n,qate_1q,qate_2q,qate_total,baseline_total")
    assert len(lines) == 5


def test_emit_report_empty_rows_headers_only(tmp_path):
    emit_report(tmp_path, metrics_rows=[], fidelity_rows=[])
    assert (tmp_path / "metrics.csv").read_text().splitlines() == [
        "n,qate_1q,qate_2q,qate_total,baseline_total,depth_ours,depth_paper_ref,depth_baseline_paper_ref"
    ]
    assert len((tmp_path / "fidelity.csv").read_text().splitlines()) == 1


@pytest.mark.parametrize("n_rows", [0, 1, 3, 7, 9])
def test_write_table_chunk_boundaries(tmp_path, monkeypatch, n_rows):
    # chunks of 3 rows: empty, partial, exact and multi-chunk tables
    monkeypatch.setattr(analysis, "TABLE_CHUNK_ROWS", 3)
    floats = [i / 7 for i in range(n_rows)]
    notes = [None if i % 2 else f"r{i}" for i in range(n_rows)]
    write_table(tmp_path / "t.csv", ["i", "x", "note"], [range(n_rows), floats, notes])
    expected = ["i,x,note"] + [f"{i},{x!r},{'' if note is None else note}"
                               for i, x, note in zip(range(n_rows), floats, notes)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"


def test_write_table_numpy_scalars_as_plain_floats(tmp_path):
    write_table(tmp_path / "t.csv", ["x"], [[np.float64(0.1), np.float64(1e-300)]])
    assert (tmp_path / "t.csv").read_text() == "x\n0.1\n1e-300\n"


def test_emit_report_json(tmp_path):
    emit_report(tmp_path, metrics_rows=[metrics_row(4)], fmt="json")
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["metrics"][0]["qate_total"] == 12
    assert data["metrics"][0]["baseline_total"] == 18


def test_fidelity_row_deviation_note():
    close = FidelityReport(exact=0.80, estimated=0.81, shots=100, std_error=0.01)
    far = FidelityReport(exact=0.40, estimated=0.42, shots=100, std_error=0.01)
    assert fidelity_row(3, "paper", 10, close)[-1] is None
    note = fidelity_row(3, "paper", 10, far)[-1]
    assert note is not None and "0.73" in note
