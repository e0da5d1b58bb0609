import json
import math

import numpy as np
import pytest

from qpyramid.circuit import (
    ArityMismatch,
    Circuit,
    CircuitError,
    DuplicateQubit,
    Gate,
    GateKind,
    GateMetrics,
    IndexOutOfRange,
    InvalidWidth,
    baseline_gate_count,
    circuit_from_json,
    circuit_to_json,
    count_gates,
    qate_gate_count,
    validate,
    validation_error,
    wrap_angle,
)
from qpyramid.encoders import QateCoefficients, build_qate_circuit, solve_qate
from qpyramid.grids import PhaseProfile

from oracles import random_circuit


def test_validate_well_formed():
    circuit = Circuit(2).cx(0, 1)
    assert validation_error(circuit) is None
    validate(circuit)  # should not raise


def test_validate_index_out_of_range():
    circuit = Circuit(2).p(5, 0.3)
    assert isinstance(validation_error(circuit), IndexOutOfRange)
    with pytest.raises(IndexOutOfRange):
        validate(circuit)


def test_validate_duplicate_qubit():
    circuit = Circuit(2)
    circuit.gates.append(Gate(GateKind.CONTROLLED_NOT, (1, 1)))
    assert isinstance(validation_error(circuit), DuplicateQubit)


@pytest.mark.parametrize(
    "gate",
    [
        Gate(GateKind.CONTROLLED_NOT, (0,)),       # wrong qubit count
        Gate(GateKind.PHASE, (0,)),                # missing angle
        Gate(GateKind.PAULI_X, (0,), 0.5),         # stray angle
        Gate(GateKind.PHASE, (0,), float("nan")),  # non-finite angle
    ],
)
def test_validate_arity_mismatch(gate):
    circuit = Circuit(2)
    circuit.gates.append(gate)
    assert isinstance(validation_error(circuit), ArityMismatch)


def test_validate_is_total_on_junk():
    # never aborts: returns a typed error even for badly mixed problems
    circuit = Circuit(0)
    assert isinstance(validation_error(circuit), InvalidWidth)


def test_count_single_gate():
    metrics = count_gates(Circuit(1).p(0, 0.1))
    assert (metrics.one_qubit_count, metrics.two_qubit_count, metrics.three_qubit_count) == (1, 0, 0)
    assert metrics.depth == 1


def test_count_disjoint_gates_share_a_layer():
    assert count_gates(Circuit(2).p(0, 0.1).p(1, 0.2)).depth == 1


def test_count_serial_dependency():
    assert count_gates(Circuit(2).cx(0, 1).p(1, 0.2)).depth == 2


def test_depth_deterministic():
    rng = np.random.default_rng(11)
    for _ in range(20):
        circuit = random_circuit(4, 15, rng)
        assert count_gates(circuit).depth == count_gates(circuit).depth


def test_metrics_internal_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        metrics = count_gates(random_circuit(5, 20, rng))
        assert metrics.total == (
            metrics.one_qubit_count + metrics.two_qubit_count + metrics.three_qubit_count
        )
        assert metrics.depth <= metrics.total


def test_qate_count_n4_total_is_12():
    metrics = qate_gate_count(4)
    assert metrics.one_qubit_count == 3
    assert metrics.two_qubit_count == 9  # C(3,2)=3 pairs + 6 ladder CX
    assert metrics.total == 12


@pytest.mark.parametrize("n,expected_1q,expected_2q", [(2, 1, 2), (5, 4, 14)])
def test_qate_count_formula_values(n, expected_1q, expected_2q):
    metrics = qate_gate_count(n)
    assert metrics.one_qubit_count == expected_1q
    assert metrics.two_qubit_count == expected_2q
    assert metrics.total == expected_1q + expected_2q


def _zero_coefficients(n):
    pairs = [(k, l) for k in range(1, n) for l in range(k + 1, n)]
    return QateCoefficients(n, 0.0, dict.fromkeys(range(1, n), 0.0), dict.fromkeys(pairs, 0.0))


def test_qate_count_matches_built_circuit():
    # formula cross-checked against counting an actually built encoder
    for n in range(2, 11):
        profile = PhaseProfile(np.linspace(0.0, 1.0, 1 << (n - 1)), "half")
        built = count_gates(build_qate_circuit(n, solve_qate(profile)))
        predicted = qate_gate_count(n)
        assert built == predicted
        assert built.one_qubit_count == n - 1
        assert built.two_qubit_count == math.comb(n - 1, 2) + 2 * (n - 1)
    # wider encoders from all-zero coefficients, which need no 2^(n-1) profile
    for n in [*range(2, 65), 200]:
        assert count_gates(build_qate_circuit(n, _zero_coefficients(n))) == qate_gate_count(n)


def test_qate_count_builds_no_circuit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("qate_gate_count built or counted a circuit")

    for name in ("count_gates", "Circuit", "Gate"):
        monkeypatch.setattr(f"qpyramid.circuit.{name}", refuse)
    n = 10**6
    two_qubit = math.comb(n - 1, 2) + 2 * (n - 1)
    assert qate_gate_count(n) == GateMetrics(n - 1, two_qubit, 0, n - 1 + two_qubit, 2 * n)


def test_qate_count_invalid_width():
    for n in (1, 0, -3, 2.5, 2.0, True, "3"):
        with pytest.raises(InvalidWidth):
            qate_gate_count(n)


def test_baseline_counts():
    assert baseline_gate_count(4) == 18
    assert baseline_gate_count(1) == 3
    assert baseline_gate_count(9) == 63


def test_json_round_trip_preserves_order_and_values():
    circuit = Circuit(3, global_phase=-0.25).h(0).cp(0, 2, 0.1234567890123456).cx(1, 2)
    text = circuit_to_json(circuit)
    loaded = circuit_from_json(text)
    assert loaded.n_qubits == 3
    assert loaded.global_phase == circuit.global_phase
    assert [g.kind for g in loaded.gates] == [g.kind for g in circuit.gates]
    assert [g.qubits for g in loaded.gates] == [g.qubits for g in circuit.gates]
    assert loaded.gates[1].angle == circuit.gates[1].angle  # bit-exact round trip


def test_non_integer_qubits_and_widths_are_rejected():
    # int() used to truncate these: True -> qubit 1, 1.9 -> qubit 1, 2.7 -> width 2
    for bad in (True, 1.9, 1.0, np.float64(1.0), "1"):
        with pytest.raises(CircuitError):
            Gate(GateKind.HADAMARD, (bad,))
        with pytest.raises(InvalidWidth):
            Circuit(bad)
    data = json.loads(circuit_to_json(Circuit(3).h(1)))
    for bad in ({"n_qubits": 2.7}, {"gates": [{"kind": "Hadamard", "qubits": [1.9]}]}):
        with pytest.raises(CircuitError):
            circuit_from_json(json.dumps({**data, **bad}))
    gate = Gate(GateKind.CONTROLLED_NOT, (np.int64(0), np.uint8(2)))
    assert gate.qubits == (0, 2) and all(type(q) is int for q in gate.qubits)
    assert type(Circuit(np.int64(3)).n_qubits) is int


@pytest.mark.parametrize("change", [
    {"gates": [{"kind": "Foo", "qubits": [0]}]},                   # unknown kind
    {"gates": None},                                              # gates not a list
    {"gates": [{"kind": "Phase", "qubits": [0], "angle": "0.5"}]},  # string angle
    {"gates": [{"kind": "Hadamard"}]},                            # missing qubits
    {"gates": [{"kind": "Hadamard", "qubits": 0}]},               # qubits not a list
    {"gates": ["Hadamard"]},                                      # gate not an object
    {"global_phase": "x"},                                        # non-numeric phase
])
def test_json_malformed_fields_raise_circuit_error(change):
    data = json.loads(circuit_to_json(Circuit(2).h(0).p(1, 0.5)))
    with pytest.raises(CircuitError):
        circuit_from_json(json.dumps({**data, **change}))


@pytest.mark.parametrize("text", ['{"n_qubits": 2}', "[1, 2]", "null", "not json"])
def test_json_malformed_documents_raise_circuit_error(text):
    with pytest.raises(CircuitError):
        circuit_from_json(text)


def test_validate_rejects_non_numeric_angles_and_phase():
    circuit = Circuit(2)
    circuit.gates.append(Gate(GateKind.PHASE, (0,), "0.5"))
    assert isinstance(validation_error(circuit), ArityMismatch)
    assert isinstance(validation_error(Circuit(2, global_phase="0.5")), CircuitError)


def test_json_angle_only_for_parametric_kinds():
    data = json.loads(circuit_to_json(Circuit(2).cx(0, 1).p(0, 0.5)))
    assert "angle" not in data["gates"][0]
    assert data["gates"][1]["angle"] == 0.5
    assert data["gates"][0]["kind"] == "ControlledNot"
    assert data["gates"][1]["kind"] == "Phase"


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    for value in np.linspace(-20, 20, 101):
        wrapped = wrap_angle(float(value))
        assert -math.pi < wrapped <= math.pi
        assert math.isclose(math.cos(wrapped), math.cos(value), abs_tol=1e-12)
