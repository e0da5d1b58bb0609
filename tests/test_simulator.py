import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpyramid.analysis import write_table
from qpyramid.circuit import Circuit, Gate, GateKind, InvalidWidth
from qpyramid.simulator import (
    Histogram,
    NotDiagonal,
    RandomSource,
    StateVector,
    WidthTooLarge,
    apply_gate,
    extract_diagonal,
    extract_unitary,
    fidelity_exact,
    index_bitstring,
    run,
    sample,
)

from oracles import circuit_unitary, random_circuit


# --- single-gate behaviour ---


def test_hadamard_on_zero():
    out = apply_gate(StateVector.zero_state(1), Gate(GateKind.HADAMARD, (0,)))
    np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_phase_leaves_zero_untouched():
    out = apply_gate(StateVector.zero_state(1), Gate(GateKind.PHASE, (0,), 1.1))
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-15)


def test_cnot_with_control_set():
    # |10> -> |11> under big-endian indexing
    out = apply_gate(StateVector.basis_state(2, 2), Gate(GateKind.CONTROLLED_NOT, (0, 1)))
    np.testing.assert_allclose(out.amplitudes, StateVector.basis_state(2, 3).amplitudes)


def test_big_endian_phase_on_qubit0():
    phi = 0.83
    unitary = extract_unitary(Circuit(2).p(0, phi))
    np.testing.assert_allclose(
        np.diag(unitary), [1.0, 1.0, np.exp(1j * phi), np.exp(1j * phi)], atol=1e-15
    )


# --- run ---


def test_empty_circuit_is_identity():
    state = StateVector.basis_state(2, 1)
    out = run(Circuit(2), state)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_global_phase_pi_negates():
    state = StateVector.basis_state(2, 3)
    out = run(Circuit(2, global_phase=math.pi), state)
    np.testing.assert_allclose(out.amplitudes, -state.amplitudes, atol=1e-15)


def test_run_width_mismatch():
    with pytest.raises(InvalidWidth):
        run(Circuit(3), StateVector.zero_state(2))


# --- golden diagonal structures ---


def test_cx_phase_cx_sandwich_diagonal():
    theta = 1.3
    unitary = extract_unitary(Circuit(2).cx(0, 1).p(1, theta).cx(0, 1))
    expected = np.diag([1.0, np.exp(1j * theta), np.exp(1j * theta), 1.0])
    assert np.max(np.abs(unitary - expected)) < 1e-14


def test_cx_phase_cx_sandwich_on_uniform_state():
    theta = 0.9
    uniform = StateVector.from_amplitudes(np.ones(4), normalize=True)
    out = run(Circuit(2).cx(0, 1).p(1, theta).cx(0, 1), uniform)
    expected = np.array([1.0, np.exp(1j * theta), np.exp(1j * theta), 1.0]) / 2.0
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)


def test_two_phase_gates_repeat_first_half():
    t1, t2 = 0.4, 1.9
    unitary = extract_unitary(Circuit(3).p(1, t1).p(2, t2))
    half = [0.0, t2, t1, t1 + t2]
    expected = np.diag(np.exp(1j * np.array(half + half)))
    assert np.max(np.abs(unitary - expected)) < 1e-14


def test_full_ladder_sandwich_reflects_diagonal():
    t1, t2 = 0.4, 1.9
    circuit = Circuit(3).cx(0, 1).cx(0, 2).p(1, t1).p(2, t2).cx(0, 2).cx(0, 1)
    unitary = extract_unitary(circuit)
    phases = [0.0, t2, t1, t1 + t2, t1 + t2, t1, t2, 0.0]
    expected = np.diag(np.exp(1j * np.array(phases)))
    assert np.max(np.abs(unitary - expected)) < 1e-14


# --- extraction against the brute-force oracle ---


def test_extract_unitary_matches_kron_oracle():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            circuit = random_circuit(n, 12, rng)
            mine = extract_unitary(circuit)
            reference = circuit_unitary(circuit)
            assert np.max(np.abs(mine - reference)) < 1e-12


def test_extract_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        circuit = random_circuit(n, 25, rng)
        unitary = extract_unitary(circuit)
        eye = unitary.conj().T @ unitary
        assert np.max(np.abs(eye - np.eye(1 << n))) < 1e-9


def test_extract_unitary_width_guard():
    with pytest.raises(WidthTooLarge):
        extract_unitary(Circuit(13))


def test_extract_diagonal_identity():
    np.testing.assert_allclose(extract_diagonal(Circuit(3)), np.ones(8))


def test_extract_diagonal_rejects_hadamard():
    with pytest.raises(NotDiagonal):
        extract_diagonal(Circuit(2).h(0))
    # H.H is the identity, but extract_diagonal does not track Hadamards
    with pytest.raises(NotDiagonal):
        extract_diagonal(Circuit(3).h(0).h(0))


DIAG_TOL = 1e-10  # off-diagonal magnitude at which a unitary counts as non-diagonal
_PERMUTING = (GateKind.PAULI_X, GateKind.CONTROLLED_NOT, GateKind.SWAP)
_PHASE_TYPE = (GateKind.PHASE, GateKind.CONTROLLED_PHASE, GateKind.ROTATION_Z)


@st.composite
def _permuting_and_phase_circuits(draw):
    """X/CX/Swap/P/CP/RZ circuits at n <= 6.  Half of them replay their
    X/CX/Swap gates in reverse at the end, so the basis permutation composes
    to the identity and the circuit is diagonal."""
    n = draw(st.integers(1, 6))
    kinds = [kind for kind in _PERMUTING + _PHASE_TYPE if kind.arity <= n]
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[:kind.arity])
        angle = draw(st.floats(-math.pi, math.pi)) if kind.parametric else None
        gates.append(Gate(kind, qubits, angle))
    if draw(st.booleans()):
        gates += [gate for gate in reversed(gates) if gate.kind in _PERMUTING]
    return Circuit(n, gates, global_phase=draw(st.floats(-math.pi, math.pi)))


@settings(max_examples=200, deadline=None)
@given(_permuting_and_phase_circuits())
def test_extract_diagonal_matches_dense_unitary(circuit):
    unitary = extract_unitary(circuit)
    diagonal = np.diag(unitary)
    if np.max(np.abs(unitary - np.diag(diagonal))) >= DIAG_TOL:
        with pytest.raises(NotDiagonal):
            extract_diagonal(circuit)
    else:
        np.testing.assert_allclose(extract_diagonal(circuit), diagonal, rtol=0, atol=1e-12)


def test_extract_diagonal_wide_circuit_permutation_path():
    # n = 13 is past extract_unitary's cap; the CX sandwich still cancels exactly
    circuit = Circuit(13)
    for k in range(1, 13):
        circuit.cx(0, k)
    circuit.p(3, 0.7)
    for k in range(1, 13):
        circuit.cx(0, k)
    diagonal = extract_diagonal(circuit)
    assert diagonal.shape == (1 << 13,)
    assert np.max(np.abs(np.abs(diagonal) - 1.0)) < 1e-12


def test_extract_diagonal_wide_circuit_rejects_net_permutation():
    circuit = Circuit(13).cx(0, 1)
    with pytest.raises(NotDiagonal):
        extract_diagonal(circuit)
    with pytest.raises(NotDiagonal):
        extract_diagonal(Circuit(13).h(0))


# --- sampling ---


def test_sample_deterministic_state():
    hist = sample(StateVector.zero_state(2), 100, RandomSource(1))
    assert hist.counts == {0: 100}


def test_sample_counts_conserved():
    rng = np.random.default_rng(2)
    state = StateVector.from_amplitudes(rng.normal(size=8) + 1j * rng.normal(size=8), normalize=True)
    hist = sample(state, 999, RandomSource(3))
    assert sum(hist.counts.values()) == 999


def test_sample_seed_reproducible_bitwise():
    state = run(Circuit(3).h(0).h(1).h(2), StateVector.zero_state(3))
    first = sample(state, 4096, RandomSource(99))
    second = sample(state, 4096, RandomSource(99))
    assert first.counts == second.counts


def test_sample_uniform_within_binomial_bound():
    state = run(Circuit(2).h(0).h(1), StateVector.zero_state(2))
    hist = sample(state, 10000, RandomSource(42))
    sigma = math.sqrt(10000 * 0.25 * 0.75)
    for outcome in range(4):
        assert abs(hist.counts.get(outcome, 0) - 2500) < 5 * sigma


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(StateVector.zero_state(1), 0, RandomSource(0))


def test_binomial_is_seeded_and_integral():
    first = [RandomSource(5).binomial(1000, 0.3) for _ in range(2)]
    assert first[0] == first[1]
    assert isinstance(first[0], int)
    assert 0 <= first[0] <= 1000
    assert RandomSource(1).binomial(50, 1.0) == 50
    assert RandomSource(1).binomial(50, 0.0) == 0


def test_histogram_invariant():
    with pytest.raises(ValueError):
        Histogram(5, {0: 4})


# --- norm and fidelity ---


def test_norm_preserved_through_random_circuits():
    rng = np.random.default_rng(13)
    for _ in range(10):
        circuit = random_circuit(5, 40, rng)
        out = run(circuit, StateVector.zero_state(5))
        assert abs(out.norm() - 1.0) < 1e-9


def test_fidelity_identical_orthogonal_and_half():
    a = StateVector.zero_state(1)
    b = StateVector.basis_state(1, 1)
    plus = run(Circuit(1).h(0), a)
    assert fidelity_exact(a, a) == pytest.approx(1.0)
    assert fidelity_exact(a, b) == pytest.approx(0.0)
    assert fidelity_exact(a, plus) == pytest.approx(0.5)


def test_fidelity_width_mismatch():
    with pytest.raises(InvalidWidth):
        fidelity_exact(StateVector.zero_state(1), StateVector.zero_state(2))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_from_amplitudes_rejects_odd_length():
    with pytest.raises(InvalidWidth):
        StateVector.from_amplitudes(np.ones(6), normalize=True)


# --- csv dumps ---


def test_statevector_csv_schema_and_determinism(tmp_path):
    state = run(Circuit(2).h(0), StateVector.zero_state(2))
    amplitudes = state.amplitudes.tolist()
    columns = [range(4), [index_bitstring(i, 2) for i in range(4)], [a.real for a in amplitudes],
               [a.imag for a in amplitudes], [abs(a) ** 2 for a in amplitudes]]
    header = ["index", "bitstring", "real", "imag", "probability"]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_table(path_a, header, columns)
    write_table(path_b, header, columns)
    assert path_a.read_bytes() == path_b.read_bytes()
    lines = path_a.read_text().splitlines()
    assert lines[0] == "index,bitstring,real,imag,probability"
    assert lines[1].startswith("0,00,")
    assert len(lines) == 5


def test_histogram_csv_lists_all_outcomes(tmp_path):
    hist = Histogram(10, {0: 7, 3: 3})
    counts = [hist.counts.get(i, 0) for i in range(4)]
    path = tmp_path / "h.csv"
    write_table(path, ["bitstring", "count", "frequency"],
                [[index_bitstring(i, 2) for i in range(4)], counts, [c / hist.shots for c in counts]])
    lines = path.read_text().splitlines()
    assert lines[0] == "bitstring,count,frequency"
    assert lines[1] == "00,7,0.7"
    assert lines[2] == "01,0,0.0"
    assert lines[4] == "11,3,0.3"
