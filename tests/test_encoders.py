import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpyramid.circuit import (
    Circuit,
    GateKind,
    InvalidWidth,
    circuit_to_json,
    count_gates,
    qate_gate_count,
)
from qpyramid.encoders import (
    InfeasibleWindow,
    QateCoefficients,
    WindowSpec,
    build_direct_diagonal,
    build_potential_circuit,
    build_qate_circuit,
    build_qft,
    build_qpa_shell,
    build_qwe_circuit,
    solve_qate,
)
from qpyramid.evolution import EvolutionConfig
from qpyramid.grids import (
    Grid,
    GridError,
    PhaseProfile,
    PotentialSpec,
    kinetic_phase_profile,
    potential_profile,
)
from qpyramid.simulator import extract_diagonal, extract_unitary

from oracles import dft_matrix, qate_phase_at, reference_qwe_circuit, rz_mat

RNG = np.random.default_rng(2024)


def _gate_tally(circuit):
    tally = {}
    for gate in circuit.gates:
        tally[gate.kind] = tally.get(gate.kind, 0) + 1
    return tally


def _random_half_profile(n, rng=RNG):
    return PhaseProfile(rng.uniform(-math.pi, math.pi, 1 << (n - 1)), "half")


# --- reflection shell ---


@pytest.mark.parametrize("n", [2, 3, 5])
def test_shell_is_one_ladder_and_its_own_inverse(n):
    ladder = build_qpa_shell(n)
    assert [(g.kind, g.qubits) for g in ladder.gates] == [(GateKind.CONTROLLED_NOT, (0, k)) for k in range(1, n)]
    circuit = Circuit(n).extend(ladder).extend(ladder)
    np.testing.assert_allclose(extract_unitary(circuit), np.eye(1 << n), atol=1e-15)


def test_shell_reflects_two_phase_payload():
    t1, t2 = 0.4, 1.9
    ladder = build_qpa_shell(3)
    circuit = Circuit(3)
    circuit.extend(ladder)
    circuit.p(1, t1).p(2, t2)
    circuit.extend(ladder)
    phases = np.array([0.0, t2, t1, t1 + t2, t1 + t2, t1, t2, 0.0])
    np.testing.assert_allclose(extract_diagonal(circuit), np.exp(1j * phases), atol=1e-14)


def test_shell_reflects_random_diagonal_payload():
    ladder = build_qpa_shell(4)
    circuit = Circuit(4)
    circuit.extend(ladder)
    for q in range(1, 4):
        circuit.p(q, float(RNG.uniform(-3, 3)))
    circuit.cp(1, 3, float(RNG.uniform(-3, 3)))
    circuit.cp(2, 3, float(RNG.uniform(-3, 3)))
    circuit.extend(ladder)
    diagonal = extract_diagonal(circuit)
    for i in range(16):
        assert diagonal[i] == pytest.approx(diagonal[15 - i], abs=1e-12)


def test_shell_invalid_width():
    with pytest.raises(InvalidWidth):
        build_qpa_shell(1)


# --- coefficient solving ---


def test_solve_quadratic_example():
    coeffs = solve_qate(PhaseProfile([0.0, 0.05, 0.2, 0.45], "half"))
    assert coeffs.a_global == pytest.approx(0.0)
    assert coeffs.alpha == {1: pytest.approx(0.2), 2: pytest.approx(0.05)}
    assert coeffs.beta[(1, 2)] == pytest.approx(0.2)
    assert qate_phase_at(coeffs, 3) == pytest.approx(0.45)


def test_solve_constant_profile():
    coeffs = solve_qate(PhaseProfile([0.7] * 8, "half"))
    assert coeffs.a_global == pytest.approx(0.7)
    assert all(v == pytest.approx(0.0) for v in coeffs.alpha.values())
    assert all(v == pytest.approx(0.0) for v in coeffs.beta.values())


def test_solve_composite_relation_n3():
    # pair angle = composite target minus both primaries minus the global
    profile = _random_half_profile(3)
    theta = profile.thetas
    coeffs = solve_qate(profile)
    expected = theta[3] - (coeffs.alpha[1] + coeffs.alpha[2]) - theta[0]
    assert coeffs.beta[(1, 2)] == pytest.approx(expected)


@pytest.mark.parametrize("span,length", [("half", 0), ("half", 3), ("full", 0), ("full", 1), ("full", 3)])
def test_profile_rejects_a_length_that_fixes_no_width(span, length):
    # a full profile of 2^n entries or a half one of 2^(n-1) has width n,
    # read from the bits of the length, never from a logarithm
    with pytest.raises(GridError, match=f"{span} profile length {length} is not a power of two"):
        PhaseProfile(np.zeros(length), span)


@pytest.mark.parametrize("n", range(1, 12))
def test_profile_width_is_read_from_its_length(n):
    full = PhaseProfile(np.zeros(1 << n))
    assert full.n_qubits == full.first_half().n_qubits == n


def test_solve_rejects_a_one_qubit_half_profile():
    # one entry is a half profile of width 1, below the payload's two qubits
    with pytest.raises(InvalidWidth, match="n_qubits must be >= 2, got 1"):
        solve_qate(PhaseProfile([0.3], "half"))


def test_coefficients_validate_shape():
    with pytest.raises(InvalidWidth):
        QateCoefficients(3, 0.0, {1: 0.0}, {(1, 2): 0.0})


# --- full encoder ---


def test_encoder_quadratic_profile_exact():
    target_half = np.array([0.0, 0.05, 0.2, 0.45])
    circuit = build_qate_circuit(solve_qate(PhaseProfile(target_half, "half")))
    full = np.concatenate([target_half, target_half[::-1]])
    np.testing.assert_allclose(extract_diagonal(circuit), np.exp(-1j * full), atol=1e-12)


def test_encoder_zero_coefficients_identity():
    coeffs = solve_qate(PhaseProfile(np.zeros(8), "half"))
    unitary = extract_unitary(build_qate_circuit(coeffs))
    np.testing.assert_allclose(unitary, np.eye(16), atol=1e-14)


def test_encoder_kinetic_profile_matches_classical():
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1)
    circuit = build_qate_circuit(solve_qate(kinetic.first_half()))
    np.testing.assert_allclose(
        extract_diagonal(circuit), np.exp(-1j * kinetic.thetas), atol=1e-12
    )


def test_encoder_exact_for_random_quadratics():
    for n in range(2, 8):
        j = np.arange(1 << (n - 1), dtype=float)
        for _ in range(5):
            c0, c1, c2 = RNG.uniform(-1.0, 1.0, 3)
            half = c0 + c1 * j + c2 * j * j
            circuit = build_qate_circuit(solve_qate(PhaseProfile(half, "half")))
            full = np.concatenate([half, half[::-1]])
            diagonal = extract_diagonal(circuit)
            # align out the global phase before comparing
            aligned = diagonal * np.exp(-1j * np.angle(diagonal[0] * np.exp(1j * half[0])))
            assert np.max(np.abs(aligned - np.exp(-1j * full))) < 1e-10


@settings(max_examples=200)
@given(n=st.integers(2, 8), coeffs=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_encoder_exact_for_any_quadratic_half_profile(n, coeffs):
    # no global phase is aligned out: the error is about one rounding per gate
    # at the profile's scale
    c0, c1, c2 = coeffs
    j = np.arange(1 << (n - 1), dtype=float)
    half = c0 + c1 * j + c2 * j * j
    full = np.concatenate([half, half[::-1]])
    circuit = build_qate_circuit(solve_qate(PhaseProfile(half, "half")))
    error = np.max(np.abs(extract_diagonal(circuit) - np.exp(-1j * full)))
    assert error <= len(circuit.gates) * 2.0**-52 * max(1.0, np.max(np.abs(full)))


def test_encoder_interpolates_low_popcount_indices():
    # arbitrary profiles are matched wherever the half-index has <= 2 set bits
    n = 5
    profile = _random_half_profile(n)
    circuit = build_qate_circuit(solve_qate(profile))
    diagonal = extract_diagonal(circuit)
    for j in range(1 << (n - 1)):
        if bin(j).count("1") <= 2:
            assert diagonal[j] == pytest.approx(np.exp(-1j * profile.thetas[j]), abs=1e-12)


def test_encoder_exact_for_any_profile_up_to_n3():
    for n in (2, 3):
        profile = _random_half_profile(n)
        circuit = build_qate_circuit(solve_qate(profile))
        full = np.concatenate([profile.thetas, profile.thetas[::-1]])
        np.testing.assert_allclose(extract_diagonal(circuit), np.exp(-1j * full), atol=1e-12)


def test_encoder_diagonal_always_bisymmetric():
    for n in (3, 5):
        circuit = build_qate_circuit(solve_qate(_random_half_profile(n)))
        diagonal = extract_diagonal(circuit)
        size = 1 << n
        for i in range(size // 2):
            assert diagonal[i] == pytest.approx(diagonal[size - 1 - i], abs=1e-12)


def test_encoder_counts_match_prediction():
    for n in (2, 4, 6):
        circuit = build_qate_circuit(solve_qate(_random_half_profile(n)))
        assert count_gates(circuit) == qate_gate_count(n)


# --- windowed encoder ---


def test_qwe_mid_window_budget_and_values():
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1).first_half()
    circuit = build_qwe_circuit(kinetic, WindowSpec(frozenset(range(11, 16))))
    tally = _gate_tally(circuit)
    assert tally[GateKind.PHASE] == 4
    assert tally[GateKind.CONTROLLED_PHASE] == 1
    diagonal = extract_diagonal(circuit)
    for j in range(11, 16):
        assert diagonal[j] == pytest.approx(np.exp(-1j * kinetic.thetas[j]), abs=1e-9)


def test_qwe_side_window_budget_and_values():
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1).first_half()
    circuit = build_qwe_circuit(kinetic, WindowSpec(frozenset(range(1, 5))))
    tally = _gate_tally(circuit)
    assert tally[GateKind.PHASE] == 3
    assert tally[GateKind.CONTROLLED_PHASE] == 1
    diagonal = extract_diagonal(circuit)
    for j in range(1, 5):
        assert diagonal[j] == pytest.approx(np.exp(-1j * kinetic.thetas[j]), abs=1e-9)


def test_qwe_random_profiles_exact_on_window():
    for trial in range(5):
        profile = _random_half_profile(5)
        window = frozenset(int(j) for j in RNG.choice(16, size=4, replace=False))
        try:
            circuit = build_qwe_circuit(profile, WindowSpec(window))
        except InfeasibleWindow:
            continue
        diagonal = extract_diagonal(circuit)
        for j in window:
            assert diagonal[j] == pytest.approx(np.exp(-1j * profile.thetas[j]), abs=1e-9)


def test_qwe_anchor_window_needs_no_gates():
    profile = _random_half_profile(5)
    circuit = build_qwe_circuit(profile, WindowSpec(frozenset({0})))
    assert circuit.gates == []
    assert np.exp(1j * circuit.global_phase) == pytest.approx(
        np.exp(-1j * profile.thetas[0]), abs=1e-12
    )
    np.testing.assert_allclose(
        extract_diagonal(circuit)[0], np.exp(-1j * profile.thetas[0]), atol=1e-12
    )


def test_qwe_infeasible_window():
    profile = _random_half_profile(5)
    with pytest.raises(InfeasibleWindow):
        build_qwe_circuit(profile, WindowSpec(frozenset(range(16)), cp_budget=1))


def test_qwe_respects_budget_bounds():
    # six constraints, six degrees of freedom (3 phases + 3 pairs)
    profile = _random_half_profile(4)
    circuit = build_qwe_circuit(profile, WindowSpec(frozenset(range(1, 7)), cp_budget=3))
    tally = _gate_tally(circuit)
    assert tally.get(GateKind.PHASE, 0) <= 3
    assert tally.get(GateKind.CONTROLLED_PHASE, 0) <= 3
    diagonal = extract_diagonal(circuit)
    for j in range(1, 7):
        assert diagonal[j] == pytest.approx(np.exp(-1j * profile.thetas[j]), abs=1e-9)


def test_qwe_full_half_window_needs_cubic_term():
    # 2^(n-1) constraints exceed the quadratic encoder's degrees of freedom
    profile = _random_half_profile(4)
    with pytest.raises(InfeasibleWindow):
        build_qwe_circuit(profile, WindowSpec(frozenset(range(8)), cp_budget=3))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_qwe_all_contiguous_small_windows(n):
    # every window of up to n half-indices is handled: either built exactly on
    # the window within budget, or rejected as infeasible
    profile = _random_half_profile(n)
    half_size = 1 << (n - 1)
    built = rejected = 0
    for width in (2, n):
        for start in range(half_size - width + 1):
            window = WindowSpec(frozenset(range(start, start + width)))
            try:
                circuit = build_qwe_circuit(profile, window)
            except InfeasibleWindow:
                rejected += 1
                continue
            built += 1
            tally = _gate_tally(circuit)
            assert tally.get(GateKind.PHASE, 0) <= n - 1
            assert tally.get(GateKind.CONTROLLED_PHASE, 0) <= n - 1
            diagonal = extract_diagonal(circuit)
            for j in range(start, start + width):
                assert diagonal[j] == pytest.approx(np.exp(-1j * profile.thetas[j]), abs=1e-9)
    assert built > 0


def _qwe_outcome(build, profile, window):
    try:
        return circuit_to_json(build(profile, window))
    except InfeasibleWindow as error:
        return f"InfeasibleWindow: {error}"


def test_qwe_equals_per_index_reference_gate_for_gate():
    # the window bits are read as one array per qubit; the circuits and the
    # rejection messages equal those of reading them one index at a time
    rng = np.random.default_rng(7)
    outcomes, built = 0, 0
    for n in range(2, 11):
        half_size = 1 << (n - 1)
        windows = {frozenset({0}), frozenset({half_size - 1}), frozenset(range(half_size)),
                   frozenset(range(1, min(half_size, n + 1))),
                   frozenset(range(half_size // 2, half_size // 2 + min(half_size // 2, 3)))}
        windows |= {frozenset(int(j) for j in rng.choice(half_size, size=min(half_size, size), replace=False))
                    for size in (2, n)}
        profiles = (kinetic_phase_profile(Grid(10.0, n), 0.1).first_half(), _random_half_profile(n, rng))
        for profile in profiles:
            for indices in sorted(windows, key=sorted):
                for budget in (None, 0, 2):
                    window = WindowSpec(indices, cp_budget=budget)
                    expected = _qwe_outcome(reference_qwe_circuit, profile, window)
                    assert _qwe_outcome(build_qwe_circuit, profile, window) == expected, (n, sorted(indices))
                    outcomes += 1
                    built += not expected.startswith("InfeasibleWindow")
    assert outcomes > 250 and 0 < built < outcomes


def test_window_spec_rejects_non_integers():
    # 1.7 and True used to be truncated to 1
    for indices in ({1.7}, {True}, {1.0}, {1.7, True}, {"3"}):
        with pytest.raises(InfeasibleWindow):
            WindowSpec(frozenset(indices))
    for budget in (1.5, 2.0, True):
        with pytest.raises(InfeasibleWindow):
            WindowSpec(frozenset({1}), cp_budget=budget)
    spec = WindowSpec(frozenset({np.int64(3)}), cp_budget=np.int64(2))
    assert spec.indices == {3} and spec.cp_budget == 2
    assert all(type(i) is int for i in spec.indices) and type(spec.cp_budget) is int


@pytest.mark.parametrize("indices", [None, 5])
def test_window_spec_rejects_indices_that_are_not_a_collection(indices):
    with pytest.raises(InfeasibleWindow, match="are not a collection"):
        WindowSpec(indices)


def test_qwe_index_out_of_range():
    profile = _random_half_profile(4)
    with pytest.raises(InfeasibleWindow):
        build_qwe_circuit(profile, WindowSpec(frozenset({9})))


# --- direct (unreflected) encoder ---


def test_direct_quadratic_exact():
    theta = np.array([0.0, 0.1, 0.4, 0.9])
    circuit = build_direct_diagonal(PhaseProfile(theta, "full"))
    np.testing.assert_allclose(extract_diagonal(circuit), np.exp(-1j * theta), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), coefficients=st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3))
def test_direct_exact_for_random_quadratics(n, coefficients):
    # any profile quadratic in the full index is reproduced, global phase included
    c0, c1, c2 = coefficients
    k = np.arange(1 << n, dtype=float)
    theta = c0 + c1 * k + c2 * k * k
    circuit = build_direct_diagonal(PhaseProfile(theta, "full"))
    assert np.max(np.abs(extract_diagonal(circuit) - np.exp(-1j * theta))) < 1e-9


def test_direct_constant_profile_is_pure_phase():
    circuit = build_direct_diagonal(PhaseProfile(np.full(8, 1.1), "full"))
    unitary = extract_unitary(circuit)
    np.testing.assert_allclose(unitary, np.exp(-1.1j) * np.eye(8), atol=1e-12)


def test_direct_kinetic_profile_exact():
    kinetic = kinetic_phase_profile(Grid(10.0, 3), 0.1)
    circuit = build_direct_diagonal(kinetic)
    np.testing.assert_allclose(extract_diagonal(circuit), np.exp(-1j * kinetic.thetas), atol=1e-12)
    tally = _gate_tally(circuit)
    assert tally[GateKind.PHASE] == 3
    assert tally[GateKind.CONTROLLED_PHASE] == 3


# --- potential factors ---


def test_potential_single_step_tensor_value():
    eta, time = 1.7, 0.15
    circuit = build_potential_circuit(2, PotentialSpec.single_step(eta), time)
    expected = np.kron(rz_mat(2 * eta * time), np.eye(2))
    np.testing.assert_allclose(extract_unitary(circuit), expected, atol=1e-14)
    t = eta * time
    np.testing.assert_allclose(
        np.diag(extract_unitary(circuit)),
        [np.exp(-1j * t), np.exp(-1j * t), np.exp(1j * t), np.exp(1j * t)],
        atol=1e-14,
    )


def test_potential_zero_eta_identity():
    circuit = build_potential_circuit(3, PotentialSpec.single_step(0.0), 0.25)
    np.testing.assert_allclose(extract_unitary(circuit), np.eye(8), atol=1e-15)


def test_potential_none_empty():
    assert build_potential_circuit(4, PotentialSpec.none(), 0.05).gates == []
    assert build_potential_circuit(4, PotentialSpec.multi_step(1.0, ()), 0.05).gates == []


def test_potential_invalid_position():
    for qubit in (2, 5, -1):
        with pytest.raises(GridError):
            build_potential_circuit(2, PotentialSpec.single_step(1.0, qubit=qubit), 0.05)


@pytest.mark.parametrize("caller", ["build_potential_circuit", "potential_profile", "EvolutionConfig"])
@pytest.mark.parametrize("qubit", [-1, 3])
def test_potential_position_outside_the_width_has_one_message(caller, qubit):
    spec, grid = PotentialSpec.single_step(1.0, qubit), Grid(10.0, 3)
    build = {"build_potential_circuit": lambda: build_potential_circuit(3, spec, 0.05),
             "potential_profile": lambda: potential_profile(grid, spec),
             "EvolutionConfig": lambda: EvolutionConfig(grid, potential=spec)}[caller]
    with pytest.raises(GridError, match=rf"^potential qubit position {qubit} outside width 3$"):
        build()


def test_potential_circuit_diagonal_matches_profile():
    # the circuit and the oracle's sampled profile read the same spec:
    # the circuit's diagonal is exp(-i V(x_k) t) for every position set
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for _ in range(5):
            positions = tuple(int(q) for q in rng.integers(0, n, size=rng.integers(0, n + 2)))
            spec = PotentialSpec(float(rng.uniform(-3, 3)), positions)
            time = float(rng.uniform(0, 1))
            profile = potential_profile(Grid(10.0, n), spec)
            np.testing.assert_allclose(extract_diagonal(build_potential_circuit(n, spec, time)),
                                       np.exp(-1j * profile * time), atol=1e-12)


# --- Fourier transform ---


def test_qft_single_qubit_is_hadamard():
    unitary = extract_unitary(build_qft(1))
    np.testing.assert_allclose(unitary, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)


def test_qft_two_qubits_matches_i_powers():
    unitary = extract_unitary(build_qft(2))
    expected = np.array([[1j**(j * k) for k in range(4)] for j in range(4)]) / 2.0
    np.testing.assert_allclose(unitary, expected, atol=1e-14)


def test_qft_matches_dft_matrix():
    for n in range(1, 7):
        np.testing.assert_allclose(extract_unitary(build_qft(n)), dft_matrix(n), atol=1e-12)


def test_qft_inverse_is_adjoint():
    for n in (2, 5):
        forward = extract_unitary(build_qft(n))
        backward = extract_unitary(build_qft(n, inverse=True))
        np.testing.assert_allclose(backward, forward.conj().T, atol=1e-12)


def test_qft_times_inverse_is_identity():
    for n in range(1, 9):
        circuit = build_qft(n)
        circuit.extend(build_qft(n, inverse=True))
        np.testing.assert_allclose(extract_unitary(circuit), np.eye(1 << n), atol=1e-10)
