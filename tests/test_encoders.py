import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpyramid.circuit import (
    Circuit,
    CircuitError,
    GateKind,
    InvalidWidth,
    circuit_to_json,
    count_gates,
    qate_gate_count,
)
from qpyramid.encoders import (
    InfeasibleWindow,
    WindowSpec,
    build_direct_diagonal,
    build_potential_circuit,
    build_qate_circuit,
    build_qft,
    build_qpa_shell,
    build_qwe_circuit,
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


def _mirrored(half):
    """The palindromic profile whose first half is `half`."""
    half = np.asarray(half, dtype=float)
    return PhaseProfile(np.concatenate([half, half[::-1]]))


def _random_palindrome(n, rng=RNG):
    return _mirrored(rng.uniform(-math.pi, math.pi, 1 << (n - 1)))


def _payload_angles(circuit):
    """{qubits: angle} of the circuit's Phase and ControlledPhase gates."""
    return {g.qubits: g.angle for g in circuit.gates if g.kind in (GateKind.PHASE, GateKind.CONTROLLED_PHASE)}


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


# --- interpolated angles ---


def test_solve_quadratic_example():
    circuit = build_qate_circuit(_mirrored([0.0, 0.05, 0.2, 0.45]))
    assert circuit.global_phase == pytest.approx(0.0)
    angles = _payload_angles(circuit)
    assert angles == {(1,): pytest.approx(-0.2), (2,): pytest.approx(-0.05), (1, 2): pytest.approx(-0.2)}
    assert qate_phase_at(circuit, 3) == pytest.approx(0.45)


def test_solve_constant_profile():
    circuit = build_qate_circuit(PhaseProfile([0.7] * 16))
    assert circuit.global_phase == pytest.approx(-0.7)
    assert all(v == pytest.approx(0.0) for v in _payload_angles(circuit).values())


def test_solve_composite_relation_n3():
    # pair angle = composite target minus both primaries minus the global,
    # to a multiple of 2 pi, since each emitted angle is wrapped
    profile = _random_palindrome(3)
    theta = profile.thetas
    angles = _payload_angles(build_qate_circuit(profile))
    expected = theta[3] + angles[(1,)] + angles[(2,)] - theta[0]
    assert np.exp(-1j * angles[(1, 2)]) == pytest.approx(np.exp(1j * expected))


@pytest.mark.parametrize("length", [0, 1, 3, 6, 12])
def test_profile_rejects_a_length_that_fixes_no_width(length):
    # a profile of 2^n entries has width n, read from the bits of the
    # length, never from a logarithm
    with pytest.raises(GridError, match=f"^profile length {length} is not a power of two >= 2$"):
        PhaseProfile(np.zeros(length))


@pytest.mark.parametrize("n", range(1, 12))
def test_profile_width_is_read_from_its_length(n):
    assert PhaseProfile(np.zeros(1 << n)).n_qubits == n


def test_qate_rejects_a_one_qubit_profile():
    # two entries are a profile of width 1, below the shell's two qubits
    with pytest.raises(InvalidWidth, match="n_qubits must be >= 2, got 1"):
        build_qate_circuit(PhaseProfile([0.3, 0.3]))


@pytest.mark.parametrize("build", [build_qate_circuit, lambda p: build_qwe_circuit(p, WindowSpec({1})),
                                   lambda p: build_qwe_circuit(p, WindowSpec({0}))],
                         ids=["qate", "qwe", "qwe-anchor"])
def test_shell_encoders_reject_a_profile_that_is_no_palindrome(build):
    # the shell mirrors the first half, so any other second half is refused,
    # even by a window that needs no shell; the direct encoder has no shell
    # and encodes the same profile
    theta = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(GridError, match="must be palindromic"):
        build(PhaseProfile(theta))
    np.testing.assert_allclose(extract_diagonal(build_direct_diagonal(PhaseProfile(theta))),
                               np.exp(-1j * theta), atol=1e-12)
    # the tolerance is 1e-12 on any entry
    near = _mirrored([0.1, 0.4]).thetas
    build(PhaseProfile(near + [0.0, 0.0, 0.0, 0.5e-12]))
    with pytest.raises(GridError, match="must be palindromic"):
        build(PhaseProfile(near + [0.0, 0.0, 0.0, 2e-12]))


@pytest.mark.parametrize("build", [build_qate_circuit, lambda p: build_qwe_circuit(p, WindowSpec({1})),
                                   build_direct_diagonal], ids=["qate", "qwe", "direct"])
def test_encoders_refuse_an_angle_too_large_to_reduce(build):
    # an interpolated angle of 2^52 or more holds no phase: each encoder
    # raises CircuitError for it rather than emitting a gate
    with pytest.raises(CircuitError, match="too large to reduce modulo 2"):
        build(PhaseProfile([0.0, 1e16, 1e16, 0.0]))


@pytest.mark.parametrize("method", ["qate", "qwe", "direct"])
@pytest.mark.parametrize("thetas, window", [
    ([-1e308, 1e308, 1e308, -1e308], {0, 1}),
    ([0.0, 1.7e308, -1.7e308, -1.7e308, -1.7e308, -1.7e308, 1.7e308, 0.0], {0, 1, 2, 3}),
], ids=["target-overflows", "solution-overflows"])
def test_encoders_refuse_angles_past_the_float_range_without_warning(method, thetas, window):
    # QWE's target theta[j] - theta[0] of the first profile, and its
    # least-squares angles of the second, leave the float range: every
    # encoder raises CircuitError, and numpy warns of nothing
    build = {"qate": build_qate_circuit, "direct": build_direct_diagonal,
             "qwe": lambda p: build_qwe_circuit(p, WindowSpec(window))}[method]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CircuitError):
            build(PhaseProfile(thetas))


# --- full encoder ---


def test_encoder_quadratic_profile_exact():
    profile = _mirrored([0.0, 0.05, 0.2, 0.45])
    circuit = build_qate_circuit(profile)
    np.testing.assert_allclose(extract_diagonal(circuit), np.exp(-1j * profile.thetas), atol=1e-12)


def test_encoder_zero_coefficients_identity():
    unitary = extract_unitary(build_qate_circuit(PhaseProfile(np.zeros(16))))
    np.testing.assert_allclose(unitary, np.eye(16), atol=1e-14)


def test_encoder_kinetic_profile_matches_classical():
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1)
    circuit = build_qate_circuit(kinetic)
    np.testing.assert_allclose(
        extract_diagonal(circuit), np.exp(-1j * kinetic.thetas), atol=1e-12
    )


def test_encoder_exact_for_random_quadratics():
    for n in range(2, 8):
        j = np.arange(1 << (n - 1), dtype=float)
        for _ in range(5):
            c0, c1, c2 = RNG.uniform(-1.0, 1.0, 3)
            half = c0 + c1 * j + c2 * j * j
            full = np.concatenate([half, half[::-1]])
            diagonal = extract_diagonal(build_qate_circuit(PhaseProfile(full)))
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
    circuit = build_qate_circuit(PhaseProfile(full))
    error = np.max(np.abs(extract_diagonal(circuit) - np.exp(-1j * full)))
    assert error <= len(circuit.gates) * 2.0**-52 * max(1.0, np.max(np.abs(full)))


def test_encoder_interpolates_low_popcount_indices():
    # arbitrary profiles are matched wherever the half-index has <= 2 set bits
    n = 5
    profile = _random_palindrome(n)
    circuit = build_qate_circuit(profile)
    diagonal = extract_diagonal(circuit)
    for j in range(1 << (n - 1)):
        if bin(j).count("1") <= 2:
            assert diagonal[j] == pytest.approx(np.exp(-1j * profile.thetas[j]), abs=1e-12)


def test_encoder_exact_for_any_profile_up_to_n3():
    for n in (2, 3):
        profile = _random_palindrome(n)
        circuit = build_qate_circuit(profile)
        np.testing.assert_allclose(extract_diagonal(circuit), np.exp(-1j * profile.thetas), atol=1e-12)


def test_encoder_diagonal_always_bisymmetric():
    for n in (3, 5):
        circuit = build_qate_circuit(_random_palindrome(n))
        diagonal = extract_diagonal(circuit)
        size = 1 << n
        for i in range(size // 2):
            assert diagonal[i] == pytest.approx(diagonal[size - 1 - i], abs=1e-12)


def test_encoder_counts_match_prediction():
    for n in (2, 4, 6):
        circuit = build_qate_circuit(_random_palindrome(n))
        assert count_gates(circuit) == qate_gate_count(n)


# --- windowed encoder ---


def test_qwe_mid_window_budget_and_values():
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1)
    circuit = build_qwe_circuit(kinetic, WindowSpec(frozenset(range(11, 16))))
    tally = _gate_tally(circuit)
    assert tally[GateKind.PHASE] == 4
    assert tally[GateKind.CONTROLLED_PHASE] == 1
    diagonal = extract_diagonal(circuit)
    for j in range(11, 16):
        assert diagonal[j] == pytest.approx(np.exp(-1j * kinetic.thetas[j]), abs=1e-9)


def test_qwe_side_window_budget_and_values():
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1)
    circuit = build_qwe_circuit(kinetic, WindowSpec(frozenset(range(1, 5))))
    tally = _gate_tally(circuit)
    assert tally[GateKind.PHASE] == 3
    assert tally[GateKind.CONTROLLED_PHASE] == 1
    diagonal = extract_diagonal(circuit)
    for j in range(1, 5):
        assert diagonal[j] == pytest.approx(np.exp(-1j * kinetic.thetas[j]), abs=1e-9)


def test_qwe_random_profiles_exact_on_window():
    for trial in range(5):
        profile = _random_palindrome(5)
        window = frozenset(int(j) for j in RNG.choice(16, size=4, replace=False))
        try:
            circuit = build_qwe_circuit(profile, WindowSpec(window))
        except InfeasibleWindow:
            continue
        diagonal = extract_diagonal(circuit)
        for j in window:
            assert diagonal[j] == pytest.approx(np.exp(-1j * profile.thetas[j]), abs=1e-9)


def test_qwe_anchor_window_needs_no_gates():
    profile = _random_palindrome(5)
    circuit = build_qwe_circuit(profile, WindowSpec(frozenset({0})))
    assert circuit.gates == []
    assert np.exp(1j * circuit.global_phase) == pytest.approx(
        np.exp(-1j * profile.thetas[0]), abs=1e-12
    )
    np.testing.assert_allclose(
        extract_diagonal(circuit)[0], np.exp(-1j * profile.thetas[0]), atol=1e-12
    )


def test_qwe_infeasible_window():
    profile = _random_palindrome(5)
    with pytest.raises(InfeasibleWindow):
        build_qwe_circuit(profile, WindowSpec(frozenset(range(16)), cp_budget=1))


def test_qwe_respects_budget_bounds():
    # six constraints, six degrees of freedom (3 phases + 3 pairs)
    profile = _random_palindrome(4)
    circuit = build_qwe_circuit(profile, WindowSpec(frozenset(range(1, 7)), cp_budget=3))
    tally = _gate_tally(circuit)
    assert tally.get(GateKind.PHASE, 0) <= 3
    assert tally.get(GateKind.CONTROLLED_PHASE, 0) <= 3
    diagonal = extract_diagonal(circuit)
    for j in range(1, 7):
        assert diagonal[j] == pytest.approx(np.exp(-1j * profile.thetas[j]), abs=1e-9)


def test_qwe_full_half_window_needs_cubic_term():
    # 2^(n-1) constraints exceed the quadratic encoder's degrees of freedom
    profile = _random_palindrome(4)
    with pytest.raises(InfeasibleWindow):
        build_qwe_circuit(profile, WindowSpec(frozenset(range(8)), cp_budget=3))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_qwe_all_contiguous_small_windows(n):
    # every window of up to n half-indices is handled: either built exactly on
    # the window within budget, or rejected as infeasible
    profile = _random_palindrome(n)
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
        profiles = (kinetic_phase_profile(Grid(10.0, n), 0.1), _random_palindrome(n, rng))
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
    profile = _random_palindrome(4)
    with pytest.raises(InfeasibleWindow):
        build_qwe_circuit(profile, WindowSpec(frozenset({9})))


# --- direct (unreflected) encoder ---


def test_direct_quadratic_exact():
    theta = np.array([0.0, 0.1, 0.4, 0.9])
    circuit = build_direct_diagonal(PhaseProfile(theta))
    np.testing.assert_allclose(extract_diagonal(circuit), np.exp(-1j * theta), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), coefficients=st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3))
def test_direct_exact_for_random_quadratics(n, coefficients):
    # any profile quadratic in the full index is reproduced, global phase included
    c0, c1, c2 = coefficients
    k = np.arange(1 << n, dtype=float)
    theta = c0 + c1 * k + c2 * k * k
    circuit = build_direct_diagonal(PhaseProfile(theta))
    assert np.max(np.abs(extract_diagonal(circuit) - np.exp(-1j * theta))) < 1e-9


def test_direct_constant_profile_is_pure_phase():
    circuit = build_direct_diagonal(PhaseProfile(np.full(8, 1.1)))
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


def test_potential_on_qubit_0_tensor_value():
    eta, time = 1.7, 0.15
    circuit = build_potential_circuit(2, PotentialSpec(eta, (0,)), time)
    expected = np.kron(rz_mat(2 * eta * time), np.eye(2))
    np.testing.assert_allclose(extract_unitary(circuit), expected, atol=1e-14)
    t = eta * time
    np.testing.assert_allclose(
        np.diag(extract_unitary(circuit)),
        [np.exp(-1j * t), np.exp(-1j * t), np.exp(1j * t), np.exp(1j * t)],
        atol=1e-14,
    )


def test_potential_zero_eta_identity():
    circuit = build_potential_circuit(3, PotentialSpec(0.0, (0,)), 0.25)
    np.testing.assert_allclose(extract_unitary(circuit), np.eye(8), atol=1e-15)


def test_potential_none_empty():
    assert build_potential_circuit(4, PotentialSpec(), 0.05).gates == []
    assert build_potential_circuit(4, PotentialSpec(1.0, ()), 0.05).gates == []


def test_potential_angle_past_the_float_range_names_the_potential():
    # eta and time are each finite, and 2 eta time is not
    with pytest.raises(GridError, match="^potential angle 2 eta time must be a finite real number, got inf$"):
        build_potential_circuit(3, PotentialSpec(1e308, (0,)), 0.005)


def test_potential_invalid_position():
    for qubit in (2, 5, -1):
        with pytest.raises(GridError):
            build_potential_circuit(2, PotentialSpec(1.0, (qubit,)), 0.05)


@pytest.mark.parametrize("caller", ["build_potential_circuit", "potential_profile", "EvolutionConfig"])
@pytest.mark.parametrize("qubit", [-1, 3])
def test_potential_position_outside_the_width_has_one_message(caller, qubit):
    spec, grid = PotentialSpec(1.0, (qubit,)), Grid(10.0, 3)
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
