import gc
import math
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpyramid import cli, simulator
from qpyramid.cli import write_table
from qpyramid.circuit import (
    PHASE_KINDS,
    ArityMismatch,
    Circuit,
    CircuitError,
    DuplicateQubit,
    Gate,
    GateKind,
    IndexOutOfRange,
    InvalidWidth,
    build_qft,
    circuit_from_json,
    circuit_to_json,
    validate,
)
from qpyramid.encoders import build_qate_circuit
from qpyramid.grids import Grid, kinetic_phase_profile
from qpyramid.simulator import (
    _cswap,
    _diagonal,
    _flip,
    _fourier,
    _hadamard,
    _permute,
    Histogram,
    NotDiagonal,
    NotInPlace,
    Plan,
    RandomSource,
    StateVector,
    WidthTooLarge,
    compile_circuit,
    extract_diagonal,
    extract_unitary,
    fidelity_exact,
    inner_product,
    run,
    sample,
)

from oracles import circuit_unitary, index_bitstring, random_circuit


# --- single-gate behaviour ---


def test_hadamard_on_zero():
    out = run(Circuit(1, [Gate(GateKind.HADAMARD, (0,))]), StateVector.zero_state(1))
    np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_phase_leaves_zero_untouched():
    out = run(Circuit(1, [Gate(GateKind.PHASE, (0,), 1.1)]), StateVector.zero_state(1))
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-15)


def test_cnot_with_control_set():
    # |10> -> |11> under big-endian indexing
    out = run(Circuit(2, [Gate(GateKind.CONTROLLED_NOT, (0, 1))]), StateVector.basis_state(2, 2))
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
    with pytest.raises(InvalidWidth):
        run(compile_circuit(Circuit(3).h(0)), StateVector.zero_state(2))


# --- golden diagonal structures ---


def test_cx_phase_cx_sandwich_diagonal():
    theta = 1.3
    unitary = extract_unitary(Circuit(2).cx(0, 1).p(1, theta).cx(0, 1))
    expected = np.diag([1.0, np.exp(1j * theta), np.exp(1j * theta), 1.0])
    assert np.max(np.abs(unitary - expected)) < 1e-14


def test_cx_phase_cx_sandwich_on_uniform_state():
    theta = 0.9
    uniform = StateVector.from_amplitudes(np.ones(4))
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
    # nor Fourier ops: QFT . QFT^-1 is the identity
    with pytest.raises(NotDiagonal):
        extract_diagonal(build_qft(3).extend(build_qft(3, inverse=True)))


DIAG_TOL = 1e-10  # off-diagonal magnitude at which a unitary counts as non-diagonal
_PERMUTING = (GateKind.PAULI_X, GateKind.CONTROLLED_NOT, GateKind.SWAP, GateKind.CONTROLLED_SWAP)
_PHASE_TYPE = (GateKind.PHASE, GateKind.CONTROLLED_PHASE, GateKind.ROTATION_Z)


@st.composite
def _permuting_and_phase_circuits(draw):
    """X/CX/Swap/CSWAP/P/CP/RZ circuits at n <= 6.  Half of them replay their
    X/CX/Swap/CSWAP gates in reverse at the end, so the basis permutation
    composes to the identity and the circuit is diagonal."""
    n = draw(st.integers(1, 6))
    kinds = [kind for kind in _PERMUTING + _PHASE_TYPE if kind.arity <= n]
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[:kind.arity])
        angle = draw(st.floats(-math.pi, math.pi)) if kind in PHASE_KINDS else None
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


@st.composite
def _plan_circuits(draw):
    """random_circuit over the full gate set at n <= 6, drawn from a seed.  The
    phase kinds are listed `weight` extra times, so long phase runs with
    repeated and overlapping gates are common, and every other kind (H, X,
    CX, Swap, CSWAP) can break a run."""
    n = draw(st.integers(1, 6))
    weight = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = list(GateKind) + list(_PHASE_TYPE) * weight
    return random_circuit(n, draw(st.integers(0, 40)), rng, kinds), rng


def _record_table_sizes(monkeypatch) -> list:
    """The sizes of the phase tables built from now on, in build order."""
    sizes = []
    real = simulator._phase_table

    def recording(*args):
        table = real(*args)
        sizes.append(table.size)
        return table

    monkeypatch.setattr(simulator, "_phase_table", recording)
    return sizes


def _wide_phase_run():
    """P gates on all 12 qubits: one op of two factor tables over 6 and 6."""
    return Circuit(12, [Gate(GateKind.PHASE, (q,), 0.1 * q + 0.1) for q in range(12)])


@settings(max_examples=150)
@given(_plan_circuits())
def test_run_matches_kron_oracle(case):
    circuit, rng = case
    dim = 1 << circuit.n_qubits
    state = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    out = run(circuit, state)
    expected = circuit_unitary(circuit) @ state.amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)


@settings(max_examples=100)
@given(_plan_circuits())
def test_extract_unitary_matches_kron_oracle_property(case):
    circuit, _ = case
    np.testing.assert_allclose(extract_unitary(circuit), circuit_unitary(circuit), rtol=0, atol=1e-12)


_NEAR_MISSES = ("payload-touches-control", "targets-differ", "controls-differ")


def _phase_run(rng, qubits, size):
    """`size` random P/CP/RZ gates on `qubits`."""
    kinds = [kind for kind in _PHASE_TYPE if kind.arity <= len(qubits)]
    gates = []
    for _ in range(size):
        kind = kinds[rng.integers(len(kinds))]
        gates.append(Gate(kind, tuple(int(q) for q in rng.choice(qubits, kind.arity, replace=False)),
                          float(rng.uniform(-math.pi, math.pi))))
    return gates


def _negated(gates):
    """Phase gates whose per-qubit and pairwise angles cancel those of
    `gates`; the constant angle of an RZ is left behind."""
    return [Gate(GateKind.PHASE if gate.kind is GateKind.ROTATION_Z else gate.kind, gate.qubits, -gate.angle)
            for gate in gates]


@st.composite
def _shell_circuits(draw, fourier=False):
    """One to three shells at 2 <= n <= 6, each a CX ladder with one control,
    a payload of phase gates off the control and the same ladder again,
    after a nonempty phase run and before a run that is random or cancels
    the one before.  A shell may be a near miss that must not fold: its
    payload touches the control, or its closing ladder has other targets or
    another control.  With `fourier`, a Fourier block opens the circuit.
    Returns (circuit, rng, number of near misses)."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = list(build_qft(n, inverse=draw(st.booleans())).gates) if fourier else []
    misses = 0
    for _ in range(draw(st.integers(1, 3))):
        miss = draw(st.sampled_from((None,) * 3 + _NEAR_MISSES[:3 if n > 2 else 2]))
        control, *others = (int(q) for q in rng.permutation(n))
        closing = others.pop() if miss == "controls-differ" else control
        targets = others[:rng.integers(1, len(others) + 1)]
        closed = targets
        if miss == "targets-differ":
            closed = targets[:-1] if len(targets) > 1 else others[:2] if len(others) > 1 else []
        before = _phase_run(rng, range(n), int(rng.integers(1, 4)))
        payload = _phase_run(rng, [q for q in range(n) if q != control], int(rng.integers(1, 5)))
        if miss == "payload-touches-control":
            touching = (control, others[0]) if rng.integers(2) else (control,)
            payload.insert(int(rng.integers(len(payload) + 1)),
                           Gate(_PHASE_TYPE[len(touching) - 1], touching, float(rng.uniform(-math.pi, math.pi))))
        gates += before
        gates += [Gate(GateKind.CONTROLLED_NOT, (control, t)) for t in targets]
        gates += payload
        gates += [Gate(GateKind.CONTROLLED_NOT, (closing, t)) for t in closed]
        gates += _negated(before) if draw(st.booleans()) else _phase_run(rng, range(n), 2)
        misses += miss is not None
    return Circuit(n, gates, global_phase=draw(st.floats(-math.pi, math.pi))), rng, misses


def _check_shells_match_kron_oracle(case):
    """Every shell folds into one diagonal op unless it is a near miss, and
    the plan matches the Kron oracle either way."""
    circuit, rng, misses = case
    kernels = [kernel for kernel, _ in compile_circuit(circuit).ops]
    assert (_flip in kernels) == (misses > 0)
    unitary = circuit_unitary(circuit)
    dim = 1 << circuit.n_qubits
    state = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    np.testing.assert_allclose(run(circuit, state).amplitudes, unitary @ state.amplitudes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(extract_unitary(circuit), unitary, rtol=0, atol=1e-12)
    if not misses and _fourier not in kernels:
        np.testing.assert_allclose(extract_diagonal(circuit), np.diag(unitary), rtol=0, atol=1e-12)


@settings(max_examples=150)
@given(_shell_circuits())
def test_folded_shells_match_kron_oracle(case):
    _check_shells_match_kron_oracle(case)


@settings(max_examples=100)
@given(_shell_circuits(fourier=True))
def test_folded_shells_match_kron_oracle_split(case):
    # after a split Fourier op the shells are compiled onto rotated axes
    with _forced_split():
        _check_shells_match_kron_oracle(case)


@pytest.mark.parametrize("build", [
    lambda big: Circuit(2).p(0, big).p(0, big),
    # summed where the plain op after the folded shell merges into the one before it
    lambda big: Circuit(3).p(1, big).cx(0, 1).p(2, 0.3).cx(0, 1).p(1, big),
    # the constant term of four Z rotations sums to -2 big
    lambda big: Circuit(4).rz(0, big).rz(1, big).rz(2, big).rz(3, big),
], ids=["one-run", "folded-shell", "rz-constant"])
def test_angles_summed_past_the_float_range_raise_circuit_error(build):
    # each angle is finite and valid; their sum is not, and no NaN table or
    # bare ValueError comes of it.  Just inside the range the sum compiles.
    with pytest.raises(CircuitError, match="sum to -?inf, past the float range"):
        compile_circuit(build(1e308))
    assert np.all(np.abs(extract_diagonal(build(8e307))) == pytest.approx(1.0))


@pytest.mark.parametrize("n", [*range(3, 12), 14])
def test_phase_run_matches_summed_angles(monkeypatch, n):
    # a run of P gates over n qubits is one op applied as factor tables over
    # the first n // 2 qubits and the rest, however narrow; the reference
    # sums every index's angles in long double
    rng = np.random.default_rng(n)
    qubits = list(range(n)) + [int(q) for q in rng.integers(0, n, size=2 * n)]
    circuit = Circuit(n, global_phase=float(rng.uniform(-math.pi, math.pi)))
    for q in qubits:
        circuit.p(q, float(rng.uniform(-math.pi, math.pi)))
    sizes = _record_table_sizes(monkeypatch)
    diagonal = extract_diagonal(circuit)
    assert sizes == [1 << n // 2, 1 << (n + 1) // 2]
    angles = np.zeros(n, dtype=np.longdouble)
    for gate in circuit.gates:
        angles[gate.qubits[0]] += gate.angle
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    phases = (bits * angles).sum(axis=1) + circuit.global_phase
    expected = np.exp(1j * phases).astype(np.complex128)
    np.testing.assert_allclose(diagonal, expected, rtol=0, atol=1e-14)


def test_run_sees_gates_appended_between_calls():
    # the plan kept on the circuit no longer matches its gates after the
    # edit, so the second run recompiles, while a plan compiled before the
    # edit keeps the old gates
    circuit = Circuit(3).h(0).cp(0, 1, 0.7).p(2, 0.3)
    state = StateVector.from_amplitudes(np.arange(1, 9))
    first = run(circuit, state)
    plan = compile_circuit(circuit)
    circuit.cp(1, 2, 1.1).x(0).p(0, -0.4)
    second = run(circuit, state)
    np.testing.assert_allclose(second.amplitudes, circuit_unitary(circuit) @ state.amplitudes, atol=1e-13)
    assert np.max(np.abs(second.amplitudes - first.amplitudes)) > 0.1
    assert len(plan.gates) == 3 and len(circuit.gates) == 6
    assert np.array_equal(run(plan, state).amplitudes, first.amplitudes)


def test_plan_tables_are_read_only():
    plan = compile_circuit(Circuit(3).p(0, 0.3).cp(1, 2, 0.5).h(0).rz(1, 0.2))
    tables = [table for kernel, args in plan.ops if kernel is _diagonal for _, table in args[0]]
    assert len(tables) == 2  # one table for each of the two diagonal ops
    [(kernel, (factors,))] = compile_circuit(_wide_phase_run()).ops
    assert kernel is _diagonal and [table.size for _, table in factors] == [64, 64]
    tables += [table for _, table in factors]
    for table in tables:
        with pytest.raises(ValueError):
            table[...] = 0
        with pytest.raises(ValueError):
            table *= 2
    with pytest.raises(AttributeError):
        plan.ops = ()


@pytest.mark.parametrize("circuit, error", [
    (Circuit(0), InvalidWidth),
    (Circuit(2).p(5, 0.3), IndexOutOfRange),
    (Circuit(2, [Gate(GateKind.CONTROLLED_NOT, (1, 1))]), DuplicateQubit),
    (Circuit(2, [Gate(GateKind.PHASE, (0,))]), ArityMismatch),
    (Circuit(2, [Gate(GateKind.PHASE, (0,), float("nan"))]), ArityMismatch),
    (Circuit(2, global_phase=float("inf")), CircuitError),
])
def test_compile_circuit_raises_the_errors_of_validate(circuit, error):
    with pytest.raises(error) as expected:
        validate(circuit)
    with pytest.raises(error) as raised:
        compile_circuit(circuit)
    assert type(raised.value) is type(expected.value)


@pytest.mark.parametrize("gate", [
    Gate(GateKind.PHASE, (0,), 0.5), Gate(GateKind.CONTROLLED_PHASE, (0, 1), 0.5),
    Gate(GateKind.ROTATION_Z, (1,), 0.5), Gate(GateKind.HADAMARD, (0,)),
])
def test_gate_tensor_kernel_has_no_phase_or_hadamard_branch(gate):
    # phase-type gates run as fused diagonals and H as the plan's butterfly
    [(kernel, _)] = compile_circuit(Circuit(2, [gate])).ops
    assert kernel is (_hadamard if gate.kind is GateKind.HADAMARD else _diagonal)


def test_phase_table_covers_only_touched_qubits(monkeypatch):
    # one CP between the outermost qubits needs one table over qubits 0 and
    # n-1 alone, broadcast over the ten qubits between them
    sizes = _record_table_sizes(monkeypatch)
    n = 12
    state = StateVector.from_amplitudes(np.arange(1, (1 << n) + 1))
    out = run(Circuit(n).cp(0, n - 1, 0.3), state)
    assert sizes == [4]
    [(kernel, (tables,))] = compile_circuit(Circuit(n).cp(0, n - 1, 0.3)).ops
    assert kernel is _diagonal and [(index, table.size) for index, table in tables] == [((), 4)]
    expected = state.amplitudes.copy()
    expected[(1 << (n - 1)) + 1::2] *= np.exp(0.3j)
    np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-15)


def test_plan_uses_only_the_five_kernels():
    circuit = (Circuit(3).x(0).h(1).p(2, 0.3).cp(0, 1, 0.4).cx(0, 2).swap(1, 2).cswap(0, 1, 2)
               .rz(1, 0.5))
    assert {gate.kind for gate in circuit.gates} == set(GateKind)
    kernels = [kernel for kernel, _ in compile_circuit(circuit).ops]
    assert set(kernels) == {_diagonal, _hadamard, _flip, _permute, _cswap}
    assert kernels.count(_cswap) == 1


def test_plan_runs_each_fourier_block_as_one_op():
    circuit = Circuit(3).x(0).h(1).p(2, 0.3).cswap(0, 1, 2)
    circuit.extend(build_qft(3))
    circuit.cp(0, 1, 0.4).cx(0, 2).swap(1, 2).rz(1, 0.5)
    circuit.extend(build_qft(3, inverse=True))
    kernels = [kernel for kernel, _ in compile_circuit(circuit).ops]
    assert set(kernels) == {_diagonal, _hadamard, _flip, _permute, _cswap, _fourier}
    assert kernels.count(_fourier) == 2
    assert kernels.count(_hadamard) == 1
    np.testing.assert_allclose(extract_unitary(circuit), circuit_unitary(circuit), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_build_qft_compiles_to_one_fourier_op(n):
    # test_encoders checks these circuits' unitaries against the dense DFT;
    # below the split cut-off an op holds no twiddle table and reads natural order
    assert compile_circuit(build_qft(n)).ops == ((_fourier, (False, False, None)),)
    assert compile_circuit(build_qft(n, inverse=True)).ops == ((_fourier, (n > 1, False, None)),)  # at n = 1 both are one H


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("n", [2, 5])
def test_fourier_block_is_matched_by_value_not_identity(n, inverse):
    # a JSON round trip builds new Gate objects with the same values
    circuit = circuit_from_json(circuit_to_json(build_qft(n, inverse)))
    assert not any(a is b for a, b in zip(circuit.gates, build_qft(n, inverse).gates))
    assert compile_circuit(circuit).ops == ((_fourier, (inverse, False, None)),)


@st.composite
def _circuits_with_fourier_blocks(draw, narrowest=2):
    """random_circuit segments at narrowest <= n <= 6 with one to three whole
    Fourier blocks, forward or inverse, between them; returns (circuit,
    blocks).  At n = 1 a block is one Hadamard, so the segments have none."""
    n = draw(st.integers(narrowest, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [kind for kind in GateKind if n > 1 or kind is not GateKind.HADAMARD]
    circuit = random_circuit(n, int(rng.integers(0, 12)), rng, kinds)
    blocks = draw(st.integers(1, 3))
    for _ in range(blocks):
        circuit.extend(build_qft(n, inverse=draw(st.booleans())))
        circuit.extend(random_circuit(n, int(rng.integers(0, 12)), rng, kinds))
    return circuit, blocks


@contextmanager
def _forced_split():
    """Every Fourier op as the two-pass split transform, however narrow, so
    that circuits at n <= 6 reach the path that otherwise starts at
    `_SPLIT_FOURIER_MIN_QUBITS`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_SPLIT_FOURIER_MIN_QUBITS", 0)
        yield


def _check_fourier_blocks_match_kron_oracle(case):
    circuit, blocks = case
    assert [kernel for kernel, _ in compile_circuit(circuit).ops].count(_fourier) == blocks
    np.testing.assert_allclose(extract_unitary(circuit), circuit_unitary(circuit), rtol=0, atol=1e-12)


@settings(max_examples=100)
@given(_circuits_with_fourier_blocks())
def test_fourier_blocks_match_kron_oracle(case):
    _check_fourier_blocks_match_kron_oracle(case)


@settings(max_examples=100)
@given(_circuits_with_fourier_blocks(narrowest=1))
def test_fourier_blocks_match_kron_oracle_split(case):
    # extract_unitary runs the split ops over 2^n batched columns at once
    with _forced_split():
        assert all(twiddles is not None for kernel, (*_, twiddles) in compile_circuit(case[0]).ops
                   if kernel is _fourier)
        _check_fourier_blocks_match_kron_oracle(case)


def _check_plan_runs_bit_identical_to_circuit(case, seed):
    circuit, _ = case
    rng = np.random.default_rng(seed)
    dim = 1 << circuit.n_qubits
    state = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    plan = compile_circuit(circuit)
    assert np.array_equal(run(plan, state).amplitudes, run(circuit, state).amplitudes)
    # the benchmark's tracer reads n_qubits and gates off whatever run receives
    assert plan.n_qubits == circuit.n_qubits
    assert plan.gates == tuple(circuit.gates)
    assert plan.global_phase == circuit.global_phase


@settings(max_examples=100)
@given(_circuits_with_fourier_blocks(), st.integers(0, 2**32 - 1))
def test_plan_runs_bit_identical_to_circuit(case, seed):
    _check_plan_runs_bit_identical_to_circuit(case, seed)


@settings(max_examples=100)
@given(_circuits_with_fourier_blocks(narrowest=1), st.integers(0, 2**32 - 1))
def test_plan_runs_bit_identical_to_circuit_split(case, seed):
    with _forced_split():
        _check_plan_runs_bit_identical_to_circuit(case, seed)


def _one_ulp_off(gates, index):
    gate = gates[index]
    moved = Gate(gate.kind, gate.qubits, float(np.nextafter(gate.angle, np.inf)))
    return gates[:index] + [moved] + gates[index + 1:]


def _near_misses(n, inverse):
    """Gate lists that differ from build_qft(n, inverse) by one angle ulp, by
    the block's last swap, or by their width (build_qft(n - 1) on qubits 0..n-2)."""
    gates = build_qft(n, inverse).gates
    angled = [i for i, gate in enumerate(gates) if gate.angle is not None]
    swaps = [i for i, gate in enumerate(gates) if gate.kind is GateKind.SWAP]
    yield from (_one_ulp_off(gates, i) for i in angled)
    yield gates[:swaps[-1]] + gates[swaps[-1] + 1:]
    yield build_qft(n - 1, inverse).gates


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("n", range(2, 7))
def test_fourier_near_misses_run_gate_by_gate(n, inverse):
    for gates in _near_misses(n, inverse):
        circuit = Circuit(n, gates)
        assert _fourier not in [kernel for kernel, _ in compile_circuit(circuit).ops]
        np.testing.assert_allclose(extract_unitary(circuit), circuit_unitary(circuit), rtol=0, atol=1e-12)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 14])
def test_fourier_op_agrees_with_gate_level_plan(n, inverse):
    # the reference runs the same gates as two calls that split the block, so
    # neither half holds a whole block and both run gate by gate
    rng = np.random.default_rng(n)
    head = random_circuit(n, 6, rng, list(_PHASE_TYPE))
    block = build_qft(n, inverse).gates
    tail = random_circuit(n, 6, rng, list(_PHASE_TYPE))
    circuit = Circuit(n, head.gates + block + tail.gates, global_phase=tail.global_phase)
    cut = len(head.gates) + len(block) // 2
    first = Circuit(n, circuit.gates[:cut])
    second = Circuit(n, circuit.gates[cut:], global_phase=circuit.global_phase)
    assert [kernel for kernel, _ in compile_circuit(circuit).ops].count(_fourier) == 1
    assert _fourier not in [kernel for kernel, _ in compile_circuit(first).ops + compile_circuit(second).ops]
    dim = 1 << n
    state = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    expected = run(second, run(first, state)).amplitudes
    np.testing.assert_allclose(run(circuit, state).amplitudes, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_split_fourier_op_matches_numpy_fft(n, inverse):
    rng = np.random.default_rng(n)
    dim = 1 << n
    state = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    [(kernel, (_, rotated, twiddles)), (closing, _)] = compile_circuit(build_qft(n, inverse)).ops
    assert kernel is _fourier and not rotated and closing is _permute
    assert sum(table.size for table in twiddles) <= 2 ** (0.75 * n + 1.5)
    for table in twiddles:
        with pytest.raises(ValueError):
            table[...] = 0
    expected = (np.fft.fft if inverse else np.fft.ifft)(state.amplitudes, norm="ortho")
    np.testing.assert_allclose(run(build_qft(n, inverse), state).amplitudes, expected, rtol=0, atol=1e-15)


def _record_fft_lengths(monkeypatch) -> list:
    """The transform length of every numpy fft and ifft call from now on."""
    lengths = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def recording(a, *args, real=real, axis=-1, **kwargs):
            lengths.append(a.shape[axis])
            return real(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return lengths


def _fourier_pair(n: int) -> Circuit:
    circuit = Circuit(n)
    circuit.extend(build_qft(n))
    circuit.extend(build_qft(n, inverse=True))
    return circuit


@pytest.mark.parametrize("n", [12, 13, 14, 17])
def test_fourier_op_past_the_cut_off_transforms_at_most_a_row(monkeypatch, n):
    # the forward op runs its columns first and leaves the rotated layout; the
    # inverse op reads that layout, so it runs its rows first
    state = StateVector.zero_state(n)
    lengths = _record_fft_lengths(monkeypatch)
    run(_fourier_pair(n), state)
    if n < simulator._SPLIT_FOURIER_MIN_QUBITS:
        assert lengths == [1 << n] * 2
    else:
        rows, cols = 1 << n // 2, 1 << (n + 1) // 2
        assert lengths == [rows, cols, cols, rows]


def test_only_a_plan_that_ends_rotated_closes_with_a_permute():
    n = 14
    pair = [(kernel, rotated) for kernel, (_, rotated, _) in compile_circuit(_fourier_pair(n)).ops]
    assert pair == [(_fourier, False), (_fourier, True)]
    (kernel, _), (closing, (perm,)) = compile_circuit(build_qft(n)).ops
    assert kernel is _fourier and closing is _permute
    assert perm == tuple(range(n // 2, n)) + tuple(range(n // 2))


def test_swap_only_relabels_the_qubits_of_later_ops():
    # the Swap moves qubit 0 to axis 2, so the CP lands on axes (1, 2) of the
    # same diagonal op, and one transpose closes the plan
    circuit = Circuit(3).p(0, 0.1).swap(0, 2).cp(0, 1, 0.2)
    (kernel, _), closing = compile_circuit(circuit).ops
    assert kernel is _diagonal and closing == (_permute, ((2, 1, 0),))
    np.testing.assert_allclose(extract_unitary(circuit), circuit_unitary(circuit), rtol=0, atol=1e-15)


def test_swap_before_a_split_fourier_block_is_undone_first():
    # after the Swap the layout is neither natural nor rotated, so the state
    # is put back in natural order before the forward op, which leaves it rotated
    n = 13
    circuit = Circuit(n).swap(0, 5)
    circuit.extend(build_qft(n))
    opening, (kernel, (inverse, rotated, _)), closing = compile_circuit(circuit).ops
    assert opening == (_permute, ((5, 1, 2, 3, 4, 0) + tuple(range(6, n)),))
    assert kernel is _fourier and not inverse and not rotated
    assert closing == (_permute, (tuple(range(n // 2, n)) + tuple(range(n // 2)),))
    rng = np.random.default_rng(n)
    state = StateVector.from_amplitudes(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    swapped = state.amplitudes.reshape([2] * n).swapaxes(0, 5).reshape(-1)
    expected = np.fft.ifft(swapped, norm="ortho")
    np.testing.assert_allclose(run(circuit, state).amplitudes, expected, rtol=0, atol=1e-15)


def test_fourier_pair_allocates_at_most_one_statevector():
    # the input copy is the one state-size array; both split ops work in
    # place on it, and numpy's row scratch and the conjugated twiddle tables
    # stay well within a quarter of a statevector at this width
    n = 18
    rng = np.random.default_rng(n)
    state = StateVector.from_amplitudes(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    plan = compile_circuit(_fourier_pair(n))
    tracemalloc.start()
    try:
        out = run(plan, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * state.amplitudes.nbytes
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, rtol=0, atol=1e-15)


def _count_compiles(monkeypatch) -> list:
    """Patch `simulator.compile_circuit` to record each circuit it compiles."""
    compiled = []

    def counting(circuit):
        compiled.append(circuit)
        return compile_circuit(circuit)

    monkeypatch.setattr(simulator, "compile_circuit", counting)
    return compiled


def test_run_keeps_one_plan_on_the_circuit(monkeypatch):
    compiled = _count_compiles(monkeypatch)
    circuit = Circuit(3).h(0).cp(0, 1, 0.7).p(2, 0.3).swap(0, 2)
    circuit.extend(build_qft(3))
    state = StateVector.from_amplitudes(np.arange(1, 9) + 0.5j)
    first, second = run(circuit, state), run(circuit, state)
    assert len(compiled) == 1 and isinstance(circuit._plan, Plan)
    assert circuit._plan.gates == tuple(circuit.gates)
    reference = run(compile_circuit(circuit), state).amplitudes
    assert np.array_equal(first.amplitudes, reference) and np.array_equal(second.amplitudes, reference)


def test_each_extraction_compiles_the_circuit_once(monkeypatch):
    # both extractions run a plan from compile_circuit and keep none on the circuit
    compiled = _count_compiles(monkeypatch)
    circuit = Circuit(3).x(0).cp(0, 1, 0.7).h(2).p(2, 0.3).rz(1, 0.2).swap(0, 2)
    circuit.extend(build_qft(3))
    extract_unitary(circuit)
    assert compiled == [circuit]
    diagonal = Circuit(3).cx(0, 1).cswap(2, 0, 1).cp(0, 2, 0.7).rz(1, 0.2).cswap(2, 0, 1).cx(0, 1)
    np.testing.assert_allclose(extract_diagonal(diagonal), np.diag(circuit_unitary(diagonal)),
                               rtol=0, atol=1e-14)
    assert compiled == [circuit, diagonal]
    with pytest.raises(NotDiagonal):
        extract_diagonal(circuit)
    assert compiled == [circuit, diagonal, circuit]
    assert circuit._plan is None and diagonal._plan is None
    # the width cap is checked before anything is compiled
    with pytest.raises(WidthTooLarge):
        extract_unitary(Circuit(13).h(0))
    assert len(compiled) == 3


def _state_of(n):
    return StateVector.from_amplitudes(np.exp(1j * np.arange(1 << n)) * np.arange(1, (1 << n) + 1))


def _replace_gate(circuit):
    circuit.gates[1] = Gate(GateKind.CONTROLLED_PHASE, (0, 1), 0.8)


def _edit_phase(circuit):
    circuit.global_phase = 0.4


def _widen(circuit):
    circuit.n_qubits = 4


@pytest.mark.parametrize("edit", [_replace_gate, _edit_phase, _widen])
def test_run_recompiles_an_edited_circuit(edit):
    # each edit keeps the gate count, so only the snapshot tells it apart
    circuit = Circuit(3, global_phase=0.1).h(0).cp(0, 1, 0.7).p(2, 0.3)
    before = run(circuit, _state_of(3))
    stale = weakref.ref(circuit._plan)
    edit(circuit)
    state = _state_of(circuit.n_qubits)
    after = run(circuit, state)
    gc.collect()
    assert stale() is None and circuit._plan.gates == tuple(circuit.gates)
    np.testing.assert_allclose(after.amplitudes, circuit_unitary(circuit) @ state.amplitudes,
                               rtol=0, atol=1e-13)
    if circuit.n_qubits == 3:
        assert np.max(np.abs(after.amplitudes - before.amplitudes)) > 0.05


def test_plan_dies_with_its_circuit():
    circuit = Circuit(13)
    circuit.extend(build_qft(13))
    run(circuit, StateVector.zero_state(13))
    plan = weakref.ref(circuit._plan)
    del circuit
    gc.collect()
    assert plan() is None


def test_extract_diagonal_accepts_controlled_swaps_that_cancel():
    circuit = Circuit(3).cswap(0, 1, 2).p(1, 0.7).cp(0, 2, -0.2).cswap(0, 1, 2)
    diagonal = extract_diagonal(circuit)
    np.testing.assert_allclose(diagonal, np.diag(extract_unitary(circuit)), rtol=0, atol=1e-14)
    with pytest.raises(NotDiagonal):
        extract_diagonal(Circuit(3).cswap(0, 1, 2).p(1, 0.7))


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


# --- ownership: Plan.apply updates its argument, copies are the caller's ---


def _random_amplitudes(n, rng):
    return StateVector.from_amplitudes(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)).amplitudes


def test_run_leaves_its_input_unchanged():
    rng = np.random.default_rng(3)
    circuit = random_circuit(4, 30, rng)
    state = StateVector(4, _random_amplitudes(4, rng))
    before = state.amplitudes.copy()
    for program in (circuit, compile_circuit(circuit)):
        out = run(program, state)
        np.testing.assert_array_equal(state.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        np.testing.assert_allclose(out.amplitudes, circuit_unitary(circuit) @ before, rtol=0, atol=1e-12)


def test_apply_updates_its_argument_in_place_and_returns_it():
    rng = np.random.default_rng(4)
    circuit = random_circuit(5, 40, rng)
    plan = compile_circuit(circuit)
    amplitudes = _random_amplitudes(5, rng)
    expected = run(plan, StateVector(5, amplitudes)).amplitudes
    assert plan.apply(amplitudes) is amplitudes
    np.testing.assert_array_equal(amplitudes, expected)
    # a uniformly strided view is updated in place too, and its gaps are not touched
    backing = np.repeat(_random_amplitudes(5, rng), 2)
    view, gaps = backing[::2], backing[1::2].copy()
    expected = run(plan, StateVector(5, view)).amplitudes
    assert plan.apply(view) is view
    np.testing.assert_array_equal(backing[::2], expected)
    np.testing.assert_array_equal(backing[1::2], gaps)


@pytest.mark.parametrize("make", [
    lambda n: np.ones(1 << n),
    lambda n: np.ones(1 << n, dtype=np.complex64),
    lambda n: np.ones(1 << n, dtype=np.complex128).tolist(),
    lambda n: np.eye(1 << n, dtype=np.complex128)[:, :3],
    lambda n: np.ones((1 << n, 2, 2), dtype=np.complex128).transpose(0, 2, 1),
    lambda n: np.eye(1 << n, dtype=np.complex128).T,
], ids=["float64", "complex64", "list", "column-slice", "transposed-batch", "transposed"])
def test_apply_rejects_what_it_cannot_update_in_place(make):
    plan = compile_circuit(Circuit(3).h(0).cx(0, 1).p(2, 0.3))
    amplitudes = make(3)
    before = np.array(amplitudes, copy=True)
    with pytest.raises(NotInPlace):
        plan.apply(amplitudes)
    np.testing.assert_array_equal(amplitudes, before)


def test_apply_rejects_a_read_only_array_and_a_wrong_row_count():
    plan = compile_circuit(Circuit(3).h(0))
    frozen = np.ones(8, dtype=np.complex128)
    frozen.flags.writeable = False
    with pytest.raises(NotInPlace, match="read-only"):
        plan.apply(frozen)
    for shape in ((16,), (4, 2), ()):
        with pytest.raises(InvalidWidth):
            plan.apply(np.ones(shape, dtype=np.complex128))


def test_extract_diagonal_peaks_under_two_and_a_half_statevectors():
    # the plan's QATE tables hold about one statevector and the all-ones
    # vector that becomes the diagonal one more; nothing copies it
    n = 14
    kinetic = kinetic_phase_profile(Grid(20.0, n), 0.01)
    circuit = build_qate_circuit(kinetic)
    tracemalloc.start()
    try:
        diagonal = extract_diagonal(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * diagonal.nbytes
    np.testing.assert_allclose(diagonal, np.exp(-1j * kinetic.thetas), rtol=0, atol=1e-9)


def _qate_circuit(n):
    """The QATE circuit `encode-ke --qubits n` builds with the default grid."""
    return build_qate_circuit(kinetic_phase_profile(Grid(10.0, n), 0.1))


def test_mirrored_op_reads_its_one_table_reversed_as_a_view():
    # the payload is one table over qubits 1..5, applied where the control,
    # qubit 0, is 0, and reversed over the ladder's targets where it is 1
    [(kernel, (pairs,))] = compile_circuit(_qate_circuit(6)).ops
    assert kernel is _diagonal and len(pairs) == 2
    (low, table), (high, flipped) = pairs
    assert (low, high) == ((slice(0, 1),), (slice(1, 2),))
    assert table.shape == (1, 2, 2, 2, 2, 2, 1)
    assert np.shares_memory(flipped, table)
    assert np.array_equal(flipped, table[:, ::-1, ::-1, ::-1, ::-1, ::-1])


@pytest.mark.parametrize("n", range(3, 15))
def test_qate_diagonal_columns_are_exact_palindromes(n):
    # index reversal flips every bit, and the control-1 slice reads the
    # control-0 table with every target bit flipped, so the diagonal reads
    # the same reversed bit for bit; `write_table` then formats each of
    # encode-ke's diagonal.csv columns once per pair of rows
    diagonal = extract_diagonal(_qate_circuit(n))
    assert all(cli._mirrored(column) for column in (diagonal.real, diagonal.imag, np.angle(diagonal)))


# --- sampling ---


def test_sample_deterministic_state():
    hist = sample(StateVector.zero_state(2), 100, RandomSource(1))
    np.testing.assert_array_equal(hist.counts, [100, 0, 0, 0])


def test_sample_counts_conserved():
    rng = np.random.default_rng(2)
    state = StateVector.from_amplitudes(rng.normal(size=8) + 1j * rng.normal(size=8))
    hist = sample(state, 999, RandomSource(3))
    assert hist.counts.shape == (8,)
    assert hist.counts.sum() == 999


def test_sample_seed_reproducible_bitwise():
    state = run(Circuit(3).h(0).h(1).h(2), StateVector.zero_state(3))
    first = sample(state, 4096, RandomSource(99))
    second = sample(state, 4096, RandomSource(99))
    np.testing.assert_array_equal(first.counts, second.counts)


def test_sample_uniform_within_binomial_bound():
    state = run(Circuit(2).h(0).h(1), StateVector.zero_state(2))
    hist = sample(state, 10000, RandomSource(42))
    sigma = math.sqrt(10000 * 0.25 * 0.75)
    for outcome in range(4):
        assert abs(hist.counts[outcome] - 2500) < 5 * sigma


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
        Histogram(5, [4, 0])


def test_histogram_keeps_int64_counts_as_given():
    # as a StateVector keeps its amplitudes: a sampled step holds one counts array
    counts = np.array([7, 0, 0, 3], dtype=np.int64)
    assert np.shares_memory(Histogram(10, counts).counts, counts)


def test_from_amplitudes_rejects_a_count_that_is_not_a_power_of_two():
    for raw in ([], [1.0, 0.0, 0.0]):
        with pytest.raises(InvalidWidth, match=f"amplitude count {len(raw)} is not a power of two"):
            StateVector.from_amplitudes(raw)
    assert StateVector.from_amplitudes([2.0]).n_qubits == 0


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


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_fidelity_exact_is_a_probability(n, seed, same):
    # |<a|a>|^2 rounds above 1 for about a fifth of random unit states
    rng = np.random.default_rng(seed)
    dim = 1 << n
    a, b = (StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            for _ in range(2))
    assert 0.0 <= fidelity_exact(a, a if same else b) <= 1.0


@settings(max_examples=100)
@given(st.integers(0, 18), st.integers(0, 2**32 - 1))
def test_pairwise_sums_match_blas_to_rounding(n, seed):
    # the BLAS reductions sum in another order, so only rounding may differ
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n) for _ in range(2))
    assert abs(inner_product(a, b) - np.vdot(a, b)) <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(b)
    assert StateVector.from_amplitudes(a).norm() == pytest.approx(1.0, abs=1e-15)
    assert simulator._norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)


def test_fidelity_width_mismatch():
    with pytest.raises(InvalidWidth):
        fidelity_exact(StateVector.zero_state(1), StateVector.zero_state(2))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_statevector_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf, complex(0.0, np.nan), complex(np.inf, -np.inf)):
        with pytest.raises(ValueError):
            StateVector(2, np.full(4, bad))
        # one bad amplitude in a unit state, also read through a strided view
        unit = np.array([1.0, 0.0, 0.0, bad], dtype=np.complex128)
        for amplitudes in (unit, np.repeat(unit, 2)[::2]):
            with pytest.raises(ValueError):
                StateVector(2, amplitudes)


@pytest.mark.parametrize("strided", [False, True])
def test_statevector_norm_tolerance(strided):
    for scale, accepted in ((1 + 0.5e-10, True), (1 - 0.5e-10, True), (1 + 2e-10, False), (1 - 2e-10, False)):
        amplitudes = np.array([0.6j, 0.8]) * scale
        if strided:
            amplitudes = np.repeat(amplitudes, 2)[::2]
        if accepted:
            assert np.shares_memory(StateVector(1, amplitudes).amplitudes, amplitudes)
        else:
            with pytest.raises(ValueError, match="deviates from 1"):
                StateVector(1, amplitudes)


def test_from_amplitudes_rejects_zero_and_non_finite_norm():
    for raw in (np.zeros(4), np.full(4, np.nan), np.array([1.0, np.inf])):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes(raw)


def test_from_amplitudes_rejects_odd_length():
    with pytest.raises(InvalidWidth):
        StateVector.from_amplitudes(np.ones(6))


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
    hist = Histogram(10, [7, 0, 0, 3])
    counts = hist.counts.tolist()
    path = tmp_path / "h.csv"
    write_table(path, ["bitstring", "count", "frequency"],
                [[index_bitstring(i, 2) for i in range(4)], counts, [c / hist.shots for c in counts]])
    lines = path.read_text().splitlines()
    assert lines[0] == "bitstring,count,frequency"
    assert lines[1] == "00,7,0.7"
    assert lines[2] == "01,0,0.0"
    assert lines[4] == "11,3,0.3"
