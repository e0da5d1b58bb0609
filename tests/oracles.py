"""Independent brute-force oracles for the tests: gate matrices built from
explicit Kronecker products and multiplied in order, with no shared code
against the simulator's stride kernels; the dense position-to-momentum
kernel; the explicit swap-test circuit and its numpy-only simulation, which
the closed-form estimator is checked against; the QATE phase at one
half-index, summed from the solved coefficients; the windowed encoder with
its window bits read one index at a time; and a per-cell CSV writer that
the column-wise table writer is checked against."""
import math

import numpy as np

from qpyramid.circuit import PHASE_KINDS, Circuit, Gate, GateKind, InvalidWidth, wrap_angle
from qpyramid.encoders import _EXACT_TOL, InfeasibleWindow, _emit_phase_gates, _lstsq_residual, build_qpa_shell
from qpyramid.grids import Grid, momentum_samples, position_samples
from qpyramid.simulator import StateVector

I2 = np.eye(2, dtype=complex)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CX_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP_MAT = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CSWAP_MAT = np.eye(8, dtype=complex)
CSWAP_MAT[[5, 6]] = CSWAP_MAT[[6, 5]]


def phase_mat(phi):
    return np.diag([1.0, np.exp(1j * phi)]).astype(complex)


def cp_mat(phi):
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)


def rz_mat(lmbda):
    return np.diag([np.exp(-0.5j * lmbda), np.exp(0.5j * lmbda)]).astype(complex)


def embed(op: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Lift a small unitary acting on `qubits` (big-endian order) to n qubits."""
    k = len(qubits)
    full = np.kron(op, np.eye(1 << (n - k), dtype=complex))
    # full acts on axes 0..k-1; permute so axis j sits at qubits[j]
    tensor = full.reshape([2] * (2 * n))
    order = [None] * n
    for j, q in enumerate(qubits):
        order[q] = j
    rest = iter(range(k, n))
    for q in range(n):
        if order[q] is None:
            order[q] = next(rest)
    perm = order + [n + a for a in order]
    return tensor.transpose(perm).reshape(1 << n, 1 << n)


def gate_matrix(gate, n: int) -> np.ndarray:
    kind = gate.kind
    if kind is GateKind.PAULI_X:
        return embed(X_MAT, gate.qubits, n)
    if kind is GateKind.HADAMARD:
        return embed(H_MAT, gate.qubits, n)
    if kind is GateKind.PHASE:
        return embed(phase_mat(gate.angle), gate.qubits, n)
    if kind is GateKind.ROTATION_Z:
        return embed(rz_mat(gate.angle), gate.qubits, n)
    if kind is GateKind.CONTROLLED_PHASE:
        return embed(cp_mat(gate.angle), gate.qubits, n)
    if kind is GateKind.CONTROLLED_NOT:
        return embed(CX_MAT, gate.qubits, n)
    if kind is GateKind.SWAP:
        return embed(SWAP_MAT, gate.qubits, n)
    if kind is GateKind.CONTROLLED_SWAP:
        return embed(CSWAP_MAT, gate.qubits, n)
    raise ValueError(f"no oracle matrix for {kind}")


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of embedded gate matrices (in application order) times the
    global phase."""
    n = circuit.n_qubits
    total = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        total = gate_matrix(gate, n) @ total
    return np.exp(1j * circuit.global_phase) * total


def dft_matrix(n: int) -> np.ndarray:
    """omega^{jk}/sqrt(N) with omega = e^{2 pi i / N}."""
    size = 1 << n
    j, k = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(2j * np.pi * j * k / size) / np.sqrt(size)


def random_circuit(n: int, n_gates: int, rng: np.random.Generator, kinds=None) -> Circuit:
    """Seeded random circuit over the full gate set (or a restriction)."""
    if kinds is None:
        kinds = list(GateKind)
    circuit = Circuit(n, global_phase=float(rng.uniform(-np.pi, np.pi)))
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind.arity > n:
            continue
        qubits = tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))
        angle = float(rng.uniform(-np.pi, np.pi)) if kind in PHASE_KINDS else None
        circuit.gates.append(Gate(kind, qubits, angle))
    return circuit


def centered_transform_matrix(grid: Grid) -> np.ndarray:
    """Dense kernel exp(-i p_j x_k)/sqrt(N): the reference that the circuit
    transform and the oracle's FFT form are tested against."""
    p = momentum_samples(grid)
    x = position_samples(grid)
    return np.exp(-1j * np.outer(p, x)) / math.sqrt(grid.n_samples)


def qate_phase_at(circuit, j: int) -> float:
    """Angle theta_j of the e^{-i theta_j} a QATE circuit realizes at
    half-index j, to a multiple of 2 pi: minus its global phase and minus
    every Phase and ControlledPhase angle whose qubits' bits of j are all set,
    qubit k being bit n-1-k of j."""
    n = circuit.n_qubits
    bit = lambda k: (j >> (n - 1 - k)) & 1
    phase = -circuit.global_phase
    phase -= sum(g.angle for g in circuit.gates if g.angle is not None and all(bit(k) for k in g.qubits))
    return phase


def reference_qwe_circuit(profile, window) -> Circuit:
    """`build_qwe_circuit` with every window bit read one index at a time,
    (j >> (n - 1 - k)) & 1 for qubit k, in Python loops: the reference that
    the encoder's per-qubit bit arrays are checked against, gate for gate
    and message for message, on palindromic profiles.  The greedy fit is the
    encoder's own."""
    half_size = len(profile.thetas) // 2
    n = half_size.bit_length()
    indices = sorted(window.indices)
    if indices[0] < 0 or indices[-1] >= half_size:
        raise InfeasibleWindow(f"window indices must lie in [0, {half_size})")
    budget = window.cp_budget if window.cp_budget is not None else n - 1
    bit = lambda j, k: (j >> (n - 1 - k)) & 1
    a_global = float(profile.thetas[0])
    target = np.array([profile.thetas[j] - a_global for j in indices], dtype=np.float64)
    active = [k for k in range(1, n) if any(bit(j, k) for j in indices)]
    columns = [np.array([bit(j, k) for j in indices], dtype=np.float64) for k in active]
    candidates = []
    for k in range(1, n):
        for l in range(k + 1, n):
            col = np.array([bit(j, k) & bit(j, l) for j in indices], dtype=np.float64)
            if col.any():
                candidates.append(((k, l), col))
    scale = max(1.0, float(np.max(np.abs(target))))
    chosen = []
    solution, residual = _lstsq_residual(columns, target)
    while residual > _EXACT_TOL * scale and len(chosen) < budget and candidates:
        best = None
        for idx, (pair, col) in enumerate(candidates):
            _, res = _lstsq_residual(columns + [col], target)
            if best is None or res < best[0] - 1e-15:
                best = (res, idx)
        pair, col = candidates.pop(best[1])
        chosen.append(pair)
        columns.append(col)
        solution, residual = _lstsq_residual(columns, target)
    if residual > _EXACT_TOL * scale:
        raise InfeasibleWindow(
            f"window cannot be matched with {len(active)} phase gates and {budget} controlled phases")
    ladder = build_qpa_shell(n) if (active or chosen) else Circuit(n)
    circuit = Circuit(n, global_phase=wrap_angle(-a_global))
    circuit.extend(ladder)
    alpha = {k: float(solution[pos]) for pos, k in enumerate(active)}
    beta = {pair: float(solution[len(active) + i]) for i, pair in enumerate(chosen)}
    _emit_phase_gates(circuit, alpha, dict(sorted(beta.items())))
    circuit.extend(ladder)
    return circuit


def swap_test_circuit(n: int) -> Circuit:
    """Width 2n+1: Hadamard on the ancilla (qubit 0), one controlled swap per
    register pair, closing Hadamard.  Pr(ancilla=0) = 1/2 + |<psi|phi>|^2 / 2.

    Simulating it costs O(4^n); it is the explicit cross-check of the closed
    form that `swap_test_estimate` samples from."""
    if n < 1:
        raise InvalidWidth(f"register width must be >= 1, got {n}")
    circuit = Circuit(2 * n + 1)
    circuit.h(0)
    for i in range(n):
        circuit.cswap(0, 1 + i, 1 + n + i)
    circuit.h(0)
    return circuit


def _hadamard_on_ancilla(joint: np.ndarray) -> np.ndarray:
    """H on the most significant qubit: the two halves become their sum and
    difference over sqrt(2)."""
    zero, one = np.split(joint, 2)
    return np.concatenate([zero + one, zero - one]) / math.sqrt(2)


def swap_test_probability(a: StateVector, b: StateVector) -> float:
    """Pr(ancilla=0) of `swap_test_circuit`, simulated with numpy alone on the
    2^(2n+1) joint vector |0>|a>|b>: H on the ancilla, the controlled swap
    as an index permutation, then H.  Swapping every register pair exchanges
    the two register values, so where the ancilla is 1 the amplitude at
    index i * 2^n + j moves to index j * 2^n + i."""
    if a.n_qubits != b.n_qubits:
        raise InvalidWidth("swap test requires equal register widths")
    size = 1 << a.n_qubits
    joint = np.concatenate([np.kron(a.amplitudes, b.amplitudes), np.zeros(size * size, dtype=complex)])
    joint = _hadamard_on_ancilla(joint)
    i, j = np.divmod(np.arange(size * size), size)
    joint[size * size + j * size + i] = joint[size * size:].copy()
    joint = _hadamard_on_ancilla(joint)
    return float(np.sum(np.abs(joint[:size * size]) ** 2))


def index_bitstring(index: int, n_qubits: int) -> str:
    """Basis index `index` as its `n_qubits`-bit binary string, qubit 0
    first: the reference for the bitstring column of the exported tables."""
    return format(index, f"0{n_qubits}b")


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def reference_write_table(path, header: list[str], columns) -> None:
    """Row-by-row, cell-by-cell CSV writer: the reference for
    `cli.write_table`, which formats column slices and reuses the text
    of mirrored rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(_reference_cell, row)) + "\n")
