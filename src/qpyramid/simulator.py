"""Dense statevector engine: gate kernels, unitary/diagonal extraction, sampling.

Amplitude arrays are complex128 of length 2^n with qubit 0 as the most
significant bit of the basis index.  Gate kernels reshape to a rank-n tensor
(one axis per qubit, optional trailing batch axis) and update slices in place,
so the same code paths drive single states and column-batched unitaries.

Randomness comes from numpy's PCG64 via `RandomSource`; identical seeds give
bitwise-identical sample streams on every platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, CircuitError, Gate, GateKind, InvalidWidth, validate

_SQRT2_INV = 1.0 / math.sqrt(2.0)
NORM_TOL = 1e-10
DIAG_TOL = 1e-10
UNITARY_MAX_QUBITS = 12


class WidthTooLarge(CircuitError):
    """Full-unitary extraction requested beyond the resource guard."""


class NotDiagonal(CircuitError):
    """Diagonal extraction requested for a circuit with off-diagonal weight."""


@dataclass
class StateVector:
    """Unit-norm complex amplitudes over 2^n basis states (qubit 0 = MSB)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if self.amplitudes.shape[0] != 1 << self.n_qubits:
            raise InvalidWidth(
                f"expected {1 << self.n_qubits} amplitudes for {self.n_qubits} qubits, got {self.amplitudes.shape[0]}"
            )
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")

    @staticmethod
    def zero_state(n_qubits: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return StateVector(n_qubits, amps)

    @staticmethod
    def basis_state(n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return StateVector(n_qubits, amps)

    @staticmethod
    def from_amplitudes(raw, normalize: bool = False) -> "StateVector":
        amps = np.asarray(raw, dtype=np.complex128).reshape(-1)
        n = int(round(math.log2(amps.shape[0])))
        if 1 << n != amps.shape[0]:
            raise InvalidWidth(f"amplitude count {amps.shape[0]} is not a power of two")
        if normalize:
            amps = amps / np.linalg.norm(amps)
        return StateVector(n, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class Histogram:
    """Measurement counts keyed by basis index; counts sum to `shots`."""

    shots: int
    counts: dict[int, int]

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts do not sum to shots")


@dataclass
class RandomSource:
    """Seeded PCG64 stream; the same seed always reproduces the same draws."""

    seed: int
    _generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._generator = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def multinomial(self, trials: int, probabilities: np.ndarray) -> np.ndarray:
        return self._generator.multinomial(trials, probabilities)

    def binomial(self, trials: int, probability: float) -> int:
        return int(self._generator.binomial(trials, probability))


def _apply_gate_tensor(tensor: np.ndarray, gate: Gate, n: int) -> None:
    """Mutate a tensor with qubit axes 0..n-1 (plus optional batch axes) in place."""
    kind = gate.kind
    if kind is GateKind.PHASE:
        v = np.moveaxis(tensor, gate.qubits[0], 0)
        v[1] *= np.exp(1j * gate.angle)
    elif kind is GateKind.CONTROLLED_PHASE:
        v = np.moveaxis(tensor, gate.qubits, (0, 1))
        v[1, 1] *= np.exp(1j * gate.angle)
    elif kind is GateKind.ROTATION_Z:
        v = np.moveaxis(tensor, gate.qubits[0], 0)
        v[0] *= np.exp(-0.5j * gate.angle)
        v[1] *= np.exp(0.5j * gate.angle)
    elif kind is GateKind.CONTROLLED_NOT:
        v = np.moveaxis(tensor, gate.qubits, (0, 1))
        v[1, 0], v[1, 1] = v[1, 1].copy(), v[1, 0].copy()
    elif kind is GateKind.PAULI_X:
        v = np.moveaxis(tensor, gate.qubits[0], 0)
        v[0], v[1] = v[1].copy(), v[0].copy()
    elif kind is GateKind.HADAMARD:
        v = np.moveaxis(tensor, gate.qubits[0], 0)
        lo = v[0].copy()
        hi = v[1].copy()
        v[0] = (lo + hi) * _SQRT2_INV
        v[1] = (lo - hi) * _SQRT2_INV
    elif kind is GateKind.SWAP:
        v = np.moveaxis(tensor, gate.qubits, (0, 1))
        v[0, 1], v[1, 0] = v[1, 0].copy(), v[0, 1].copy()
    elif kind is GateKind.CONTROLLED_SWAP:
        v = np.moveaxis(tensor, gate.qubits, (0, 1, 2))
        v[1, 0, 1], v[1, 1, 0] = v[1, 1, 0].copy(), v[1, 0, 1].copy()
    else:  # pragma: no cover
        raise CircuitError(f"unhandled gate kind {kind}")


def _apply_circuit_raw(amplitudes: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply a validated circuit to a raw array (any norm); returns a new array."""
    n = circuit.n_qubits
    batch = amplitudes.shape[1:]
    out = amplitudes.astype(np.complex128, copy=True)
    tensor = out.reshape([2] * n + list(batch))
    for gate in circuit.gates:
        _apply_gate_tensor(tensor, gate, n)
    if circuit.global_phase != 0.0:
        out *= np.exp(1j * circuit.global_phase)
    return out


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate; pure (the input state is untouched)."""
    single = Circuit(state.n_qubits, [gate])
    validate(single)
    return StateVector(state.n_qubits, _apply_circuit_raw(state.amplitudes, single))


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply all gates in order, then the global phase e^{i*global_phase}."""
    validate(circuit)
    if circuit.n_qubits != initial.n_qubits:
        raise InvalidWidth(f"circuit width {circuit.n_qubits} != state width {initial.n_qubits}")
    return StateVector(circuit.n_qubits, _apply_circuit_raw(initial.amplitudes, circuit))


def extract_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix; column j is the circuit applied to basis state j."""
    validate(circuit)
    n = circuit.n_qubits
    if n > UNITARY_MAX_QUBITS:
        raise WidthTooLarge(f"unitary extraction capped at {UNITARY_MAX_QUBITS} qubits, got {n}")
    dim = 1 << n
    return _apply_circuit_raw(np.eye(dim, dtype=np.complex128), circuit)


def _is_basis_permutation_identity(circuit: Circuit) -> bool:
    """Track the GF(2)-affine basis map b -> M.b + c induced by X/CX/Swap gates;
    True iff it composes to the identity (phase-type gates are ignored).
    Hadamard and controlled swap are not trackable here and fail conservatively."""
    n = circuit.n_qubits
    matrix = np.eye(n, dtype=np.uint8)  # output bit q = row q . input bits (mod 2)
    offset = np.zeros(n, dtype=np.uint8)
    for gate in circuit.gates:
        kind = gate.kind
        if kind in (GateKind.PHASE, GateKind.CONTROLLED_PHASE, GateKind.ROTATION_Z):
            continue
        if kind is GateKind.PAULI_X:
            offset[gate.qubits[0]] ^= 1
        elif kind is GateKind.CONTROLLED_NOT:
            c, t = gate.qubits
            matrix[t] ^= matrix[c]
            offset[t] ^= offset[c]
        elif kind is GateKind.SWAP:
            a, b = gate.qubits
            matrix[[a, b]] = matrix[[b, a]]
            offset[[a, b]] = offset[[b, a]]
        else:
            return False
    return bool(np.array_equal(matrix, np.eye(n, dtype=np.uint8)) and not offset.any())


def extract_diagonal(circuit: Circuit) -> np.ndarray:
    """Main diagonal of a diagonal circuit, verified against off-diagonal leakage.

    For n <= 12 the full unitary is checked entry-by-entry; for wider circuits
    the basis permutation induced by X/CX/Swap gates must compose to identity.
    """
    validate(circuit)
    n = circuit.n_qubits
    if n <= UNITARY_MAX_QUBITS:
        matrix = extract_unitary(circuit)
        diag = np.diag(matrix).copy()
        off = matrix - np.diag(diag)
        worst = float(np.max(np.abs(off))) if off.size else 0.0
        if worst >= DIAG_TOL:
            raise NotDiagonal(f"off-diagonal magnitude {worst} exceeds {DIAG_TOL}")
        return diag
    if not _is_basis_permutation_identity(circuit):
        raise NotDiagonal("basis states are not mapped to themselves up to phase")
    ones = np.ones(1 << n, dtype=np.complex128)
    return _apply_circuit_raw(ones, circuit)


def sample(state: StateVector, shots: int, rng: RandomSource) -> Histogram:
    """Multinomial draw from |amplitude|^2; deterministic given the seed."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = state.probabilities()
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    return Histogram(shots, {int(i): int(c) for i, c in enumerate(counts) if c > 0})


def fidelity_exact(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise InvalidWidth(f"state widths differ: {a.n_qubits} vs {b.n_qubits}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def index_bitstring(index: int, n_qubits: int) -> str:
    return format(index, f"0{n_qubits}b")


def write_statevector_csv(state: StateVector, path) -> None:
    """Columns: index, bitstring, real, imag, probability (round-trip floats)."""
    lines = ["index,bitstring,real,imag,probability"]
    for i, amp in enumerate(state.amplitudes):
        lines.append(
            f"{i},{index_bitstring(i, state.n_qubits)},{float(amp.real)!r},{float(amp.imag)!r},{float(abs(amp) ** 2)!r}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_histogram_csv(histogram: Histogram, n_qubits: int, path) -> None:
    """Columns: bitstring, count, frequency; all 2^n outcomes are listed."""
    lines = ["bitstring,count,frequency"]
    for i in range(1 << n_qubits):
        count = histogram.counts.get(i, 0)
        lines.append(f"{index_bitstring(i, n_qubits)},{count},{count / histogram.shots!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
