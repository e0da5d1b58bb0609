"""Circuit IR: gate kinds, validation, gate-count/depth metrics, JSON serialization.

Conventions used throughout the package:
    - qubit 0 is the MOST significant bit of a basis-state index (big-endian),
    - Phase(phi) = diag(1, e^{i phi}), RotationZ(lmbda) = diag(e^{-i lmbda/2}, e^{+i lmbda/2}),
    - a circuit's global phase multiplies the final state by e^{i global_phase}.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum


class CircuitError(ValueError):
    """Base class for circuit construction/validation errors."""


class IndexOutOfRange(CircuitError):
    """A gate addresses a qubit index >= circuit width."""


class DuplicateQubit(CircuitError):
    """A gate lists the same qubit more than once."""


class ArityMismatch(CircuitError):
    """Qubit count or angle presence does not match the gate kind."""


class InvalidWidth(CircuitError):
    """Operation requested for an unsupported qubit count."""


def exact_int(value, error: type[ValueError], what: str, low: int | None = None) -> int:
    """`value` as a Python int, for every integer input: any integer type is
    accepted; a bool, a float (even 1.0), a string or a value below `low`
    raises `error`."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if low is None or number >= low:
                return number
            raise error(f"{what} must be >= {low}, got {number}")
    raise error(f"{what} {value!r} is not an integer")


def is_finite_real(value) -> bool:
    """Whether `value` is a finite real number and not a bool."""
    try:
        return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def finite_real(value, error: type[ValueError], what: str, sign: str | None = None) -> float:
    """`value` as a Python float, for every real input: a bool, a string or
    other non-real, NaN or an infinity raises `error`, and so does a value
    that is not of `sign`, "positive" (> 0) or "nonnegative" (>= 0)."""
    if is_finite_real(value):
        number = float(value)
        if sign is None or (number > 0 if sign == "positive" else number >= 0):
            return number
        raise error(f"{what} must be {sign}, got {number}")
    raise error(f"{what} must be a finite real number, got {value!r}")


class GateKind(Enum):
    PAULI_X = "PauliX"
    HADAMARD = "Hadamard"
    PHASE = "Phase"
    CONTROLLED_PHASE = "ControlledPhase"
    CONTROLLED_NOT = "ControlledNot"
    SWAP = "Swap"
    CONTROLLED_SWAP = "ControlledSwap"
    ROTATION_Z = "RotationZ"

    @property
    def arity(self) -> int:
        return _ARITY[self]


# the diagonal kinds, the only ones that take an angle
PHASE_KINDS = frozenset((GateKind.PHASE, GateKind.CONTROLLED_PHASE, GateKind.ROTATION_Z))

_ARITY = {
    GateKind.PAULI_X: 1,
    GateKind.HADAMARD: 1,
    GateKind.PHASE: 1,
    GateKind.ROTATION_Z: 1,
    GateKind.CONTROLLED_PHASE: 2,
    GateKind.CONTROLLED_NOT: 2,
    GateKind.SWAP: 2,
    GateKind.CONTROLLED_SWAP: 3,
}


@dataclass(frozen=True)
class Gate:
    """One gate application. Controls come first in `qubits`; `angle` in radians."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        try:
            qubits = tuple(exact_int(q, CircuitError, "qubit") for q in self.qubits)
        except TypeError:
            raise CircuitError(f"gate qubits {self.qubits!r} are not a sequence") from None
        object.__setattr__(self, "qubits", qubits)


@dataclass
class Circuit:
    """Ordered gate list over `n_qubits` wires plus a global phase (radians).

    Built with the fluent helpers below.  `simulator.run` keeps the plan it
    compiles in `_plan` and reuses it while the width, global phase and gates
    still equal the plan's snapshot, so an edited circuit is recompiled.
    """

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    global_phase: float = 0.0
    _plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n_qubits = exact_int(self.n_qubits, InvalidWidth, "n_qubits")

    def _add(self, kind: GateKind, qubits: tuple[int, ...], angle: float | None = None) -> "Circuit":
        self.gates.append(Gate(kind, qubits, angle))
        return self

    def x(self, q: int) -> "Circuit":
        return self._add(GateKind.PAULI_X, (q,))

    def h(self, q: int) -> "Circuit":
        return self._add(GateKind.HADAMARD, (q,))

    def p(self, q: int, phi: float) -> "Circuit":
        return self._add(GateKind.PHASE, (q,), phi)

    def rz(self, q: int, lmbda: float) -> "Circuit":
        return self._add(GateKind.ROTATION_Z, (q,), lmbda)

    def cp(self, control: int, target: int, phi: float) -> "Circuit":
        return self._add(GateKind.CONTROLLED_PHASE, (control, target), phi)

    def cx(self, control: int, target: int) -> "Circuit":
        return self._add(GateKind.CONTROLLED_NOT, (control, target))

    def swap(self, a: int, b: int) -> "Circuit":
        return self._add(GateKind.SWAP, (a, b))

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        return self._add(GateKind.CONTROLLED_SWAP, (control, a, b))

    def extend(self, other: "Circuit") -> "Circuit":
        """Append another circuit's gates and add its global phase. Widths must match."""
        if other.n_qubits != self.n_qubits:
            raise InvalidWidth(f"cannot extend width {self.n_qubits} with width {other.n_qubits}")
        self.gates.extend(other.gates)
        self.global_phase += other.global_phase
        return self


@dataclass(frozen=True)
class GateMetrics:
    one_qubit_count: int
    two_qubit_count: int
    three_qubit_count: int
    total: int
    depth: int


def validate(circuit: Circuit) -> None:
    """Raise the typed CircuitError of the first invariant violation, if any."""
    exact_int(circuit.n_qubits, InvalidWidth, "n_qubits", low=1)
    if not is_finite_real(circuit.global_phase):
        raise CircuitError(f"global_phase {circuit.global_phase!r} is not a finite number")
    if not isinstance(circuit.gates, (list, tuple)):
        raise CircuitError(f"gates {circuit.gates!r} is not a list of Gates")
    for i, gate in enumerate(circuit.gates):
        if not (isinstance(gate, Gate) and isinstance(gate.kind, GateKind)):
            raise CircuitError(f"gate {i} is {gate!r}, not a Gate of a GateKind")
        if len(gate.qubits) != gate.kind.arity:
            raise ArityMismatch(f"gate {i} ({gate.kind.value}) expects {gate.kind.arity} qubits, got {len(gate.qubits)}")
        if gate.kind in PHASE_KINDS:
            if not is_finite_real(gate.angle):
                raise ArityMismatch(f"gate {i} ({gate.kind.value}) requires a finite angle")
        elif gate.angle is not None:
            raise ArityMismatch(f"gate {i} ({gate.kind.value}) takes no angle")
        if len(set(gate.qubits)) != len(gate.qubits):
            raise DuplicateQubit(f"gate {i} ({gate.kind.value}) repeats a qubit: {gate.qubits}")
        for q in gate.qubits:
            if not 0 <= q < circuit.n_qubits:
                raise IndexOutOfRange(f"gate {i} ({gate.kind.value}) touches qubit {q} outside width {circuit.n_qubits}")


def count_gates(circuit: Circuit) -> GateMetrics:
    """Count gates by arity and compute depth as greedy ASAP layers.

    A gate lands in layer 1 + max(previous layer over its qubits); gates in one
    layer act on pairwise-disjoint qubits and per-qubit program order is kept.
    """
    validate(circuit)
    counts = [0, 0, 0]
    frontier = [0] * circuit.n_qubits
    depth = 0
    for gate in circuit.gates:
        counts[gate.kind.arity - 1] += 1
        layer = 1 + max(frontier[q] for q in gate.qubits)
        for q in gate.qubits:
            frontier[q] = layer
        depth = max(depth, layer)
    return GateMetrics(counts[0], counts[1], counts[2], sum(counts), depth)


def qate_gate_count(n: int) -> GateMetrics:
    """Metrics of `build_qate_circuit` for `n` qubits, in closed form.

    1q = n-1 phase gates; 2q = C(n-1,2) controlled phases + 2(n-1) ladder CX.
    ASAP depth is 2n: the left ladder runs in series on qubit 0, so qubit k
    ends at layer k; its phase lands at k+1, CP(k, l) at k+l+1, and the right
    ladder's CX(0, k) at n+k+1, the last at 2n.  At n = 2 there is no pair, so
    the circuit is ladder, phase, ladder: depth 3.
    """
    n = exact_int(n, InvalidWidth, "n", low=2)
    one_qubit, two_qubit = n - 1, math.comb(n - 1, 2) + 2 * (n - 1)
    return GateMetrics(one_qubit, two_qubit, 0, one_qubit + two_qubit, 2 * n if n > 2 else 3)


def baseline_gate_count(n: int) -> int:
    """Reference total gate count 3n + C(n,2) of the prior step-by-step construction."""
    n = exact_int(n, InvalidWidth, "n", low=1)
    return 3 * n + math.comb(n, 2)


def circuit_to_dict(circuit: Circuit) -> dict:
    """The circuit as plain JSON values; a malformed circuit raises the
    CircuitError `validate` gives it."""
    validate(circuit)
    gates = []
    for g in circuit.gates:
        entry: dict = {"kind": g.kind.value, "qubits": list(g.qubits)}
        if g.angle is not None:
            entry["angle"] = g.angle
        gates.append(entry)
    return {"n_qubits": circuit.n_qubits, "global_phase": circuit.global_phase, "gates": gates}


def circuit_to_json(circuit: Circuit) -> str:
    """Serialize with full round-trip float precision and preserved gate order."""
    return json.dumps(circuit_to_dict(circuit), indent=2)


def circuit_from_json(text: str) -> Circuit:
    """The circuit `circuit_to_json` wrote.  Malformed JSON, a missing field,
    an unknown gate kind or a value of the wrong type raises CircuitError."""
    try:
        data = json.loads(text)
        gates = [Gate(GateKind(g["kind"]), g["qubits"], g.get("angle")) for g in data["gates"]]
        phase = finite_real(data.get("global_phase", 0.0), CircuitError, "global_phase")
        circuit = Circuit(data["n_qubits"], gates, phase)
    except CircuitError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise CircuitError(f"malformed circuit JSON: {err!r}") from err
    validate(circuit)
    return circuit


def build_qft(n: int, inverse: bool = False) -> Circuit:
    """Fourier transform circuit whose matrix is omega^{jk}/sqrt(2^n) with
    omega = e^{2 pi i / 2^n} under the big-endian convention; `inverse` gives
    the conjugate transpose.  The simulator's compiler matches a Fourier block
    against these gates by value."""
    n = exact_int(n, InvalidWidth, "n", low=1)
    gates = []
    for t in range(n):
        gates.append(Gate(GateKind.HADAMARD, (t,)))
        gates += [Gate(GateKind.CONTROLLED_PHASE, (c, t), 2.0 * math.pi / (1 << (c - t + 1)))
                  for c in range(t + 1, n)]
    gates += [Gate(GateKind.SWAP, (q, n - 1 - q)) for q in range(n // 2)]
    if inverse:
        gates = [Gate(g.kind, g.qubits, None if g.angle is None else -g.angle) for g in reversed(gates)]
    return Circuit(n, gates)


def wrap_angle(angle: float) -> float:
    """Reduce an angle modulo 2*pi into (-pi, pi]; an angle already there is
    returned as it is.  From 2^52 in magnitude on, float64 spacing is at
    least 1 rad, so no phase is left to reduce, and such an angle (or a
    non-finite one) raises CircuitError."""
    if not abs(angle) < 2.0 ** 52:
        raise CircuitError(f"angle {angle!r} is too large to reduce modulo 2*pi (|angle| must be below 2^52)")
    wrapped = angle - 2.0 * math.pi * math.ceil((angle - math.pi) / (2.0 * math.pi))
    # the rounded quotient and product can leave it less than a turn outside
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped
