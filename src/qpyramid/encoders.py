"""Diagonal-unitary builders: CX-ladder reflection shell, exact/windowed phase
encoders, step-potential rotations, and the quantum Fourier transform.

Encoding scheme.  A diagonal payload on qubits 1..n-1, conjugated by CX ladders
controlled on qubit 0, realizes a palindromic diagonal: the payload fixes the
first 2^{n-1} entries and the ladders mirror them onto the second half.  Within
the half space, half-index j assigns qubit k the bit of weight 2^{n-1-k}, so a
phase gate on qubit k shifts exactly the indices with that bit set, and a
controlled phase on (k, l) shifts indices with both bits set.  Interpolating a
target angle array at the indices of popcount <= 2 therefore reproduces any
profile that is a degree-two polynomial of the half-index exactly (bits are
idempotent), which covers every quadratic kinetic profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, InvalidWidth, wrap_angle
from .grids import GridError, PhaseProfile

_EXACT_TOL = 1e-9


class InfeasibleWindow(CircuitError):
    """Window positions over-constrain the available phase/controlled-phase terms."""


def _half_bit(j: int, n: int, qubit: int) -> int:
    return (j >> (n - 1 - qubit)) & 1


@dataclass(frozen=True)
class QateCoefficients:
    """Solved encoding of a half profile: one global angle, per-qubit linear
    angles alpha[k] (k = 1..n-1), and per-pair quadratic angles beta[(k, l)]."""

    n_qubits: int
    a_global: float
    alpha: dict[int, float]
    beta: dict[tuple[int, int], float]

    def __post_init__(self):
        n = self.n_qubits
        if sorted(self.alpha) != list(range(1, n)):
            raise InvalidWidth(f"alpha must cover qubits 1..{n - 1}")
        expected_pairs = [(k, l) for k in range(1, n) for l in range(k + 1, n)]
        if sorted(self.beta) != expected_pairs:
            raise InvalidWidth(f"beta must cover all qubit pairs of 1..{n - 1}")
        values = [self.a_global, *self.alpha.values(), *self.beta.values()]
        if not all(math.isfinite(v) for v in values):
            raise CircuitError("coefficients must be finite")


def _interpolate_quadratic(
    theta: np.ndarray, n: int, first: int
) -> tuple[float, dict[int, float], dict[tuple[int, int], float]]:
    """Interpolate `theta` at its popcount <= 2 indices over qubits first..n-1,
    where qubit q's bit has weight w_q = 2^(n-1-q):

    a = theta[0]; alpha[q] = theta[w_q] - a;
    beta[(q,r)] = theta[w_q + w_r] - alpha[q] - alpha[r] - a  (q < r).
    """
    weight = {q: 1 << (n - 1 - q) for q in range(first, n)}
    a = float(theta[0])
    alpha = {q: float(theta[w]) - a for q, w in weight.items()}
    beta = {(q, r): float(theta[weight[q] + weight[r]]) - alpha[q] - alpha[r] - a
            for q in weight for r in weight if q < r}
    return a, alpha, beta


def _emit_phase_gates(
    circuit: Circuit, alpha: dict[int, float], beta: dict[tuple[int, int], float]
) -> Circuit:
    """Append Phase(q, -alpha[q]) and then CPhase(q, r, -beta[(q,r)]), each in
    the dicts' order."""
    for q, angle in alpha.items():
        circuit.p(q, wrap_angle(-angle))
    for (q, r), angle in beta.items():
        circuit.cp(q, r, wrap_angle(-angle))
    return circuit


def solve_qate(profile_half: PhaseProfile) -> QateCoefficients:
    """Interpolate a half profile at the popcount <= 2 half-indices, over the
    payload qubits 1..n-1 (`_interpolate_quadratic`)."""
    if profile_half.span != "half":
        raise GridError("solve_qate expects a half-span profile")
    theta = profile_half.thetas
    length = len(theta)
    n = int(round(math.log2(length))) + 1
    if 1 << (n - 1) != length or n < 2:
        raise InvalidWidth(f"half profile length {length} is not 2^(n-1) with n >= 2")
    return QateCoefficients(n, *_interpolate_quadratic(theta, n, first=1))


def qate_phase_at(coeffs: QateCoefficients, j: int) -> float:
    """Phase the encoder realizes at half-index j (before the e^{-i...} sign)."""
    n = coeffs.n_qubits
    phase = coeffs.a_global
    phase += sum(a for k, a in coeffs.alpha.items() if _half_bit(j, n, k))
    phase += sum(
        b for (k, l), b in coeffs.beta.items() if _half_bit(j, n, k) and _half_bit(j, n, l)
    )
    return phase


def build_qpa_shell(n: int) -> tuple[Circuit, Circuit]:
    """Left and right CX ladders (control qubit 0, targets 1..n-1).

    Conjugating any diagonal payload on qubits 1..n-1 with these ladders mirrors
    the payload's first-half diagonal onto the second half in reverse order.
    """
    if n < 2:
        raise InvalidWidth(f"reflection shell needs n >= 2, got {n}")
    left = Circuit(n)
    right = Circuit(n)
    for k in range(1, n):
        left.cx(0, k)
        right.cx(0, k)
    return left, right


def build_qate_circuit(n: int, coeffs: QateCoefficients) -> Circuit:
    """ladder . [Phase(k, -alpha[k]); CPhase(k, l, -beta[(k,l)])] . ladder,
    global phase -a_global.  Gate order matches the canonical template, so the
    counts agree with qate_gate_count(n) for every coefficient set."""
    if coeffs.n_qubits != n:
        raise InvalidWidth(f"coefficients sized for n={coeffs.n_qubits}, circuit wants n={n}")
    left, right = build_qpa_shell(n)
    circuit = Circuit(n, left.gates, wrap_angle(-coeffs.a_global))
    _emit_phase_gates(circuit, coeffs.alpha, coeffs.beta)
    circuit.gates += right.gates  # not extend(): that would turn a -0.0 global phase into 0.0
    return circuit


@dataclass(frozen=True)
class WindowSpec:
    """Half-indices that must be reproduced exactly, plus a controlled-phase cap."""

    indices: frozenset[int]
    cp_budget: int | None = None  # None -> n-1 at build time

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(int(i) for i in self.indices))
        if not self.indices:
            raise InfeasibleWindow("window needs at least one index")
        if self.cp_budget is not None and self.cp_budget < 0:
            raise InfeasibleWindow("cp_budget must be nonnegative")


def _lstsq_residual(columns: list[np.ndarray], target: np.ndarray) -> tuple[np.ndarray, float]:
    matrix = np.stack(columns, axis=1) if columns else np.zeros((len(target), 0))
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    residual = float(np.max(np.abs(matrix @ solution - target))) if len(target) else 0.0
    return solution, residual


def build_qwe_circuit(n: int, profile_half: PhaseProfile, window: WindowSpec) -> Circuit:
    """Windowed encoder: exact on `window.indices`, unconstrained elsewhere.

    Anchors the global phase at theta[0], emits one phase gate per qubit whose
    bit varies over the window, then adds controlled-phase pairs greedily (best
    residual first, canonical order on ties) until the window interpolates
    exactly or the budget runs out.
    """
    if profile_half.span != "half":
        raise GridError("build_qwe_circuit expects a half-span profile")
    theta = profile_half.thetas
    half_size = 1 << (n - 1)
    if len(theta) != half_size:
        raise InvalidWidth(f"half profile length {len(theta)} != {half_size}")
    indices = sorted(window.indices)
    if indices[0] < 0 or indices[-1] >= half_size:
        raise InfeasibleWindow(f"window indices must lie in [0, {half_size})")
    budget = window.cp_budget if window.cp_budget is not None else n - 1

    a_global = float(theta[0])
    target = np.array([theta[j] - a_global for j in indices], dtype=np.float64)

    active = [k for k in range(1, n) if any(_half_bit(j, n, k) for j in indices)]
    columns = [
        np.array([_half_bit(j, n, k) for j in indices], dtype=np.float64) for k in active
    ]
    candidate_pairs = []
    for k in range(1, n):
        for l in range(k + 1, n):
            col = np.array(
                [_half_bit(j, n, k) & _half_bit(j, n, l) for j in indices], dtype=np.float64
            )
            if col.any():
                candidate_pairs.append(((k, l), col))

    scale = max(1.0, float(np.max(np.abs(target))) if len(target) else 1.0)
    chosen: list[tuple[int, int]] = []
    solution, residual = _lstsq_residual(columns, target)
    while residual > _EXACT_TOL * scale and len(chosen) < budget and candidate_pairs:
        best = None
        for idx, (pair, col) in enumerate(candidate_pairs):
            _, res = _lstsq_residual(columns + [col], target)
            if best is None or res < best[0] - 1e-15:
                best = (res, idx)
        res, idx = best
        pair, col = candidate_pairs.pop(idx)
        chosen.append(pair)
        columns.append(col)
        solution, residual = _lstsq_residual(columns, target)
    if residual > _EXACT_TOL * scale:
        raise InfeasibleWindow(
            f"window cannot be matched with {len(active)} phase gates and {budget} controlled phases"
        )

    left, right = build_qpa_shell(n) if (active or chosen) else (Circuit(n), Circuit(n))
    circuit = Circuit(n, global_phase=wrap_angle(-a_global))
    circuit.extend(left)
    alpha = {k: float(solution[pos]) for pos, k in enumerate(active)}
    beta = {pair: float(solution[len(active) + i]) for i, pair in enumerate(chosen)}
    _emit_phase_gates(circuit, alpha, dict(sorted(beta.items())))
    circuit.extend(right)
    return circuit


def build_direct_diagonal(n: int, profile_full: PhaseProfile) -> Circuit:
    """Degree-two multilinear encoder over full indices, without the reflection
    shell: phase gates on all n qubits plus controlled phases on all pairs.
    Exact whenever the profile is quadratic in the full index."""
    if profile_full.span != "full":
        raise GridError("build_direct_diagonal expects a full-span profile")
    theta = profile_full.thetas
    if len(theta) != 1 << n:
        raise InvalidWidth(f"full profile length {len(theta)} != {1 << n}")
    a_global, alpha, beta = _interpolate_quadratic(theta, n, first=0)
    return _emit_phase_gates(Circuit(n, global_phase=wrap_angle(-a_global)), alpha, beta)


def build_potential_circuit(n: int, spec, dt: float, r: int) -> Circuit:
    """Step-potential factor e^{-i eta Z dt/r} at each position qubit of `spec`.

    RotationZ(lmbda) = diag(e^{-i lmbda/2}, e^{+i lmbda/2}), so each placement is
    RotationZ(2 eta dt / r).  Single/double/multi variants differ only by the
    qubit the rotation sits on.
    """
    if r not in (1, 2):
        raise InvalidWidth(f"split factor r must be 1 or 2, got {r}")
    circuit = Circuit(n)
    if spec.kind == "none":
        return circuit
    for q in spec.qubit_positions:
        if not 0 <= q < n:
            raise IndexError(f"potential qubit {q} outside width {n}")
        circuit.rz(q, 2.0 * spec.eta * dt / r)
    return circuit


def build_qft(n: int, inverse: bool = False) -> Circuit:
    """Fourier transform circuit whose matrix is omega^{jk}/sqrt(2^n) with
    omega = e^{2 pi i / 2^n} under the big-endian convention; `inverse` gives
    the conjugate transpose."""
    if n < 1:
        raise InvalidWidth(f"transform needs n >= 1, got {n}")
    forward = Circuit(n)
    for t in range(n):
        forward.h(t)
        for c in range(t + 1, n):
            forward.cp(c, t, 2.0 * math.pi / (1 << (c - t + 1)))
    for q in range(n // 2):
        forward.swap(q, n - 1 - q)
    if not inverse:
        return forward
    inv = Circuit(n)
    for gate in reversed(forward.gates):
        angle = None if gate.angle is None else -gate.angle
        inv.gates.append(type(gate)(gate.kind, gate.qubits, angle))
    return inv

