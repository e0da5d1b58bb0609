"""Diagonal-unitary builders: CX-ladder reflection shell, exact/windowed phase
encoders and step-potential rotations.  `build_qft` lives in `circuit`, where
the simulator's compiler reads its gate tuple, and is re-exported here.

Encoding scheme.  A diagonal payload on qubits 1..n-1 between two copies of one
CX ladder controlled on qubit 0 realizes a palindromic diagonal: the payload
fixes the first 2^{n-1} entries and the ladders mirror them onto the second
half.  Within the half space, half-index j assigns qubit k the bit of weight
2^{n-1-k}, so a phase gate on qubit k shifts exactly the indices with that bit
set, and a controlled phase on (k, l) shifts indices with both bits set.
Interpolating a target angle array at the indices of popcount <= 2 therefore
reproduces any profile that is a degree-two polynomial of the half-index
exactly (bits are idempotent), which covers every quadratic kinetic profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, InvalidWidth, build_qft, exact_int, finite_real, wrap_angle
from .grids import GridError, PhaseProfile, PotentialSpec

_EXACT_TOL = 1e-9


class InfeasibleWindow(CircuitError):
    """Window positions over-constrain the available phase/controlled-phase terms."""


@dataclass(frozen=True)
class QateCoefficients:
    """Solved encoding of a half profile: one global angle, per-qubit linear
    angles alpha[k] (k = 1..n-1), and per-pair quadratic angles beta[(k, l)]."""

    n_qubits: int
    a_global: float
    alpha: dict[int, float]
    beta: dict[tuple[int, int], float]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", exact_int(self.n_qubits, InvalidWidth, "n_qubits", low=2))
        n = self.n_qubits
        if not isinstance(self.alpha, dict) or self.alpha.keys() != set(range(1, n)):
            raise InvalidWidth(f"alpha must cover qubits 1..{n - 1}")
        pairs = {(k, l) for k in range(1, n) for l in range(k + 1, n)}
        if not isinstance(self.beta, dict) or self.beta.keys() != pairs:
            raise InvalidWidth(f"beta must cover all qubit pairs of 1..{n - 1}")
        object.__setattr__(self, "a_global", finite_real(self.a_global, CircuitError, "a_global"))
        # new dicts in the same order, which sets the gate order; a key that only
        # equals a qubit index, such as 1.0 or True, is not an integer
        object.__setattr__(self, "alpha", {exact_int(k, InvalidWidth, "alpha qubit"):
                                           finite_real(a, CircuitError, "alpha") for k, a in self.alpha.items()})
        object.__setattr__(self, "beta", {tuple(exact_int(q, InvalidWidth, "beta qubit") for q in pair):
                                          finite_real(b, CircuitError, "beta") for pair, b in self.beta.items()})


def _interpolate_quadratic(profile: PhaseProfile) -> tuple[float, dict[int, float], dict[tuple[int, int], float]]:
    """Interpolate theta at its popcount <= 2 indices over the qubits its
    index spans, 0..n-1 for a full profile and 1..n-1 for a half one, where
    qubit q's bit has weight w_q = 2^(n-1-q):

    a = theta[0]; alpha[q] = theta[w_q] - a;
    beta[(q,r)] = theta[w_q + w_r] - alpha[q] - alpha[r] - a  (q < r).
    """
    theta, n = profile.thetas, profile.n_qubits
    weight = {q: 1 << (n - 1 - q) for q in range(profile.span == "half", n)}
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
    payload qubits 1..n-1 (`_interpolate_quadratic`), at the profile's width
    n; `QateCoefficients` needs n >= 2."""
    if profile_half.span != "half":
        raise GridError("solve_qate expects a half-span profile")
    return QateCoefficients(profile_half.n_qubits, *_interpolate_quadratic(profile_half))


def build_qpa_shell(n: int) -> Circuit:
    """The CX ladder (control qubit 0, targets 1..n-1), its own inverse.

    A diagonal payload on qubits 1..n-1 with this ladder on both sides mirrors
    the payload's first-half diagonal onto the second half in reverse order.
    """
    n = exact_int(n, InvalidWidth, "n", low=2)
    ladder = Circuit(n)
    for k in range(1, n):
        ladder.cx(0, k)
    return ladder


def build_qate_circuit(coeffs: QateCoefficients) -> Circuit:
    """ladder . [Phase(k, -alpha[k]); CPhase(k, l, -beta[(k,l)])] . ladder, with
    the one `build_qpa_shell(n)` ladder at n = coeffs.n_qubits, global phase
    -a_global.  The gate order does not depend on the coefficients, so the
    counts agree with qate_gate_count(n) for every coefficient set."""
    n = coeffs.n_qubits
    ladder = build_qpa_shell(n).gates
    circuit = Circuit(n, list(ladder), wrap_angle(-coeffs.a_global))
    _emit_phase_gates(circuit, coeffs.alpha, coeffs.beta)
    circuit.gates += ladder  # not extend(): that would turn a -0.0 global phase into 0.0
    return circuit


@dataclass(frozen=True)
class WindowSpec:
    """Half-indices that must be reproduced exactly, plus a controlled-phase cap."""

    indices: frozenset[int]
    cp_budget: int | None = None  # None -> n-1 at build time

    def __post_init__(self):
        try:
            indices = frozenset(exact_int(i, InfeasibleWindow, "window index") for i in self.indices)
        except TypeError:
            raise InfeasibleWindow(f"window indices {self.indices!r} are not a collection") from None
        object.__setattr__(self, "indices", indices)
        if not self.indices:
            raise InfeasibleWindow("window needs at least one index")
        if self.cp_budget is not None:
            object.__setattr__(self, "cp_budget", exact_int(self.cp_budget, InfeasibleWindow, "cp_budget", low=0))


def _lstsq_residual(columns: list[np.ndarray], target: np.ndarray) -> tuple[np.ndarray, float]:
    matrix = np.stack(columns, axis=1) if columns else np.zeros((len(target), 0))
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    return solution, float(np.max(np.abs(matrix @ solution - target)))


def build_qwe_circuit(profile_half: PhaseProfile, window: WindowSpec) -> Circuit:
    """Windowed encoder at the profile's width, exact on `window.indices` only.

    Anchors the global phase at theta[0], emits one phase gate per qubit whose
    bit varies over the window, then adds controlled-phase pairs greedily (best
    residual first, canonical order on ties) until the window interpolates
    exactly or the budget runs out.
    """
    if profile_half.span != "half":
        raise GridError("build_qwe_circuit expects a half-span profile")
    theta, n = profile_half.thetas, profile_half.n_qubits
    indices = sorted(window.indices)
    if indices[0] < 0 or indices[-1] >= len(theta):
        raise InfeasibleWindow(f"window indices must lie in [0, {len(theta)})")
    budget = window.cp_budget if window.cp_budget is not None else n - 1

    a_global = float(theta[0])
    target = np.array([theta[j] - a_global for j in indices], dtype=np.float64)

    # bits[k] holds qubit k's bit, of weight 2^(n-1-k), of every window index
    bits = (np.array(indices) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    active = [k for k in range(1, n) if bits[k].any()]
    columns = [bits[k].astype(np.float64) for k in active]
    pairs = [((k, l), (bits[k] & bits[l]).astype(np.float64)) for k in range(1, n) for l in range(k + 1, n)]
    candidate_pairs = [(pair, col) for pair, col in pairs if col.any()]

    scale = max(1.0, float(np.max(np.abs(target))))
    chosen: list[tuple[int, int]] = []
    solution, residual = _lstsq_residual(columns, target)
    while residual > _EXACT_TOL * scale and len(chosen) < budget and candidate_pairs:
        best = None
        for idx, (pair, col) in enumerate(candidate_pairs):
            _, res = _lstsq_residual(columns + [col], target)
            if best is None or res < best[0] - 1e-15:
                best = (res, idx)
        pair, col = candidate_pairs.pop(best[1])
        chosen.append(pair)
        columns.append(col)
        solution, residual = _lstsq_residual(columns, target)
    if residual > _EXACT_TOL * scale:
        raise InfeasibleWindow(
            f"window cannot be matched with {len(active)} phase gates and {budget} controlled phases"
        )

    ladder = build_qpa_shell(n) if (active or chosen) else Circuit(n)
    circuit = Circuit(n, global_phase=wrap_angle(-a_global))
    circuit.extend(ladder)
    alpha = {k: float(solution[pos]) for pos, k in enumerate(active)}
    beta = {pair: float(solution[len(active) + i]) for i, pair in enumerate(chosen)}
    _emit_phase_gates(circuit, alpha, dict(sorted(beta.items())))
    circuit.extend(ladder)
    return circuit


def build_direct_diagonal(profile_full: PhaseProfile) -> Circuit:
    """Degree-two multilinear encoder over the full indices of a profile of
    width n, no reflection shell: phase gates on all n qubits plus controlled
    phases on all pairs; exact whenever the profile is quadratic in the index."""
    if profile_full.span != "full":
        raise GridError("build_direct_diagonal expects a full-span profile")
    a_global, alpha, beta = _interpolate_quadratic(profile_full)
    return _emit_phase_gates(Circuit(profile_full.n_qubits, global_phase=wrap_angle(-a_global)), alpha, beta)


def build_potential_circuit(n: int, spec: PotentialSpec, time: float) -> Circuit:
    """Step-potential factor e^{-i eta Z time} at each position qubit of `spec`.

    RotationZ(lmbda) = diag(e^{-i lmbda/2}, e^{+i lmbda/2}), so each placement is
    RotationZ(2 eta time).  Single/double/multi variants differ only by the
    qubits the rotations sit on; a spec without positions emits no gate.
    """
    n = exact_int(n, InvalidWidth, "n", low=1)
    circuit = Circuit(n)
    angle = 2.0 * spec.eta * finite_real(time, GridError, "time")
    for q in spec.positions_in(n):
        circuit.rz(q, angle)
    return circuit

