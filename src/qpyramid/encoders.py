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
Every encoder takes one `PhaseProfile`, whose length 2^n fixes the width; the
shell encoders read its first half and require the palindrome they mirror.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, InvalidWidth, build_qft, exact_int, finite_real, wrap_angle
from .grids import GridError, PhaseProfile, PotentialSpec

_EXACT_TOL = 1e-9


class InfeasibleWindow(CircuitError):
    """Window positions over-constrain the available phase/controlled-phase terms."""


def _phase_profile(profile) -> PhaseProfile:
    """`profile`, checked by every encoder to be a PhaseProfile."""
    if not isinstance(profile, PhaseProfile):
        raise GridError(f"encoder input {profile!r:.60} is not a PhaseProfile")
    return profile


def _interpolate_quadratic(profile: PhaseProfile, first_qubit: int) -> tuple[float, dict, dict]:
    """Interpolate theta at its popcount <= 2 indices over qubits
    first_qubit..n-1 (1 reads the first half only), where qubit q's bit has
    weight w_q = 2^(n-1-q):

    a = theta[0]; alpha[q] = theta[w_q] - a;
    beta[(q,r)] = theta[w_q + w_r] - alpha[q] - alpha[r] - a  (q < r).
    """
    theta, n = profile.thetas, profile.n_qubits
    weight = {q: 1 << (n - 1 - q) for q in range(first_qubit, n)}
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


def _mirrored_half(theta: np.ndarray) -> np.ndarray:
    """The first half of `theta`, which the reflection shell mirrors onto the
    second; an array that is not that mirror image raises GridError."""
    if np.max(np.abs(theta - theta[::-1])) > 1e-12:
        raise GridError("a shell encoder's profile must be palindromic")
    return theta[: len(theta) // 2]


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


def build_qate_circuit(profile: PhaseProfile) -> Circuit:
    """ladder . [Phase(k, -alpha[k]); CPhase(k, l, -beta[(k,l)])] . ladder, with
    the one `build_qpa_shell(n)` ladder at the profile's width n >= 2 and
    global phase -a, where a, alpha and beta interpolate the first half of
    the palindromic profile over qubits 1..n-1 (`_interpolate_quadratic`).
    The gate order does not depend on the angles, so the counts agree with
    qate_gate_count(n) for every profile."""
    n = exact_int(_phase_profile(profile).n_qubits, InvalidWidth, "n_qubits", low=2)
    _mirrored_half(profile.thetas)
    a_global, alpha, beta = _interpolate_quadratic(profile, 1)
    ladder = build_qpa_shell(n).gates
    circuit = Circuit(n, list(ladder), wrap_angle(-a_global))
    _emit_phase_gates(circuit, alpha, beta)
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
    """Least-squares angles over `columns` and their largest residual; a
    target or angles past the float range leave it non-finite: CircuitError."""
    matrix = np.stack(columns, axis=1) if columns else np.zeros((len(target), 0))
    solution, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(matrix @ solution - target)))
    if not np.isfinite(residual):
        raise CircuitError("window angles theta[j] - theta[0], or their least-squares fit, are not finite")
    return solution, residual


def build_qwe_circuit(profile: PhaseProfile, window: WindowSpec) -> Circuit:
    """Windowed encoder at the profile's width, exact on the half-indices
    `window.indices` of the palindromic profile's first half only.

    Anchors the global phase at theta[0], emits one phase gate per qubit whose
    bit varies over the window, then adds controlled-phase pairs greedily (best
    residual first, canonical order on ties) until the window interpolates
    exactly or the budget runs out.
    """
    theta, n = _mirrored_half(_phase_profile(profile).thetas), profile.n_qubits
    indices = sorted(window.indices)
    if indices[0] < 0 or indices[-1] >= len(theta):
        raise InfeasibleWindow(f"window indices must lie in [0, {len(theta)})")
    budget = window.cp_budget if window.cp_budget is not None else n - 1

    a_global = float(theta[0])
    target = np.array([t - a_global for t in theta[indices].tolist()])  # as floats: overflow is inf, no warning

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


def build_direct_diagonal(profile: PhaseProfile) -> Circuit:
    """Degree-two multilinear encoder over the full indices of a profile of
    width n, no reflection shell: phase gates on all n qubits plus controlled
    phases on all pairs; exact whenever the profile is quadratic in the index."""
    a_global, alpha, beta = _interpolate_quadratic(_phase_profile(profile), 0)
    return _emit_phase_gates(Circuit(profile.n_qubits, global_phase=wrap_angle(-a_global)), alpha, beta)


def build_potential_circuit(n: int, spec: PotentialSpec, time: float) -> Circuit:
    """Step-potential factor e^{-i eta Z time} at each position qubit of `spec`.

    RotationZ(lmbda) = diag(e^{-i lmbda/2}, e^{+i lmbda/2}), so each placement is
    RotationZ(2 eta time).  Single/double/multi variants differ only by the
    qubits the rotations sit on; a spec without positions emits no gate.
    """
    n = exact_int(n, InvalidWidth, "n", low=1)
    circuit = Circuit(n)
    time = finite_real(time, GridError, "time")
    angle = finite_real(2.0 * spec.eta * time, GridError, "potential angle 2 eta time")
    for q in spec.positions_in(n):
        circuit.rz(q, angle)
    return circuit

