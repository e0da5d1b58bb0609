"""Split-step time evolution of a wave packet on the simulator, plus the
classical split-step reference.

Each substep applies V-half, position->momentum transform, the kinetic
diagonal, the inverse transform, and V-half again (symmetric second-order
splitting).  The transform circuits wrap the Fourier cascade in diagonal
linear phase ramps:

    centered mode  ramp coefficient c = (1 - N)/2; together with the global
                   phase this realizes the exact half-integer-offset change of
                   basis exp(-i p_j x_k)/sqrt(N), so the circuit matches the
                   classical reference to machine precision.
    paper mode     ramp coefficient c = -N/2, which keeps only the integer
                   (frequency-ordering) alignment and drops the half-bin
                   compensation; after angle reduction this is a single Z-type
                   phase on the last qubit, i.e. the plain transform with the
                   kinetic profile read in DFT frequency order.  Its residual
                   half-bin mismatch is what caps fidelity at small n.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import FidelityReport, emit_report, swap_test_estimate, write_table
from .circuit import Circuit, InvalidWidth, wrap_angle
from .encoders import build_potential_circuit, build_qate_circuit, build_qft, solve_qate
from .grids import (
    Grid,
    GridError,
    PacketSpec,
    PotentialSpec,
    gaussian_packet,
    kinetic_phase_profile,
    momentum_samples,
    position_samples,
    potential_profile,
)
from .simulator import (
    Histogram,
    RandomSource,
    StateVector,
    fidelity_exact,
    index_bitstring,
    run,
    sample,
)

MODES = ("paper", "centered")


@dataclass(frozen=True)
class EvolutionConfig:
    grid: Grid
    packet: PacketSpec = PacketSpec()
    potential: PotentialSpec = PotentialSpec.none()
    dt: float = 0.1              # reported-step duration
    trotter_steps: int = 10      # substeps per reported step
    total_steps: int = 1
    mode: str = "centered"
    shots: int = 10000
    seed: int = 1234
    mass: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise GridError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.trotter_steps < 1:
            raise GridError("trotter_steps must be >= 1")
        if self.total_steps < 0:
            raise GridError("total_steps must be >= 0")
        if not (math.isfinite(self.dt) and self.dt >= 0):
            raise GridError(f"dt must be finite and nonnegative, got {self.dt}")
        if self.shots < 1:
            raise GridError("shots must be positive")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise GridError(f"mass must be finite and positive, got {self.mass}")
        for q in self.potential.qubit_positions:
            if not 0 <= q < self.grid.n_qubits:
                raise GridError(f"potential qubit position {q} outside width {self.grid.n_qubits}")


@dataclass
class EvolutionResult:
    """Per reported step (index 0 = initial state): quantum and reference
    states, sampled histograms, exact fidelities, swap-test reports."""

    config: EvolutionConfig
    states: list[StateVector] = field(default_factory=list)
    oracle_states: list[StateVector] = field(default_factory=list)
    histograms: list[Histogram] = field(default_factory=list)
    exact_fidelities: list[float] = field(default_factory=list)
    swap_reports: list[FidelityReport] = field(default_factory=list)


def _ramp_coefficient(n: int, mode: str) -> float:
    size = 1 << n
    return (1 - size) / 2 if mode == "centered" else -size / 2


def _ramp_circuit(n: int, c: float, sign: float) -> Circuit:
    """diag(omega^{sign * c * m}) as per-qubit phase gates (omega = e^{2 pi i/N})."""
    size = 1 << n
    circuit = Circuit(n)
    for q in range(n):
        angle = wrap_angle(sign * 2.0 * math.pi * c * (1 << (n - 1 - q)) / size)
        if angle != 0.0:
            circuit.p(q, angle)
    return circuit


def momentum_transform_circuit(n: int, mode: str, inverse: bool = False) -> Circuit:
    """Position->momentum change of basis (or its inverse with `inverse`).

    Forward: ramp . inverse-Fourier cascade . ramp with global -2 pi c^2 / N;
    in centered mode its matrix equals exp(-i p_j x_k)/sqrt(N) exactly.
    """
    if mode not in MODES:
        raise GridError(f"mode must be one of {MODES}, got {mode!r}")
    c = _ramp_coefficient(n, mode)
    size = 1 << n
    sign = 1.0 if inverse else -1.0
    circuit = Circuit(n, global_phase=wrap_angle(sign * 2.0 * math.pi * c * c / size))
    ramp = _ramp_circuit(n, c, sign)
    circuit.extend(ramp)
    circuit.extend(build_qft(n, inverse=not inverse))
    circuit.extend(ramp)
    return circuit


def centered_transform_matrix(grid: Grid) -> np.ndarray:
    """Reference kernel exp(-i p_j x_k)/sqrt(N) used by the classical oracle."""
    p = momentum_samples(grid)
    x = position_samples(grid)
    return np.exp(-1j * np.outer(p, x)) / math.sqrt(grid.n_samples)


def trotter_step_circuit(config: EvolutionConfig) -> Circuit:
    """One substep: V(delta/2) . to_p . K(delta) . to_x . V(delta/2)
    with delta = dt / trotter_steps."""
    n = config.grid.n_qubits
    if n < 2:
        raise InvalidWidth("evolution needs n >= 2")
    delta = config.dt / config.trotter_steps
    kinetic = kinetic_phase_profile(config.grid, delta, config.mass)
    u_kinetic = build_qate_circuit(n, solve_qate(kinetic.first_half()))
    v_half = build_potential_circuit(n, config.potential, delta, 2)
    to_momentum = momentum_transform_circuit(n, config.mode)
    to_position = momentum_transform_circuit(n, config.mode, inverse=True)
    step = Circuit(n)
    for fragment in (v_half, to_momentum, u_kinetic, to_position, v_half):
        step.extend(fragment)
    return step


def _split_step_states(initial, substep, config: EvolutionConfig) -> Iterator:
    """`initial`, then the state after each of the total_steps reported steps,
    each made of trotter_steps applications of `substep`."""
    state = initial
    yield state
    for _ in range(config.total_steps):
        for _ in range(config.trotter_steps):
            state = substep(state)
        yield state


def _final_state(states):
    """Last of the reported states; an iterator is consumed without keeping
    the earlier ones."""
    return deque(states, maxlen=1)[0]


def evolve_classical_oracle(config: EvolutionConfig) -> list[np.ndarray]:
    """Split-step reference with a direct (dense) transform; always uses the
    exact centered change of basis regardless of config.mode."""
    grid = config.grid
    p = momentum_samples(grid)
    v = potential_profile(grid, config.potential)
    delta = config.dt / config.trotter_steps
    forward = centered_transform_matrix(grid)
    backward = forward.conj().T
    half_potential = np.exp(-1j * v * delta / 2.0)
    kinetic = np.exp(-1j * p * p * delta / (2.0 * config.mass))

    def substep(psi):
        psi = half_potential * psi
        psi = kinetic * (forward @ psi)
        return half_potential * (backward @ psi)

    initial = gaussian_packet(grid, config.packet).amplitudes
    return list(_split_step_states(initial, substep, config))


def _circuit_states(config: EvolutionConfig) -> Iterator[StateVector]:
    """Circuit-evolved state at every reported step, initial packet first."""
    step_circuit = trotter_step_circuit(config)
    initial = gaussian_packet(config.grid, config.packet)
    return _split_step_states(initial, lambda state: run(step_circuit, state), config)


def evolve_quantum(config: EvolutionConfig) -> EvolutionResult:
    """Run the circuit evolution, sampling and comparing against the reference
    at every reported step.  One seeded stream drives the histogram draw and
    the swap test, in that order, per step."""
    oracle = evolve_classical_oracle(config)
    rng = RandomSource(config.seed)
    result = EvolutionResult(config)
    for state, amplitudes in zip(_circuit_states(config), oracle):
        reference = StateVector(config.grid.n_qubits, amplitudes)
        result.states.append(state)
        result.oracle_states.append(reference)
        result.histograms.append(sample(state, config.shots, rng))
        result.exact_fidelities.append(fidelity_exact(state, reference))
        result.swap_reports.append(swap_test_estimate(reference, state, config.shots, rng))
    return result


def free_packet_reference(grid: Grid, packet: PacketSpec, time: float, mass: float = 1.0) -> StateVector:
    """Continuum-exact free evolution of the Gaussian packet, sampled on the grid.

    psi_t(x) = z^{-1/2} exp(-(x - v t)^2 / (2 z)) exp(i(k0 x - k0^2 t / (2m)))
    with z = 1 + i t/m and v = k0/m, normalized after sampling.  Serves as the
    resolution-independent reference for fidelity-vs-n sweeps.
    """
    x = position_samples(grid)
    z = 1.0 + 1j * time / mass
    velocity = packet.k0 / mass
    amps = (
        z ** -0.5
        * np.exp(-((x - velocity * time) ** 2) / (2.0 * z))
        * np.exp(1j * (packet.k0 * x - 0.5 * packet.k0**2 * time / mass))
    )
    return StateVector.from_amplitudes(amps, normalize=True)


def sweep_reference_state(config: EvolutionConfig) -> StateVector:
    """Final-state reference for a fidelity sweep: the continuum solution when
    there is no potential (so the curve exposes discretization error), else the
    split-step reference at the same resolution."""
    if config.potential.kind == "none":
        total_time = config.dt * config.total_steps
        return free_packet_reference(config.grid, config.packet, total_time, config.mass)
    return StateVector(config.grid.n_qubits, _final_state(evolve_classical_oracle(config)))


def splitting_infidelity(config: EvolutionConfig, reference_multiplier: int = 16) -> float:
    """Phase-aligned error norm of the circuit evolution against a reference
    split evolution with `reference_multiplier` times the substep count:
    sqrt(2 (1 - |<ref|psi>|)).  Halving the substep size divides this by ~4
    (second-order splitting); squared overlap converges at fourth order.
    """
    state = _final_state(_circuit_states(config))
    fine = replace(config, trotter_steps=reference_multiplier * config.trotter_steps)
    reference = _final_state(evolve_classical_oracle(fine))
    overlap = abs(np.vdot(reference, state.amplitudes))
    return float(math.sqrt(max(0.0, 2.0 * (1.0 - overlap))))


def fidelity_sweep(template: EvolutionConfig, n_values) -> list[tuple[EvolutionConfig, FidelityReport]]:
    """Evolve the circuit to the final state for each qubit count and
    swap-test it against the sweep reference; no per-step samples are drawn.
    One seeded stream drives the sweep estimates in qubit order, so identical
    templates reproduce identical reports."""
    rng = RandomSource(template.seed)
    points = []
    for n in n_values:
        config = replace(template, grid=Grid(template.grid.d, n))
        reference = sweep_reference_state(config)
        report = swap_test_estimate(reference, _final_state(_circuit_states(config)), config.shots, rng)
        points.append((config, report))
    return points


def export_evolution_result(result: EvolutionResult, out_dir) -> list[str]:
    """Per-step statevector and histogram CSVs and a fidelity/norm summary."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    summary_rows = []
    n = result.config.grid.n_qubits
    indices = range(1 << n)
    bitstrings = [index_bitstring(i, n) for i in indices]
    for step, state in enumerate(result.states):
        state_path = os.path.join(out_dir, f"step_{step:03d}_state.csv")
        amplitudes = state.amplitudes.tolist()
        write_table(state_path, ["index", "bitstring", "real", "imag", "probability"],
                    [indices, bitstrings, [a.real for a in amplitudes], [a.imag for a in amplitudes],
                     [abs(a) ** 2 for a in amplitudes]])
        written.append(state_path)
        hist_path = os.path.join(out_dir, f"step_{step:03d}_hist.csv")
        histogram = result.histograms[step]
        counts = [histogram.counts.get(i, 0) for i in indices]
        write_table(hist_path, ["bitstring", "count", "frequency"],
                    [bitstrings, counts, [c / histogram.shots for c in counts]])
        written.append(hist_path)
        summary_rows.append(
            [step, result.exact_fidelities[step], result.swap_reports[step].estimated,
             state.norm()]
        )
    written += emit_report(out_dir, summary_rows=summary_rows)
    return written
