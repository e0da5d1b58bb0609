"""Split-step time evolution of a wave packet on the simulator, plus the
classical split-step reference.  Pure computation: the records
`evolve_quantum` yields are written to files by `cli.export_evolution`.

Each substep applies V-half, position->momentum transform, the kinetic
diagonal, the inverse transform, and V-half again (symmetric second-order
splitting).  The transform circuits wrap `build_qft` (which the simulator
runs as one FFT) in diagonal linear phase ramps:

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
from dataclasses import dataclass, replace

import numpy as np

from .analysis import FidelityReport, swap_test_estimate
from .circuit import Circuit, InvalidWidth, exact_int, finite_real, wrap_angle
from .encoders import build_potential_circuit, build_qate_circuit, build_qft
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
    compile_circuit,
    inner_product,
    sample,
)

MODES = ("paper", "centered")


@dataclass(frozen=True)
class EvolutionConfig:
    grid: Grid
    packet: PacketSpec = PacketSpec()
    potential: PotentialSpec = PotentialSpec()
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
        for name, kind in (("grid", Grid), ("packet", PacketSpec), ("potential", PotentialSpec)):
            if not isinstance(getattr(self, name), kind):
                raise GridError(f"{name} {getattr(self, name)!r} is not a {kind.__name__}")
        # the kinetic encoder's reflection shell needs two qubits
        exact_int(self.grid.n_qubits, GridError, "evolution grid n_qubits", low=2)
        for name, low in (("trotter_steps", 1), ("total_steps", 0), ("shots", 1), ("seed", 0)):
            object.__setattr__(self, name, exact_int(getattr(self, name), GridError, name, low))
        for name, sign in (("dt", "nonnegative"), ("mass", "positive")):
            object.__setattr__(self, name, finite_real(getattr(self, name), GridError, name, sign))
        self.potential.positions_in(self.grid.n_qubits)


@dataclass(frozen=True)
class EvolutionStep:
    """One reported step: the circuit-evolved state, the split-step reference,
    the sampled histogram and the swap-test report of their fidelity."""

    state: StateVector
    reference: StateVector
    histogram: Histogram
    swap_report: FidelityReport

    @property
    def exact_fidelity(self) -> float:
        return self.swap_report.exact


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

    Forward: ramp . inverse QFT . ramp with global -2 pi c^2 / N;
    in centered mode its matrix equals exp(-i p_j x_k)/sqrt(N) exactly.
    """
    n = exact_int(n, InvalidWidth, "n", low=1)
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


def trotter_step_circuit(config: EvolutionConfig) -> Circuit:
    """One substep: V(delta/2) . to_p . K(delta) . to_x . V(delta/2)
    with delta = dt / trotter_steps."""
    n = config.grid.n_qubits
    delta = config.dt / config.trotter_steps
    kinetic = kinetic_phase_profile(config.grid, delta, config.mass)
    u_kinetic = build_qate_circuit(kinetic)
    v_half = build_potential_circuit(n, config.potential, delta / 2)
    to_momentum = momentum_transform_circuit(n, config.mode)
    to_position = momentum_transform_circuit(n, config.mode, inverse=True)
    step = Circuit(n)
    for fragment in (v_half, to_momentum, u_kinetic, to_position, v_half):
        step.extend(fragment)
    return step


def _split_step_states(state, substep, config: EvolutionConfig) -> Iterator:
    """`state`, then the state after each of the total_steps reported steps,
    each made of trotter_steps applications of `substep`.  No earlier state
    is kept, the initial one included."""
    yield state
    for _ in range(config.total_steps):
        for _ in range(config.trotter_steps):
            state = substep(state)
        yield state


def _final_state(states):
    """Last of the reported states; an iterator is consumed without keeping
    the earlier ones."""
    return deque(states, maxlen=1)[0]


def evolve_classical_oracle(config: EvolutionConfig) -> Iterator[np.ndarray]:
    """Split-step reference with the exact centered change of basis,
    regardless of config.mode, applied through the FFT:

        forward(psi)_j = e^{-2 pi i c^2/N} e^{2 pi i c j/N} FFT(e^{2 pi i c k/N} psi_k)_j / sqrt(N)

    with c = (N - 1)/2, which equals the dense kernel exp(-i p_j x_k)/sqrt(N)
    applied to psi without building it; the backward step is its inverse.
    The arrays are built on the call; the states follow one reported step at
    a time as the iterator is advanced.
    """
    grid = config.grid
    size = grid.n_samples
    p = momentum_samples(grid)
    v = potential_profile(grid, config.potential)
    delta = config.dt / config.trotter_steps
    # the angles 2 pi c k / N and 2 pi c^2 / N are reduced mod 2 pi in
    # integers before the exponential, so they stay exact at any width
    k = np.arange(size, dtype=np.int64)
    ramp = np.exp(1j * math.pi * ((size - 1) * k % (2 * size)) / size)
    offset = np.exp(-0.5j * math.pi * ((size - 1) ** 2 % (4 * size)) / size)
    forward_ramp = offset * ramp
    half_potential = np.exp(-1j * v * delta / 2.0)
    kinetic = np.exp(-1j * p * p * delta / (2.0 * config.mass))

    # each product keeps its operand order and temporaries: numpy's elision
    # turns `held * temporary` into `temporary * held` from 256 KiB up, and
    # SIMD complex multiply is not commutative bit for bit, so hoisting the
    # `.conj()` arrays or multiplying in place would move the state's bytes
    def substep(psi):
        psi = half_potential * psi
        psi = kinetic * forward_ramp * np.fft.fft(ramp * psi, norm="ortho")
        psi = ramp.conj() * np.fft.ifft(forward_ramp.conj() * psi, norm="ortho")
        return half_potential * psi

    initial = gaussian_packet(grid, config.packet).amplitudes
    return _split_step_states(initial, substep, config)


def _circuit_states(config: EvolutionConfig) -> Iterator[StateVector]:
    """Circuit-evolved state at every reported step, initial packet first.
    The substep is compiled once, and its plan updates one buffer in place
    trotter_steps times per reported step; each reported state is a copy."""
    plan = compile_circuit(trotter_step_circuit(config))
    states = _split_step_states(gaussian_packet(config.grid, config.packet).amplitudes, plan.apply, config)
    return (StateVector(plan.n_qubits, amplitudes.copy()) for amplitudes in states)


def evolve_quantum(config: EvolutionConfig) -> Iterator[EvolutionStep]:
    """Run the circuit evolution, sampling and comparing against the reference
    at every reported step, and yield one record per step, initial state
    first.  The substep plan and the reference arrays are built before the
    first record, and no record is kept once the next one is made.  One
    seeded stream drives the histogram draw and the swap test, in that order,
    per step."""
    oracle = evolve_classical_oracle(config)
    rng = RandomSource(config.seed)
    for state, amplitudes in zip(_circuit_states(config), oracle):
        reference = StateVector(config.grid.n_qubits, amplitudes)
        histogram = sample(state, config.shots, rng)
        report = swap_test_estimate(reference, state, config.shots, rng)
        yield EvolutionStep(state, reference, histogram, report)


def free_packet_reference(grid: Grid, packet: PacketSpec, time: float, mass: float = 1.0) -> StateVector:
    """Continuum-exact free evolution of the Gaussian packet, sampled on the grid.

    psi_t(x) = z^{-1/2} exp(-(x - v t)^2 / (2 z)) exp(i(k0 x - k0^2 t / (2m)))
    with z = 1 + i t/m and v = k0/m, normalized after sampling.  Serves as the
    resolution-independent reference for fidelity-vs-n sweeps.
    """
    time, mass = finite_real(time, GridError, "time"), finite_real(mass, GridError, "mass", sign="positive")
    x = position_samples(grid)
    z = 1.0 + 1j * time / mass
    velocity = packet.k0 / mass
    amps = (
        z ** -0.5
        * np.exp(-((x - velocity * time) ** 2) / (2.0 * z))
        * np.exp(1j * (packet.k0 * x - 0.5 * packet.k0**2 * time / mass))
    )
    return StateVector.from_amplitudes(amps)


def sweep_reference_state(config: EvolutionConfig) -> StateVector:
    """Final-state reference for a fidelity sweep: the continuum solution when
    there is no potential (so the curve exposes discretization error), else the
    split-step reference at the same resolution."""
    if not config.potential.qubit_positions:
        total_time = config.dt * config.total_steps
        return free_packet_reference(config.grid, config.packet, total_time, config.mass)
    return StateVector(config.grid.n_qubits, _final_state(evolve_classical_oracle(config)))


def splitting_infidelity(config: EvolutionConfig) -> float:
    """Phase-aligned error norm of the circuit evolution against a reference
    split evolution with 16 times the substep count:
    sqrt(2 (1 - |<ref|psi>|)).  Halving the substep size divides this by ~4
    (second-order splitting); squared overlap converges at fourth order.
    """
    state = _final_state(_circuit_states(config))
    fine = replace(config, trotter_steps=16 * config.trotter_steps)
    reference = _final_state(evolve_classical_oracle(fine))
    overlap = abs(inner_product(reference, state.amplitudes))
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
