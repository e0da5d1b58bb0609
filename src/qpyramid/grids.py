"""Spatial/momentum discretization, phase profiles, step potentials, wave packets.

The position grid covers (-d, d) with N = 2^n midpoint samples
x_k = -d + (k + 1/2) dx, and the momentum grid is the matching centered set
p_j = (pi/d)(j + 1/2 - N/2).  Both are half-integer offset, which is what the
evolution driver's phase ramps compensate for.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import exact_int, finite_real
from .simulator import StateVector


class GridError(ValueError):
    """Invalid grid or potential specification."""


@dataclass(frozen=True)
class Grid:
    """Half-range d (length units) and qubit count; N = 2^n samples, dx = 2d/N."""

    d: float
    n_qubits: int

    def __post_init__(self):
        object.__setattr__(self, "d", finite_real(self.d, GridError, "half-range d", sign="positive"))
        object.__setattr__(self, "n_qubits", exact_int(self.n_qubits, GridError, "n_qubits", low=1))

    @property
    def n_samples(self) -> int:
        return 1 << self.n_qubits

    @property
    def dx(self) -> float:
        return 2.0 * self.d / self.n_samples


def position_samples(grid: Grid) -> np.ndarray:
    """x_k = -d + (k + 1/2) dx; symmetric about zero."""
    k = np.arange(grid.n_samples)
    return -grid.d + (k + 0.5) * grid.dx


def momentum_samples(grid: Grid) -> np.ndarray:
    """p_j = (pi/d)(j + 1/2 - N/2); antisymmetric about zero."""
    j = np.arange(grid.n_samples)
    return (math.pi / grid.d) * (j + 0.5 - grid.n_samples / 2)


@dataclass(frozen=True)
class PhaseProfile:
    """Angle array theta (radians) targeted by the encoders as diag(e^{-i theta}).

    Its length N = 2^n >= 2 fixes the width n = `n_qubits`.  A kinetic profile
    is palindromic, theta[j] == theta[N-1-j], which the shell encoders check.
    """

    thetas: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.thetas)
        except ValueError:  # a ragged nesting is no array
            arr = np.asarray(None)
        if arr.dtype.kind not in "iuf":
            raise GridError(f"phase profile entries must be real numbers, got {self.thetas!r:.60}")
        arr = np.asarray(arr, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "thetas", arr)
        if arr.size < 2 or arr.size & (arr.size - 1):
            raise GridError(f"profile length {arr.size} is not a power of two >= 2")
        if not np.all(np.isfinite(arr)):
            raise GridError("phase profile entries must be finite")

    def __len__(self) -> int:
        return len(self.thetas)

    @property
    def n_qubits(self) -> int:
        """The width n read from the bits of the length 2^n."""
        return len(self.thetas).bit_length() - 1


def kinetic_phase_profile(grid: Grid, dt: float, mass: float = 1.0) -> PhaseProfile:
    """theta_j = p_j^2 dt / (2m), stored as nonnegative magnitudes.

    The encoders emit diag(e^{-i theta}), so the sign lives at gate construction.
    """
    mass = finite_real(mass, GridError, "mass", sign="positive")
    dt = finite_real(dt, GridError, "dt", sign="nonnegative")
    p = momentum_samples(grid)
    return PhaseProfile(p * p * dt / (2.0 * mass))


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet exp(-x^2/2) exp(i k0 x); the width parameter is fixed to 1."""

    k0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k0", finite_real(self.k0, GridError, "k0"))


def gaussian_packet(grid: Grid, spec: PacketSpec) -> StateVector:
    """Amplitude-encoded normalized Gaussian packet on the position grid."""
    x = position_samples(grid)
    amps = np.exp(-0.5 * x * x) * np.exp(1j * spec.k0 * x)
    return StateVector.from_amplitudes(amps)


@dataclass(frozen=True)
class PotentialSpec:
    """Step potential of barrier magnitude eta, one Z rotation per entry of
    `qubit_positions`; no positions means no potential, so `PotentialSpec()`
    is none.  A single, double or multi step is only a choice of positions,
    e.g. `PotentialSpec(1.0, (0,))`; the CLI's `--potential` kinds name them.

    The circuit applies e^{-i eta Z t} on each position qubit, and
    `potential_profile` samples the potential those rotations induce,
    V(x_k) = eta * sum_q (1 - 2 b_q(k)): +/-eta regions split at each position
    qubit's bit boundary.  Both read this one description.
    """

    eta: float = 0.0
    qubit_positions: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "eta", finite_real(self.eta, GridError, "eta"))
        try:
            positions = tuple(exact_int(q, GridError, "potential qubit position") for q in self.qubit_positions)
        except TypeError:
            raise GridError(f"potential qubit positions {self.qubit_positions!r} are not a collection") from None
        object.__setattr__(self, "qubit_positions", positions)

    def positions_in(self, n: int) -> tuple[int, ...]:
        """The position qubits, each checked to lie inside width n."""
        for q in self.qubit_positions:
            if not 0 <= q < n:
                raise GridError(f"potential qubit position {q} outside width {n}")
        return self.qubit_positions


def potential_profile(grid: Grid, spec: PotentialSpec) -> np.ndarray:
    """Piecewise-constant V(x_k) used by the classical split-step oracle: each
    position qubit q contributes eta on the half-periods where its bit is 0 and
    -eta where it is 1, as its Z rotation does."""
    profile = np.zeros(grid.n_samples)
    k = np.arange(grid.n_samples)
    for q in spec.positions_in(grid.n_qubits):
        bits = (k >> (grid.n_qubits - 1 - q)) & 1
        profile += spec.eta * (1.0 - 2.0 * bits)
    return profile
