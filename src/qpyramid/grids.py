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

from .simulator import StateVector


class GridError(ValueError):
    """Invalid grid or potential specification."""


@dataclass(frozen=True)
class Grid:
    """Half-range d (length units) and qubit count; N = 2^n samples, dx = 2d/N."""

    d: float
    n_qubits: int

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise GridError(f"half-range d must be finite and positive, got {self.d}")
        if self.n_qubits < 1:
            raise GridError(f"n_qubits must be positive, got {self.n_qubits}")

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

    `span` is "full" (length N) or "half" (length N/2); a full kinetic profile
    is palindromic: theta[j] == theta[N-1-j].
    """

    thetas: np.ndarray
    span: str = "full"
    provenance: str = "custom"

    def __post_init__(self):
        arr = np.asarray(self.thetas, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "thetas", arr)
        if self.span not in ("full", "half"):
            raise GridError(f"span must be 'full' or 'half', got {self.span!r}")
        if self.provenance not in ("kinetic", "custom"):
            raise GridError(f"provenance must be 'kinetic' or 'custom', got {self.provenance!r}")
        if not np.all(np.isfinite(arr)):
            raise GridError("phase profile entries must be finite")
        if self.span == "full" and self.provenance == "kinetic":
            if np.max(np.abs(arr - arr[::-1])) > 1e-12:
                raise GridError("full kinetic profile must be palindromic")

    def __len__(self) -> int:
        return len(self.thetas)

    def first_half(self) -> "PhaseProfile":
        if self.span != "full":
            raise GridError("first_half requires a full-span profile")
        return PhaseProfile(self.thetas[: len(self.thetas) // 2], "half", self.provenance)


def kinetic_phase_profile(grid: Grid, dt: float, mass: float = 1.0) -> PhaseProfile:
    """theta_j = p_j^2 dt / (2m), stored as nonnegative magnitudes (full span).

    The encoders emit diag(e^{-i theta}), so the sign lives at gate construction.
    """
    if mass <= 0:
        raise GridError(f"mass must be positive, got {mass}")
    if dt < 0:
        raise GridError(f"dt must be nonnegative, got {dt}")
    p = momentum_samples(grid)
    return PhaseProfile(p * p * dt / (2.0 * mass), "full", "kinetic")


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet exp(-x^2/2) exp(i k0 x); the width parameter is fixed to 1."""

    k0: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.k0):
            raise GridError("k0 must be finite")


def gaussian_packet(grid: Grid, spec: PacketSpec) -> StateVector:
    """Amplitude-encoded normalized Gaussian packet on the position grid."""
    x = position_samples(grid)
    amps = np.exp(-0.5 * x * x) * np.exp(1j * spec.k0 * x)
    return StateVector.from_amplitudes(amps, normalize=True)


_POTENTIAL_KINDS = ("none", "single_step", "double_step", "multi_step")


@dataclass(frozen=True)
class PotentialSpec:
    """Step potential with barrier magnitude eta.

    Two realizations stay in lockstep:
      - circuit: one Z rotation e^{-i eta Z dt/r} per entry of `qubit_positions`,
      - sampled profile: by default the exact values those rotations induce,
        V(x_k) = eta * sum_q (1 - 2 b_q(k)), i.e. +/-eta regions split at each
        position qubit's bit boundary.
    Explicit `boundaries`/`values` override the sampled profile for custom
    piecewise shapes (circuit construction then still uses `qubit_positions`).
    """

    kind: str
    eta: float = 0.0
    qubit_positions: tuple[int, ...] = ()
    boundaries: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise GridError(f"unknown potential kind {self.kind!r}")
        if not math.isfinite(self.eta):
            raise GridError(f"eta must be finite, got {self.eta}")
        object.__setattr__(self, "qubit_positions", tuple(int(q) for q in self.qubit_positions))
        if (self.boundaries is None) != (self.values is None):
            raise GridError("boundaries and values must be given together")
        if self.boundaries is not None:
            bounds = tuple(float(b) for b in self.boundaries)
            vals = tuple(float(v) for v in self.values)
            if not all(math.isfinite(x) for x in bounds + vals):
                raise GridError("boundaries and values must be finite")
            if len(vals) != len(bounds) + 1:
                raise GridError("need exactly one more region value than boundaries")
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise GridError("boundaries must be strictly increasing")
            object.__setattr__(self, "boundaries", bounds)
            object.__setattr__(self, "values", vals)

    @staticmethod
    def none() -> "PotentialSpec":
        return PotentialSpec("none")

    @staticmethod
    def single_step(eta: float, qubit: int = 0) -> "PotentialSpec":
        return PotentialSpec("single_step", eta, (qubit,))

    @staticmethod
    def double_step(eta: float, qubit: int = 1) -> "PotentialSpec":
        return PotentialSpec("double_step", eta, (qubit,))

    @staticmethod
    def multi_step(eta: float, qubits: tuple[int, ...] = (0, 1)) -> "PotentialSpec":
        return PotentialSpec("multi_step", eta, tuple(qubits))


def potential_profile(grid: Grid, spec: PotentialSpec) -> np.ndarray:
    """Piecewise-constant V(x_k) used by the classical split-step oracle."""
    x = position_samples(grid)
    if spec.kind == "none":
        return np.zeros_like(x)
    if spec.boundaries is not None:
        for b in spec.boundaries:
            if not -grid.d < b < grid.d:
                raise GridError(f"boundary {b} outside the open interval (-{grid.d}, {grid.d})")
        region = np.searchsorted(np.asarray(spec.boundaries), x, side="right")
        return np.asarray(spec.values)[region]
    # Z-rotation realization: each position qubit q contributes eta on the
    # half-period where its bit is 0 and -eta where it is 1.
    profile = np.zeros_like(x)
    k = np.arange(grid.n_samples)
    for q in spec.qubit_positions:
        if not 0 <= q < grid.n_qubits:
            raise GridError(f"qubit position {q} outside width {grid.n_qubits}")
        bits = (k >> (grid.n_qubits - 1 - q)) & 1
        profile += spec.eta * (1.0 - 2.0 * bits)
    return profile

