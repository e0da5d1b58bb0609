"""Swap-test fidelity estimation and the closed-form error budget.  Pure
computation: the report tables built from these results are written by `cli`."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import InvalidWidth, exact_int, finite_real
from .simulator import RandomSource, StateVector, fidelity_exact


@dataclass(frozen=True)
class FidelityReport:
    """Exact vs sampled swap-test fidelity.  `std_error` is the binomial
    standard error of Pr(ancilla=0); the estimate's standard error is twice it."""

    exact: float
    estimated: float
    shots: int
    std_error: float


@dataclass(frozen=True)
class ErrorBudgetParams:
    """Closed-form noise/discretization budget inputs.

    h: grid step; l2_gates: two-qubit gate count; gate_variance: per-gate error
    variance; t1, t2: decoherence time constants; dt: evolution time;
    readout_variance: total readout error variance.
    """

    h: float
    l2_gates: int = 0
    gate_variance: float = 0.0
    t1: float = math.inf
    t2: float = math.inf
    dt: float = 0.0
    readout_variance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "l2_gates", exact_int(self.l2_gates, ValueError, "l2_gates", low=0))
        for name, sign in (("h", "positive"), ("dt", "nonnegative"), ("gate_variance", "nonnegative"),
                           ("readout_variance", "nonnegative"), ("t1", "positive"), ("t2", "positive")):
            value = getattr(self, name)  # a time constant of inf, the default, means no decoherence
            no_decoherence = name in ("t1", "t2") and value == math.inf
            object.__setattr__(self, name, math.inf if no_decoherence else finite_real(value, ValueError, name, sign))


def error_budget_terms(params: ErrorBudgetParams) -> dict[str, float]:
    """Itemized budget: h^3 + L2*sigma_g^2 + dt*(T1+T2)/(T1*T2) + sigma_cr^2.

    Asymptotic constants are taken as 1; this is a diagnostic, not a certified
    bound.  A term that overflows float64 from finite inputs is rejected.
    """
    terms = {
        "discretization": params.h**3,
        "gate": params.l2_gates * params.gate_variance,
        # (T1+T2)/(T1*T2) written as 1/T1 + 1/T2 so infinite constants give 0
        "decoherence": params.dt * (1.0 / params.t1 + 1.0 / params.t2),
        "readout": params.readout_variance,
    }
    for name, value in terms.items():
        if not math.isfinite(value):
            raise ValueError(f"error budget term {name} overflows float64")
    return terms


def error_budget(params: ErrorBudgetParams) -> float:
    return sum(error_budget_terms(params).values())


def swap_test_estimate(a: StateVector, b: StateVector, shots: int, rng: RandomSource) -> FidelityReport:
    """Sampled swap test: estimated = clamp(2*Pr^(0) - 1, 0, 1).

    The ancilla-zero count is drawn as Binomial(shots, (1 + |<a|b>|^2) / 2),
    the exact outcome law of the swap-test circuit, so the 2n+1-qubit state is
    never built.  Finite-shot noise can push Pr^(0) below 1/2; the clamp keeps
    the estimate a probability.
    """
    if a.n_qubits != b.n_qubits:
        raise InvalidWidth("swap test requires equal register widths")
    shots = exact_int(shots, ValueError, "shots", low=1)
    exact = fidelity_exact(a, b)
    zeros = rng.binomial(shots, (1.0 + exact) / 2.0)
    p0 = zeros / shots
    estimated = min(1.0, max(0.0, 2.0 * p0 - 1.0))
    std_error = math.sqrt(p0 * (1.0 - p0) / shots)
    return FidelityReport(exact, estimated, shots, std_error)
