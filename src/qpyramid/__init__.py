"""Circuit synthesis for bi-symmetric diagonal evolution operators, a dense
statevector simulator, split-step wave-packet evolution, and fidelity tooling."""

from .circuit import (
    ArityMismatch,
    Circuit,
    CircuitError,
    DuplicateQubit,
    Gate,
    GateKind,
    GateMetrics,
    IndexOutOfRange,
    InvalidWidth,
    baseline_gate_count,
    circuit_from_json,
    circuit_to_json,
    count_gates,
    qate_gate_count,
    validate,
    wrap_angle,
)
from .simulator import (
    Histogram,
    NotDiagonal,
    NotInPlace,
    Plan,
    RandomSource,
    StateVector,
    WidthTooLarge,
    compile_circuit,
    extract_diagonal,
    extract_unitary,
    fidelity_exact,
    run,
    sample,
)
from .grids import (
    Grid,
    GridError,
    PacketSpec,
    PhaseProfile,
    PotentialSpec,
    gaussian_packet,
    kinetic_phase_profile,
    momentum_samples,
    position_samples,
    potential_profile,
)
from .encoders import (
    InfeasibleWindow,
    QateCoefficients,
    WindowSpec,
    build_direct_diagonal,
    build_potential_circuit,
    build_qate_circuit,
    build_qft,
    build_qpa_shell,
    build_qwe_circuit,
    solve_qate,
)
from .evolution import (
    EvolutionConfig,
    EvolutionStep,
    evolve_classical_oracle,
    evolve_quantum,
    fidelity_sweep,
    free_packet_reference,
    momentum_transform_circuit,
    splitting_infidelity,
    trotter_step_circuit,
)
from .analysis import (
    ErrorBudgetParams,
    FidelityReport,
    error_budget,
    error_budget_terms,
    swap_test_estimate,
)

__version__ = "0.1.0"
