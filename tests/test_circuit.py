import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpyramid.analysis import ErrorBudgetParams, swap_test_estimate
from qpyramid.circuit import (
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
    build_qft,
    circuit_from_json,
    circuit_to_dict,
    circuit_to_json,
    count_gates,
    finite_real,
    is_finite_real,
    qate_gate_count,
    validate,
    wrap_angle,
)
from qpyramid.encoders import (
    InfeasibleWindow,
    WindowSpec,
    build_direct_diagonal,
    build_potential_circuit,
    build_qate_circuit,
    build_qpa_shell,
    build_qwe_circuit,
)
from qpyramid.evolution import EvolutionConfig, free_packet_reference, momentum_transform_circuit
from qpyramid.grids import Grid, GridError, PacketSpec, PhaseProfile, PotentialSpec, kinetic_phase_profile
from qpyramid.simulator import Histogram, RandomSource, StateVector, sample

from oracles import random_circuit


def test_validate_well_formed():
    assert validate(Circuit(2).cx(0, 1)) is None


def test_validate_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate(Circuit(2).p(5, 0.3))


def test_validate_duplicate_qubit():
    circuit = Circuit(2)
    circuit.gates.append(Gate(GateKind.CONTROLLED_NOT, (1, 1)))
    with pytest.raises(DuplicateQubit):
        validate(circuit)


@pytest.mark.parametrize(
    "gate",
    [
        Gate(GateKind.CONTROLLED_NOT, (0,)),       # wrong qubit count
        Gate(GateKind.PHASE, (0,)),                # missing angle
        Gate(GateKind.PAULI_X, (0,), 0.5),         # stray angle
        Gate(GateKind.PHASE, (0,), float("nan")),  # non-finite angle
    ],
)
def test_validate_arity_mismatch(gate):
    circuit = Circuit(2)
    circuit.gates.append(gate)
    with pytest.raises(ArityMismatch):
        validate(circuit)


def test_gate_entries_that_are_not_gates_raise_circuit_error():
    for gate in ((1, 2), Gate("Phase", (0,), 0.1)):
        with pytest.raises(CircuitError, match="not a Gate of a GateKind"):
            validate(Circuit(2, gates=[gate]))
    with pytest.raises(CircuitError, match="not a sequence"):
        Gate(GateKind.PHASE, 0, 0.1)


@pytest.mark.parametrize("gates", [None, 5])
def test_gates_that_are_not_a_list_raise_circuit_error(gates):
    with pytest.raises(CircuitError, match="is not a list of Gates"):
        validate(Circuit(2, gates=gates))


@pytest.mark.parametrize("serialise", [circuit_to_dict, circuit_to_json])
def test_serialisers_validate_first(serialise):
    with pytest.raises(CircuitError, match="not a Gate of a GateKind"):
        serialise(Circuit(2, gates=[(1, 2)]))


def test_validate_is_total_on_junk():
    # never aborts: raises a typed error even for badly mixed problems
    with pytest.raises(InvalidWidth):
        validate(Circuit(0))


def test_count_single_gate():
    metrics = count_gates(Circuit(1).p(0, 0.1))
    assert (metrics.one_qubit_count, metrics.two_qubit_count, metrics.three_qubit_count) == (1, 0, 0)
    assert metrics.depth == 1


def test_count_disjoint_gates_share_a_layer():
    assert count_gates(Circuit(2).p(0, 0.1).p(1, 0.2)).depth == 1


def test_count_serial_dependency():
    assert count_gates(Circuit(2).cx(0, 1).p(1, 0.2)).depth == 2


def test_depth_deterministic():
    rng = np.random.default_rng(11)
    for _ in range(20):
        circuit = random_circuit(4, 15, rng)
        assert count_gates(circuit).depth == count_gates(circuit).depth


def test_metrics_internal_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        metrics = count_gates(random_circuit(5, 20, rng))
        assert metrics.total == (
            metrics.one_qubit_count + metrics.two_qubit_count + metrics.three_qubit_count
        )
        assert metrics.depth <= metrics.total


def test_qate_count_n4_total_is_12():
    metrics = qate_gate_count(4)
    assert metrics.one_qubit_count == 3
    assert metrics.two_qubit_count == 9  # C(3,2)=3 pairs + 6 ladder CX
    assert metrics.total == 12


@pytest.mark.parametrize("n,expected_1q,expected_2q", [(2, 1, 2), (5, 4, 14)])
def test_qate_count_formula_values(n, expected_1q, expected_2q):
    metrics = qate_gate_count(n)
    assert metrics.one_qubit_count == expected_1q
    assert metrics.two_qubit_count == expected_2q
    assert metrics.total == expected_1q + expected_2q


def test_qate_count_matches_built_circuit():
    # formula cross-checked against counting an actually built encoder
    for n in range(2, 11):
        half = np.linspace(0.0, 1.0, 1 << (n - 1))
        built = count_gates(build_qate_circuit(PhaseProfile(np.concatenate([half, half[::-1]]))))
        predicted = qate_gate_count(n)
        assert built == predicted
        assert built.one_qubit_count == n - 1
        assert built.two_qubit_count == math.comb(n - 1, 2) + 2 * (n - 1)
    # wider encoders from all-zero profiles
    for n in (16, 20):
        assert count_gates(build_qate_circuit(PhaseProfile(np.zeros(1 << n)))) == qate_gate_count(n)


def test_qate_count_builds_no_circuit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("qate_gate_count built or counted a circuit")

    for name in ("count_gates", "Circuit", "Gate"):
        monkeypatch.setattr(f"qpyramid.circuit.{name}", refuse)
    n = 10**6
    two_qubit = math.comb(n - 1, 2) + 2 * (n - 1)
    assert qate_gate_count(n) == GateMetrics(n - 1, two_qubit, 0, n - 1 + two_qubit, 2 * n)


def test_qate_count_invalid_width():
    for n in (1, 0, -3, 2.5, 2.0, True, "3"):
        with pytest.raises(InvalidWidth):
            qate_gate_count(n)


def test_baseline_counts():
    assert baseline_gate_count(4) == 18
    assert baseline_gate_count(1) == 3
    assert baseline_gate_count(9) == 63


def test_json_round_trip_preserves_order_and_values():
    circuit = Circuit(3, global_phase=-0.25).h(0).cp(0, 2, 0.1234567890123456).cx(1, 2)
    text = circuit_to_json(circuit)
    loaded = circuit_from_json(text)
    assert loaded.n_qubits == 3
    assert loaded.global_phase == circuit.global_phase
    assert [g.kind for g in loaded.gates] == [g.kind for g in circuit.gates]
    assert [g.qubits for g in loaded.gates] == [g.qubits for g in circuit.gates]
    assert loaded.gates[1].angle == circuit.gates[1].angle  # bit-exact round trip


def test_non_integer_qubits_and_widths_are_rejected():
    # int() used to truncate these: True -> qubit 1, 1.9 -> qubit 1, 2.7 -> width 2
    for bad in (True, 1.9, 1.0, np.float64(1.0), "1"):
        with pytest.raises(CircuitError):
            Gate(GateKind.HADAMARD, (bad,))
        with pytest.raises(InvalidWidth):
            Circuit(bad)
    data = json.loads(circuit_to_json(Circuit(3).h(1)))
    for bad in ({"n_qubits": 2.7}, {"gates": [{"kind": "Hadamard", "qubits": [1.9]}]}):
        with pytest.raises(CircuitError):
            circuit_from_json(json.dumps({**data, **bad}))
    gate = Gate(GateKind.CONTROLLED_NOT, (np.int64(0), np.uint8(2)))
    assert gate.qubits == (0, 2) and all(type(q) is int for q in gate.qubits)
    assert type(Circuit(np.int64(3)).n_qubits) is int


@pytest.mark.parametrize("change", [
    {"gates": [{"kind": "Foo", "qubits": [0]}]},                   # unknown kind
    {"gates": None},                                              # gates not a list
    {"gates": [{"kind": "Phase", "qubits": [0], "angle": "0.5"}]},  # string angle
    {"gates": [{"kind": "Hadamard"}]},                            # missing qubits
    {"gates": [{"kind": "Hadamard", "qubits": 0}]},               # qubits not a list
    {"gates": ["Hadamard"]},                                      # gate not an object
    {"global_phase": "x"},                                        # non-numeric phase
])
def test_json_malformed_fields_raise_circuit_error(change):
    data = json.loads(circuit_to_json(Circuit(2).h(0).p(1, 0.5)))
    with pytest.raises(CircuitError):
        circuit_from_json(json.dumps({**data, **change}))


@pytest.mark.parametrize("text", ['{"n_qubits": 2}', "[1, 2]", "null", "not json"])
def test_json_malformed_documents_raise_circuit_error(text):
    with pytest.raises(CircuitError):
        circuit_from_json(text)


def test_validate_rejects_non_numeric_angles_and_phase():
    circuit = Circuit(2)
    circuit.gates.append(Gate(GateKind.PHASE, (0,), "0.5"))
    with pytest.raises(ArityMismatch):
        validate(circuit)
    with pytest.raises(CircuitError):
        validate(Circuit(2, global_phase="0.5"))


def test_json_angle_only_for_parametric_kinds():
    data = json.loads(circuit_to_json(Circuit(2).cx(0, 1).p(0, 0.5)))
    assert "angle" not in data["gates"][0]
    assert data["gates"][1]["angle"] == 0.5
    assert data["gates"][0]["kind"] == "ControlledNot"
    assert data["gates"][1]["kind"] == "Phase"


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    # the rounded turn count puts these just above pi before the correction
    assert wrap_angle(13 * math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-11 * math.pi) == pytest.approx(-math.pi)
    for value in np.linspace(-20, 20, 101):
        wrapped = wrap_angle(float(value))
        assert -math.pi < wrapped <= math.pi
        assert math.isclose(math.cos(wrapped), math.cos(value), abs_tol=1e-12)


@settings(max_examples=500)
@given(st.floats(-2.0 ** 52, 2.0 ** 52, exclude_min=True, exclude_max=True))
def test_wrap_angle_lands_in_range_on_the_same_phase(angle):
    wrapped = wrap_angle(angle)
    assert -math.pi < wrapped <= math.pi
    if -math.pi < angle <= math.pi:
        assert repr(wrapped) == repr(angle)  # bit for bit, the sign of zero included
    # math.remainder reduces exactly; the reduction may be off by the
    # rounding of angle - 2 pi k, within an ulp or two of the angle
    off = math.remainder(wrapped - math.remainder(angle, 2.0 * math.pi), 2.0 * math.pi)
    assert abs(off) <= 2.0 * math.ulp(angle) + 4.0 * math.ulp(math.pi)


@pytest.mark.parametrize("angle", [2.0 ** 52, -2.0 ** 52, 1e300, math.inf, math.nan])
def test_wrap_angle_refuses_angles_without_a_phase(angle):
    with pytest.raises(CircuitError, match="too large"):
        wrap_angle(angle)


def test_momentum_transform_phase_is_refused_from_52_qubits():
    # its global phase, about 2^n pi / 2, passes 2^52 at n = 52
    assert momentum_transform_circuit(51, "centered").n_qubits == 51
    with pytest.raises(CircuitError):
        momentum_transform_circuit(52, "centered")


# --- numeric inputs ---

_GRID = Grid(10.0, 3)
_ONE = StateVector.zero_state(1)

# (build from the one value under test, the error it must raise, the kind of
# field): "real" takes any finite real number, "time" also takes +inf, and
# "integer" takes integers only.
_NUMERIC_FIELDS = {
    "Grid.d": (lambda v: Grid(v, 3), GridError, "real"),
    "Grid.n_qubits": (lambda v: Grid(10.0, v), GridError, "integer"),
    "PacketSpec.k0": (PacketSpec, GridError, "real"),
    "PotentialSpec.eta": (lambda v: PotentialSpec(v, (0,)), GridError, "real"),
    "EvolutionConfig.dt": (lambda v: EvolutionConfig(_GRID, dt=v), GridError, "real"),
    "EvolutionConfig.mass": (lambda v: EvolutionConfig(_GRID, mass=v), GridError, "real"),
    "kinetic_phase_profile.dt": (lambda v: kinetic_phase_profile(_GRID, v), GridError, "real"),
    "kinetic_phase_profile.mass": (lambda v: kinetic_phase_profile(_GRID, 0.1, v), GridError, "real"),
    **{f"ErrorBudgetParams.{name}": (lambda v, name=name: ErrorBudgetParams(**{"h": 1e-3, name: v}),
                                     ValueError, kind)
       for name, kind in [("h", "real"), ("dt", "real"), ("gate_variance", "real"), ("readout_variance", "real"),
                          ("t1", "time"), ("t2", "time"), ("l2_gates", "integer")]},
    "Circuit.global_phase": (lambda v: validate(Circuit(1, global_phase=v)), CircuitError, "real"),
    "Gate.angle": (lambda v: validate(Circuit(1).p(0, v)), CircuitError, "real"),
    "WindowSpec.indices": (lambda v: WindowSpec({v}), InfeasibleWindow, "integer"),
    "WindowSpec.cp_budget": (lambda v: WindowSpec({0}, v), InfeasibleWindow, "integer"),
    "Histogram.shots": (lambda v: Histogram(v, [1, 0]), ValueError, "integer"),
    "sample.shots": (lambda v: sample(_ONE, v, RandomSource(1)), ValueError, "integer"),
    "swap_test_estimate.shots": (lambda v: swap_test_estimate(_ONE, _ONE, v, RandomSource(1)), ValueError,
                                 "integer"),
    "StateVector.n_qubits": (lambda v: StateVector(v, [1.0, 0.0]), InvalidWidth, "integer"),
    "StateVector.zero_state": (StateVector.zero_state, InvalidWidth, "integer"),
    "StateVector.basis_state.n_qubits": (lambda v: StateVector.basis_state(v, 0), InvalidWidth, "integer"),
    "StateVector.basis_state.index": (lambda v: StateVector.basis_state(2, v), ValueError, "integer"),
    "RandomSource.seed": (RandomSource, ValueError, "integer"),
    "baseline_gate_count": (baseline_gate_count, InvalidWidth, "integer"),
    "build_qft": (build_qft, InvalidWidth, "integer"),
    "build_qpa_shell.n": (build_qpa_shell, InvalidWidth, "integer"),
    "momentum_transform_circuit.n": (lambda v: momentum_transform_circuit(v, "centered"), InvalidWidth,
                                     "integer"),
    "build_potential_circuit.n": (lambda v: build_potential_circuit(v, PotentialSpec(0.5, (0,)), 0.1),
                                  InvalidWidth, "integer"),
    "build_potential_circuit.time": (lambda v: build_potential_circuit(3, PotentialSpec(0.5, (0,)), v),
                                     GridError, "real"),
    "free_packet_reference.time": (lambda v: free_packet_reference(_GRID, PacketSpec(), v), GridError, "real"),
    "free_packet_reference.mass": (lambda v: free_packet_reference(_GRID, PacketSpec(), 1.0, v), GridError,
                                   "real"),
}
# 3 + 0j equals the width 3 of the builds above, so only a kind check, not a
# comparison with another width, rejects it
_NAMED = {"real": [True, "1", math.nan, math.inf, -math.inf],
          "time": [True, "1", math.nan, -math.inf],
          "integer": [True, "1", math.nan, math.inf, -math.inf, 1.5, 3 + 0j]}
_NOT_A_NUMBER = st.one_of(st.sampled_from([False, np.True_, None, 1j, np.nan, np.float32("-inf")]),
                          st.text(max_size=3))
_DRAWN = {"real": st.one_of(_NOT_A_NUMBER, st.sampled_from([10**400, -10**400])),
          "time": _NOT_A_NUMBER,
          "integer": st.one_of(_NOT_A_NUMBER, st.floats(), st.sampled_from([np.float64(2.0), "2"]))}


@pytest.mark.parametrize("field", sorted(_NUMERIC_FIELDS))
@settings(max_examples=20)
@given(data=st.data())
def test_numeric_field_raises_its_own_error_on_what_is_not_a_number_of_its_kind(field, data):
    """A bool, a string, NaN or an infinity (or any float, for an integer
    field) raises the type's own error, never a bare TypeError, and builds
    nothing; an int past the float range fails a real field too.  A time
    constant of +inf, which means no decoherence, is the one accepted
    infinity."""
    build, error, kind = _NUMERIC_FIELDS[field]
    for bad in [*_NAMED[kind], data.draw(_DRAWN[kind], label="bad")]:
        with pytest.raises(error):
            build(bad)
    if kind == "time":
        build(math.inf)


# (build from the one value under test, the error it must raise, its bound):
# an int is the lowest count or width accepted, and "positive" (> 0) or
# "nonnegative" (>= 0) the sign a real must have.
_BOUNDED = {
    "Grid.d": (lambda v: Grid(v, 3), GridError, "positive"),
    "Grid.n_qubits": (lambda v: Grid(10.0, v), GridError, 1),
    "EvolutionConfig.grid": (lambda v: EvolutionConfig(Grid(10.0, v)), GridError, 2),
    **{f"EvolutionConfig.{name}": (lambda v, name=name: EvolutionConfig(_GRID, **{name: v}), GridError, bound)
       for name, bound in [("trotter_steps", 1), ("total_steps", 0), ("shots", 1), ("seed", 0),
                           ("dt", "nonnegative"), ("mass", "positive")]},
    "kinetic_phase_profile.dt": (lambda v: kinetic_phase_profile(_GRID, v), GridError, "nonnegative"),
    "kinetic_phase_profile.mass": (lambda v: kinetic_phase_profile(_GRID, 0.0, v), GridError, "positive"),
    "free_packet_reference.mass": (lambda v: free_packet_reference(_GRID, PacketSpec(0.0), 0.0, v), GridError,
                                   "positive"),
    **{f"ErrorBudgetParams.{name}": (lambda v, name=name: ErrorBudgetParams(**{"h": 1e-3, name: v}),
                                     ValueError, bound)
       for name, bound in [("h", "positive"), ("dt", "nonnegative"), ("gate_variance", "nonnegative"),
                           ("readout_variance", "nonnegative"), ("t1", "positive"), ("t2", "positive"),
                           ("l2_gates", 0)]},
    "build_qate_circuit.profile width": (lambda v: build_qate_circuit(PhaseProfile(np.zeros(1 << v))),
                                         InvalidWidth, 2),
    "WindowSpec.cp_budget": (lambda v: WindowSpec({0}, v), InfeasibleWindow, 0),
    "Histogram.shots": (lambda v: Histogram(v, [v, 0]), ValueError, 1),
    "sample.shots": (lambda v: sample(_ONE, v, RandomSource(1)), ValueError, 1),
    "swap_test_estimate.shots": (lambda v: swap_test_estimate(_ONE, _ONE, v, RandomSource(1)), ValueError, 1),
    "qate_gate_count": (qate_gate_count, InvalidWidth, 2),
    "baseline_gate_count": (baseline_gate_count, InvalidWidth, 1),
    "build_qft": (build_qft, InvalidWidth, 1),
    "build_qpa_shell.n": (build_qpa_shell, InvalidWidth, 2),
    "momentum_transform_circuit.n": (lambda v: momentum_transform_circuit(v, "centered"), InvalidWidth, 1),
    "build_potential_circuit.n": (lambda v: build_potential_circuit(v, PotentialSpec(), 0.1), InvalidWidth,
                                  1),
}
_SIGN_EDGES = {"positive": (5e-324, 0.0), "nonnegative": (0.0, -5e-324)}


@pytest.mark.parametrize("field", sorted(_BOUNDED))
def test_bounded_field_accepts_its_bound_and_rejects_one_step_past_it(field):
    """The bound itself builds; one step past it, `low - 1` or the nearest
    real of the wrong sign, raises the type's own error in the wording of
    its kind of bound."""
    build, error, bound = _BOUNDED[field]
    if isinstance(bound, str):
        (accepted, rejected), wording = _SIGN_EDGES[bound], f"must be {bound}, got "
    else:
        accepted, rejected, wording = bound, bound - 1, f"must be >= {bound}, got "
    build(accepted)
    with pytest.raises(error, match=wording + re.escape(str(rejected))):
        build(rejected)


# (build from the one value under test, the error it must raise, a word of
# its message, the values): a field that holds a collection, a map or a value
# type rejects what is not one with the type's own error, never a bare
# TypeError or AttributeError, and builds nothing
_WRONG_KIND = {
    "PotentialSpec.qubit_positions": (lambda v: PotentialSpec(1.0, v), GridError, "are not a collection",
                                      [None, 3]),
    "WindowSpec.indices": (WindowSpec, InfeasibleWindow, "are not a collection", [None, 3]),
    "PhaseProfile.thetas": (PhaseProfile, GridError, "must be real numbers", [[1j], "abc", [True], [[0.1, 0.2], [0.3]]]),
    "PhaseProfile.thetas empty": (PhaseProfile, GridError, "profile length 0 is not a power of two", [()]),
    "build_qate_circuit profile": (build_qate_circuit, GridError, "is not a PhaseProfile", [np.zeros(4)]),
    "build_direct_diagonal profile": (build_direct_diagonal, GridError, "is not a PhaseProfile", [np.zeros(4)]),
    "build_qwe_circuit profile": (lambda v: build_qwe_circuit(v, WindowSpec({0})), GridError,
                                  "is not a PhaseProfile", [np.zeros(4)]),
    "EvolutionConfig.grid": (EvolutionConfig, GridError, "is not a Grid", [(10, 3), None]),
    "EvolutionConfig.packet": (lambda v: EvolutionConfig(_GRID, packet=v), GridError, "is not a PacketSpec",
                               [None, 1.0]),
    "EvolutionConfig.potential": (lambda v: EvolutionConfig(_GRID, potential=v), GridError,
                                  "is not a PotentialSpec", [None, (0,)]),
}


@pytest.mark.parametrize("field,bad", [(field, bad) for field, (*_, values) in sorted(_WRONG_KIND.items())
                                       for bad in values])
def test_field_rejects_what_is_not_its_kind(field, bad):
    build, error, wording, _ = _WRONG_KIND[field]
    with pytest.raises(error, match=wording):
        build(bad)


def test_integer_fields_reject_what_is_out_of_range():
    # a negative width is rejected when the state is built, not by the shift
    # that sizes its amplitudes; a width of 0 is one amplitude
    for build in (lambda v: StateVector(v, [1.0]), StateVector.zero_state,
                  lambda v: StateVector.basis_state(v, 0)):
        assert build(0).n_qubits == 0
        with pytest.raises(InvalidWidth, match="n_qubits must be >= 0"):
            build(-1)
    # numpy would wrap -1 to the last basis state
    for index in (-1, 4):
        with pytest.raises(ValueError, match="index"):
            StateVector.basis_state(2, index)
    assert StateVector.basis_state(2, np.int64(3)).amplitudes[3] == 1.0
    assert StateVector.basis_state(2, 0).amplitudes[0] == 1.0
    with pytest.raises(ValueError, match="seed"):
        RandomSource(-1)
    assert RandomSource(0).seed == 0
    assert type(RandomSource(np.int64(7)).seed) is int
    assert RandomSource(np.int64(7)).binomial(1000, 0.5) == RandomSource(7).binomial(1000, 0.5)
    # counts are a 1-D array of non-negative integers that fit int64
    for counts in ([1.5, 1.5], ["1", "1"], [True, True], [3, -1], [[1], [1]]):
        with pytest.raises(ValueError, match="counts"):
            Histogram(2, counts)
    with pytest.raises(ValueError, match="counts"):
        Histogram(2**63, [2**63])
    # five counts of 2^62 wrap to one in an int64 sum
    with pytest.raises(ValueError, match="sum"):
        Histogram(2**62, [2**62] * 5)
    assert Histogram(2**63, [2**62, 2**62]).counts.dtype == np.int64
    assert Histogram(2, np.array([1, 1], dtype=np.uint8)).counts.tolist() == [1, 1]


def test_finite_real_returns_a_python_float_of_any_real_type():
    for value in (3, np.int64(3), np.float32(0.5), np.float64(-2.25), 1e308):
        assert type(finite_real(value, GridError, "x")) is float and finite_real(value, GridError, "x") == value
    assert not is_finite_real(10**400) and is_finite_real(10**300)
    assert type(Grid(10, 3).d) is float and Grid(10, 3).d == 10.0
    assert type(EvolutionConfig(_GRID, dt=np.float64(0.1)).dt) is float
    params = ErrorBudgetParams(np.float64(1e-3), t1=np.inf, t2=50)
    assert (params.t1, params.t2) == (math.inf, 50.0) and type(params.t2) is float
