import hashlib
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qpyramid.circuit import Circuit, count_gates
from qpyramid.encoders import build_qate_circuit, solve_qate
from qpyramid.analysis import FidelityReport
from qpyramid.cli import export_evolution
from qpyramid.evolution import (
    EvolutionConfig,
    EvolutionStep,
    _circuit_states,
    evolve_classical_oracle,
    evolve_quantum,
    fidelity_sweep,
    free_packet_reference,
    momentum_transform_circuit,
    splitting_infidelity,
    sweep_reference_state,
    trotter_step_circuit,
)
from qpyramid.grids import (
    Grid,
    GridError,
    PacketSpec,
    PotentialSpec,
    gaussian_packet,
    kinetic_phase_profile,
    momentum_samples,
    potential_profile,
)
from qpyramid.simulator import (
    Histogram,
    StateVector,
    _diagonal,
    _flip,
    _fourier,
    _hadamard,
    _permute,
    compile_circuit,
    extract_unitary,
    fidelity_exact,
    run,
)

from oracles import centered_transform_matrix, circuit_unitary, index_bitstring, reference_write_table


def _config(n=5, **overrides):
    base = dict(
        grid=Grid(10.0, n),
        packet=PacketSpec(1.0),
        potential=PotentialSpec.none(),
        dt=0.1,
        trotter_steps=10,
        total_steps=1,
        mode="centered",
        shots=64,
        seed=17,
    )
    base.update(overrides)
    return EvolutionConfig(**base)


# --- transform circuits ---


def test_centered_transform_equals_kernel():
    for n in (2, 3, 5):
        grid = Grid(10.0, n)
        forward = extract_unitary(momentum_transform_circuit(n, "centered"))
        kernel = centered_transform_matrix(grid)
        assert np.max(np.abs(forward - kernel)) < 1e-12
        backward = extract_unitary(momentum_transform_circuit(n, "centered", inverse=True))
        assert np.max(np.abs(backward - kernel.conj().T)) < 1e-12


def test_centered_kernel_independent_of_range():
    # the ramp construction depends only on n; the kernel absorbs d the same way
    for d in (2.0, 25.0):
        kernel = centered_transform_matrix(Grid(d, 4))
        circuit_matrix = extract_unitary(momentum_transform_circuit(4, "centered"))
        assert np.max(np.abs(kernel - circuit_matrix)) < 1e-12


def test_paper_transform_is_integer_aligned_kernel():
    # same kernel but with integer-centered grids (half-bin offsets dropped)
    for n in (2, 4):
        size = 1 << n
        j = np.arange(size) - size / 2
        kernel = np.exp(-2j * np.pi * np.outer(j, j) / size) / math.sqrt(size)
        forward = extract_unitary(momentum_transform_circuit(n, "paper"))
        assert np.max(np.abs(forward - kernel)) < 1e-12


def test_paper_transform_is_plain_cascade_plus_single_phase():
    # after angle reduction the integer ramp is one phase gate per side
    circuit = momentum_transform_circuit(6, "paper")
    phases = [g for g in circuit.gates if g.kind.value == "Phase"]
    assert len(phases) == 2
    assert all(g.qubits == (5,) and g.angle == pytest.approx(math.pi) for g in phases)


def test_paper_step_equals_plain_transform_with_reordered_profile():
    # the integer ramps around the cascade are algebraically the same as plain
    # transforms acting on the kinetic profile rolled into DFT frequency order
    from qpyramid.grids import PhaseProfile

    n = 4
    size = 1 << n
    profile = kinetic_phase_profile(Grid(10.0, n), 0.01)

    ramped = Circuit(n)
    ramped.extend(momentum_transform_circuit(n, "paper"))
    ramped.extend(build_qate_circuit(solve_qate(profile.first_half())))
    ramped.extend(momentum_transform_circuit(n, "paper", inverse=True))

    from qpyramid.encoders import build_qft

    shifted = np.roll(profile.thetas, size // 2)
    plain = Circuit(n)
    plain.extend(build_qft(n, inverse=True))
    plain.extend(build_qate_circuit(solve_qate(PhaseProfile(shifted[: size // 2], "half"))))
    plain.extend(build_qft(n))

    difference = extract_unitary(ramped) - extract_unitary(plain)
    assert np.max(np.abs(difference)) < 1e-12


def test_transform_round_trip_identity():
    for mode in ("paper", "centered"):
        circuit = momentum_transform_circuit(4, mode)
        circuit.extend(momentum_transform_circuit(4, mode, inverse=True))
        np.testing.assert_allclose(extract_unitary(circuit), np.eye(16), atol=1e-12)


def test_transform_rejects_unknown_mode():
    with pytest.raises(GridError):
        momentum_transform_circuit(3, "sideways")


# --- single step circuit ---


@pytest.mark.parametrize("mode", ["centered", "paper"])
def test_step_runs_both_transforms_as_fourier_ops(mode):
    # the QATE payload and its CX ladders are one mirrored diagonal op, and
    # the momentum ramps on either side of it are merged away: in centered
    # mode they cancel to 0.0, in paper mode they sum to 2 pi on the last qubit
    config = _config(n=6, mode=mode, potential=PotentialSpec.multi_step(0.5, (0, 2)))
    kernels = [kernel for kernel, _ in compile_circuit(trotter_step_circuit(config)).ops]
    assert kernels.count(_fourier) == 2
    assert kernels.count(_diagonal) == 3  # the tables a held plan keeps
    assert _hadamard not in kernels and _flip not in kernels


@pytest.mark.parametrize("potential", [PotentialSpec.none(), PotentialSpec.single_step(1.0)],
                         ids=["free", "single"])
@pytest.mark.parametrize("mode", ["centered", "paper"])
def test_substep_is_five_ops_in_either_mode(mode, potential):
    # paper mode's two P(pi) ramps on the last qubit meet as one angle of
    # 2 pi, a multiple of 2 pi as a double, and drop like the centered 0.0
    for n in (3, 8, 18):
        plan = compile_circuit(trotter_step_circuit(_config(n=n, mode=mode, potential=potential)))
        assert [kernel for kernel, _ in plan.ops] == [_diagonal, _fourier, _diagonal, _fourier, _diagonal]
    circuit = trotter_step_circuit(_config(n=4, mode=mode, potential=potential))
    np.testing.assert_allclose(extract_unitary(circuit), circuit_unitary(circuit), rtol=0, atol=1e-12)


@pytest.mark.parametrize("potential", [PotentialSpec.none(), PotentialSpec.single_step(1.0)],
                         ids=["free", "single"])
def test_centered_substep_runs_six_table_multiplies(potential):
    # each outer ramp op, the potential half included, is two factor tables
    # over the whole state, and the mirrored QATE op one table read on both
    # control slices
    plan = compile_circuit(trotter_step_circuit(_config(n=14, potential=potential)))
    assert [len(args[0]) for kernel, args in plan.ops if kernel is _diagonal] == [2, 2, 2]


@pytest.mark.parametrize("mode", ["centered", "paper"])
@pytest.mark.parametrize("n", [6, 14])
def test_substep_plan_never_reorders_the_state(n, mode):
    # below the split cut-off both Fourier ops read and leave natural order;
    # from it on the inverse op reads the rotated layout the forward op left
    config = _config(n=n, mode=mode, potential=PotentialSpec.single_step(1.0))
    kernels = [kernel for kernel, _ in compile_circuit(trotter_step_circuit(config)).ops]
    assert kernels.count(_fourier) == 2 and _permute not in kernels


def _buffer(table):
    while table.base is not None:
        table = table.base
    return table


def test_substep_plan_holds_under_one_statevector_of_tables():
    # the two outer ramp ops are one-qubit phases, held as two small factor
    # tables each; only the mirrored QATE op holds a full table, over half
    # the state, whose control-1 slice reads it reversed, as a view; and the
    # two Fourier ops share one pair of small twiddle tables
    plan = compile_circuit(trotter_step_circuit(_config(n=16)))
    diagonals = [args[0] for kernel, args in plan.ops if kernel is _diagonal]
    assert len(diagonals) == 3
    buffers = {id(_buffer(table)): _buffer(table) for tables in diagonals for _, table in tables}
    assert len(buffers) < sum(len(tables) for tables in diagonals)
    forward, inverse = [args[-1] for kernel, args in plan.ops if kernel is _fourier]
    assert forward is inverse
    assert sum(table.size for table in buffers.values()) + sum(table.size for table in forward) < 1 << 16


def test_step_identity_at_zero_dt():
    config = _config(n=4, dt=0.0, trotter_steps=1, potential=PotentialSpec.single_step(1.0))
    unitary = extract_unitary(trotter_step_circuit(config))
    assert np.max(np.abs(unitary - np.eye(16))) < 1e-10


def test_kinetic_substeps_commute():
    # K is diagonal in momentum: Nt substeps equal one step of Nt*delta
    config = _config(n=4, trotter_steps=5)
    state = gaussian_packet(config.grid, config.packet)
    step = trotter_step_circuit(config)
    for _ in range(5):
        state = run(step, state)
    single = trotter_step_circuit(replace(config, trotter_steps=1))
    direct = run(single, gaussian_packet(config.grid, config.packet))
    assert np.max(np.abs(state.amplitudes - direct.amplitudes)) < 1e-10


def test_step_gate_count_composition():
    config = _config(n=5, potential=PotentialSpec.single_step(1.0))
    metrics = count_gates(trotter_step_circuit(config))
    kinetic = kinetic_phase_profile(config.grid, config.dt / config.trotter_steps)
    encoder = count_gates(build_qate_circuit(solve_qate(kinetic.first_half())))
    transforms = count_gates(momentum_transform_circuit(5, "centered"))
    assert metrics.total == 2 * 1 + 2 * transforms.total + encoder.total


# --- classical reference ---


def test_oracle_momentum_distribution_invariant_without_potential():
    config = _config(n=5, total_steps=3)
    states = list(evolve_classical_oracle(config))
    kernel = centered_transform_matrix(config.grid)
    reference = np.abs(kernel @ states[0]) ** 2
    for state in states[1:]:
        assert np.max(np.abs(np.abs(kernel @ state) ** 2 - reference)) < 1e-10


def test_oracle_preserves_norm():
    config = _config(n=5, total_steps=4, potential=PotentialSpec.single_step(2.0))
    for state in evolve_classical_oracle(config):
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_oracle_symmetric_packet_stays_symmetric():
    config = _config(n=5, packet=PacketSpec(0.0), total_steps=2)
    for state in evolve_classical_oracle(config):
        probs = np.abs(state) ** 2
        np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)


def test_oracle_state_bytes_golden():
    # SHA-256 of the final oracle state at n = 14, where numpy's temporary
    # elision starts to evaluate `held * temporary` as `temporary * held`.
    # SIMD complex multiply is not bit-commutative, so hoisting `ramp.conj()`
    # out of the substep, or writing `x *= held`, moves the bytes
    config = EvolutionConfig(Grid(10.0, 14), potential=PotentialSpec.single_step(1.0),
                             total_steps=1, trotter_steps=2)
    final = list(evolve_classical_oracle(config))[-1]
    assert hashlib.sha256(final.tobytes()).hexdigest() == (
        "347cd0bfd8a4fa8c8c7f8885e1de4597409537033cfaa0518a30660b10b301a6")


def _dense_oracle(config):
    """The split-step reference with the dense N x N kernel, as the oracle
    computed it before it used the FFT."""
    grid = config.grid
    p = momentum_samples(grid)
    delta = config.dt / config.trotter_steps
    forward = centered_transform_matrix(grid)
    half_potential = np.exp(-1j * potential_profile(grid, config.potential) * delta / 2.0)
    kinetic = np.exp(-1j * p * p * delta / (2.0 * config.mass))
    states = [gaussian_packet(grid, config.packet).amplitudes]
    for _ in range(config.total_steps * config.trotter_steps):
        psi = kinetic * (forward @ (half_potential * states[-1]))
        states.append(half_potential * (forward.conj().T @ psi))
    return states[::config.trotter_steps]


@pytest.mark.parametrize("n", range(2, 11))
def test_oracle_matches_dense_kernel(n):
    for d, potential in ((10.0, PotentialSpec.none()), (20.0, PotentialSpec.single_step(1.5)),
                         (0.5, PotentialSpec.multi_step(2.0, (0, 1)))):
        config = _config(n=n, grid=Grid(d, n), potential=potential, packet=PacketSpec(1.3),
                         total_steps=2, trotter_steps=3, mass=0.7)
        for fast, dense in zip(evolve_classical_oracle(config), _dense_oracle(config), strict=True):
            assert np.max(np.abs(fast - dense)) < 1e-12


# --- quantum evolution ---


def test_zero_steps_returns_initial_only():
    records = list(evolve_quantum(_config(n=4, total_steps=0)))
    assert len(records) == 1
    assert records[0].exact_fidelity == pytest.approx(1.0)
    assert records[0].exact_fidelity == records[0].swap_report.exact  # one number, read from the report


def test_centered_mode_matches_oracle_for_any_config():
    potentials = (PotentialSpec.none(), PotentialSpec.single_step(1.0),
                  PotentialSpec.double_step(0.7), PotentialSpec.multi_step(0.5, (0, 2)))
    for n, potential in zip((4, 5, 6, 7), potentials):
        config = _config(n=n, potential=potential, total_steps=2, trotter_steps=4)
        for record in evolve_quantum(config):
            assert record.exact_fidelity >= 1.0 - 1e-6


def test_kinetic_only_high_fidelity_many_substeps():
    config = _config(n=5, trotter_steps=50)
    records = list(evolve_quantum(config))
    assert records[-1].exact_fidelity >= 0.999


def test_norm_conserved_every_step():
    config = _config(n=4, potential=PotentialSpec.single_step(1.0), total_steps=3)
    for record in evolve_quantum(config):
        assert abs(record.state.norm() - 1.0) < 1e-9


def test_result_array_lengths():
    config = _config(n=4, total_steps=3)
    records = list(evolve_quantum(config))
    assert len(records) == 4
    for record in records:
        assert record.state.n_qubits == record.reference.n_qubits == 4
        assert record.histogram.shots == record.swap_report.shots == config.shots


def test_stream_keeps_no_earlier_step():
    # memory stays flat in the step count only if a dropped record is freed
    config = _config(n=4, total_steps=3, trotter_steps=2)
    stream = evolve_quantum(config)
    dead = []
    for _ in range(2):
        record = next(stream)
        dead += [weakref.ref(record.state), weakref.ref(record.reference.amplitudes)]
        del record
    record = next(stream)
    assert [ref() for ref in dead] == [None] * 4
    assert record.state.n_qubits == 4


def test_oracle_stream_keeps_no_earlier_step():
    # the oracle yields its own arrays, the initial packet first; once the
    # caller drops one and advances, nothing holds it
    stream = evolve_classical_oracle(_config(n=4, total_steps=2, trotter_steps=2))
    dead = weakref.ref(next(stream))
    next(stream)
    assert dead() is None


def test_kept_reported_states_differ_and_equal_fresh_run_loops():
    # the substeps update one buffer in place; every reported state is a copy
    # of it, so states kept from one stream are not changed by later steps
    config = _config(n=5, total_steps=2, trotter_steps=3, potential=PotentialSpec.single_step(1.0))
    kept = list(_circuit_states(config))
    step = trotter_step_circuit(config)
    state = gaussian_packet(config.grid, config.packet)
    fresh = [state]
    for _ in range(config.total_steps):
        for _ in range(config.trotter_steps):
            state = run(step, state)
        fresh.append(state)
    for a, b in zip(kept, fresh, strict=True):
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(kept[1].amplitudes, kept[2].amplitudes)


def test_evolution_deterministic():
    config = _config(n=4, total_steps=2, potential=PotentialSpec.single_step(1.0), shots=500)
    first = list(evolve_quantum(config))
    second = list(evolve_quantum(config))
    for a, b in zip(first, second, strict=True):
        np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)
    assert [r.swap_report.estimated for r in first] == [r.swap_report.estimated for r in second]


# --- convergence order ---


def test_splitting_error_second_order():
    base = _config(n=4, dt=0.1, total_steps=4, potential=PotentialSpec.single_step(1.0), trotter_steps=8)
    coarse = splitting_infidelity(base)
    fine = splitting_infidelity(replace(base, trotter_steps=16))
    assert 3.0 <= coarse / fine <= 5.0


# --- continuum reference ---


def test_free_packet_reference_matches_fine_grid_oracle():
    # independent cross-check of the closed form against a dense split-step run
    grid = Grid(10.0, 10)
    config = _config(n=10, dt=0.4, trotter_steps=1, total_steps=1, shots=1)
    oracle_final = list(evolve_classical_oracle(config))[-1]
    reference = free_packet_reference(grid, PacketSpec(1.0), 0.4)
    assert fidelity_exact(StateVector(10, oracle_final), reference) > 1.0 - 1e-10


def test_free_packet_reference_at_zero_time():
    grid = Grid(10.0, 5)
    reference = free_packet_reference(grid, PacketSpec(1.3), 0.0)
    packet = gaussian_packet(grid, PacketSpec(1.3))
    assert fidelity_exact(reference, packet) == pytest.approx(1.0)


def test_fidelity_sweep_deterministic_and_sized():
    template = _config(n=3, total_steps=2, shots=256)
    first = fidelity_sweep(template, [3, 4, 5])
    second = fidelity_sweep(template, [3, 4, 5])
    assert [cfg.grid.n_qubits for cfg, _ in first] == [3, 4, 5]
    assert [rep.estimated for _, rep in first] == [rep.estimated for _, rep in second]


def test_potential_without_positions_is_no_potential():
    config = _config(n=4, total_steps=2, potential=PotentialSpec.multi_step(1.0, ()))
    free = replace(config, potential=PotentialSpec.none())
    assert trotter_step_circuit(config).gates == trotter_step_circuit(free).gates
    np.testing.assert_array_equal(sweep_reference_state(config).amplitudes,
                                  sweep_reference_state(free).amplitudes)


def _old_sweep_exact(config):
    """The sweep's exact fidelity computed through the full evolve_quantum run."""
    final = list(evolve_quantum(config))[-1]
    if not config.potential.qubit_positions:
        total_time = config.dt * config.total_steps
        reference = free_packet_reference(config.grid, config.packet, total_time, config.mass)
    else:
        reference = final.reference
    return fidelity_exact(reference, final.state)


@pytest.mark.parametrize("potential", [PotentialSpec.none(), PotentialSpec.single_step(1.0)],
                         ids=["none", "single"])
def test_fidelity_sweep_exact_matches_full_evolution(potential):
    template = _config(n=3, total_steps=2, shots=256, potential=potential)
    for config, report in fidelity_sweep(template, [3, 4, 5]):
        assert report.exact == _old_sweep_exact(config)


@pytest.mark.parametrize("potential", [PotentialSpec.none(), PotentialSpec.single_step(1.0)],
                         ids=["none", "single"])
def test_fidelity_sweep_draws_no_per_step_samples(monkeypatch, potential):
    def fail(*args, **kwargs):
        raise AssertionError("fidelity_sweep drew a per-step histogram")

    monkeypatch.setattr("qpyramid.evolution.sample", fail)
    oracle_calls = []
    real_oracle = evolve_classical_oracle

    def counting_oracle(config):
        oracle_calls.append(config.grid.n_qubits)
        return real_oracle(config)

    monkeypatch.setattr("qpyramid.evolution.evolve_classical_oracle", counting_oracle)
    points = fidelity_sweep(_config(n=3, total_steps=2, shots=256, potential=potential), [3, 4])
    assert len(points) == 2
    assert oracle_calls == ([] if not potential.qubit_positions else [3, 4])


# --- export ---


def test_export_files_and_determinism(tmp_path):
    config = _config(n=3, total_steps=1, shots=100)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    rows = export_evolution(evolve_quantum(config), dir_a)
    export_evolution(evolve_quantum(config), dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == [
        "step_000_hist.csv", "step_000_state.csv",
        "step_001_hist.csv", "step_001_state.csv",
        "summary.csv",
    ]
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    summary = (dir_a / "summary.csv").read_text().splitlines()
    assert summary[0] == "step,exact_fidelity,swap_fidelity,norm"
    assert summary[1:] == [",".join(map(repr, row)) for row in rows]


def test_export_probability_is_the_array_sample_draws_from(tmp_path):
    # the probability column is state.probabilities() bit for bit, the |a|^2
    # that `sample` draws the step's histogram from
    records = list(evolve_quantum(_config(n=5, total_steps=1, shots=100)))
    export_evolution(records, tmp_path)
    state = records[1].state
    rows = (tmp_path / "step_001_state.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [
        [repr(a.real), repr(a.imag), repr(p)]
        for a, p in zip(state.amplitudes.tolist(), state.probabilities().tolist())]


def test_export_frequency_is_python_division(tmp_path):
    # numpy's counts / shots rounds each count to float64 before dividing,
    # which differs from Python's correctly rounded c / shots above 2^53 shots
    shots = 2**60 + 1
    c = next(c for c in range(shots // 3, shots // 3 + 1000) if np.int64(c) / shots != c / shots)
    state = StateVector.zero_state(1)
    record = EvolutionStep(state, state, Histogram(shots, [c, shots - c]),
                           FidelityReport(1.0, 1.0, shots, 0.0))
    export_evolution([record], tmp_path)
    rows = (tmp_path / "step_000_hist.csv").read_text().splitlines()[1:]
    assert rows == [f"0,{c},{c / shots!r}", f"1,{shots - c},{(shots - c) / shots!r}"]


def test_export_peak_holds_no_table_sized_list(tmp_path):
    # one n = 16 record, 1 MiB of amplitudes made before tracing: bitstrings
    # are made a chunk at a time and the probabilities are one float64 array,
    # so the export holds no list of 2^16 strings or floats
    n = 16
    rng = np.random.default_rng(n)
    state = StateVector.from_amplitudes(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    counts = np.zeros(1 << n, dtype=np.int64)
    counts[::4096] = 625
    record = EvolutionStep(state, state, Histogram(10000, counts),
                           FidelityReport(1.0, 1.0, 10000, 0.0))
    tracemalloc.start()
    try:
        export_evolution([record], tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    amplitudes = state.amplitudes.tolist()
    bitstrings = [index_bitstring(i, n) for i in range(1 << n)]
    reference_write_table(tmp_path / "ref.csv", ["index", "bitstring", "real", "imag", "probability"],
                          [range(1 << n), bitstrings, [a.real for a in amplitudes],
                           [a.imag for a in amplitudes], state.probabilities().tolist()])
    assert (tmp_path / "step_000_state.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    rows = (tmp_path / "step_000_hist.csv").read_text().splitlines()
    assert rows[1:3] == [f"{bitstrings[0]},625,0.0625", f"{bitstrings[1]},0,0.0"]


def test_config_validation():
    with pytest.raises(GridError):
        _config(mode="other")
    for bad in (math.nan, math.inf, -0.1):
        with pytest.raises(GridError):
            _config(dt=bad)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(GridError):
            _config(mass=bad)
    with pytest.raises(GridError):
        _config(n=5, potential=PotentialSpec.single_step(1.0, qubit=7))
    with pytest.raises(GridError):
        _config(n=3, potential=PotentialSpec.multi_step(1.0, (0, -1)))
    with pytest.raises(GridError):
        _config(trotter_steps=0)
    with pytest.raises(GridError):
        _config(shots=0)
    for field in ("trotter_steps", "total_steps", "shots", "seed"):
        for bad in (2.5, 2.0, True):
            with pytest.raises(GridError):
                _config(**{field: bad})
    with pytest.raises(GridError):
        _config(seed=-1)
    assert _config(seed=np.uint64(2**63)).seed == 2**63 and type(_config(seed=np.int8(0)).seed) is int
