import math
from dataclasses import replace

import numpy as np
import pytest

from qpyramid.circuit import Circuit, count_gates
from qpyramid.encoders import build_qate_circuit, solve_qate
from qpyramid.evolution import (
    EvolutionConfig,
    centered_transform_matrix,
    evolve_classical_oracle,
    evolve_quantum,
    export_evolution_result,
    fidelity_sweep,
    free_packet_reference,
    momentum_transform_circuit,
    splitting_infidelity,
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
)
from qpyramid.simulator import StateVector, extract_unitary, fidelity_exact, run


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
    ramped.extend(build_qate_circuit(n, solve_qate(profile.first_half())))
    ramped.extend(momentum_transform_circuit(n, "paper", inverse=True))

    from qpyramid.encoders import build_qft

    shifted = np.roll(profile.thetas, size // 2)
    plain = Circuit(n)
    plain.extend(build_qft(n, inverse=True))
    plain.extend(build_qate_circuit(n, solve_qate(PhaseProfile(shifted[: size // 2], "half"))))
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
    encoder = count_gates(build_qate_circuit(5, solve_qate(kinetic.first_half())))
    transforms = count_gates(momentum_transform_circuit(5, "centered"))
    assert metrics.total == 2 * 1 + 2 * transforms.total + encoder.total


# --- classical reference ---


def test_oracle_momentum_distribution_invariant_without_potential():
    config = _config(n=5, total_steps=3)
    states = evolve_classical_oracle(config)
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


# --- quantum evolution ---


def test_zero_steps_returns_initial_only():
    result = evolve_quantum(_config(n=4, total_steps=0))
    assert len(result.states) == 1
    assert result.exact_fidelities == [pytest.approx(1.0)]


def test_centered_mode_matches_oracle_for_any_config():
    potentials = (PotentialSpec.none(), PotentialSpec.single_step(1.0),
                  PotentialSpec.double_step(0.7), PotentialSpec.multi_step(0.5, (0, 2)))
    for n, potential in zip((4, 5, 6, 7), potentials):
        config = _config(n=n, potential=potential, total_steps=2, trotter_steps=4)
        result = evolve_quantum(config)
        for fidelity in result.exact_fidelities:
            assert fidelity >= 1.0 - 1e-6


def test_kinetic_only_high_fidelity_many_substeps():
    config = _config(n=5, trotter_steps=50)
    result = evolve_quantum(config)
    assert result.exact_fidelities[-1] >= 0.999


def test_norm_conserved_every_step():
    config = _config(n=4, potential=PotentialSpec.single_step(1.0), total_steps=3)
    result = evolve_quantum(config)
    for state in result.states:
        assert abs(state.norm() - 1.0) < 1e-9


def test_result_array_lengths():
    config = _config(n=4, total_steps=3)
    result = evolve_quantum(config)
    for field in (result.states, result.oracle_states, result.histograms,
                  result.exact_fidelities, result.swap_reports):
        assert len(field) == 4


def test_evolution_deterministic():
    config = _config(n=4, total_steps=2, potential=PotentialSpec.single_step(1.0), shots=500)
    first = evolve_quantum(config)
    second = evolve_quantum(config)
    for hist_a, hist_b in zip(first.histograms, second.histograms):
        assert hist_a.counts == hist_b.counts
    assert [r.estimated for r in first.swap_reports] == [r.estimated for r in second.swap_reports]


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
    oracle_final = evolve_classical_oracle(config)[-1]
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


def _old_sweep_exact(config):
    """The sweep's exact fidelity computed through the full evolve_quantum run."""
    result = evolve_quantum(config)
    if config.potential.kind == "none":
        total_time = config.dt * config.total_steps
        reference = free_packet_reference(config.grid, config.packet, total_time, config.mass)
    else:
        reference = result.oracle_states[-1]
    return fidelity_exact(reference, result.states[-1])


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
    assert oracle_calls == ([] if potential.kind == "none" else [3, 4])


# --- export ---


def test_export_files_and_determinism(tmp_path):
    config = _config(n=3, total_steps=1, shots=100)
    result = evolve_quantum(config)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    export_evolution_result(result, dir_a)
    export_evolution_result(evolve_quantum(config), dir_b)
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
    assert len(summary) == 3


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
