"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured headline numbers (run with -s to see them)."""
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from qpyramid.analysis import swap_test_estimate
from qpyramid.circuit import Circuit, GateKind, baseline_gate_count, count_gates, qate_gate_count
from qpyramid.cli import emit_report, fidelity_row
from qpyramid.cli import main as cli_main
from qpyramid.encoders import WindowSpec, build_qate_circuit, build_qwe_circuit, solve_qate
from qpyramid.evolution import (
    EvolutionConfig,
    evolve_classical_oracle,
    fidelity_sweep,
    splitting_infidelity,
    trotter_step_circuit,
)
from qpyramid.grids import Grid, PacketSpec, PhaseProfile, PotentialSpec, gaussian_packet, kinetic_phase_profile
from qpyramid.simulator import (
    RandomSource,
    StateVector,
    extract_diagonal,
    extract_unitary,
    fidelity_exact,
    run,
)

from oracles import swap_test_probability

MONOTONE_SLACK = 1e-4  # absorbs float-level jitter on the flat part of fidelity curves


def test_criterion_1_appendix_golden_matrices():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)

        sandwich = extract_unitary(Circuit(2).cx(0, 1).p(1, t1).cx(0, 1))
        expected = np.diag([1.0, np.exp(1j * t1), np.exp(1j * t1), 1.0])
        worst = max(worst, float(np.max(np.abs(sandwich - expected))))

        product = extract_unitary(Circuit(3).p(1, t1).p(2, t2))
        half = np.exp(1j * np.array([0.0, t2, t1, t1 + t2]))
        worst = max(worst, float(np.max(np.abs(product - np.diag(np.concatenate([half, half]))))))

        ladder = extract_unitary(
            Circuit(3).cx(0, 1).cx(0, 2).p(1, t1).p(2, t2).cx(0, 2).cx(0, 1)
        )
        mirrored = np.diag(np.concatenate([half, half[::-1]]))
        worst = max(worst, float(np.max(np.abs(ladder - mirrored))))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 appendix golden matrices: PASS (max error {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_qate_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in range(2, 11):
        indices = np.arange(1 << (n - 1), dtype=float)
        for _ in range(25):
            c0, c1, c2 = rng.uniform(-1.0, 1.0, 3)
            half = c0 + c1 * indices + c2 * indices * indices
            circuit = build_qate_circuit(solve_qate(PhaseProfile(half, "half")))
            diagonal = extract_diagonal(circuit)
            target = np.exp(-1j * np.concatenate([half, half[::-1]]))
            aligned = diagonal * (target[0] / diagonal[0])
            worst = max(worst, float(np.max(np.abs(aligned - target))))
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1)
    circuit = build_qate_circuit(solve_qate(kinetic.first_half()))
    kinetic_error = float(
        np.max(np.abs(extract_diagonal(circuit) - np.exp(-1j * kinetic.thetas)))
    )
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert kinetic_error <= 1e-9
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 encoder exactness: PASS (quadratics {worst:.2e}, "
        f"n=5 kinetic {kinetic_error:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_3_gate_counts():
    for n in range(2, 11):
        profile = PhaseProfile(np.linspace(0.0, 2.0, 1 << (n - 1)), "half")
        metrics = count_gates(build_qate_circuit(solve_qate(profile)))
        assert metrics.one_qubit_count == n - 1
        assert metrics.two_qubit_count == math.comb(n - 1, 2) + 2 * (n - 1)
        assert metrics == qate_gate_count(n)
    assert qate_gate_count(4).total == 12
    assert baseline_gate_count(4) == 18
    print("\nACCEPTANCE 3 gate counts: PASS (n=4 total 12 vs baseline 18; formulas exact for n=2..10)")


def test_criterion_4_windowed_worked_examples():
    kinetic = kinetic_phase_profile(Grid(10.0, 5), 0.1).first_half()
    budgets = {}
    for name, window, expected_phases in (
        ("mid", range(11, 16), 4),
        ("side", range(1, 5), 3),
    ):
        circuit = build_qwe_circuit(kinetic, WindowSpec(frozenset(window)))
        phases = sum(1 for g in circuit.gates if g.kind is GateKind.PHASE)
        pairs = sum(1 for g in circuit.gates if g.kind is GateKind.CONTROLLED_PHASE)
        assert phases == expected_phases
        assert pairs == 1
        diagonal = extract_diagonal(circuit)
        target = np.exp(-1j * kinetic.thetas)
        aligned = diagonal * (target[0] / diagonal[0]) if 0 in window else diagonal
        for j in window:
            assert abs(aligned[j] - target[j]) <= 1e-9
        budgets[name] = (phases, pairs)
    print(f"\nACCEPTANCE 4 windowed examples: PASS (mid {budgets['mid']}, side {budgets['side']})")


def test_criterion_5_trotter_order():
    started = time.perf_counter()
    base = EvolutionConfig(
        grid=Grid(10.0, 6),
        packet=PacketSpec(1.0),
        potential=PotentialSpec.single_step(1.0),
        dt=0.1,
        trotter_steps=10,
        total_steps=10,
        mode="centered",
        shots=16,
        seed=3,
    )
    errors = {
        nt: splitting_infidelity(replace(base, trotter_steps=nt))
        for nt in (10, 20, 40)
    }
    factor_one = errors[10] / errors[20]
    factor_two = errors[20] / errors[40]
    elapsed = time.perf_counter() - started
    assert 3.0 <= factor_one <= 5.0
    assert 3.0 <= factor_two <= 5.0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 5 splitting order: PASS (factors {factor_one:.2f}, {factor_two:.2f}; "
        f"errors {errors[10]:.2e} -> {errors[40]:.2e}; {elapsed:.1f}s)"
    )


def test_criterion_6_fidelity_trend(tmp_path):
    template = EvolutionConfig(
        grid=Grid(10.0, 3),
        packet=PacketSpec(1.0),
        potential=PotentialSpec.none(),
        dt=0.1,
        trotter_steps=10,
        total_steps=5,
        mode="paper",
        shots=2048,
        seed=11,
    )
    paper_points = fidelity_sweep(template, range(3, 10))
    paper = [report.exact for _, report in paper_points]
    for left, right in zip(paper, paper[1:]):
        assert right >= left - MONOTONE_SLACK
    assert paper[-1] >= 0.95

    centered_points = fidelity_sweep(replace(template, mode="centered"), range(3, 10))
    centered = [report.exact for _, report in centered_points]
    assert centered[5] >= 0.999  # n = 8
    for left, right in zip(centered, centered[1:]):
        assert right >= left - MONOTONE_SLACK

    # reference-shape deviations are recorded in the report, not failed
    rows = [
        fidelity_row(cfg.grid.n_qubits, cfg.mode, cfg.trotter_steps, rep)
        for cfg, rep in paper_points
    ]
    emit_report(tmp_path, "fidelity", rows)
    report_text = (tmp_path / "fidelity.csv").read_text()
    for (cfg, rep), row in zip(paper_points, rows):
        reference = {3: 0.73, 9: 0.99}.get(cfg.grid.n_qubits)
        if reference is not None and abs(rep.exact - reference) > 0.15:
            assert row[-1] is not None and "deviates" in report_text
    print(
        "\nACCEPTANCE 6 fidelity trend: PASS "
        f"(paper {paper[0]:.3f}->{paper[-1]:.3f}, centered n=8 {centered[5]:.4f})"
    )


def test_criterion_7_swap_test():
    rng = np.random.default_rng(707)
    hits = 0
    for seed in range(100):
        a = StateVector.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
        b = StateVector.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
        report = swap_test_estimate(a, b, 10_000, RandomSource(seed))
        combined = 2.0 * report.std_error
        if abs(report.estimated - fidelity_exact(a, b)) <= 3.0 * combined:
            hits += 1
    assert hits >= 95

    state = StateVector.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
    assert swap_test_probability(state, state) == pytest.approx(1.0, abs=1e-12)
    orthogonal = StateVector.basis_state(4, 3)
    other = StateVector.basis_state(4, 12)
    assert swap_test_probability(orthogonal, other) == pytest.approx(0.5, abs=1e-12)
    print(f"\nACCEPTANCE 7 swap test: PASS ({hits}/100 within 3 combined std errors; endpoints exact)")


def test_criterion_8_cli_determinism(tmp_path):
    runner = CliRunner()
    first = tmp_path / "first"
    second = tmp_path / "second"
    args = ["evolve", "--qubits", "4", "--steps", "2", "--shots", "500",
            "--potential", "single", "--mode", "paper", "--seed", "77"]
    assert runner.invoke(cli_main, args + ["--out", str(first)]).exit_code == 0
    rerun = runner.invoke(cli_main, ["evolve", "--config", str(first / "manifest.json"),
                                     "--out", str(second)])
    assert rerun.exit_code == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    checked = len(names)
    reruns = [
        (["metrics", "--qubits", "3..6"], "metrics.csv"),
        (["encode-ke", "--qubits", "4", "--method", "qate"], "diagonal.csv"),
        (["fidelity", "--qubits", "3..4", "--steps", "1", "--shots", "256"], "fidelity.csv"),
    ]
    for args, artifact in reruns:
        dir_a = tmp_path / f"{args[0]}-a"
        dir_b = tmp_path / f"{args[0]}-b"
        assert runner.invoke(cli_main, args + ["--out", str(dir_a)]).exit_code == 0
        rerun = runner.invoke(cli_main, [args[0], "--config", str(dir_a / "manifest.json"),
                                         "--out", str(dir_b)])
        assert rerun.exit_code == 0, rerun.output
        for path in sorted(dir_a.iterdir()):
            assert path.read_bytes() == (dir_b / path.name).read_bytes(), (args[0], path.name)
            checked += 1
    print(f"\nACCEPTANCE 8 determinism: PASS ({checked} files byte-identical across manifest reruns)")
