"""The benchmark's four workloads and their seed-independent correctness checks.

Why these four (one per dominant layer, see BENCHMARK.json):
  sweep         fidelity --qubits 3..10: the paper's fidelity-trend figure;
                the swap test dominates, so a swap-test change shows here.
  encode-dense  encode-ke --qubits 12: the n <= 12 side of extract_diagonal
                (dense 4096^2 unitary check) dominates time and memory.
  encode-wide   encode-ke --qubits 18: the n > 12 GF(2) side of the same
                layer, where CSV export dominates instead.
  trotter-wide  library use at n = 18: one reported step of 10 Trotter
                substeps, dominated by gate kernels.

Only `sweep` takes an input from the seed (its sampling seed); the other
inputs are fixed, so their runs repeat identical work.  The checks never
depend on seeded bytes: a change to the sampling stream (for example an
analytic swap test) must still pass them.

This module imports nothing of qpyramid or numpy at module level: run.py
checks that qpyramid imports from the checkout before it uses them.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_QUBITS = range(3, 11)
SWEEP_SHOTS = 10000  # the CLI default
EXACT_TOL = 1e-9
SWAP_SIGMAS = 5.0
DIAGONAL_TOL = 1e-9
PHASE_TOL = 1e-9
THETA_RTOL = 1e-12
ENCODE_HALF_RANGE = 10.0  # the encode-ke defaults
ENCODE_DT = 0.1
FIDELITY_TOL = 1e-9
NORM_TOL = 1e-10
TROTTER_QUBITS = 18
TROTTER_HALF_RANGE = 20.0
TROTTER_SUBSTEPS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    execute: Callable            # (seed, out_dir) -> None, after set-up imported qpyramid.cli
    check: Callable              # (out_dir) -> list of failure messages
    phase_sensitivity: float     # exponent of the calibration scale for wall_s; fitted slopes
                                 # (calibration.py): sweep 0.79, encode-dense 0.63,
                                 # encode-wide 1.11, trotter-wide 0.80


def _cli(argv_of):
    def execute(seed, out):
        from qpyramid import cli

        cli.main.main(args=argv_of(seed, out), prog_name="qpyramid")
    return execute


def cli_seed(seed: int) -> int:
    """The CLI's PCG64 seed must be non-negative."""
    return seed % (1 << 32)


# ---------------------------------------------------------------- sweep

def check_sweep(out: str) -> list[str]:
    """`exact` equals the seed-commit values within EXACT_TOL, and each
    `swap_estimate` lies within SWAP_SIGMAS binomial sigma of `exact`, with
    sigma = 2 sqrt(p (1 - p) / shots) and p = (1 + exact) / 2."""
    with open(os.path.join(HERE, "reference", "sweep_exact.json")) as fh:
        reference = {int(k): v for k, v in json.load(fh).items()}
    errors = []
    rows = _read_csv(os.path.join(out, "fidelity.csv"))
    seen = []
    for row in rows:
        n = int(row["n"])
        seen.append(n)
        exact = float(row["exact"])
        estimate = float(row["swap_estimate"])
        if abs(exact - reference[n]) > EXACT_TOL:
            errors.append(f"n={n}: exact {exact!r} differs from reference {reference[n]!r}")
        p = (1.0 + exact) / 2.0
        sigma = 2.0 * math.sqrt(p * (1.0 - p) / SWEEP_SHOTS)
        if abs(estimate - exact) > SWAP_SIGMAS * sigma + EXACT_TOL:
            errors.append(f"n={n}: swap_estimate {estimate!r} is more than "
                          f"{SWAP_SIGMAS} sigma ({sigma:.3g}) from exact {exact!r}")
    if seen != list(SWEEP_QUBITS):
        errors.append(f"fidelity.csv rows cover n={seen}, expected {list(SWEEP_QUBITS)}")
    return errors


# ---------------------------------------------------------------- encode

def kinetic_target(n: int):
    """The encode-ke target thetas, computed in this process from the public
    grids functions and checked against the seed-commit values pinned in
    reference/kinetic_thetas.json, so a profile regression fails too.
    Returns (thetas, list of failure messages)."""
    import numpy as np
    from qpyramid.grids import Grid, kinetic_phase_profile

    with open(os.path.join(HERE, "reference", "kinetic_thetas.json")) as fh:
        reference = json.load(fh)[str(n)]
    thetas = kinetic_phase_profile(Grid(ENCODE_HALF_RANGE, n), ENCODE_DT).thetas
    if thetas.shape != (1 << n,):
        return thetas, [f"kinetic profile has shape {thetas.shape}, expected {(1 << n,)}"]
    got = {"sum": float(np.sum(thetas)),
           "index_weighted_sum": float(np.dot(np.arange(1 << n, dtype=np.float64), thetas)),
           **{f"theta[{i}]": float(thetas[int(i)]) for i in reference["samples"]}}
    want = {"sum": reference["sum"], "index_weighted_sum": reference["index_weighted_sum"],
            **{f"theta[{i}]": v for i, v in reference["samples"].items()}}
    wrong = [key for key in want if not math.isclose(got[key], want[key], rel_tol=THETA_RTOL)]
    if wrong:
        key = wrong[0]
        return thetas, [f"kinetic profile differs from the seed commit in {len(wrong)} of "
                        f"{len(want)} pinned values, first {key} = {got[key]!r} vs {want[key]!r}"]
    return thetas, []


def diagonal_tolerance(n: int, thetas) -> float:
    """DIAGONAL_TOL, or the float64 rounding bound when that is larger.

    The target phases reach max(theta) ~ 8.5e7 rad at n = 18 (d = 10,
    dt = 0.1), where one float64 spacing is already 1.5e-8 rad, so no float64
    encoder can meet 1e-9 there.  Each gate angle is rounded once, so the
    bound is gates * eps * max(theta).
    """
    from qpyramid.circuit import qate_gate_count

    eps = 2.0 ** -52
    return max(DIAGONAL_TOL, qate_gate_count(n).total * eps * float(thetas.max()))


def check_encode(n: int, out: str) -> list[str]:
    """max |diagonal - exp(-i theta)| within diagonal_tolerance(n), with the
    target computed here (kinetic_target), not read from target.csv; each row
    of diagonal.csv has its index and a phase that agrees with re + i im; and
    the circuit's gate metrics equal qate_gate_count(n)."""
    import numpy as np
    from qpyramid.circuit import circuit_from_json, count_gates, qate_gate_count

    thetas, errors = kinetic_target(n)
    if errors:
        return errors
    table = np.loadtxt(os.path.join(out, "diagonal.csv"), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (1 << n, 4):
        return [f"diagonal.csv has shape {table.shape}, expected {(1 << n, 4)}"]
    if not np.array_equal(table[:, 0], np.arange(1 << n)):
        errors.append("diagonal.csv index column is not 0 .. 2^n - 1")
    diagonal = table[:, 1] + 1j * table[:, 2]
    worst = float(np.max(np.abs(diagonal - np.exp(-1j * thetas))))
    tol = diagonal_tolerance(n, thetas)
    if not worst <= tol:
        errors.append(f"max |diagonal - target| = {worst:.3g} exceeds {tol:.3g}")
    phase_error = float(np.max(np.abs(np.exp(1j * table[:, 3]) - diagonal)))
    if not phase_error <= PHASE_TOL:
        errors.append(f"diagonal.csv phase column is off from re + i im by {phase_error:.3g}")
    with open(os.path.join(out, "circuit.json")) as fh:
        circuit = circuit_from_json(fh.read())
    got, want = count_gates(circuit), qate_gate_count(n)
    if circuit.n_qubits != n or got != want:
        errors.append(f"circuit metrics {got} on {circuit.n_qubits} qubits, expected {want}")
    return errors


# ---------------------------------------------------------------- trotter-wide

def _trotter_config(evolution, grids):
    return evolution.EvolutionConfig(
        grid=grids.Grid(TROTTER_HALF_RANGE, TROTTER_QUBITS), total_steps=1,
        trotter_steps=TROTTER_SUBSTEPS, mode="centered")


def execute_trotter(seed, out):
    """What a library user runs: build one substep circuit, apply it
    trotter_steps times.  Names are looked up on the modules at call time."""
    import numpy as np
    from qpyramid import evolution, grids, simulator

    config = _trotter_config(evolution, grids)
    circuit = evolution.trotter_step_circuit(config)
    state = grids.gaussian_packet(config.grid, config.packet)
    for _ in range(config.total_steps * config.trotter_steps):
        state = simulator.run(circuit, state)
    np.save(os.path.join(out, "state.npy"), state.amplitudes)


def check_trotter(out: str) -> list[str]:
    """1 - fidelity against the closed-form free packet <= FIDELITY_TOL and
    |norm - 1| <= NORM_TOL."""
    import numpy as np
    from qpyramid import evolution, grids
    from qpyramid.simulator import StateVector, fidelity_exact

    config = _trotter_config(evolution, grids)
    amplitudes = np.load(os.path.join(out, "state.npy"))
    if amplitudes.shape != (1 << TROTTER_QUBITS,):
        return [f"state has shape {amplitudes.shape}"]
    norm = float(np.linalg.norm(amplitudes))
    if not abs(norm - 1.0) <= NORM_TOL:
        return [f"norm {norm!r} deviates from 1 by more than {NORM_TOL}"]
    reference = evolution.free_packet_reference(config.grid, config.packet,
                                                config.dt * config.total_steps, config.mass)
    infidelity = 1.0 - fidelity_exact(StateVector(TROTTER_QUBITS, amplitudes), reference)
    if not infidelity <= FIDELITY_TOL:
        return [f"1 - fidelity = {infidelity:.3g} exceeds {FIDELITY_TOL}"]
    return []


def _read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


WORKLOADS = {
    "sweep": Workload(
        "sweep",
        _cli(lambda seed, out: ["fidelity", "--qubits", "3..10", "--seed", str(cli_seed(seed)),
                                "--out", out]),
        check_sweep, 0.8),
    "encode-dense": Workload(
        "encode-dense",
        _cli(lambda seed, out: ["encode-ke", "--qubits", "12", "--out", out]),
        lambda out: check_encode(12, out), 0.65),
    "encode-wide": Workload(
        "encode-wide",
        _cli(lambda seed, out: ["encode-ke", "--qubits", "18", "--out", out]),
        lambda out: check_encode(18, out), 1.1),
    "trotter-wide": Workload("trotter-wide", execute_trotter, check_trotter, 0.8),
}
