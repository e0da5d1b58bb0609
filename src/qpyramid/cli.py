"""Command-line front end.

Commands: encode-ke, evolve, fidelity, metrics, error-budget.  Every parameter
has a documented default; flags override values from an optional config file
(plain key=value lines or a previously emitted manifest.json).  Outputs carry
no timestamps, so identical parameters reproduce identical bytes.

Exit codes: 0 success, 2 usage error, 3 validation/infeasible input, 4 I/O.
"""
from __future__ import annotations

import functools
import json
import os

import click
import numpy as np

from .analysis import (
    ErrorBudgetParams,
    emit_report,
    error_budget,
    error_budget_terms,
    fidelity_row,
    metrics_row,
)
from .circuit import CircuitError, circuit_to_json
from .encoders import (
    WindowSpec,
    build_direct_diagonal,
    build_qate_circuit,
    build_qwe_circuit,
    solve_qate,
    write_diagonal_csv,
)
from .evolution import (
    EvolutionConfig,
    evolve_quantum,
    export_evolution_result,
    fidelity_sweep,
)
from .grids import Grid, GridError, PacketSpec, PotentialSpec, kinetic_phase_profile, write_profile_csv
from .simulator import extract_diagonal

EXIT_VALIDATION = 3
EXIT_IO = 4


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (CircuitError, GridError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(EXIT_VALIDATION)
        except OSError as exc:
            click.echo(f"i/o error ({getattr(exc, 'filename', '?')}): {exc}", err=True)
            raise SystemExit(EXIT_IO)

    return wrapper


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        params = data.get("params", data)
        return {str(k): str(v) for k, v in params.items()}
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _pick(flag, file_values: dict, key: str, default, cast):
    if flag is not None:
        return flag
    if key in file_values:
        return cast(file_values[key])
    return default


def _parse_qubit_range(text: str) -> list[int]:
    """A single width `n` or an inclusive range `a..b` with a <= b."""
    lo, sep, hi = text.partition("..")
    try:
        first = int(lo)
        last = int(hi) if sep else first
    except ValueError:
        raise click.UsageError(f"--qubits expects n or a..b with integers, got {text!r}") from None
    if last < first:
        raise click.UsageError(f"--qubits range {text!r} is empty")
    return list(range(first, last + 1))


def _parse_window(text: str) -> frozenset[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return frozenset(range(int(lo), int(hi) + 1))
    return frozenset(int(part) for part in text.split(","))


def _parse_positions(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _potential_from_params(kind: str, eta: float, positions: tuple[int, ...] | None) -> PotentialSpec:
    if kind == "none":
        return PotentialSpec.none()
    if kind == "single":
        return PotentialSpec.single_step(eta, positions[0] if positions else 0)
    if kind == "double":
        return PotentialSpec.double_step(eta, positions[0] if positions else 1)
    return PotentialSpec.multi_step(eta, positions if positions else (0, 1))


def _write_manifest(out_dir: str, command: str, params: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"command": command, "params": params}, fh, indent=2, sort_keys=True)
        fh.write("\n")


_CONFIG_OPT = click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                           help="key=value file or a manifest.json; flags override it.")


@click.group()
def main():
    """Diagonal-unitary encoders, split-step evolution, and fidelity reports."""


@main.command("encode-ke")
@click.option("--qubits", type=int, default=None, help="register width n (default 5)")
@click.option("--d", "half_range", type=float, default=None, help="half-range of the grid (default 10)")
@click.option("--dt", type=float, default=None, help="evolution time encoded in the profile (default 0.1)")
@click.option("--mass", type=float, default=None, help="particle mass (default 1)")
@click.option("--method", type=click.Choice(["qate", "qwe", "direct"]), default=None,
              help="encoder to build (default qate)")
@click.option("--window", type=str, default=None, help="half-indices for qwe, e.g. 11..15 or 1,2,4")
@click.option("--cp-budget", type=int, default=None, help="max controlled phases for qwe (default n-1)")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="output directory (default ./encode-out)")
@_CONFIG_OPT
@_guarded
def cmd_encode_ke(qubits, half_range, dt, mass, method, window, cp_budget, out_dir, config_path):
    """Build a kinetic-energy evolution operator and dump circuit + diagonals."""
    cfg = _load_config_file(config_path)
    n = _pick(qubits, cfg, "qubits", 5, int)
    d = _pick(half_range, cfg, "d", 10.0, float)
    dt = _pick(dt, cfg, "dt", 0.1, float)
    mass = _pick(mass, cfg, "mass", 1.0, float)
    method = _pick(method, cfg, "method", "qate", str)
    window = _pick(window, cfg, "window", None, str)
    cp_budget = _pick(cp_budget, cfg, "cp_budget", None, int)
    out_dir = _pick(out_dir, cfg, "out", "encode-out", str)

    grid = Grid(d, n)
    profile = kinetic_phase_profile(grid, dt, mass)
    if method == "qate":
        circuit = build_qate_circuit(n, solve_qate(profile.first_half()))
    elif method == "direct":
        circuit = build_direct_diagonal(n, profile)
    else:
        if window is None:
            raise click.UsageError("--window is required for method qwe")
        spec = WindowSpec(_parse_window(window), cp_budget)
        circuit = build_qwe_circuit(n, profile.first_half(), spec)
    diagonal = extract_diagonal(circuit)
    target = np.exp(-1j * profile.thetas)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "circuit.json"), "w") as fh:
        fh.write(circuit_to_json(circuit) + "\n")
    write_diagonal_csv(diagonal, os.path.join(out_dir, "diagonal.csv"))
    write_diagonal_csv(target, os.path.join(out_dir, "target.csv"))
    write_profile_csv(profile, os.path.join(out_dir, "profile.csv"))
    params = {"qubits": n, "d": d, "dt": dt, "mass": mass, "method": method}
    if window is not None:
        params["window"] = window
    if cp_budget is not None:
        params["cp_budget"] = cp_budget
    _write_manifest(out_dir, "encode-ke", params)
    click.echo(f"wrote circuit.json, diagonal.csv, target.csv, profile.csv to {out_dir}")


def _evolution_params(cfg, qubits, half_range, dt, steps, trotter_steps, k0,
                      potential, eta, positions, shots, seed, mode, mass):
    n = _pick(qubits, cfg, "qubits", 5, int)
    d = _pick(half_range, cfg, "d", 10.0, float)
    dt = _pick(dt, cfg, "dt", 0.1, float)
    steps = _pick(steps, cfg, "steps", 5, int)
    trotter = _pick(trotter_steps, cfg, "trotter_steps", 10, int)
    k0 = _pick(k0, cfg, "k0", 1.0, float)
    potential = _pick(potential, cfg, "potential", "none", str)
    eta = _pick(eta, cfg, "eta", 1.0, float)
    positions = _pick(positions, cfg, "positions", None, str)
    if isinstance(positions, str):
        positions = _parse_positions(positions)
    shots = _pick(shots, cfg, "shots", 10000, int)
    seed = _pick(seed, cfg, "seed", 1234, int)
    mode = _pick(mode, cfg, "mode", "centered", str)
    mass = _pick(mass, cfg, "mass", 1.0, float)
    spec = _potential_from_params(potential, eta, positions)
    config = EvolutionConfig(
        grid=Grid(d, n), packet=PacketSpec(k0), potential=spec, dt=dt,
        trotter_steps=trotter, total_steps=steps, mode=mode, shots=shots,
        seed=seed, mass=mass,
    )
    params = {"qubits": n, "d": d, "dt": dt, "steps": steps, "trotter_steps": trotter,
              "k0": k0, "potential": potential, "eta": eta, "shots": shots,
              "seed": seed, "mode": mode, "mass": mass}
    if positions is not None:
        params["positions"] = ",".join(str(q) for q in positions)
    return config, params


_EVOLVE_OPTIONS = [
    click.option("--qubits", type=str, default=None, help="register width n, or a..b for sweeps"),
    click.option("--d", "half_range", type=float, default=None, help="grid half-range (default 10)"),
    click.option("--dt", type=float, default=None, help="time per reported step (default 0.1)"),
    click.option("--steps", type=int, default=None, help="reported steps (default 5)"),
    click.option("--trotter-steps", type=int, default=None, help="substeps per reported step (default 10)"),
    click.option("--k0", type=float, default=None, help="packet wave number (default 1.0)"),
    click.option("--potential", type=click.Choice(["none", "single", "double", "multi"]), default=None,
                 help="step potential kind (default none)"),
    click.option("--eta", type=float, default=None, help="barrier magnitude (default 1.0)"),
    click.option("--positions", type=str, default=None, help="comma-separated potential qubit positions"),
    click.option("--shots", type=int, default=None, help="measurement shots (default 10000)"),
    click.option("--seed", type=int, default=None, help="RNG seed (default 1234)"),
    click.option("--mode", type=click.Choice(["paper", "centered"]), default=None,
                 help="transform convention (default centered)"),
    click.option("--mass", type=float, default=None, help="particle mass (default 1)"),
]


def _with_evolve_options(fn):
    for option in reversed(_EVOLVE_OPTIONS):
        fn = option(fn)
    return fn


@main.command("evolve")
@_with_evolve_options
@click.option("--out", "out_dir", type=click.Path(), default=None, help="output directory (default ./evolve-out)")
@_CONFIG_OPT
@_guarded
def cmd_evolve(qubits, half_range, dt, steps, trotter_steps, k0, potential, eta,
               positions, shots, seed, mode, mass, out_dir, config_path):
    """Evolve the Gaussian packet; write per-step states, histograms, summary."""
    cfg = _load_config_file(config_path)
    if qubits is not None and ".." in qubits:
        raise click.UsageError("evolve takes a single --qubits value; use the fidelity command for sweeps")
    single_qubits = int(qubits) if qubits is not None else None
    config, params = _evolution_params(cfg, single_qubits, half_range, dt, steps, trotter_steps,
                                       k0, potential, eta, positions, shots, seed, mode, mass)
    out_dir = _pick(out_dir, cfg, "out", "evolve-out", str)
    result = evolve_quantum(config)
    export_evolution_result(result, out_dir)
    _write_manifest(out_dir, "evolve", params)
    final = result.exact_fidelities[-1]
    click.echo(f"evolved {config.total_steps} steps; final exact fidelity vs reference: {final:.6f}")


@main.command("fidelity")
@_with_evolve_options
@click.option("--out", "out_dir", type=click.Path(), default=None, help="output directory (default ./fidelity-out)")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="report format (default csv)")
@_CONFIG_OPT
@_guarded
def cmd_fidelity(qubits, half_range, dt, steps, trotter_steps, k0, potential, eta,
                 positions, shots, seed, mode, mass, out_dir, fmt, config_path):
    """Sweep qubit counts, swap-testing each final state against the reference."""
    cfg = _load_config_file(config_path)
    qubits = _pick(qubits, cfg, "qubits", "3..9", str)
    n_values = _parse_qubit_range(qubits)
    template, params = _evolution_params(cfg, n_values[0], half_range, dt,
                                         steps, trotter_steps, k0, potential, eta, positions,
                                         shots, seed, mode, mass)
    params["qubits"] = qubits
    out_dir = _pick(out_dir, cfg, "out", "fidelity-out", str)
    fmt = _pick(fmt, cfg, "format", "csv", str)
    rows = [
        fidelity_row(config.grid.n_qubits, config.mode, config.trotter_steps, report)
        for config, report in fidelity_sweep(template, n_values)
    ]
    emit_report(out_dir, fidelity_rows=rows, fmt=fmt)
    _write_manifest(out_dir, "fidelity", params)
    click.echo(f"wrote fidelity report for n in {qubits} to {out_dir}")


@main.command("metrics")
@click.option("--qubits", type=str, default=None, help="qubit range a..b (default 3..6)")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="output directory (default ./metrics-out)")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None, help="report format (default csv)")
@_CONFIG_OPT
@_guarded
def cmd_metrics(qubits, out_dir, fmt, config_path):
    """Gate-count and depth table against the reference construction."""
    cfg = _load_config_file(config_path)
    qubits = _pick(qubits, cfg, "qubits", "3..6", str)
    out_dir = _pick(out_dir, cfg, "out", "metrics-out", str)
    fmt = _pick(fmt, cfg, "format", "csv", str)
    rows = [metrics_row(n) for n in _parse_qubit_range(qubits)]
    emit_report(out_dir, metrics_rows=rows, fmt=fmt)
    _write_manifest(out_dir, "metrics", {"qubits": qubits})
    click.echo(f"wrote metrics for n in {qubits} to {out_dir}")


@main.command("error-budget")
@click.option("--h", "step_size", type=float, default=None, help="grid step size h (required)")
@click.option("--l2", type=int, default=None, help="two-qubit gate count (default 0)")
@click.option("--sigma-g2", type=float, default=None, help="per-gate error variance (default 0)")
@click.option("--t1", type=float, default=None, help="relaxation time constant (default inf)")
@click.option("--t2", type=float, default=None, help="dephasing time constant (default inf)")
@click.option("--dt", type=float, default=None, help="evolution time (default 0)")
@click.option("--sigma-cr2", type=float, default=None, help="readout error variance (default 0)")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="optional output directory")
@_CONFIG_OPT
@_guarded
def cmd_error_budget(step_size, l2, sigma_g2, t1, t2, dt, sigma_cr2, out_dir, config_path):
    """Evaluate the closed-form error budget, itemized per term."""
    cfg = _load_config_file(config_path)
    step_size = _pick(step_size, cfg, "h", None, float)
    if step_size is None:
        raise click.UsageError("--h is required")
    params = ErrorBudgetParams(
        h=step_size,
        l2_gates=_pick(l2, cfg, "l2", 0, int),
        gate_variance=_pick(sigma_g2, cfg, "sigma_g2", 0.0, float),
        t1=_pick(t1, cfg, "t1", float("inf"), float),
        t2=_pick(t2, cfg, "t2", float("inf"), float),
        dt=_pick(dt, cfg, "dt", 0.0, float),
        readout_variance=_pick(sigma_cr2, cfg, "sigma_cr2", 0.0, float),
    )
    terms = error_budget_terms(params)
    for name, value in terms.items():
        click.echo(f"{name}: {value!r}")
    total = error_budget(params)
    click.echo(f"total: {total!r}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "error_budget.json"), "w") as fh:
            json.dump({**terms, "total": total}, fh, indent=2)
            fh.write("\n")
        _write_manifest(out_dir, "error-budget", {
            "h": params.h, "l2": params.l2_gates, "sigma_g2": params.gate_variance,
            "t1": params.t1, "t2": params.t2, "dt": params.dt, "sigma_cr2": params.readout_variance,
        })


if __name__ == "__main__":
    main()
