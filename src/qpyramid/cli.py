"""Command-line front end.

Commands: encode-ke, evolve, fidelity, metrics, error-budget.  Every parameter
has a documented default; flags override values from an optional config file
(plain key=value lines or a previously emitted manifest.json).  The file is
read into click's default_map, so its values are type- and choice-checked
exactly like flags.  Outputs carry no timestamps, so identical parameters
reproduce identical bytes.

Exit codes: 0 success, 2 usage error, 3 validation/infeasible input, 4 I/O.
"""
from __future__ import annotations

import functools
import json
import math
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
    write_table,
)
from .circuit import CircuitError, circuit_to_json
from .encoders import (
    WindowSpec,
    build_direct_diagonal,
    build_qate_circuit,
    build_qwe_circuit,
    solve_qate,
)
from .evolution import (
    EvolutionConfig,
    evolve_quantum,
    export_evolution_result,
    fidelity_sweep,
)
from .grids import Grid, GridError, PacketSpec, PotentialSpec, kinetic_phase_profile
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
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
            raise SystemExit(EXIT_VALIDATION)
        except OSError as exc:
            click.echo(f"i/o error ({getattr(exc, 'filename', '?')}): {exc}", err=True)
            raise SystemExit(EXIT_IO)

    return wrapper


def _parse_config(text: str, path: str) -> dict[str, str]:
    """key=value lines, or a JSON object (a manifest's "params" or flat)."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise click.BadParameter(f"{path}: {exc}") from None
        params = data.get("params", data)
        if not isinstance(params, dict):
            raise click.BadParameter(f"{path}: \"params\" must be a JSON object")
        return {str(k): str(v) for k, v in params.items()}
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.BadParameter(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _load_config(ctx: click.Context, param, path: str | None) -> None:
    """Eager --config callback: the file's values become the command's
    default_map, below flags and above the declared defaults."""
    if path is None:
        return
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise click.BadParameter(f"{path}: {exc}") from None
    except OSError as exc:
        click.echo(f"i/o error ({path}): {exc}", err=True)
        ctx.exit(EXIT_IO)
    ctx.default_map = _parse_config(text, path)


def _parse_qubit_range(text: str) -> range:
    """A single width `n` or an inclusive range `a..b` with a <= b."""
    lo, sep, hi = text.partition("..")
    first = int(lo)
    last = int(hi) if sep else first
    if last < first:
        raise ValueError(f"empty range {text!r}")
    return range(first, last + 1)


def _parse_window(text: str) -> frozenset[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return frozenset(range(int(lo), int(hi) + 1))
    return frozenset(int(part) for part in text.split(","))


def _parse_positions(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _checked(parse, expected: str):
    """Click callback: text that `parse` rejects is a usage error.  The text is
    kept as given, so the manifest records it in the form it was passed."""
    def callback(ctx, param, text):
        if text is not None:
            try:
                parse(text)
            except ValueError:
                raise click.BadParameter(f"{text!r} is not {expected}") from None
        return text
    return callback


_QUBIT_RANGE = _checked(_parse_qubit_range, "n or a..b with integers a <= b")


_POTENTIALS = {"single": PotentialSpec.single_step, "double": PotentialSpec.double_step,
               "multi": PotentialSpec.multi_step}


def _potential_spec(kind: str, eta: float, positions: str | None) -> PotentialSpec:
    """--potential picks the PotentialSpec factory, whose defaults hold the
    positions; --positions is passed on only when given.  `none` takes no
    positions and `single`/`double` exactly one."""
    if kind == "none":
        if positions is not None:
            raise click.BadParameter("--potential none takes no positions", param_hint="'--positions'")
        return PotentialSpec.none()
    if positions is None:
        return _POTENTIALS[kind](eta)
    qubits = _parse_positions(positions)
    if kind == "multi":
        return _POTENTIALS[kind](eta, qubits)
    if len(qubits) != 1:
        raise click.BadParameter(f"--potential {kind} takes exactly one position, got {positions!r}",
                                 param_hint="'--positions'")
    return _POTENTIALS[kind](eta, qubits[0])


def _require_memory(n: int) -> None:
    """Refuse, before anything is allocated, a width whose single statevector
    (16 * 2^n bytes) exceeds the physical memory.  The shift is capped so an
    absurd n does not build a huge integer."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n >= 1 and 16 << min(n, 64) > physical:
        raise GridError(f"one statevector of {n} qubits needs 2^{n + 4} bytes, "
                        f"more than the {physical} bytes of physical memory")


def _write_manifest() -> None:
    """manifest.json: the command and every resolved parameter but `out`,
    readable back through --config."""
    ctx = click.get_current_context()
    params = {k: v for k, v in ctx.params.items() if v is not None and k != "out"}
    os.makedirs(ctx.params["out"], exist_ok=True)
    with open(os.path.join(ctx.params["out"], "manifest.json"), "w") as fh:
        json.dump({"command": ctx.info_name, "params": params}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _options(*options):
    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return decorate


_CONFIG_OPT = click.option("--config", type=click.Path(exists=True), is_eager=True,
                           expose_value=False, callback=_load_config,
                           help="key=value file or a manifest.json; flags override it.")
_WIDTH_OPT = click.option("--qubits", type=int, default=5, help="register width n")
_GRID_OPTS = _options(
    click.option("--d", type=float, default=10.0, help="grid half-range"),
    click.option("--dt", type=float, default=0.1, help="evolution time (per reported step when evolving)"),
    click.option("--mass", type=float, default=1.0, help="particle mass"),
)
_EVOLVE_OPTS = _options(
    _GRID_OPTS,
    click.option("--steps", type=int, default=5, help="reported steps"),
    click.option("--trotter-steps", type=int, default=10, help="substeps per reported step"),
    click.option("--k0", type=float, default=1.0, help="packet wave number"),
    click.option("--potential", type=click.Choice(["none", "single", "double", "multi"]),
                 default="none", help="step potential kind"),
    click.option("--eta", type=float, default=1.0, help="barrier magnitude"),
    click.option("--positions", callback=_checked(_parse_positions, "comma-separated integers"),
                 help="comma-separated potential qubit positions"),
    click.option("--shots", type=int, default=10000, help="measurement shots"),
    click.option("--seed", type=int, default=1234, help="RNG seed"),
    click.option("--mode", type=click.Choice(["paper", "centered"]), default="centered",
                 help="transform convention"),
)
_FORMAT_OPT = click.option("--format", type=click.Choice(["csv", "json"]), default="csv",
                           help="report format")


def _evolution_config(qubits, d, dt, mass, steps, trotter_steps, k0, potential, eta,
                      positions, shots, seed, mode) -> EvolutionConfig:
    return EvolutionConfig(
        grid=Grid(d, qubits), packet=PacketSpec(k0),
        potential=_potential_spec(potential, eta, positions), dt=dt,
        trotter_steps=trotter_steps, total_steps=steps, mode=mode, shots=shots,
        seed=seed, mass=mass,
    )


@click.group(context_settings={"show_default": True})
def main():
    """Diagonal-unitary encoders, split-step evolution, and fidelity reports."""


@main.command("encode-ke")
@_WIDTH_OPT
@_GRID_OPTS
@click.option("--method", type=click.Choice(["qate", "qwe", "direct"]), default="qate",
              help="encoder to build")
@click.option("--window", callback=_checked(_parse_window, "a..b or comma-separated integers"),
              help="half-indices for qwe, e.g. 11..15 or 1,2,4")
@click.option("--cp-budget", type=int, show_default="n-1", help="max controlled phases for qwe")
@click.option("--out", type=click.Path(), default="encode-out", help="output directory")
@_CONFIG_OPT
@_guarded
def cmd_encode_ke(qubits, d, dt, mass, method, window, cp_budget, out):
    """Build a kinetic-energy evolution operator and dump circuit + diagonals."""
    _require_memory(qubits)
    grid = Grid(d, qubits)
    profile = kinetic_phase_profile(grid, dt, mass)
    if method == "qate":
        circuit = build_qate_circuit(qubits, solve_qate(profile.first_half()))
    elif method == "direct":
        circuit = build_direct_diagonal(qubits, profile)
    else:
        if window is None:
            raise click.UsageError("--window is required for method qwe")
        spec = WindowSpec(_parse_window(window), cp_budget)
        circuit = build_qwe_circuit(qubits, profile.first_half(), spec)
    diagonal = extract_diagonal(circuit)
    target = np.exp(-1j * profile.thetas)

    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "circuit.json"), "w") as fh:
        fh.write(circuit_to_json(circuit) + "\n")
    for name, values in (("diagonal.csv", diagonal), ("target.csv", target)):
        write_table(os.path.join(out, name), ["index", "re", "im", "phase"],
                    [range(len(values)), values.real.tolist(), values.imag.tolist(),
                     np.angle(values).tolist()])
    write_table(os.path.join(out, "profile.csv"), ["index", "theta"],
                [range(len(profile)), profile.thetas.tolist()])
    _write_manifest()
    click.echo(f"wrote circuit.json, diagonal.csv, target.csv, profile.csv to {out}")


@main.command("evolve")
@_WIDTH_OPT
@_EVOLVE_OPTS
@click.option("--out", type=click.Path(), default="evolve-out", help="output directory")
@_CONFIG_OPT
@_guarded
def cmd_evolve(out, **params):
    """Evolve the Gaussian packet; write per-step states, histograms, summary."""
    _require_memory(params["qubits"])
    config = _evolution_config(**params)
    result = evolve_quantum(config)
    export_evolution_result(result, out)
    _write_manifest()
    final = result.exact_fidelities[-1]
    click.echo(f"evolved {config.total_steps} steps; final exact fidelity vs reference: {final:.6f}")


@main.command("fidelity")
@click.option("--qubits", default="3..9", callback=_QUBIT_RANGE, help="qubit range a..b (or a single n)")
@_EVOLVE_OPTS
@click.option("--out", type=click.Path(), default="fidelity-out", help="output directory")
@_FORMAT_OPT
@_CONFIG_OPT
@_guarded
def cmd_fidelity(qubits, out, format, **params):
    """Sweep qubit counts, swap-testing each final state against the reference."""
    n_values = _parse_qubit_range(qubits)
    _require_memory(n_values[-1])
    template = _evolution_config(n_values[0], **params)
    rows = [
        fidelity_row(config.grid.n_qubits, config.mode, config.trotter_steps, report)
        for config, report in fidelity_sweep(template, n_values)
    ]
    emit_report(out, fidelity_rows=rows, fmt=format)
    _write_manifest()
    click.echo(f"wrote fidelity report for n in {qubits} to {out}")


@main.command("metrics")
@click.option("--qubits", default="3..6", callback=_QUBIT_RANGE, help="qubit range a..b (or a single n)")
@click.option("--out", type=click.Path(), default="metrics-out", help="output directory")
@_FORMAT_OPT
@_CONFIG_OPT
@_guarded
def cmd_metrics(qubits, out, format):
    """Gate-count and depth table against the reference construction."""
    rows = [metrics_row(n) for n in _parse_qubit_range(qubits)]
    emit_report(out, metrics_rows=rows, fmt=format)
    _write_manifest()
    click.echo(f"wrote metrics for n in {qubits} to {out}")


@main.command("error-budget")
@click.option("--h", type=float, required=True, help="grid step size h")
@click.option("--l2", type=int, default=0, help="two-qubit gate count")
@click.option("--sigma-g2", type=float, default=0.0, help="per-gate error variance")
@click.option("--t1", type=float, default=math.inf, help="relaxation time constant")
@click.option("--t2", type=float, default=math.inf, help="dephasing time constant")
@click.option("--dt", type=float, default=0.0, help="evolution time")
@click.option("--sigma-cr2", type=float, default=0.0, help="readout error variance")
@click.option("--out", type=click.Path(), help="optional output directory")
@_CONFIG_OPT
@_guarded
def cmd_error_budget(h, l2, sigma_g2, t1, t2, dt, sigma_cr2, out):
    """Evaluate the closed-form error budget, itemized per term."""
    params = ErrorBudgetParams(h, l2, sigma_g2, t1, t2, dt, sigma_cr2)
    terms = error_budget_terms(params)
    for name, value in terms.items():
        click.echo(f"{name}: {value!r}")
    total = error_budget(params)
    click.echo(f"total: {total!r}")
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "error_budget.json"), "w") as fh:
            json.dump({**terms, "total": total}, fh, indent=2)
            fh.write("\n")
        _write_manifest()


if __name__ == "__main__":
    main()
