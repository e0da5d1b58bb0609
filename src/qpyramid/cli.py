"""Command-line front end, and the only module that writes files.

Commands: encode-ke, evolve, fidelity, metrics, error-budget.  Every parameter
has a documented default; flags override values from an optional config file
(plain key=value lines or a previously emitted manifest.json).  The file is
read into click's default_map, so its values are type- and choice-checked
exactly like flags.  Outputs carry no timestamps, so identical parameters
reproduce identical bytes.  Every output file goes through one of two
writers, `write_table` (CSV) and `write_json`, which make the output directory
when they write the first file into it, so a run rejected before its first
file leaves no directory.

Exit codes: 0 success, 2 usage error, 3 validation/infeasible input, 4 I/O.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
from collections.abc import Iterable

import click
import numpy as np

from .analysis import ErrorBudgetParams, FidelityReport, error_budget, error_budget_terms
from .circuit import CircuitError, baseline_gate_count, circuit_to_dict, qate_gate_count
from .encoders import (
    InfeasibleWindow,
    WindowSpec,
    build_direct_diagonal,
    build_qate_circuit,
    build_qwe_circuit,
    solve_qate,
)
from .evolution import EvolutionConfig, EvolutionStep, evolve_quantum, fidelity_sweep
from .grids import Grid, GridError, PacketSpec, PotentialSpec, kinetic_phase_profile
from .simulator import extract_diagonal

EXIT_VALIDATION = 3
EXIT_IO = 4


def _guarded(fn):
    """Map the command's failures to exit codes.  Numpy overflow and invalid
    results raise instead of warning, so an input too large or too small to
    compute with (`--k0 1e308`, `--d 1e-300`, a shot count past int64) exits 3
    with one line, like any other rejected value."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (CircuitError, GridError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(EXIT_VALIDATION)
        except ArithmeticError as exc:
            detail = exc.args[-1] if exc.args else type(exc).__name__
            click.echo(f"error: an input is out of numeric range ({detail})", err=True)
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


def _parse_window(text: str) -> range | list[int]:
    """Half-indices in ascending order: `a..b` as a range, which holds no
    elements, or comma-separated integers."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return sorted(int(part) for part in text.split(","))


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


# A command's peak resident memory, estimated before anything is allocated:
# the interpreter with the package loaded, plus so many statevectors (16 bytes
# per amplitude) of the widest register, or for `metrics` so many bytes per
# report row, csv or json.  Fitted to the VmHWM of child processes at
# n = 14..22 (`metrics` at 10^5 and 10^6 rows) and rounded up.
_PROCESS_BYTES = 48 << 20
_STATEVECTORS = {"encode-ke": 5, "evolve": 20, "fidelity": 10}
_REPORT_ROW_BYTES = 768
# The cgroup v2 memory limit of this process, read only.  A missing or
# unreadable file, or "max", sets no limit.
CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _require_memory(n: int, nbytes: int) -> None:
    """Refuse the running command at width n, before it allocates anything,
    when its estimated peak of `nbytes` exceeds the physical memory or a
    lower cgroup memory limit."""
    limit, where = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "of physical memory"
    try:
        with open(CGROUP_MEMORY_MAX) as fh:
            cgroup = int(fh.read())
    except (OSError, ValueError):
        cgroup = limit
    if cgroup < limit:
        limit, where = cgroup, f"cgroup memory limit ({CGROUP_MEMORY_MAX})"
    if nbytes > limit:
        raise GridError(f"{click.get_current_context().info_name} at {n} qubits needs about "
                        f"{nbytes / 2**30:.3g} GiB, more than the {limit / 2**30:.3g} GiB {where}")


def _statevector_bytes(command: str, n: int) -> int:
    """Estimated peak of `command` at width n.  The shift is capped so an
    absurd n does not build a huge integer."""
    return _PROCESS_BYTES + _STATEVECTORS[command] * (16 << min(max(n, 0), 64))


TABLE_CHUNK_ROWS = 4096


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _mirrored(column) -> bool:
    """A float64 array that reads the same reversed, compared bit for bit, so
    0.0 and -0.0 differ and one ulp breaks the symmetry."""
    if column.dtype != np.float64 or column.ndim != 1:
        return False
    bits = column.view(np.int64)
    return np.array_equal(bits, bits[::-1])


def _mirrored_chunks(column):
    """Cells of each chunk of a column equal to its reverse.  Only rows below
    N - N // 2 are formatted; row r of the second half reuses the text of row
    N-1-r.  The cells of rows below N // 2 are held as one newline-joined
    string per chunk, which the second half splits again and reverses."""
    n = len(column)
    low, half = n // 2, n - n // 2
    held = []   # joined text of rows [0, low), one string per chunk
    spare = []  # cells of the last split string not yet reused
    for a in range(0, n, TABLE_CHUNK_ROWS):
        b = min(a + TABLE_CHUNK_ROWS, n)
        cells = list(map(repr, column[a:min(b, half)].tolist()))
        if a < low:
            held.append("\n".join(cells[:low - a]))
        need = b - max(a, half)
        while need > 0:
            if not spare:
                spare = held.pop().split("\n")
            k = min(need, len(spare))
            cells += reversed(spare[-k:])
            del spare[-k:]
            need -= k
        yield cells


class Bitstrings:
    """The column of `n_qubits`-bit binary strings of rows 0 .. 2^n - 1, row i
    being `format(i, "0nb")` with n = `n_qubits`.  Its cells are made a chunk
    at a time from the row index, so no list of 2^n strings is held."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits

    def __len__(self) -> int:
        return 1 << self.n_qubits

    def cells(self, a: int, b: int):
        return map(format, range(a, min(b, len(self))), itertools.repeat(f"0{self.n_qubits}b"))


def _column_chunks(column):
    """The cells of one column, TABLE_CHUNK_ROWS rows at a time."""
    if isinstance(column, np.ndarray):
        if _mirrored(column):
            return _mirrored_chunks(column)
        cells = lambda a, b: map(repr, column[a:b].tolist())
    elif isinstance(column, range):
        cells = lambda a, b: map(str, column[a:b])
    elif isinstance(column, Bitstrings):
        cells = column.cells
    else:
        cells = lambda a, b: map(_format_cell, column[a:b])
    return (cells(a, a + TABLE_CHUNK_ROWS) for a in range(0, len(column), TABLE_CHUNK_ROWS))


def write_table(path, header: list[str], columns) -> None:
    """CSV table with one sequence per header name, all of one length (else
    ValueError): floats in shortest round-trip repr, None as an empty cell, a
    `Bitstrings` column as its finished text.  Each chunk of TABLE_CHUNK_ROWS
    (4096) rows is formatted column by column and written at once, so no
    string or list of cells of the whole table is built.  A float64 array
    column equal to its reverse, bit for bit, is formatted once per mirrored
    pair of rows; the text of its first half is held until the second half
    reuses it, which beside one chunk's cells is what the writer keeps.  The
    file's directory is made if it does not exist."""
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(column) != n_rows for column in columns):
        raise ValueError(f"a table needs one column per header name ({len(header)}), all of one length")
    chunks = [_column_chunks(column) for column in columns]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for cells in zip(*chunks):
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, document) -> None:
    """`document` as JSON with indent 2, keys in the order given, and a
    trailing newline.  Like `write_table`, it makes the file's directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


REPORT_HEADERS = {
    "metrics": ["n", "qate_1q", "qate_2q", "qate_total", "baseline_total",
                "depth_ours", "depth_paper_ref", "depth_baseline_paper_ref"],
    "fidelity": ["n", "mode", "Nt", "exact", "swap_estimate", "std_error",
                 "reference", "deviation_note"],
    "summary": ["step", "exact_fidelity", "swap_fidelity", "norm"],
}

# Reference circuit depths reported for qubit sizes 3..6 (informational columns
# in metrics output; our own depth metric is ASAP layering and is not asserted
# against these).
QATE_DEPTH_REFERENCE = {3: 9, 4: 18, 5: 22, 6: 36}
BASELINE_DEPTH_REFERENCE = {3: 16, 4: 24, 5: 32, 6: 40}

FIDELITY_REFERENCE = {3: 0.73, 9: 0.99}  # published anchor points, qualitative
FIDELITY_REFERENCE_BAND = 0.15


def emit_report(out_dir, section: str, rows, fmt: str = "csv") -> list[str]:
    """Write one report table, whose columns REPORT_HEADERS[section] names,
    one cell each per row (else ValueError); deterministic byte-for-byte.

    csv format writes `<section>.csv`; json writes report.json holding
    {section: [one object per row]}.  Returns the list of paths written.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    header, rows = REPORT_HEADERS[section], list(rows)
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"each {section} row must have {len(header)} cells, one per column")
    if fmt == "csv":
        path = os.path.join(out_dir, f"{section}.csv")
        write_table(path, header, [[row[i] for row in rows] for i in range(len(header))])
    else:
        path = os.path.join(out_dir, "report.json")
        write_json(path, {section: [dict(zip(header, row)) for row in rows]})
    return [path]


def metrics_row(n: int) -> list:
    """One metrics table row comparing encoder cost against the reference count."""
    m = qate_gate_count(n)
    return [
        n, m.one_qubit_count, m.two_qubit_count, m.total, baseline_gate_count(n),
        m.depth, QATE_DEPTH_REFERENCE.get(n), BASELINE_DEPTH_REFERENCE.get(n),
    ]


def fidelity_row(n: int, mode: str, trotter_steps: int, report: FidelityReport) -> list:
    reference = FIDELITY_REFERENCE.get(n)
    note = None
    if reference is not None and abs(report.exact - reference) > FIDELITY_REFERENCE_BAND:
        note = f"deviates from reference {reference} by {abs(report.exact - reference):.3f}"
    return [n, mode, trotter_steps, report.exact, report.estimated, report.std_error,
            reference, note]


def export_evolution(records: Iterable[EvolutionStep], out_dir) -> list[list]:
    """Per-step statevector and histogram CSVs, each pair written as its
    record arrives, then a fidelity/norm summary; returns the summary rows.
    The probability column is `state.probabilities()`, the array `sample`
    draws the step's histogram from.  Every column is an array or is made a
    chunk at a time (`Bitstrings`), so beside the record a step holds only
    its probability array and, past 2^53 shots, its list of frequencies.  A
    run that fails before its first record writes no file and so makes no
    directory."""
    summary_rows = []
    for step, record in enumerate(records):
        state = record.state
        bitstrings = Bitstrings(state.n_qubits)
        amplitudes = state.amplitudes
        write_table(os.path.join(out_dir, f"step_{step:03d}_state.csv"),
                    ["index", "bitstring", "real", "imag", "probability"],
                    [range(len(bitstrings)), bitstrings, amplitudes.real, amplitudes.imag,
                     state.probabilities()])
        # frequency is c / shots correctly rounded, as Python divides ints.
        # numpy's array division rounds each count to float64 first, so it
        # agrees only while shots <= 2^53; past that the Python list is kept
        shots, counts = record.histogram.shots, record.histogram.counts
        write_table(os.path.join(out_dir, f"step_{step:03d}_hist.csv"),
                    ["bitstring", "count", "frequency"],
                    [bitstrings, counts,
                     counts / shots if shots <= 2**53 else [c / shots for c in counts.tolist()]])
        summary_rows.append([step, record.exact_fidelity, record.swap_report.estimated, state.norm()])
    emit_report(out_dir, "summary", summary_rows)
    return summary_rows


def _write_manifest() -> None:
    """manifest.json: the command and every resolved parameter but `out`,
    sorted by name, readable back through --config."""
    ctx = click.get_current_context()
    params = {k: ctx.params[k] for k in sorted(ctx.params) if ctx.params[k] is not None and k != "out"}
    write_json(os.path.join(ctx.params["out"], "manifest.json"), {"command": ctx.info_name, "params": params})


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


def _write_phases(path, values: np.ndarray) -> None:
    """One diagonal as an index, re, im, phase table."""
    write_table(path, ["index", "re", "im", "phase"],
                [range(len(values)), values.real, values.imag, np.angle(values)])


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
    """Build a kinetic-energy evolution operator and dump circuit + diagonals.
    \f
    The diagonal is extracted before any file is written, so a run that fails
    there writes nothing.  The target exp(-i theta) is built only after
    diagonal.csv is written and the diagonal dropped, so one 2^n complex array
    is alive per table.  (--help stops at the form feed above.)"""
    for name, value in (("window", window), ("cp-budget", cp_budget)):
        if value is not None and method != "qwe":
            raise click.BadParameter(f"only --method qwe takes it, not {method}", param_hint=f"'--{name}'")
    _require_memory(qubits, _statevector_bytes("encode-ke", qubits))
    grid = Grid(d, qubits)
    profile = kinetic_phase_profile(grid, dt, mass)
    if method == "qate":
        circuit = build_qate_circuit(solve_qate(profile.first_half()))
    elif method == "direct":
        circuit = build_direct_diagonal(profile)
    else:
        if window is None:
            raise click.UsageError("--window is required for method qwe")
        # bounds first: a range is checked at its ends, before its set is built
        indices, half_size = _parse_window(window), 1 << (qubits - 1)
        if indices and not (0 <= indices[0] and indices[-1] < half_size):
            raise InfeasibleWindow(f"window indices must lie in [0, {half_size})")
        spec = WindowSpec(frozenset(indices), cp_budget)
        circuit = build_qwe_circuit(profile.first_half(), spec)
    diagonal = extract_diagonal(circuit)

    write_json(os.path.join(out, "circuit.json"), circuit_to_dict(circuit))
    _write_phases(os.path.join(out, "diagonal.csv"), diagonal)
    del diagonal  # one 2^n complex array at a time: the target is built next
    _write_phases(os.path.join(out, "target.csv"), np.exp(-1j * profile.thetas))
    write_table(os.path.join(out, "profile.csv"), ["index", "theta"],
                [range(len(profile)), profile.thetas])
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
    _require_memory(params["qubits"], _statevector_bytes("evolve", params["qubits"]))
    config = _evolution_config(**params)
    summary = export_evolution(evolve_quantum(config), out)
    _write_manifest()
    final = summary[-1][1]
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
    _require_memory(n_values[-1], _statevector_bytes("fidelity", n_values[-1]))
    template = _evolution_config(n_values[0], **params)
    rows = [
        fidelity_row(config.grid.n_qubits, config.mode, config.trotter_steps, report)
        for config, report in fidelity_sweep(template, n_values)
    ]
    emit_report(out, "fidelity", rows, fmt=format)
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
    n_values = _parse_qubit_range(qubits)
    _require_memory(n_values[-1], _PROCESS_BYTES + _REPORT_ROW_BYTES * len(n_values))
    rows = [metrics_row(n) for n in n_values]
    emit_report(out, "metrics", rows, fmt=format)
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
        write_json(os.path.join(out, "error_budget.json"), {**terms, "total": total})
        _write_manifest()


if __name__ == "__main__":
    main()
