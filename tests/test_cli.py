import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import qpyramid
from qpyramid import cli
from qpyramid.cli import main
from qpyramid.circuit import circuit_from_json
from qpyramid.grids import PotentialSpec
from qpyramid.simulator import sample


@pytest.fixture
def runner():
    return CliRunner()


def _read_csv_column(path, column):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(column)
    return [line.split(",")[idx] for line in lines[1:]]


# --- encode-ke ---


def test_encode_qate_diagonal_matches_target(runner, tmp_path):
    out = tmp_path / "enc"
    result = runner.invoke(main, ["encode-ke", "--qubits", "5", "--d", "10", "--dt", "0.1",
                                  "--method", "qate", "--out", str(out)])
    assert result.exit_code == 0, result.output
    built = np.loadtxt(out / "diagonal.csv", delimiter=",", skiprows=1)
    target = np.loadtxt(out / "target.csv", delimiter=",", skiprows=1)
    complex_built = built[:, 1] + 1j * built[:, 2]
    complex_target = target[:, 1] + 1j * target[:, 2]
    assert np.max(np.abs(complex_built - complex_target)) < 1e-10
    circuit = circuit_from_json((out / "circuit.json").read_text())
    assert circuit.n_qubits == 5


def test_encode_holds_one_complex_array_per_table(runner, tmp_path, monkeypatch):
    # when each diagonal table starts, the command holds that table's values
    # (one statevector), their phases and the profile's thetas (half a
    # statevector each), plus about 80 KiB of small objects: the target is
    # built only after diagonal.csv is written and the diagonal dropped, so
    # building it first would add a statevector
    n = 14
    held = {}
    write_table = cli.write_table

    def traced_write(path, header, columns):
        held[os.path.basename(path)] = tracemalloc.get_traced_memory()[0]
        write_table(path, header, columns)

    monkeypatch.setattr(cli, "write_table", traced_write)
    tracemalloc.start()
    try:
        result = runner.invoke(main, ["encode-ke", "--qubits", str(n), "--out", str(tmp_path)])
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert max(held["diagonal.csv"], held["target.csv"]) < 2.75 * (16 << n)


def test_encode_qwe_window_rows_match(runner, tmp_path):
    out = tmp_path / "enc"
    result = runner.invoke(main, ["encode-ke", "--qubits", "5", "--method", "qwe",
                                  "--window", "11..15", "--out", str(out)])
    assert result.exit_code == 0, result.output
    built = np.loadtxt(out / "diagonal.csv", delimiter=",", skiprows=1)
    target = np.loadtxt(out / "target.csv", delimiter=",", skiprows=1)
    for j in range(11, 16):
        delta = abs((built[j, 1] + 1j * built[j, 2]) - (target[j, 1] + 1j * target[j, 2]))
        assert delta < 1e-9


def test_encode_qwe_requires_window(runner, tmp_path):
    result = runner.invoke(main, ["encode-ke", "--method", "qwe", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_encode_rejects_single_qubit(runner, tmp_path):
    result = runner.invoke(main, ["encode-ke", "--qubits", "1", "--out", str(tmp_path / "x")])
    assert result.exit_code == 3


def test_encode_direct_method(runner, tmp_path):
    out = tmp_path / "enc"
    result = runner.invoke(main, ["encode-ke", "--qubits", "4", "--method", "direct",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    built = np.loadtxt(out / "diagonal.csv", delimiter=",", skiprows=1)
    target = np.loadtxt(out / "target.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs((built[:, 1] - target[:, 1]) + 1j * (built[:, 2] - target[:, 2]))) < 1e-10
    assert (out / "profile.csv").exists()


def test_encode_infeasible_window_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["encode-ke", "--qubits", "5", "--method", "qwe",
                                  "--window", "0..15", "--cp-budget", "1",
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code == 3


# --- evolve ---


def test_evolve_zero_steps_initial_only(runner, tmp_path):
    out = tmp_path / "ev"
    result = runner.invoke(main, ["evolve", "--qubits", "3", "--steps", "0",
                                  "--shots", "64", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "step_000_state.csv").exists()
    assert not (out / "step_001_state.csv").exists()


def test_evolve_byte_identical_reruns(runner, tmp_path):
    args = ["evolve", "--qubits", "4", "--steps", "2", "--shots", "300",
            "--potential", "single", "--seed", "9"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert runner.invoke(main, args + ["--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out_b)]).exit_code == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == sorted(p.name for p in out_b.iterdir())
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_evolve_manifest_reruns_identically(runner, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    first = runner.invoke(main, ["evolve", "--qubits", "3", "--steps", "1", "--shots", "128",
                                 "--mode", "paper", "--out", str(out_a)])
    assert first.exit_code == 0
    rerun = runner.invoke(main, ["evolve", "--config", str(out_a / "manifest.json"),
                                 "--out", str(out_b)])
    assert rerun.exit_code == 0, rerun.output
    for name in ("summary.csv", "step_000_state.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_evolve_rejects_range(runner, tmp_path):
    result = runner.invoke(main, ["evolve", "--qubits", "3..5", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2


def test_evolve_rejects_single_qubit(runner, tmp_path):
    result = runner.invoke(main, ["evolve", "--qubits", "1", "--out", str(tmp_path / "x")])
    assert result.exit_code == 3
    assert not (tmp_path / "x").exists()


_QUICK = ["--steps", "1", "--shots", "64"]


@pytest.mark.parametrize("args", [
    ["evolve", "--qubits", "4", "--d", "inf", *_QUICK],
    ["evolve", "--qubits", "4", "--d", "nan", *_QUICK],
    ["fidelity", "--qubits", "3..4", "--d", "inf", *_QUICK],
    ["encode-ke", "--qubits", "4", "--d", "inf"],
    ["evolve", "--qubits", "4", "--dt", "nan", *_QUICK],
    ["evolve", "--qubits", "4", "--dt", "inf", *_QUICK],
    ["evolve", "--qubits", "4", "--mass", "nan", *_QUICK],
    ["evolve", "--qubits", "4", "--mass", "inf", *_QUICK],
    ["evolve", "--qubits", "5", "--potential", "single", "--positions", "7", *_QUICK],
    ["fidelity", "--qubits", "3..5", "--potential", "multi", "--positions", "0,3", *_QUICK],
    ["evolve", "--qubits", "3", "--eta", "inf", "--potential", "single", *_QUICK],
    ["evolve", "--qubits", "3", "--eta", "nan", "--potential", "single", *_QUICK],
    # every --potential builds its spec from eta, `none` (the default) too
    ["evolve", "--qubits", "3", "--eta", "inf", *_QUICK],
    ["evolve", "--qubits", "3", "--eta", "nan", *_QUICK],
    # a finite eta whose rotation angle 2 eta t is not
    ["evolve", "--qubits", "3", "--potential", "single", "--eta", "1e308", *_QUICK],
    ["evolve", "--qubits", "3", "--eta", "1e308", "--dt", "1000", *_QUICK],
    ["error-budget", "--h", "nan"],
    ["error-budget", "--h", "inf"],
    ["error-budget", "--h", "0.1", "--t1", "nan"],
    ["error-budget", "--h", "0.1", "--t2", "nan"],
    ["error-budget", "--h", "0.1", "--sigma-g2", "nan"],
    ["error-budget", "--h", "0.1", "--sigma-cr2", "inf"],
    ["error-budget", "--h", "0.1", "--dt", "-1"],
    ["error-budget", "--h", "0.1", "--dt", "inf"],
    # a 40-qubit statevector needs 16 TiB: refused before any array is allocated
    ["encode-ke", "--qubits", "40"],
    ["evolve", "--qubits", "40", "--steps", "0"],
    ["fidelity", "--qubits", "3..40", *_QUICK],
    # values that overflow a float64 or an int64 partway through the computation
    ["fidelity", "--qubits", "3..4", "--k0", "1e308"],
    ["evolve", "--qubits", "3", "--shots", "99999999999999999999"],
    ["fidelity", "--qubits", "3..4", "--shots", "99999999999999999999"],
    ["error-budget", "--h", "1e200"],
    ["error-budget", "--h", "0.1", "--t1", "1e-300", "--dt", "1e300"],
    ["evolve", "--qubits", "3", "--k0", "1e308"],
    ["evolve", "--qubits", "3", "--d", "1e300"],
    ["evolve", "--qubits", "3", "--d", "1e-300"],
    ["evolve", "--qubits", "3", "--mass", "1e-320"],
    ["encode-ke", "--qubits", "3", "--d", "1e-200"],
    # phase angles of 2^52 or more hold no phase and are refused, not wrapped
    ["encode-ke", "--qubits", "3", "--dt", "1e300"],
    ["evolve", "--qubits", "3", "--dt", "1e300", *_QUICK],
], ids=lambda args: " ".join(args[:6]))
def test_invalid_input_exits_3_without_traceback(runner, tmp_path, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args + ["--out", str(tmp_path / "x")])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("error: ")
    assert len(result.output.splitlines()) == 1
    assert not (tmp_path / "x").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _number(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


_EXTREME_FLOAT = (st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e300, 1e-300, -1e-300, 5e-324])
                  | st.floats(allow_nan=True, allow_infinity=True))
_EXTREME_INT = st.sampled_from([2**63, -2**63, 10**20]) | st.integers(-10**30, 10**30)
# each numeric option with a range that runs quickly
_SANE = {
    "--d": st.floats(0.5, 30.0), "--dt": st.floats(0.0, 1.0), "--mass": st.floats(0.1, 10.0),
    "--k0": st.floats(-5.0, 5.0), "--eta": st.floats(-3.0, 3.0), "--steps": st.integers(0, 1),
    "--trotter-steps": st.integers(1, 3), "--shots": st.integers(1, 1000),
    "--seed": st.integers(0, 2**32), "--cp-budget": st.integers(0, 5),
    "--h": st.floats(1e-3, 1.0), "--l2": st.integers(0, 100), "--sigma-g2": st.floats(0.0, 0.01),
    "--t1": st.floats(1.0, 1e3), "--t2": st.floats(1.0, 1e3), "--sigma-cr2": st.floats(0.0, 0.01),
}
_OPTIONS = {
    "evolve": ["--d", "--dt", "--mass", "--k0", "--eta", "--steps", "--trotter-steps", "--shots",
               "--seed"],
    "encode-ke": ["--d", "--dt", "--mass", "--cp-budget"],
    "error-budget": ["--h", "--l2", "--sigma-g2", "--t1", "--t2", "--dt", "--sigma-cr2"],
}
_OPTIONS["fidelity"] = _OPTIONS["evolve"]
_INT_OPTIONS = {"--steps", "--trotter-steps", "--shots", "--seed", "--cp-budget", "--l2"}


@st.composite
def _fuzzed_command(draw):
    """One command at 2..4 qubits and at most one reported step.  Up to three
    of its numeric options take an extreme float (+-inf, nan, +-1e+-300, any
    double) or a large integer; the others a value in a range that runs
    quickly."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    extreme = draw(st.lists(st.sampled_from(options), max_size=3, unique=True))
    values = {}
    for option in options:
        if option not in extreme:
            values[option] = draw(_SANE[option])
        else:
            values[option] = draw(_EXTREME_INT if option in _INT_OPTIONS else _EXTREME_FLOAT)
    if command in ("evolve", "fidelity"):
        # at most one reported step, and none at all under a huge substep count
        limit = 0 if values["--trotter-steps"] > 3 else 1
        values["--steps"] = min(values["--steps"], limit)
    args = [command] + [text for option in options for text in (option, _number(values[option]))]
    if command == "error-budget":
        return args
    low = draw(st.integers(2, 4))
    args += ["--qubits", f"{low}..{draw(st.integers(low, 4))}" if command == "fidelity" else str(low)]
    if command == "encode-ke":
        method = draw(st.sampled_from(["qate", "qwe", "direct"]))
        if method != "qwe":  # --cp-budget is a usage error for the other methods
            at = args.index("--cp-budget")
            del args[at:at + 2]
        return args + ["--method", method] + (["--window", "0..1"] if method == "qwe" else [])
    return args + ["--potential", draw(st.sampled_from(["none", "single", "multi"]))]


@settings(max_examples=200)
@given(_fuzzed_command())
def test_fuzzed_numeric_options_keep_the_exit_contract(args):
    """Exit 0, 2, 3 or 4 with no traceback and no warning, whatever the numbers."""
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args + ["--out", out])
    assert result.exit_code in (0, 2, 3, 4), (result.output, result.exception)
    assert "Traceback" not in result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_memory_error_exits_3_without_traceback(runner, tmp_path, monkeypatch):
    def exhausted(config):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr("qpyramid.cli.evolve_quantum", exhausted)
    result = runner.invoke(main, ["evolve", "--qubits", "3", "--out", str(tmp_path / "x")])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == "error: out of memory: Unable to allocate 8.00 GiB\n"


def _run_capped(args, out, prelude="", env=()):
    """The CLI in a child process whose address space is capped at 1 GiB, so
    a guard that does not fire ends in a MemoryError there instead of taking
    the host's memory.  `prelude` runs in the child before the command, and
    `env` adds to its environment."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = prelude + "import sys\nfrom qpyramid.cli import main\nmain(sys.argv[1:])\n"
    env = dict(os.environ, **dict(env), PYTHONPATH=os.path.dirname(os.path.dirname(qpyramid.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args, "--out", str(out)], env=env,
                          capture_output=True, text=True, preexec_fn=cap, timeout=300)


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _first_rejected_width(command):
    """The narrowest width whose estimated peak exceeds physical memory."""
    return next(n for n in range(1, 64) if cli._statevector_bytes(command, n) > _physical_memory())


@pytest.mark.parametrize("source", ["flag", "config"])
def test_window_bounds_are_checked_before_the_set_is_built(tmp_path, source):
    # 10^8 indices as a set take several GB; the range is checked at its ends
    window = ["--window", "0..100000000"]
    if source == "config":
        (tmp_path / "run.conf").write_text("window=0..100000000\n")
        window = ["--config", str(tmp_path / "run.conf")]
    result = _run_capped(["encode-ke", "--qubits", "4", "--method", "qwe", *window], tmp_path / "x")
    assert (result.returncode, result.stdout, result.stderr) == (
        3, "", "error: window indices must lie in [0, 8)\n")
    assert not (tmp_path / "x").exists()


def _assert_refused(result, command, n, out):
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {command} at {n} qubits needs about ")
    assert result.stderr.endswith(" of physical memory\n")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


def test_metrics_row_at_a_million_qubits_is_arithmetic(tmp_path):
    # the encoder at this width has 5 * 10^11 gates; its row needs none of them
    result = _run_capped(["metrics", "--qubits", "1000000"], tmp_path / "x")
    assert result.returncode == 0, result.stderr
    n = 1000000
    two_qubit = math.comb(n - 1, 2) + 2 * (n - 1)
    assert (tmp_path / "x" / "metrics.csv").read_text().splitlines()[1] == (
        f"{n},{n - 1},{two_qubit},{n - 1 + two_qubit},{3 * n + math.comb(n, 2)},{2 * n},,")


def test_metrics_guard_exits_3_when_the_rows_exceed_memory(tmp_path):
    # 10^11 rows of about 768 bytes each fit in no host's memory
    result = _run_capped(["metrics", "--qubits", "3..100000000000"], tmp_path / "x")
    _assert_refused(result, "metrics", 100000000000, tmp_path / "x")


def test_memory_guard_obeys_a_cgroup_limit_below_physical_memory(runner, tmp_path, monkeypatch):
    limit = tmp_path / "memory.max"
    limit.write_text("1048576\n")  # 1 MiB, less than the interpreter alone
    monkeypatch.setattr(cli, "CGROUP_MEMORY_MAX", str(limit))
    result = runner.invoke(main, ["metrics", "--qubits", "3", "--out", str(tmp_path / "x")])
    assert result.exit_code == 3
    assert result.output == ("error: metrics at 3 qubits needs about 0.0469 GiB, more than the "
                             f"0.000977 GiB cgroup memory limit ({limit})\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("content", ["max\n", f"{1 << 62}\n", "", None],
                         ids=["max", "above-physical", "empty", "missing"])
def test_memory_guard_without_a_lower_cgroup_limit_uses_physical_memory(runner, tmp_path, monkeypatch,
                                                                          content):
    limit = tmp_path / "memory.max"
    if content is not None:
        limit.write_text(content)
    monkeypatch.setattr(cli, "CGROUP_MEMORY_MAX", str(limit))
    assert runner.invoke(main, ["metrics", "--qubits", "3", "--out", str(tmp_path / "x")]).exit_code == 0
    result = runner.invoke(main, ["metrics", "--qubits", "3..100000000000", "--out", str(tmp_path / "y")])
    assert result.exit_code == 3
    assert result.output.endswith(" of physical memory\n")


@pytest.mark.parametrize("command", sorted(cli._STATEVECTORS))
def test_footprint_guard_exits_3_at_the_first_width_past_memory(tmp_path, command):
    """The narrowest width whose estimated peak exceeds physical memory is
    refused before anything is allocated, although one statevector of it
    would fit."""
    n = _first_rejected_width(command)
    assert 16 << n <= _physical_memory()
    args = [command, "--qubits", str(n)] + (["--steps", "0"] if command == "evolve" else [])
    _assert_refused(_run_capped(args, tmp_path / "x"), command, n, tmp_path / "x")


_REPORT_PEAK = """import atexit, sys
def _report_peak():
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM:")).split()[1], file=sys.stderr)
atexit.register(_report_peak)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("args", [["encode-ke", "--qubits", "16"],
                                  ["evolve", "--qubits", "16", "--steps", "2"]],
                         ids=lambda args: args[0])
def test_memory_guard_figure_bounds_the_measured_peak(tmp_path, args):
    result = _run_capped(args, tmp_path / "x", prelude=_REPORT_PEAK)
    assert result.returncode == 0, result.stderr
    peak = int(result.stderr) * 1024
    assert peak <= cli._statevector_bytes(args[0], 16)


def test_failure_after_step_0_keeps_written_steps_and_no_manifest(runner, tmp_path, monkeypatch):
    # each step's tables are written as the step is made; the manifest comes
    # last, so its absence marks a run that did not finish
    calls = []

    def exhausted_on_second_call(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 8.00 GiB")
        return sample(*args)

    monkeypatch.setattr("qpyramid.evolution.sample", exhausted_on_second_call)
    out = tmp_path / "ev"
    result = runner.invoke(main, ["evolve", "--qubits", "3", "--steps", "2", "--shots", "64",
                                  "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == "error: out of memory: Unable to allocate 8.00 GiB\n"
    assert sorted(p.name for p in out.iterdir()) == ["step_000_hist.csv", "step_000_state.csv"]


@pytest.mark.parametrize("kind, positions, expected", [
    ("none", None, ()), ("single", None, (0,)), ("double", None, (1,)), ("multi", None, (0, 1)),
    ("single", "2", (2,)), ("double", "0", (0,)), ("multi", "3", (3,)), ("multi", "0,2,3", (0, 2, 3)),
])
def test_potential_kind_is_eta_at_its_positions(kind, positions, expected):
    assert cli._potential_spec(kind, 0.5, positions) == PotentialSpec(0.5, expected)


def test_evolve_multi_positions(runner, tmp_path):
    out = tmp_path / "ev"
    result = runner.invoke(main, ["evolve", "--qubits", "4", "--steps", "1", "--shots", "64",
                                  "--potential", "multi", "--positions", "0,2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = (out / "summary.csv").read_text().splitlines()
    final_fidelity = float(summary[-1].split(",")[1])
    assert final_fidelity > 1.0 - 1e-6


# --- metrics ---


def test_metrics_reference_columns(runner, tmp_path):
    out = tmp_path / "m"
    result = runner.invoke(main, ["metrics", "--qubits", "3..6", "--out", str(out)])
    assert result.exit_code == 0
    assert _read_csv_column(out / "metrics.csv", "depth_paper_ref") == ["9", "18", "22", "36"]
    assert _read_csv_column(out / "metrics.csv", "depth_baseline_paper_ref") == ["16", "24", "32", "40"]


def test_metrics_single_n(runner, tmp_path):
    out = tmp_path / "m"
    result = runner.invoke(main, ["metrics", "--qubits", "4..4", "--out", str(out)])
    assert result.exit_code == 0
    assert _read_csv_column(out / "metrics.csv", "qate_total") == ["12"]
    assert _read_csv_column(out / "metrics.csv", "baseline_total") == ["18"]


@pytest.mark.parametrize("qubits", ["5..4", "9..3", "3..x", "x", "", "3.5"])
def test_metrics_bad_range_is_usage_error(runner, tmp_path, qubits):
    out = tmp_path / "m"
    result = runner.invoke(main, ["metrics", "--qubits", qubits, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--qubits" in result.output
    assert not out.exists()


# --- fidelity ---


def test_fidelity_sweep_columns(runner, tmp_path):
    out = tmp_path / "f"
    result = runner.invoke(main, ["fidelity", "--qubits", "3..4", "--steps", "1",
                                  "--shots", "128", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "fidelity.csv").read_text().splitlines()
    assert lines[0] == "n,mode,Nt,exact,swap_estimate,std_error,reference,deviation_note"
    assert len(lines) == 3
    assert lines[1].startswith("3,centered,10,")


@pytest.mark.parametrize("qubits", ["9..3", "3..x", "x..5"])
def test_fidelity_bad_range_is_usage_error(runner, tmp_path, qubits):
    out = tmp_path / "f"
    result = runner.invoke(main, ["fidelity", "--qubits", qubits, "--steps", "1",
                                  "--shots", "64", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--qubits" in result.output
    assert not out.exists()


# --- error budget ---


def test_error_budget_stdout_and_file(runner, tmp_path):
    out = tmp_path / "b"
    result = runner.invoke(main, ["error-budget", "--h", "0.00097", "--l2", "8",
                                  "--sigma-g2", "1e-4", "--t1", "100", "--t2", "100",
                                  "--dt", "0.1", "--sigma-cr2", "1e-4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "discretization:" in result.output
    assert "total:" in result.output
    data = json.loads((out / "error_budget.json").read_text())
    assert data["gate"] == pytest.approx(8e-4)


def test_error_budget_requires_h(runner):
    assert runner.invoke(main, ["error-budget"]).exit_code == 2


# Table bytes at small n for every table kind (diagonal, profile, statevector,
# histogram and reports); a change to the CSV format or to how a column is
# computed shows here.
_GOLDEN = {
    "encode-ke": (["encode-ke", "--qubits", "2"], {
        "diagonal.csv": (
            'index,re,im,phase\n'
            '0,0.9999383589428604,-0.011103076810469684,-0.011103304951225529\n'
            '1,0.9999992389915728,-0.001233700237183983,-0.0012337005501361707\n'
            '2,0.9999992389915728,-0.001233700237183983,-0.0012337005501361707\n'
            '3,0.9999383589428604,-0.011103076810469684,-0.011103304951225529\n'
        ),
        "target.csv": (
            'index,re,im,phase\n'
            '0,0.9999383589428604,-0.011103076810469684,-0.011103304951225529\n'
            '1,0.9999992389915728,-0.0012337002371839822,-0.0012337005501361698\n'
            '2,0.9999992389915728,-0.0012337002371839822,-0.0012337005501361698\n'
            '3,0.9999383589428604,-0.011103076810469684,-0.011103304951225529\n'
        ),
        "profile.csv": (
            'index,theta\n'
            '0,0.011103304951225529\n'
            '1,0.0012337005501361698\n'
            '2,0.0012337005501361698\n'
            '3,0.011103304951225529\n'
        ),
    }),
    "evolve": (["evolve", "--qubits", "2", "--steps", "1", "--trotter-steps", "1", "--shots", "10"], {
        "step_001_state.csv": (
            'index,bitstring,real,imag,probability\n'
            '0,00,0.0014644433274900194,-0.001985805770344754,6.088018816964562e-06\n'
            '1,01,-0.5705755997614916,-0.42164374033077034,0.503339958803308\n'
            '2,10,-0.5624016031838419,0.4246790575191991,0.49664786515915077\n'
            '3,11,-0.0014888301518523666,-0.001967588245279135,6.088018724025366e-06\n'
        ),
        "step_001_hist.csv": (
            'bitstring,count,frequency\n'
            '00,0,0.0\n'
            '01,7,0.7\n'
            '10,3,0.3\n'
            '11,0,0.0\n'
        ),
        "summary.csv": (
            'step,exact_fidelity,swap_fidelity,norm\n'
            '0,0.9999999999999998,1.0,0.9999999999999999\n'
            '1,1.0,1.0,0.9999999999999999\n'
        ),
    }),
    "metrics": (["metrics", "--qubits", "6..7"], {
        "metrics.csv": (
            'n,qate_1q,qate_2q,qate_total,baseline_total,depth_ours,depth_paper_ref,depth_baseline_paper_ref\n'
            '6,5,20,25,33,12,36,40\n'
            '7,6,27,33,42,14,,\n'
        ),
    }),
    "fidelity": (["fidelity", "--qubits", "2..3", "--steps", "1", "--trotter-steps", "1", "--shots", "10"], {
        "fidelity.csv": (
            'n,mode,Nt,exact,swap_estimate,std_error,reference,deviation_note\n'
            '2,centered,1,0.9423214502329919,0.6000000000000001,0.12649110640673517,,\n'
            '3,centered,1,0.9867116251971639,1.0,0.0,0.73,deviates from reference 0.73 by 0.257\n'
        ),
    }),
    "evolve-potential": (["evolve", "--qubits", "2", "--steps", "1", "--trotter-steps", "1",
                          "--shots", "10", "--potential", "multi", "--positions", "0,1"], {
        "step_001_state.csv": (
            'index,bitstring,real,imag,probability\n'
            '0,00,0.0012588774348546259,-0.002122085393984914,6.088018815350271e-06\n'
            '1,01,-0.5705755997614906,-0.4216437403307736,0.5033399588033095\n'
            '2,10,-0.5624016031838431,0.4246790575191958,0.4966478651591494\n'
            '3,11,-0.0012849611463656868,-0.002106393500263094,6.08801872562003e-06\n'
        ),
        "step_001_hist.csv": (
            'bitstring,count,frequency\n'
            '00,0,0.0\n'
            '01,7,0.7\n'
            '10,3,0.3\n'
            '11,0,0.0\n'
        ),
        "summary.csv": (
            'step,exact_fidelity,swap_fidelity,norm\n'
            '0,0.9999999999999998,1.0,0.9999999999999999\n'
            '1,1.0,1.0,0.9999999999999999\n'
        ),
    }),
    "metrics-json": (["metrics", "--qubits", "6..7", "--format", "json"], {
        "report.json": (
            '{\n'
            '  "metrics": [\n'
            '    {\n'
            '      "n": 6,\n'
            '      "qate_1q": 5,\n'
            '      "qate_2q": 20,\n'
            '      "qate_total": 25,\n'
            '      "baseline_total": 33,\n'
            '      "depth_ours": 12,\n'
            '      "depth_paper_ref": 36,\n'
            '      "depth_baseline_paper_ref": 40\n'
            '    },\n'
            '    {\n'
            '      "n": 7,\n'
            '      "qate_1q": 6,\n'
            '      "qate_2q": 27,\n'
            '      "qate_total": 33,\n'
            '      "baseline_total": 42,\n'
            '      "depth_ours": 14,\n'
            '      "depth_paper_ref": null,\n'
            '      "depth_baseline_paper_ref": null\n'
            '    }\n'
            '  ]\n'
            '}\n'
        ),
    }),
}


@pytest.mark.parametrize("args, tables", list(_GOLDEN.values()), ids=list(_GOLDEN))
def test_table_bytes_golden(runner, tmp_path, args, tables):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for name, text in tables.items():
        assert (tmp_path / name).read_text() == text, name


# SHA-256 of tables that span several write chunks: the mirror-symmetric
# float columns of `encode-ke --qubits 16` (65536 rows) and the statevector of
# `evolve --qubits 14` (16384 rows, no mirror symmetry).  Each command also
# runs with 5000-row chunks, which put chunk edges inside the mirrored halves;
# the bytes must not depend on the chunk size.
_MULTI_CHUNK_GOLDEN = {
    "encode-ke": (["encode-ke", "--qubits", "16"], {
        "diagonal.csv": "1f55b412690f4b106bfb791a4312940d4222af592255351c0ce0e7faf1734e2d",
        "target.csv": "0958fcbc4c7a2ab3c55dc709d943432c267f7ca8d1f980f1272d9f617e5b51a1",
        "profile.csv": "957aaf43bfe7fdac9319ae774131a9d8bc8103aadeabf90e78d8fbc27094c3e9",
    }),
    "evolve": (["evolve", "--qubits", "14", "--steps", "1", "--trotter-steps", "1"], {
        "step_001_state.csv": "8d375c87c859578f334589cb01f882712d6398799d3d9d67b6aeab5f045c5e42",
    }),
}


@pytest.mark.parametrize("chunk_rows", [cli.TABLE_CHUNK_ROWS, 5000])
@pytest.mark.parametrize("args, digests", list(_MULTI_CHUNK_GOLDEN.values()),
                         ids=list(_MULTI_CHUNK_GOLDEN))
def test_multi_chunk_table_digests(runner, tmp_path, monkeypatch, args, digests, chunk_rows):
    monkeypatch.setattr(cli, "TABLE_CHUNK_ROWS", chunk_rows)
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_evolve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a threaded BLAS reduction (np.vdot, np.linalg.norm) splits its sum by
    # thread, so the packet's normalisation and the fidelities would move
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        result = _run_capped(["evolve", "--qubits", "14", "--steps", "1"], out,
                             env={"OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(outputs[0]) > 3 and outputs[0] == outputs[1]


# circuit.json of `encode-ke --qubits 3` for the two interpolating encoders:
# gate kinds, qubits and angles in order, plus the SHA-256 of the file bytes.
_CX = "ControlledNot"
_CIRCUIT_GOLDEN = {
    "qate": ("83316fbab80b13a01f977398e951e5f7eb315c42b5cfe59cc7b4278bd749b4e6", [
        (_CX, [0, 1], None), (_CX, [0, 2], None),
        ("Phase", [1], 0.04934802200544679), ("Phase", [2], 0.029608813203268074),
        ("ControlledPhase", [1, 2], -0.019739208802178713),
        (_CX, [0, 1], None), (_CX, [0, 2], None),
    ]),
    "direct": ("220274742c590a99cfb699b5ce54be730e314afd3323e3c66c5096adfe69a076", [
        ("Phase", [0], 0.05921762640653615), ("Phase", [1], 0.04934802200544679),
        ("Phase", [2], 0.029608813203268074),
        ("ControlledPhase", [0, 1], -0.07895683520871485),
        ("ControlledPhase", [0, 2], -0.03947841760435742),
        ("ControlledPhase", [1, 2], -0.019739208802178713),
    ]),
}


@pytest.mark.parametrize("method", sorted(_CIRCUIT_GOLDEN))
def test_circuit_json_bytes_golden(runner, tmp_path, method):
    result = runner.invoke(main, ["encode-ke", "--qubits", "3", "--method", method,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    digest, gates = _CIRCUIT_GOLDEN[method]
    data = json.loads((tmp_path / "circuit.json").read_text())
    assert data["n_qubits"] == 3
    assert data["global_phase"] == -0.06045132695667232
    assert [(g["kind"], g["qubits"], g.get("angle")) for g in data["gates"]] == gates
    assert hashlib.sha256((tmp_path / "circuit.json").read_bytes()).hexdigest() == digest


def _json_lines(*lines):
    return "\n".join(lines) + "\n"


_EVOLVE_DEFAULTS = ('    "d": 10.0,', '    "dt": 0.1,', '    "eta": 1.0,')
_EVOLVE_TAIL = ('    "seed": 1234,', '    "shots": 10000,', '    "steps": 5,', '    "trotter_steps": 10',
                '  }', '}')
# Exact bytes of the JSON documents no other golden pins: parameters sorted
# by name under "command" and "params", indent 2 and a trailing newline.
_JSON_GOLDEN = {
    "evolve-manifest": (["evolve", "--potential", "multi", "--positions", "0,2"], {
        "manifest.json": _json_lines(
            '{', '  "command": "evolve",', '  "params": {', *_EVOLVE_DEFAULTS,
            '    "k0": 1.0,', '    "mass": 1.0,', '    "mode": "centered",', '    "positions": "0,2",',
            '    "potential": "multi",', '    "qubits": 5,', *_EVOLVE_TAIL),
    }),
    "fidelity-manifest": (["fidelity", "--format", "json"], {
        "manifest.json": _json_lines(
            '{', '  "command": "fidelity",', '  "params": {', *_EVOLVE_DEFAULTS,
            '    "format": "json",', '    "k0": 1.0,', '    "mass": 1.0,', '    "mode": "centered",',
            '    "potential": "none",', '    "qubits": "3..9",', *_EVOLVE_TAIL),
    }),
    "error-budget": (["error-budget", "--h", "0.00097", "--l2", "8", "--sigma-g2", "1e-4",
                      "--t1", "100", "--t2", "100", "--dt", "0.1"], {
        "error_budget.json": _json_lines(
            '{', '  "discretization": 9.126730000000001e-10,', '  "gate": 0.0008,',
            '  "decoherence": 0.002,', '  "readout": 0.0,', '  "total": 0.002800000912673', '}'),
        "manifest.json": _json_lines(
            '{', '  "command": "error-budget",', '  "params": {', '    "dt": 0.1,',
            '    "h": 0.00097,', '    "l2": 8,', '    "sigma_cr2": 0.0,', '    "sigma_g2": 0.0001,',
            '    "t1": 100.0,', '    "t2": 100.0', '  }', '}'),
    }),
}


@pytest.mark.parametrize("args, documents", list(_JSON_GOLDEN.values()), ids=list(_JSON_GOLDEN))
def test_json_document_bytes_golden(runner, tmp_path, args, documents):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for name, text in documents.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


# --- shared behaviour ---


def test_unknown_flag_fails_fast(runner):
    result = runner.invoke(main, ["metrics", "--frobnicate", "1"])
    assert result.exit_code == 2


def test_config_file_with_flag_override(runner, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("qubits=4..4\n# comment\nformat=csv\n")
    out = tmp_path / "m"
    result = runner.invoke(main, ["metrics", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0
    assert _read_csv_column(out / "metrics.csv", "n") == ["4"]
    out2 = tmp_path / "m2"
    result = runner.invoke(main, ["metrics", "--config", str(config), "--qubits", "3..3",
                                  "--out", str(out2)])
    assert result.exit_code == 0
    assert _read_csv_column(out2 / "metrics.csv", "n") == ["3"]


def test_config_file_rejects_garbage(runner, tmp_path):
    config = tmp_path / "bad.conf"
    out = tmp_path / "m"
    for text in ("this is not a key value line\n", '{"params": {"qubits": "3..4"', '{"params": 5}',
                 "qubits=3..4\n\udcff\n"):
        config.write_bytes(text.encode("utf-8", "surrogateescape"))
        result = runner.invoke(main, ["metrics", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--config" in result.output
        assert not out.exists()
    # a directory exists but cannot be read as a file: an I/O failure
    result = runner.invoke(main, ["metrics", "--config", str(tmp_path), "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert result.output.startswith("i/o error")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [
    ("encode-ke", "method", "qwa"),
    ("encode-ke", "window", "1..x"),
    ("encode-ke", "window", "1,x"),
    ("encode-ke --method qate", "window", "1..3"),
    ("encode-ke --method direct", "window", "1,2"),
    ("encode-ke", "cp-budget", "3"),
    ("encode-ke --method direct", "cp-budget", "0"),
    ("evolve", "potential", "bogus"),
    ("evolve", "qubits", "abc"),
    ("evolve", "positions", "x"),
    ("fidelity", "positions", "0,"),
    ("evolve", "positions", "0"),
    ("evolve --potential single", "positions", "0,2"),
    ("fidelity --potential double", "positions", "1,2"),
    ("fidelity", "format", "xml"),
    ("metrics", "format", "xml"),
    ("error-budget", "t1", "soon"),
])
def test_bad_value_is_usage_error(runner, tmp_path, command, key, value, source):
    """Flag and config-file values pass the same click checks: exit 2, no output.
    `--positions` must fit `--potential`: none for none, one for single/double.
    `--window` and `--cp-budget` are for `--method qwe` only."""
    out = tmp_path / "out"
    args = [*command.split(), "--out", str(out)] + (["--h", "0.1"] if command == "error-budget" else [])
    if key == "window" and "--method" not in command:
        args += ["--method", "qwe"]
    if source == "flag":
        args += [f"--{key}", value]
    else:
        config = tmp_path / "run.conf"
        config.write_text(f"{key}={value}\n")
        args += ["--config", str(config)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"--{key}" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["fidelity", "metrics"])
def test_report_manifest_reruns_identically(runner, tmp_path, command):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = [command, "--qubits", "3..4", "--format", "json", "--out", str(out_a)]
    if command == "fidelity":
        args += ["--steps", "1", "--shots", "64"]
    assert runner.invoke(main, args).exit_code == 0
    rerun = runner.invoke(main, [command, "--config", str(out_a / "manifest.json"), "--out", str(out_b)])
    assert rerun.exit_code == 0, rerun.output
    assert sorted(p.name for p in out_b.iterdir()) == ["manifest.json", "report.json"]
    for name in ("report.json", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


# Manifests as written before they recorded `format`; each must still load.
_OLD_MANIFESTS = {
    "encode-ke": '{"command": "encode-ke", "params": {"cp_budget": 2, "d": 10.0, "dt": 0.1, '
                 '"mass": 1.0, "method": "qwe", "qubits": 4, "window": "5..7"}}',
    "evolve": '{"command": "evolve", "params": {"d": 10.0, "dt": 0.1, "eta": 1.0, "k0": 1.0, '
              '"mass": 1.0, "mode": "paper", "positions": "0", "potential": "single", "qubits": 3, '
              '"seed": 7, "shots": 64, "steps": 1, "trotter_steps": 2}}',
    "fidelity": '{"command": "fidelity", "params": {"d": 10.0, "dt": 0.1, "eta": 1.0, "k0": 1.0, '
                '"mass": 1.0, "mode": "centered", "positions": "0,2", "potential": "multi", '
                '"qubits": "3..4", "seed": 1234, "shots": 64, "steps": 1, "trotter_steps": 2}}',
    "metrics": '{"command": "metrics", "params": {"qubits": "3..4"}}',
    "error-budget": '{"command": "error-budget", "params": {"dt": 0.1, "h": 0.001, "l2": 8, '
                    '"sigma_cr2": 0.0001, "sigma_g2": 0.0001, "t1": Infinity, "t2": 100.0}}',
}


@pytest.mark.parametrize("command", sorted(_OLD_MANIFESTS))
def test_config_file_old_manifest_loads(runner, tmp_path, command):
    config = tmp_path / "manifest.json"
    config.write_text(_OLD_MANIFESTS[command])
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    params = json.loads(_OLD_MANIFESTS[command])["params"]
    if command in ("fidelity", "metrics"):
        params["format"] = "csv"
    assert json.loads((out / "manifest.json").read_text()) == {"command": command, "params": params}
