import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from qpyramid.cli import main
from qpyramid.circuit import circuit_from_json


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
], ids=lambda args: " ".join(args[:6]))
def test_invalid_input_exits_3_without_traceback(runner, tmp_path, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args + ["--out", str(tmp_path / "x")])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("error: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_evolve_multi_step_positions(runner, tmp_path):
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
    config.write_text("this is not a key value line\n")
    result = runner.invoke(main, ["metrics", "--config", str(config)])
    assert result.exit_code == 2
