import hashlib
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
    ["evolve", "--qubits", "3", "--eta", "inf", "--potential", "single", *_QUICK],
    ["evolve", "--qubits", "3", "--eta", "nan", "--potential", "single", *_QUICK],
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
], ids=lambda args: " ".join(args[:6]))
def test_invalid_input_exits_3_without_traceback(runner, tmp_path, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args + ["--out", str(tmp_path / "x")])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("error: ")
    assert not (tmp_path / "x").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_memory_error_exits_3_without_traceback(runner, tmp_path, monkeypatch):
    def exhausted(config):
        raise MemoryError("Unable to allocate 8.00 GiB")

    monkeypatch.setattr("qpyramid.cli.evolve_quantum", exhausted)
    result = runner.invoke(main, ["evolve", "--qubits", "3", "--out", str(tmp_path / "x")])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == "error: out of memory: Unable to allocate 8.00 GiB\n"


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


# Table bytes at small n for every table kind (diagonal, profile, statevector,
# histogram and reports); a change to the CSV format or to how a column is
# computed shows here.
_GOLDEN = [
    (["encode-ke", "--qubits", "2"], {
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
    (["evolve", "--qubits", "2", "--steps", "1", "--trotter-steps", "1", "--shots", "10"], {
        "step_001_state.csv": (
            'index,bitstring,real,imag,probability\n'
            '0,00,0.0014644433274901465,-0.001985805770344798,6.08801881696511e-06\n'
            '1,01,-0.5705755997614914,-0.42164374033077007,0.5033399588033075\n'
            '2,10,-0.5624016031838417,0.42467905751919904,0.4966478651591505\n'
            '3,11,-0.0014888301518523545,-0.0019675882452791196,6.088018724025269e-06\n'
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
            '1,0.9999999999999987,1.0,0.9999999999999994\n'
        ),
    }),
    (["metrics", "--qubits", "6..7"], {
        "metrics.csv": (
            'n,qate_1q,qate_2q,qate_total,baseline_total,depth_ours,depth_paper_ref,depth_baseline_paper_ref\n'
            '6,5,20,25,33,12,36,40\n'
            '7,6,27,33,42,14,,\n'
        ),
    }),
    (["fidelity", "--qubits", "2..3", "--steps", "1", "--trotter-steps", "1", "--shots", "10"], {
        "fidelity.csv": (
            'n,mode,Nt,exact,swap_estimate,std_error,reference,deviation_note\n'
            '2,centered,1,0.9423214502329914,0.6000000000000001,0.12649110640673517,,\n'
            '3,centered,1,0.9867116251971624,1.0,0.0,0.73,deviates from reference 0.73 by 0.257\n'
        ),
    }),
]


@pytest.mark.parametrize("args, tables", _GOLDEN, ids=[args[0] for args, _ in _GOLDEN])
def test_table_bytes_golden(runner, tmp_path, args, tables):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for name, text in tables.items():
        assert (tmp_path / name).read_text() == text, name


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
    `--positions` must fit `--potential`: none for none, one for single/double."""
    out = tmp_path / "out"
    args = [*command.split(), "--out", str(out)] + (["--h", "0.1"] if command == "error-budget" else [])
    if key == "window":
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
