"""Mutation check: every mutant below must make the tier-1 suite fail.

Each mutant is one textual edit (file, old text, new text) of the package.
It is applied to a fresh copy of `src/`, `tests/` and `pyproject.toml` in a
temporary directory, and the suite runs there with `pytest -x`; the working
tree is never touched.  Two mutants run at a time (never more than the CPU
count), each in its own copy and with one OpenBLAS thread, so two suites
share two cores without spinning BLAS threads; verdicts print in list order.
A mutant whose old text does not occur exactly once is reported as stale, so
the list cannot silently stop applying; `tests/test_mutants.py` checks the
same in the tier-1 suite.  That test is deleted from each copy, since every
mutant removes its own anchor.  A fast path or a memory guarantee that lands
adds its mutant here.

Run from the repository root:

    python tools/mutants.py            # every mutant
    python tools/mutants.py fft-ifft-swapped   # the named ones

A mutant counts as killed only when pytest reports failed tests (exit 1);
any other pytest exit is reported as ERROR.  Exit status 0 when every
mutant is killed, 1 otherwise.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
ANCHOR_TEST = "tests/test_mutants.py"
SIMULATOR = "src/qpyramid/simulator.py"
CLI = "src/qpyramid/cli.py"
EVOLUTION = "src/qpyramid/evolution.py"
CIRCUIT = "src/qpyramid/circuit.py"
GRIDS = "src/qpyramid/grids.py"
ENCODERS = "src/qpyramid/encoders.py"
# suites run at once: each is a separate pytest process, so threads suffice
WORKERS = min(2, os.cpu_count() or 1)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = [
    Mutant("phase-table-doubling-fill", SIMULATOR,
           "upper[block:2 * block] = upper[:block]",
           "upper[block:2 * block] = lower[:block]"),
    *[Mutant(f"label-pass-skips-{kernel}", SIMULATOR,
             "        if kernel is not _diagonal:\n            kernel(tensor, n, *args)",
             f"        if kernel not in (_diagonal, {kernel}):\n            kernel(tensor, n, *args)")
      for kernel in ("_permute", "_cswap", "_flip")],
    Mutant("phase-table-reversed-qubits", SIMULATOR,
           "touched = sorted(set(linear).union(rows, *rows.values()))",
           "touched = sorted(set(linear).union(rows, *rows.values()), reverse=True)"),
    Mutant("factor-constant-in-both-tables", SIMULATOR,
           "parts = [(touched[:cut], const), (touched[cut:], 1)]",
           "parts = [(touched[:cut], const), (touched[cut:], const)]"),
    Mutant("factoring-splits-pairwise-half", SIMULATOR,
           "if not rows and len(touched) > 1:",
           "if len(touched) > 1:"),
    Mutant("factor-drops-lowest-qubit", SIMULATOR,
           "(touched[cut:], 1)",
           "(touched[cut + 1:], 1)"),
    Mutant("fft-ifft-swapped", SIMULATOR,
           "transform = np.fft.fft if inverse else np.fft.ifft",
           "transform = np.fft.ifft if inverse else np.fft.fft"),
    Mutant("fourier-match-ignores-angles", SIMULATOR,
           "if list(gates[start:stop]) == template else None",
           "if [(g.kind, g.qubits) for g in gates[start:stop]] == [(g.kind, g.qubits) for g in template]"
           " else None"),
    Mutant("plan-reuses-first-diagonal-tables", SIMULATOR,
           "            args = (tuple(_phase_tables(n, *args)),)",
           "            args = next((held for k, held in ops if k is _diagonal),\n"
           "                        (tuple(_phase_tables(n, *args)),))"),
    # a CX-ladder shell is one mirrored diagonal op whose control-1 half
    # reads the payload's tables reversed over the targets, and a diagonal
    # op after it merges into the one before it
    Mutant("mirror-uses-unflipped-tables", SIMULATOR,
           "(slice(1, 2),), np.flip(table, sorted(targets))",
           "(slice(1, 2),), table"),
    Mutant("mirror-misses-a-target", SIMULATOR,
           "np.flip(table, sorted(targets))",
           "np.flip(table, sorted(targets)[1:])"),
    Mutant("fold-ignores-control-term", SIMULATOR,
           "                and last_kernel is _diagonal and len(last_args) == 1\n"
           "                and all(args[0] not in key for key in last_args[0])):",
           "                and last_kernel is _diagonal and len(last_args) == 1):"),
    Mutant("merge-across-plain-flip", SIMULATOR,
           "last_kernel is _diagonal and len(last_args) == 3",
           "(last_kernel is _diagonal and len(last_args) == 3 or last_kernel is _flip)"),
    # a sum of finite angles past the float range is refused, not tabled
    Mutant("angle-sum-unchecked", SIMULATOR,
           "if not math.isfinite(total):",
           "if False:"),
    Mutant("merge-keeps-2pi-multiples", SIMULATOR,
           "if math.remainder(_add_angle(terms, key, angle), 2 * math.pi) == 0.0:",
           "if _add_angle(terms, key, angle) == 0.0:"),
    # `run` keeps a circuit's plan only while the circuit equals its snapshot
    Mutant("memo-compares-gate-count", SIMULATOR,
           "(plan.n_qubits, plan.global_phase, plan.gates) != (\n"
           "            circuit.n_qubits, circuit.global_phase, tuple(circuit.gates))",
           "(plan.n_qubits, plan.global_phase, len(plan.gates)) != (\n"
           "            circuit.n_qubits, circuit.global_phase, len(circuit.gates))"),
    Mutant("memo-ignores-global-phase", SIMULATOR,
           "(plan.n_qubits, plan.global_phase, plan.gates) != (\n"
           "            circuit.n_qubits, circuit.global_phase, tuple(circuit.gates))",
           "(plan.n_qubits, plan.gates) != (\n"
           "            circuit.n_qubits, tuple(circuit.gates))"),
    # Plan.apply updates its argument in place and copies nothing; `run`
    # copies its input once, and the Trotter loop copies each reported state
    Mutant("apply-copies-first", SIMULATOR,
           "        try:\n            tensor = np.reshape(amplitudes, -1, copy=False)",
           "        amplitudes = amplitudes.copy()\n"
           "        try:\n            tensor = np.reshape(amplitudes, -1, copy=False)"),
    Mutant("apply-reshape-may-copy", SIMULATOR,
           "np.reshape(amplitudes, -1, copy=False)",
           "np.reshape(amplitudes, -1)"),
    Mutant("apply-accepts-any-dtype", SIMULATOR,
           "if not isinstance(amplitudes, np.ndarray) or amplitudes.dtype != np.complex128:",
           "if not isinstance(amplitudes, np.ndarray):"),
    Mutant("run-aliases-input", SIMULATOR,
           "plan.apply(initial.amplitudes.astype(np.complex128))",
           "plan.apply(initial.amplitudes.astype(np.complex128, copy=False))"),
    Mutant("stream-yields-buffer", EVOLUTION,
           "StateVector(plan.n_qubits, amplitudes.copy())",
           "StateVector(plan.n_qubits, amplitudes)"),
    Mutant("substeps-one-short", EVOLUTION,
           "        for _ in range(config.trotter_steps):\n            state = substep(state)",
           "        for _ in range(config.trotter_steps - 1):\n            state = substep(state)"),
    # the two-pass Fourier op from _SPLIT_FOURIER_MIN_QUBITS on
    Mutant("split-twiddle-wrong-sign", SIMULATOR,
           "factored *= table.conj() if inverse else table",
           "factored *= table if inverse else table.conj()"),
    Mutant("rotated-input-natural-pass-order", SIMULATOR,
           "first, second = (1, 0) if rotated else (0, 1)",
           "first, second = (0, 1)"),
    # the compiler keeps one qubit layout: Swap gates and split Fourier ops
    # change it, every op is compiled onto it, and a transpose restores
    # natural order where a Fourier op or the end of the plan needs it
    Mutant("swap-leaves-layout", SIMULATOR,
           "axis[a], axis[b] = axis[b], axis[a]",
           "axis[a], axis[b] = axis[a], axis[b]"),
    Mutant("ops-ignore-layout", SIMULATOR,
           "kind, qubits = gate.kind, tuple(axis[q] for q in gate.qubits)",
           "kind, qubits = gate.kind, gate.qubits"),
    Mutant("fourier-skips-layout-permute", SIMULATOR,
           "                ops.append((_permute, (layout,)))\n",
           ""),
    Mutant("plan-ends-in-layout", SIMULATOR,
           "    if tuple(axis) != natural:\n        ops.append((_permute, (tuple(axis),)))\n",
           ""),
    Mutant("split-never-reached", SIMULATOR,
           "if twiddles is None and n >= _SPLIT_FOURIER_MIN_QUBITS:",
           "if twiddles is None and n >= 64:"),
    Mutant("mirror-float-equality", CLI,
           "    bits = column.view(np.int64)\n    return np.array_equal(bits, bits[::-1])",
           "    return np.array_equal(column, column[::-1])"),
    Mutant("mirror-holds-odd-middle-row", CLI,
           "low, half = n // 2, n - n // 2",
           "low, half = n - n // 2, n - n // 2"),
    Mutant("mirror-even-off-by-one", CLI,
           "low, half = n // 2, n - n // 2",
           "low, half = n // 2, n // 2 + 1"),
    Mutant("mirror-drops-odd-middle-row", CLI,
           "column[a:min(b, half)]",
           "column[a:min(b, low)]"),
    # numpy's temporary elision turns `held * temporary` into `temporary *
    # held` from 256 KiB up, and SIMD complex multiply is not commutative bit
    # for bit, so holding the conjugated ramps moves the oracle's bytes
    Mutant("oracle-hoists-conj", EVOLUTION,
           "    def substep(psi):\n"
           "        psi = half_potential * psi\n"
           "        psi = kinetic * forward_ramp * np.fft.fft(ramp * psi, norm=\"ortho\")\n"
           "        psi = ramp.conj() * np.fft.ifft(forward_ramp.conj() * psi, norm=\"ortho\")\n",
           "    ramp_conj, forward_ramp_conj = ramp.conj(), forward_ramp.conj()\n"
           "\n"
           "    def substep(psi):\n"
           "        psi = half_potential * psi\n"
           "        psi = kinetic * forward_ramp * np.fft.fft(ramp * psi, norm=\"ortho\")\n"
           "        psi = ramp_conj * np.fft.ifft(forward_ramp_conj * psi, norm=\"ortho\")\n"),
    Mutant("oracle-in-place-potential", EVOLUTION,
           "        return half_potential * psi",
           "        psi *= half_potential\n        return psi"),
    Mutant("frequency-numpy-division-past-2^53", CLI,
           "counts / shots if shots <= 2**53 else",
           "counts / shots if True else"),
    Mutant("stream-keeps-previous-record", EVOLUTION,
           "        yield EvolutionStep(state, reference, histogram, report)",
           "        record = EvolutionStep(state, reference, histogram, report)\n"
           "        yield record\n"
           "        previous = record"),
    Mutant("stream-keeps-initial-state", EVOLUTION,
           "def _split_step_states(state, substep, config: EvolutionConfig) -> Iterator:",
           "def _split_step_states(initial, substep, config: EvolutionConfig) -> Iterator:\n"
           "    state = initial"),
    Mutant("manifest-params-unsorted", CLI,
           "params = {k: ctx.params[k] for k in sorted(ctx.params) if",
           "params = {k: ctx.params[k] for k in ctx.params if"),
    # the window's set is built only after its ends are checked; without the
    # check a huge range exhausts memory before the encoder rejects it
    Mutant("window-bounds-unchecked", CLI,
           "if indices and not (0 <= indices[0] and indices[-1] < half_size):",
           "if False:"),
    Mutant("export-makes-directory-before-first-record", CLI,
           "    summary_rows = []\n",
           "    os.makedirs(out_dir, exist_ok=True)\n    summary_rows = []\n"),
    # a table export holds one chunk's cells, one statevector-sized array per
    # encode-ke table, and no 2^n-entry list of an evolve column
    Mutant("table-chunk-16384-rows", CLI,
           "TABLE_CHUNK_ROWS = 4096",
           "TABLE_CHUNK_ROWS = 16384"),
    Mutant("export-holds-bitstring-list", CLI,
           "        bitstrings = Bitstrings(state.n_qubits)",
           "        bitstrings = list(Bitstrings(state.n_qubits).cells(0, 1 << state.n_qubits))"),
    Mutant("encode-builds-target-before-diagonal-table", CLI,
           "    _write_phases(os.path.join(out, \"diagonal.csv\"), diagonal)\n",
           "    target = np.exp(-1j * profile.thetas)\n"
           "    _write_phases(os.path.join(out, \"diagonal.csv\"), diagonal)\n"),
    # the encoder's counts are stated in closed form, not counted off a gate list
    Mutant("qate-depth-2n-at-n2", CIRCUIT,
           "2 * n if n > 2 else 3",
           "2 * n"),
    Mutant("qate-2q-single-ladder", CIRCUIT,
           "two_qubit = n - 1, math.comb(n - 1, 2) + 2 * (n - 1)",
           "two_qubit = n - 1, math.comb(n - 1, 2) + (n - 1)"),
    # every real input goes through the one checked conversion
    Mutant("finite-real-accepts-bool", CIRCUIT,
           "not isinstance(value, bool) and isinstance(value, numbers.Real)",
           "isinstance(value, numbers.Real)"),
    Mutant("finite-real-accepts-nan", CIRCUIT,
           "isinstance(value, numbers.Real) and math.isfinite(value)",
           "isinstance(value, numbers.Real)"),
    # and every bound of a count or a real goes through the same two conversions
    Mutant("int-bound-off-by-one", CIRCUIT,
           "if low is None or number >= low:",
           "if low is None or number >= low - 1:"),
    Mutant("positive-accepts-zero", CIRCUIT,
           "number > 0 if sign == \"positive\"",
           "number >= 0 if sign == \"positive\""),
    # a wrapped angle lies in (-pi, pi], and one without a phase is refused
    Mutant("wrap-angle-uncorrected", CIRCUIT,
           "if wrapped > math.pi:",
           "if wrapped > 4.0:"),
    Mutant("wrap-angle-reduces-past-2-52", CIRCUIT,
           "if not abs(angle) < 2.0 ** 52:",
           "if not abs(angle) < math.inf:"),
    Mutant("memory-guard-ignores-cgroup", CLI,
           "    if cgroup < limit:\n",
           "    if cgroup < 0:\n"),
    # one table states how many positions each --potential kind takes
    Mutant("single-takes-many-positions", CLI,
           '"single": ((0,), 1)',
           '"single": ((0,), None)'),
    Mutant("none-takes-positions", CLI,
           '"none": ((), 0)',
           '"none": ((), None)'),
    # one check holds a potential's positions inside the width
    Mutant("potential-position-allows-width", GRIDS,
           "if not 0 <= q < n:",
           "if not 0 <= q <= n:"),
    # the shell encoders mirror only a palindrome, QATE interpolates the
    # first half over the payload qubits 1..n-1, and a pair angle is what
    # the pair's index holds beyond both single angles and the global one
    Mutant("shell-accepts-any-profile", ENCODERS,
           "if np.max(np.abs(theta - theta[::-1])) > 1e-12:",
           "if False:"),
    Mutant("qate-interpolates-over-qubit-0", ENCODERS,
           "_interpolate_quadratic(profile, 1)",
           "_interpolate_quadratic(profile, 0)"),
    Mutant("beta-drops-global-term", ENCODERS,
           "- alpha[q] - alpha[r] - a\n",
           "- alpha[q] - alpha[r]\n"),
]


def _apply(mutant: Mutant, root: Path) -> bool:
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def check(mutant: Mutant) -> str:
    """'killed', 'SURVIVED', 'STALE' or 'ERROR' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, root / name)
        (root / ANCHOR_TEST).unlink()
        if not _apply(mutant, root):
            return "STALE"
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {0: "SURVIVED", 1: "killed"}.get(suite.returncode, "ERROR")


def _timed(mutant: Mutant) -> tuple[str, float]:
    start = time.perf_counter()
    return check(mutant), time.perf_counter() - start


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] or MUTANTS
    failed = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, (verdict, seconds) in zip(chosen, pool.map(_timed, chosen)):
            failed += verdict != "killed"
            print(f"{verdict:8} {mutant.name} ({seconds:.1f} s)", flush=True)
    print(f"{len(chosen)} mutants, {failed} not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
