"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py      (from the root of a checkout)

Runs encode-dense and sweep once each as they are, then once per corruption
below, applied after the run and before the check.  The clean runs must count
no failure and each corrupted run exactly one.  Exits 0 when all hold.

  diagonal-row       one row of diagonal.csv altered
  conjugated-both    diagonal.csv and target.csv both conjugated, as a CSV
                     writer broken the same way for both would write them
  profile-regressed  the kinetic profile the check computes scaled by 1 + 1e-6,
                     as a regressed grids.kinetic_phase_profile would give it
  exact-value        one `exact` value of fidelity.csv altered
"""
import dataclasses
import os
import sys
import tempfile
import time

import run
import workloads


def _rewrite(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines = [lines[0]] + [edit(i, line) for i, line in enumerate(lines[1:])]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _alter_diagonal_row(out: str) -> None:
    def edit(i, line):
        if i != 1000:
            return line
        index, re, im, phase = line.split(",")
        return ",".join([index, repr(float(re) + 1e-6), im, phase])
    _rewrite(f"{out}/diagonal.csv", edit)


def _conjugate_both(out: str) -> None:
    def edit(i, line):
        index, re, im, phase = line.split(",")
        return ",".join([index, re, repr(-float(im)), repr(-float(phase))])
    for name in ("diagonal.csv", "target.csv"):
        _rewrite(f"{out}/{name}", edit)


def _regress_profile(out: str):
    """Patch the profile in this process only; the check imports it at call
    time.  Returns the function that undoes the patch."""
    import qpyramid.grids as grids

    original = grids.kinetic_phase_profile

    def regressed(*args, **kwargs):
        profile = original(*args, **kwargs)
        return dataclasses.replace(profile, thetas=profile.thetas * (1 + 1e-6))

    grids.kinetic_phase_profile = regressed
    return lambda: setattr(grids, "kinetic_phase_profile", original)


def _alter_exact(out: str) -> None:
    def edit(i, line):
        if i != 4:  # n = 7
            return line
        cells = line.split(",")
        cells[3] = repr(float(cells[3]) - 1e-6)
        return ",".join(cells)
    _rewrite(f"{out}/fidelity.csv", edit)


CASES = [
    ("encode-dense", "clean", None),
    ("encode-dense", "diagonal-row", _alter_diagonal_row),
    ("encode-dense", "conjugated-both", _conjugate_both),
    ("encode-dense", "profile-regressed", _regress_profile),
    ("sweep", "clean", None),
    ("sweep", "exact-value", _alter_exact),
]


def _failures(name: str, corrupt=None) -> list[str]:
    """Failures counted for one run of `name`; `corrupt(out)` runs before the
    check and may return a function that undoes it."""
    workload = workloads.WORKLOADS[name]
    undo = []
    if corrupt is not None:
        real_check = workload.check

        def check(out):
            undo.append(corrupt(out))
            return real_check(out)

        workload = dataclasses.replace(workload, check=check)
    bench = run.Bench(workload, seed=7, begin=time.monotonic())
    try:
        with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
            bench.run_workload(scratch, traced=False, seed=7)
    finally:
        for restore in filter(None, undo):
            restore()
    return bench.failures


def main() -> int:
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    ok = True
    for name, case, corrupt in CASES:
        failures = _failures(name, corrupt)
        passed = len(failures) == (0 if corrupt is None else 1)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name} {case}: failures {failures}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
