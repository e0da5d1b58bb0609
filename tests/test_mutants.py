"""The mutants of `tools/mutants.py` still apply: a stale anchor fails here
in seconds rather than in the full mutant run."""
import importlib.util
from pathlib import Path

MUTANTS_PY = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_every_mutant_anchors_once_and_changes_its_text():
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS_PY)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
