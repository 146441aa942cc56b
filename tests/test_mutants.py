import re
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_replaces_text_found_once_in_src():
    # run_mutants.py refuses a row whose old text has moved; this finds it
    # without running the mutants.
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / "src" / "garside" / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
        for node in m.tests:
            path, test = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[.+\])?", node).groups()
            assert f"def {test}(" in (ROOT / path).read_text(), node
