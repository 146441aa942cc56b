"""Check that the tests kill every mutant listed in tests/mutants.py.

    python tests/run_mutants.py

For each row, src/, tests/ and pyproject.toml are copied to a fresh
temporary directory and the row's old text is replaced by its new text; a
row whose old text does not occur exactly once in its file is refused.  A
subprocess asserts that garside is imported from the copy, then pytest runs
the row's node ids there, and the mutant is killed when every one of them
fails (a collection or usage error does not count).  Prints one line
per row and the kill count, and exits 1 unless every mutant is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
IMPORTED_FROM_COPY = (
    "import garside, pathlib, sys; "
    "assert pathlib.Path(garside.__file__).is_relative_to(sys.argv[1]), garside.__file__"
)


def run(mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        path = tree / "src" / "garside" / mutant.file
        text = path.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return f"refused: old text occurs {found} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        subprocess.run(
            [sys.executable, "-c", IMPORTED_FROM_COPY, str(tree / "src")],
            cwd=tree, env=env, check=True,
        )
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    summary = tests.stdout.strip().splitlines()[-1:]
    if tests.returncode == 1 and " passed" not in "".join(summary):
        return "killed"
    return "survived" if tests.returncode in (0, 1) else f"error: pytest exit {tests.returncode}"


def main() -> int:
    killed = 0
    for mutant in MUTANTS:
        outcome = run(mutant)
        killed += outcome == "killed"
        print(f"{outcome:>8}  {mutant.file}: {mutant.name}", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
