"""Which modules each subcommand loads in a fresh process."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import garside
from garside import cli, scenarios

NOT_FOR_WORDS = {
    "garside.divided",
    "garside.periodic",
    "garside.reflgroups",
    "garside.typeb",
    "garside.scenarios",
}


def imported_modules(*argv: str) -> frozenset[str]:
    """Every module that `python -X importtime -m garside.cli <argv>` imports."""
    return _importtime("-m", "garside.cli", *argv)


@functools.lru_cache(maxsize=None)
def _importtime(*args: str) -> frozenset[str]:
    """Every module that a fresh `python -X importtime <args>` imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(garside.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return frozenset(
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    )


def loaded_modules(*argv: str) -> set[str]:
    """The garside.* modules that `python -X importtime -m garside.cli <argv>` imports."""
    names = {
        name
        for name in imported_modules(*argv)
        if name == "garside" or name.startswith("garside.")
    }
    # Under -m the CLI runs as __main__; a garside.cli line would mean some
    # module imported it and so executed it a second time.
    assert "garside.cli" not in names
    return names


SUBCOMMANDS = [
    ("regular", "G12"),
    ("pairs", "--max-de", "12", "--max-n", "3"),
    ("verify", "g12"),
    ("nf", "g12", "s", "t^-1"),
    ("divided", "g12", "-p", "2", "-q", "3"),
    ("roots", "g12", "--zp", "6", "-d", "8", "--centralizer"),
    ("typeb", "-n", "2", "--check-epsilon", "--wd", "b1 b2^-1"),
    ("scenario", "verify-g12"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_no_subcommand_imports_dataclasses_or_inspect(argv):
    # The package's records are namedtuples and plain classes: importing
    # dataclasses (with inspect, ast and dis) and generating each record's
    # methods would cost more than some subcommands take to run.
    # On Python 3.12 and later `from importlib import resources`, which
    # reflgroups and bundled need for their data files, imports inspect.
    resources = _importtime("-c", "from importlib import resources")
    assert "dataclasses" not in imported_modules(*argv)
    assert "inspect" not in imported_modules(*argv) - resources


@pytest.mark.parametrize(
    "argv",
    [
        ("regular", "G12"),
        ("regular", "G(12,12,2)", "-d", "3"),
        ("pairs", "--max-de", "12", "--max-n", "3"),
    ],
)
def test_group_arithmetic_loads_only_reflgroups(argv):
    assert loaded_modules(*argv) == {"garside", "garside.errors", "garside.reflgroups"}


@pytest.mark.parametrize("argv", [("verify", "g12"), ("nf", "g12", "s", "t^-1")])
def test_words_load_no_category_or_group_modules(argv):
    loaded = loaded_modules(*argv)
    assert "garside.monoid" in loaded
    assert not loaded & NOT_FOR_WORDS


def test_typeb_loads_no_bundled_or_category_modules():
    loaded = loaded_modules("typeb", "-n", "2", "--check-epsilon", "--wd", "b1 b2^-1")
    assert "garside.typeb" in loaded
    assert not loaded & {"garside.bundled", "garside.divided", "garside.scenarios"}


def test_scenario_loads_the_suites():
    assert "garside.scenarios" in loaded_modules("scenario", "verify-pairs")


def test_scenario_choices_are_the_suites():
    assert cli.SCENARIO_NAMES == tuple(scenarios._SCENARIOS)
