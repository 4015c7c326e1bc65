"""The mutant table (`tools/mutants.py`) cannot rot silently: each old text
occurs exactly once in its file, and each named test exists."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    # each id is a file, then classes and a test function defined in it
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("[", 1)[0].split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert names, test
        for i, name in enumerate(names):
            kind = "def" if i == len(names) - 1 and not name.startswith("Test") else "class"
            assert re.search(rf"^\s*{kind} {name}\b", source, re.M), test
