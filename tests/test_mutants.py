"""The mutant list in ``tests/mutants.py`` stays applicable: each old text
occurs exactly once in its file, and each test it names still exists.  The
mutants themselves run only through ``python tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC, failed_tests


def test_mutant_ids_are_distinct():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_applies_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert (SRC / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        name = name.split("[")[0]
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node


def test_failed_tests_reads_the_short_summary():
    out = (
        "..F\n"
        "FAILED tests/test_pedals.py::test_a[3] - AssertionError: x - y\n"
        "ERROR tests/test_cli.py::test_b\n"
        "1 failed, 2 passed in 0.1s\n"
    )
    assert failed_tests(out) == {"tests/test_pedals.py::test_a[3]", "tests/test_cli.py::test_b"}
