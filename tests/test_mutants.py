"""Every mutant in tests/mutants.py still applies to the code it mutates."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once_and_the_tests_exist(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.old != mutant.new
    for node in mutant.tests:
        assert (mutants.REPO / node.split("::")[0]).is_file()


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
