import pytest
from hypothesis import settings

from wftas import automata, checker, expectation, goldens

# `--hypothesis-profile=explore --hypothesis-seed=N` draws new examples
# for each N, where Hypothesis's `ci` profile, which it loads by itself
# under CI, derandomizes every run; failures print their reproduction blob.
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)


@pytest.fixture(scope="session")
def golden_table():
    return goldens.load_golden_table()


@pytest.fixture(scope="session")
def fa3():
    return automata.fa3_build()


@pytest.fixture(scope="session")
def check_report(golden_table):
    return checker.verify_against_table(golden_table)


@pytest.fixture(scope="session")
def rep_sets():
    return checker.representative_sets(checker.model())


@pytest.fixture(scope="session")
def solve0():
    return expectation.solve(0)
