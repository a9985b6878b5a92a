import pytest

from wftas import automata, checker, expectation, goldens


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
    return checker.representative_sets()


@pytest.fixture(scope="session")
def solve0():
    return expectation.solve(0)
