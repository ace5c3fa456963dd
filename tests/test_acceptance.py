"""Runs every acceptance criterion at full size and prints its report line."""
import pytest

from ordercones.acceptance import CRITERIA


@pytest.fixture(scope="module")
def results(acceptance_seed7):
    return {r.number: r for r in acceptance_seed7}


@pytest.mark.parametrize("number,name", [(num, name) for num, name, _, _ in CRITERIA])
def test_criterion(results, number, name):
    outcome = results[number]
    print(outcome.line())
    assert outcome.name == name
    assert outcome.passed, outcome.line()
