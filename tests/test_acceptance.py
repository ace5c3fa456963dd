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


def test_seed7_work_counts(results):
    """The full run decides every item it reports, so a faster path cannot do less work."""
    c1 = results[1].details
    assert (c1["posets"], c1["targets_each"]) == (200, 20)
    # Reconstructions evaluate to the tree walk's bytes, so the worst error is exact.
    assert c1["max_error"] == 6.306066779870889e-14
    assert results[3].details["checked"] == 400_000
    c8 = results[8].details
    assert (c8["functions"], c8["matrices"], c8["bad_projections"]) == (10_000, 10_000, 0)
    # The up-set terms and their sums are the scalar decomposition's bytes.
    assert c8["min_coeff"] == 1.586153525590106e-05
    assert c8["max_error"] == 7.653923751057514e-14
    assert (results[9].details["pairs"], results[9].details["failures"]) == (10_000, 0)
