"""Runs every acceptance criterion at full size and prints its report line."""
import tracemalloc

import numpy as np
import pytest

from ordercones.acceptance import CRITERIA, _c1_stone_nachbin, _c4_join_coefficients
from ordercones.sampling import _running_max, random_isotone, random_poset


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
    # The blocked reconstruction oracle gives the bytes of the whole stack.
    assert results[4].details == {
        "pairs": 100_000, "alpha_min": 0.0, "alpha_max": 1.0, "beta_min": 0.0, "max_error": 8.882785140169483e-15,
    }
    c8 = results[8].details
    assert (c8["functions"], c8["matrices"], c8["bad_projections"]) == (10_000, 10_000, 0)
    # The up-set terms and their sums are the scalar decomposition's bytes.
    assert c8["min_coeff"] == 1.2814899857604978e-05
    assert c8["max_error"] == 5.2444081543249345e-14
    assert (results[9].details["pairs"], results[9].details["failures"]) == (10_000, 0)


def test_c4_works_in_blocks():
    """c4 holds its draws and one block of matrices, not (100000, 2, 2) stacks (about 60 MB whole)."""
    tracemalloc.start()
    try:
        ok, _ = _c4_join_coefficients(7, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and peak < 30e6


@pytest.mark.parametrize(
    "seed,max_error", [(1, 4.8405723873656825e-14), (2, 9.769962616701378e-15), (3, 4.4853010194856324e-13)]
)
def test_c1_max_error_is_pinned_beyond_seed_7(seed, max_error):
    ok, details = _c1_stone_nachbin(seed, False)
    assert ok and details["max_error"] == max_error


@pytest.mark.parametrize("seed", [7, 1, 2])
def test_c1_draws_its_targets_as_random_isotone_calls_do(seed):
    one, many = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    for n in (1, 3, 7, 0, 5):
        p = random_poset(one, n)
        assert p == random_poset(many, n)
        stacked = _running_max(p.rel, one.uniform(-2.0, 2.0, size=(20, p.n)))
        looped = np.array([random_isotone(many, p) for _ in range(20)]).reshape(20, p.n)
        assert stacked.tobytes() == looped.tobytes()
        assert one.bit_generator.state == many.bit_generator.state
