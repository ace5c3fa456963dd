"""Sampled posets and isotone functions: the fast paths draw what the checked ones would."""
import hashlib
import json

import numpy as np
import pytest

from ordercones import sampling
from ordercones.poset import FinitePoset

# sha256 of the element ids and relations, of the isotone values and of the
# final PCG64 state for the draw sequence below, taken from the per-element
# loop and checked-construction implementation of the sampling functions.
RELATIONS_SHA256 = "a191971673c1112a46f683505c33abdf3ce06313a56d1b76c6e70e930b43a3e2"
VALUES_SHA256 = "0969e1979746892d1ba7b3751ca5dcd906343946adf285575e3aeb3b987adb93"
STATE_SHA256 = "a006c70f2324f69ee30e708e590af8056abcc8d388648847c5dd898b50c46b99"


def _isotone_oracle(rng, p, lo, hi):
    """random_isotone as a loop: each value is the largest raw draw at or below it."""
    clone = np.random.Generator(np.random.PCG64())
    clone.bit_generator.state = rng.bit_generator.state
    raw = clone.uniform(lo, hi, size=p.n)
    return np.array([max(raw[j] for j in range(p.n) if p.rel[j, i]) for i in range(p.n)])


def test_sampled_posets_and_isotone_values_are_pinned():
    rng = np.random.default_rng(2008)
    rels, values = hashlib.sha256(), hashlib.sha256()
    for i in range(1000):
        n = i % 9
        p = sampling.random_poset(rng, n, edge_prob=(0.1, 0.35, 0.7)[i % 3])
        q = sampling.random_total_order(rng, n)
        for d in (p, q):
            # the unchecked construction gives what the checked path accepts
            assert type(d) is FinitePoset
            assert d == FinitePoset(d.elements, d.rel)
            assert not d.rel.flags.writeable
            rels.update(",".join(d.elements).encode())
            rels.update(np.ascontiguousarray(d.rel).tobytes())
        assert q.is_total()
        want_f = _isotone_oracle(rng, p, -2.0, 2.0)
        f = sampling.random_isotone(rng, p)
        want_g = _isotone_oracle(rng, q, 0.0, 3.0)
        g = sampling.random_nonneg_isotone(rng, q)
        assert np.array_equal(f, want_f) and np.array_equal(g, want_g)
        values.update(f.tobytes())
        values.update(g.tobytes())
    state = hashlib.sha256(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert rels.hexdigest() == RELATIONS_SHA256
    assert values.hexdigest() == VALUES_SHA256
    assert state.hexdigest() == STATE_SHA256


@pytest.mark.parametrize("count", [10_000, 500], ids=["full", "fast"])
@pytest.mark.parametrize("functions", [1, 2])
def test_isotone_stack_draws_what_the_scalar_loop_draws(functions, count):
    stacked, looped = np.random.default_rng([7, 7 + functions]), np.random.default_rng([7, 7 + functions])
    rels, values = sampling.random_isotone_stack(stacked, count, 8, functions)
    assert rels.shape == (count, 8, 8) and values.shape == (count, functions, 8)
    want_rels, want_values = np.zeros_like(rels), np.zeros_like(values)
    for row in range(count):
        p = sampling.random_poset(looped, int(looped.integers(1, 9)))
        want_rels[row, : p.n, : p.n] = p.rel
        for k in range(functions):
            want_values[row, k, : p.n] = sampling.random_nonneg_isotone(looped, p)
    assert np.array_equal(rels, want_rels)
    assert values.tobytes() == want_values.tobytes()
    assert stacked.bit_generator.state == looped.bit_generator.state
