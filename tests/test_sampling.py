"""Sampled posets and isotone functions: pinned scalar draws, and the padded stacks of c8 and c9."""
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


def _present(rels):
    """Which elements of each padded row are present: the ones related to themselves."""
    return rels.diagonal(axis1=1, axis2=2)


@pytest.mark.parametrize("functions", [1, 2])
def test_isotone_stack_rows_are_posets_with_isotone_values(functions):
    rels, values = sampling.random_isotone_stack(np.random.default_rng([7, functions]), 2_000, 8, functions)
    assert rels.shape == (2_000, 8, 8) and values.shape == (2_000, functions, 8)
    present = _present(rels)
    n = present.sum(axis=1)
    assert set(n.tolist()) == set(range(1, 9))
    # Reflexive on the first n elements; padded rows and columns are all False.
    assert np.array_equal(present, np.arange(8) < n[:, None])
    assert not (rels & ~(present[:, :, None] & present[:, None, :])).any()
    composed = (rels[:, :, :, None] & rels[:, None, :, :]).any(axis=2)
    assert not (composed & ~rels).any()
    assert not (rels & rels.transpose(0, 2, 1) & ~np.eye(8, dtype=bool)).any()
    assert (~rels[:, None] | (values[..., :, None] <= values[..., None, :])).all()
    assert ((values >= 0.0) & (values < 3.0)).all()
    assert not values[np.broadcast_to(~present[:, None], values.shape)].any()


@pytest.mark.parametrize("functions", [1, 2])
def test_isotone_stack_is_a_function_of_its_seed(functions):
    one, two = (sampling.random_isotone_stack(np.random.default_rng(11), 500, 8, functions) for _ in range(2))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, two))


class _CountingGenerator:
    """A generator that counts the methods looked up on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


def test_isotone_stack_draws_in_a_fixed_number_of_generator_calls():
    calls = []
    for count in (1, 10, 1_000):
        rng = _CountingGenerator(np.random.default_rng(3))
        sampling.random_isotone_stack(rng, count, 8, 2)
        calls.append(rng.calls)
    assert calls == [4, 4, 4]


def test_isotone_stack_relates_as_many_pairs_as_random_poset():
    # Per size, the mean count of related pairs against as many random_poset draws, within 5 standard errors.
    rels, _ = sampling.random_isotone_stack(np.random.default_rng(2008), 20_000, 8)
    n, related = _present(rels).sum(axis=1), rels.sum(axis=(1, 2))
    rng = np.random.default_rng(2009)
    for size in range(1, 9):
        got = related[n == size]
        want = np.array([sampling.random_poset(rng, size).rel.sum() for _ in got])
        stderr = np.sqrt(got.var() / len(got) + want.var() / len(want))
        assert abs(got.mean() - want.mean()) <= 5 * stderr
