import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercones import poset
from ordercones.duality import algebra_from_poset, character_order
from ordercones.errors import AntisymmetryViolation, InvalidInput, OrderConesError, UnknownId
from ordercones.isotone_cone import order_from_functions
from ordercones.poset import (
    _closure,
    _compose,
    _pairs_to_relation,
    FinitePoset,
    FinitePreorder,
    bounds,
    build_poset,
    build_preorder,
    combine,
    interval,
    reduce_preorder,
    sprinkle_minkowski,
)
from ordercones.sampling import random_poset


def chain(*ids):
    return build_poset(ids, list(zip(ids, ids[1:])))


def diamond():
    return build_poset(["bot", "m1", "m2", "top"], [("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")])


def test_chain_closure_adds_transitive_pair():
    p = chain("a", "b", "c")
    assert p.leq("a", "c")
    assert not p.leq("c", "a")


def test_one_point_poset():
    p = build_poset(["x"], [])
    assert p.rel.tolist() == [[True]]


def test_two_cycle_rejected():
    with pytest.raises(AntisymmetryViolation):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    # same pairs are fine as a preorder
    q = build_preorder(["a", "b"], [("a", "b"), ("b", "a")])
    assert q.leq("a", "b") and q.leq("b", "a")


def test_unknown_id_rejected():
    with pytest.raises(UnknownId):
        build_poset(["a"], [("a", "zz")])


def _warshall(rel):
    """Reflexive-transitive closure of one n x n relation, element by element."""
    out = rel.copy()
    n = len(out)
    for i in range(n):
        out[i, i] = True
    for k in range(n):
        for i in range(n):
            if out[i, k]:
                out[i] |= out[k]
    return out


@pytest.mark.parametrize("n", range(9))
def test_closure_of_a_stack_closes_every_slice(n):
    rng = np.random.default_rng(100 + n)
    stack = rng.random((60, n, n)) < (0.05, 0.2, 0.5)[n % 3]
    before = stack.copy()
    closed = _closure(stack)
    assert np.array_equal(stack, before)
    assert closed.shape == stack.shape and closed.dtype == bool
    for rel, got in zip(stack, closed):
        assert np.array_equal(got, _warshall(rel))
        assert np.array_equal(got, _closure(rel))
    # the least fixpoint of R -> R | R.R above the reflexive relation, on the whole stack
    fix = stack | np.eye(n, dtype=bool)
    while not np.array_equal(nxt := fix | _compose(fix, fix), fix):
        fix = nxt
    assert np.array_equal(closed, fix)
    # further leading axes close the same way
    assert np.array_equal(_closure(stack.reshape(3, 20, n, n)), closed.reshape(3, 20, n, n))


def test_closure_idempotent_on_random_posets():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_poset(rng, int(rng.integers(1, 8)))
        again = build_poset(p.elements, p.strict_pairs())
        assert again == p
        from_covers = build_poset(p.elements, p.covering_pairs())
        assert from_covers == p


def test_reduce_collapses_mutual_pair():
    q = build_preorder(["x", "y", "z"], [("x", "y"), ("y", "x"), ("y", "z")])
    reduced, projection = reduce_preorder(q)
    assert reduced.elements == ("x", "z")
    assert reduced.leq("x", "z")
    assert projection == {"x": "x", "y": "x", "z": "z"}


def test_reduce_is_identity_on_posets():
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = random_poset(rng, int(rng.integers(1, 7)))
        reduced, projection = reduce_preorder(p)
        assert reduced == p
        assert projection == {e: e for e in p.elements}


def test_reduce_complete_preorder_to_point():
    q = build_preorder(["a", "b", "c"], [(x, y) for x in "abc" for y in "abc"])
    reduced, _ = reduce_preorder(q)
    assert reduced.n == 1


def _random_preorder_relation(rng, n, edge_prob=0.3):
    return _closure(np.eye(n, dtype=bool) | (rng.random((n, n)) < edge_prob))


def _preorder_upset_masks(rel):
    n = rel.shape[0]
    ups = [int("".join("1" if b else "0" for b in reversed(rel[i])), 2) for i in range(n)]
    masks = []
    for mask in range(1 << n):
        closed = 0
        for i in range(n):
            if mask >> i & 1:
                closed |= ups[i]
        if closed == mask:
            masks.append(mask)
    return masks


def test_mutual_relation_equals_function_equivalence():
    # Two elements agree under every isotone function exactly when they
    # are related both ways; checked by enumerating all up-set indicators.
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        rel = _random_preorder_relation(rng, n)
        masks = _preorder_upset_masks(rel)
        for i in range(n):
            for j in range(n):
                same_values = all((m >> i & 1) == (m >> j & 1) for m in masks)
                assert same_values == bool(rel[i, j] and rel[j, i])


def test_product_of_two_chains_is_grid():
    c2 = chain("0", "1")
    p = combine(c2, c2, "product")
    assert p.elements == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    assert p.leq("(0,0)", "(1,1)")
    assert p.leq("(0,0)", "(0,1)") and p.leq("(1,0)", "(1,1)")
    assert not p.leq("(0,1)", "(1,0)") and not p.leq("(1,0)", "(0,1)")


def test_disjoint_union_keeps_sides_incomparable():
    c2 = chain("a", "b")
    d2 = chain("c", "d")
    p = combine(c2, d2, "disjoint_union")
    assert p.n == 4
    strict = [(x, y) for x, y in p.strict_pairs()]
    assert sorted(strict) == [("a", "b"), ("c", "d")]


def test_disjoint_union_prefixes_on_collision():
    c2 = chain("a", "b")
    p = combine(c2, c2, "disjoint_union")
    assert p.elements == ("L:a", "L:b", "R:a", "R:b")


def test_product_with_point_is_same_order():
    rng = np.random.default_rng(4)
    p = random_poset(rng, 5)
    point = build_poset(["pt"], [])
    prod = combine(p, point, "product")
    assert np.array_equal(prod.rel, p.rel)


def test_interval_examples():
    d = diamond()
    assert interval(d, "bot", "top") == ["bot", "m1", "m2", "top"]
    c = chain("a", "b", "c")
    assert interval(c, "a", "c") == ["a", "b", "c"]
    assert interval(c, "c", "a") == []
    with pytest.raises(UnknownId):
        interval(c, "a", "zz")


def test_intervals_are_gems():
    # every nonempty closed interval is bounded as a subposet by its ends
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = random_poset(rng, int(rng.integers(2, 8)))
        for x in p.elements:
            for y in p.elements:
                zs = interval(p, x, y)
                if not zs:
                    continue
                assert x in zs and y in zs
                assert all(p.leq(x, z) and p.leq(z, y) for z in zs)


def test_bounds_examples():
    assert bounds(chain("a", "b", "c")) == bounds(chain("a", "b", "c"))
    b = bounds(chain("a", "b", "c"))
    assert b.top == "c" and b.bottom == "a"
    v = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    bv = bounds(v)
    assert bv.top == "c" and bv.bottom is None
    anti = build_poset(["a", "b"], [])
    ba = bounds(anti)
    assert ba.top is None and ba.bottom is None


def test_bounded_under_combinations():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_poset(rng, int(rng.integers(1, 6)))
        q = random_poset(rng, int(rng.integers(1, 6)))
        prod = combine(p, q, "product")
        assert bounds(prod).bounded == (bounds(p).bounded and bounds(q).bounded)
        union = combine(p, q, "disjoint_union")
        assert not bounds(union).bounded


def test_sprinkle_small_counts():
    assert sprinkle_minkowski(0, 9).poset.n == 0
    one = sprinkle_minkowski(1, 9).poset
    assert one.n == 1 and one.rel.tolist() == [[True]]


def test_sprinkle_is_causal_poset():
    s = sprinkle_minkowski(50, 42)
    p = s.poset  # construction already validates reflexivity/transitivity
    assert isinstance(p, FinitePoset)
    t = s.t
    for i in range(p.n):
        for j in range(p.n):
            if i != j and p.rel[i, j]:
                assert t[i] < t[j]
    # transitivity spot check on all related triples
    for i in range(p.n):
        for j in range(p.n):
            if not p.rel[i, j]:
                continue
            for k in range(p.n):
                if p.rel[j, k]:
                    assert p.rel[i, k]


@pytest.mark.parametrize("n", [0, 1, 2, 50, 300])
@pytest.mark.parametrize("seed", range(5))
def test_sprinkled_relation_passes_the_checks_its_constructor_skips(n, seed):
    # sprinkle_minkowski builds its poset through _closed, which checks only
    # antisymmetry; __init__ re-runs every check on the same relation.
    p = sprinkle_minkowski(n, seed).poset
    assert FinitePoset(p.elements, p.rel) == p


def test_sprinkle_deterministic_per_seed():
    a = sprinkle_minkowski(40, 7)
    b = sprinkle_minkowski(40, 7)
    assert a.poset == b.poset and a.t == b.t and a.x == b.x
    c = sprinkle_minkowski(40, 8)
    assert c.t != a.t


def _splitmix64_points(n, seed):
    """Reference: SplitMix64 drawn one Python int at a time, points sorted as tuples."""
    mask = (1 << 64) - 1
    state, draws = seed & mask, []
    for _ in range(2 * n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draws.append((z ^ (z >> 31)) / 2.0**64)
    return sorted(((u + v) / 2.0, (u - v) / 2.0, u, v) for u, v in zip(draws[0::2], draws[1::2]))


@pytest.mark.parametrize("n, seed", [(0, 3), (1, 3), (200, 42), (300, -7), (64, 2**70), (64, 2**64 - 1)])
def test_sprinkle_matches_the_scalar_splitmix64_loop(n, seed):
    s = sprinkle_minkowski(n, seed)
    pts = _splitmix64_points(n, seed)
    assert s.t == tuple(p[0] for p in pts) and s.x == tuple(p[1] for p in pts)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 65, 66, 300, 1000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sprinkled_relation_equals_the_full_square_broadcast(n, seed):
    # sprinkle_minkowski compares only the upper triangle, in row blocks: one block up to
    # n = 256, several at n = 300 and 1000.  The reference compares every cell.
    t, x, u, v = np.array(_splitmix64_points(n, seed)).reshape(n, 4).T
    want = (u[None, :] >= u[:, None]) & (v[None, :] >= v[:, None]) & (t[None, :] > t[:, None])
    want[np.diag_indices(n)] = True
    assert np.array_equal(sprinkle_minkowski(n, seed).poset.rel, want)


def _tied_points(n, seed):
    """n points sorted by t = (u + v) / 2, with runs of 2 and 3 equal t where u >= and v >= hold.

    Runs of copies, and the run (0.5, 0), (0.5, 2^-55), (0.5, 2^-54), whose sums all round to 0.5.
    """
    rng = np.random.default_rng(seed)
    u, v = rng.random(n), rng.random(n)
    at = rng.choice(n - 3, size=n // 20, replace=False)
    for k, i in enumerate(at.tolist()):
        u[i + 1:i + 2 + k % 2], v[i + 1:i + 2 + k % 2] = u[i], v[i]
    u[-3:], v[-3:] = 0.5, [0.0, 2.0**-55, 2.0**-54]
    t = (u + v) / 2.0
    order = np.lexsort((v, u, t))
    return t[order], u[order], v[order]


@pytest.mark.parametrize("n", [4, 60, 256, 300, 700])
def test_causal_relation_equals_the_three_comparison_broadcast(n):
    # Up to n = 256 one row block, several from n = 300 on.
    t, u, v = _tied_points(n, n)
    pair = (u[None, :] >= u[:, None]) & (v[None, :] >= v[:, None]) & ~np.eye(n, dtype=bool)
    assert (pair & (t[None, :] == t[:, None])).sum() >= 3  # the ties the third comparison decides
    want = pair & (t[None, :] > t[:, None])
    want[np.diag_indices(n)] = True
    assert np.array_equal(poset._causal_relation(t, u, v), want)


def test_poset_json_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = random_poset(rng, int(rng.integers(1, 7)))
        data = p.to_json()
        assert FinitePoset.from_json(data) == p
        assert FinitePoset.from_json({"elements": data["elements"], "pairs": data["pairs"]}) == p


def test_poset_json_relation_entries_are_booleans_or_zero_one():
    want = chain("a", "b")
    for rel in ([[True, True], [False, True]], [[1, 1], [0, 1]], [[1.0, True], [0, 1]]):
        assert FinitePoset.from_json({"elements": ["a", "b"], "relation": rel}) == want
    for rel in ([[1, "x"], [0, 1]], [[1, 2], [0, 1]], [[1, 0.5], [0, 1]], [[1, None], [0, 1]], [[1, float("nan")], [0, 1]]):
        with pytest.raises(InvalidInput):
            FinitePoset.from_json({"elements": ["a", "b"], "relation": rel})


def test_ids_must_be_strings():
    for elements in (["a", 1], [None, "None"], [("a",)]):
        with pytest.raises(InvalidInput):
            FinitePoset(elements, np.eye(2, dtype=bool)[: len(elements), : len(elements)])
    with pytest.raises(InvalidInput):
        build_poset(["a", "b"], [("a", None)])


# Oracle tests: the array kernels against triple loops written out here,
# on every relation shape up to n = 12 that the fixed example set reaches.

_ORACLE = settings(derandomize=True, max_examples=150, deadline=None)


def _warshall(rel):
    out = rel.copy()
    n = out.shape[0]
    for i in range(n):
        out[i, i] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if out[i, k] and out[k, j]:
                    out[i, j] = True
    return out


@st.composite
def _relations(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(bits, dtype=bool).reshape(n, n)


@st.composite
def _posets(draw):
    """A random DAG under a random ordering of the ids, closed by the oracle."""
    edges = draw(_relations())
    n = edges.shape[0]
    perm = draw(st.permutations(range(n)))
    rel = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            rel[perm[a], perm[b]] = edges[a, b]
    return FinitePoset([f"e{i}" for i in range(n)], _warshall(rel))


@_ORACLE
@given(_posets())
def test_pair_lists_match_triple_loop_oracles(p):
    rel, e, n = p.rel, p.elements, p.n
    strict = [(e[i], e[j]) for i in range(n) for j in range(n) if i != j and rel[i, j]]
    covers = [
        (e[i], e[j])
        for i in range(n)
        for j in range(n)
        if i != j and rel[i, j] and not any(k not in (i, j) and rel[i, k] and rel[k, j] for k in range(n))
    ]
    incomparable = [(e[i], e[j]) for i in range(n) for j in range(i + 1, n) if not rel[i, j] and not rel[j, i]]
    assert p.strict_pairs() == strict
    assert p.covering_pairs() == covers
    assert p.incomparable_pairs() == incomparable


@_ORACLE
@given(_relations(), st.booleans())
def test_construction_rejects_exactly_the_non_transitive_relations(rel, close):
    rel = rel | np.eye(rel.shape[0], dtype=bool)
    if close:
        rel = _warshall(rel)
    ids = [f"e{i}" for i in range(rel.shape[0])]
    if np.array_equal(_warshall(rel), rel):
        assert np.array_equal(FinitePreorder(ids, rel).rel, rel)
    else:
        with pytest.raises(InvalidInput, match="transitive"):
            FinitePreorder(ids, rel)


@st.composite
def _pair_inputs(draw):
    """Element and pair lists as JSON gives them: mostly sound, else with one flaw."""
    elements = draw(st.lists(st.sampled_from("abcdef"), unique=True, min_size=1, max_size=6))
    # Pairs of listed ids make self-pairs, repeated pairs and cycles of any length.
    pairs = draw(st.lists(st.lists(st.sampled_from(elements), min_size=2, max_size=2), max_size=8))
    flaw = draw(st.sampled_from([None] * 4 + ["duplicate id", "non-string id", "unknown pair id",
                                                "non-string pair id", "three ids", "not a pair"]))
    at = draw(st.integers(0, 8))
    if flaw == "duplicate id":
        elements.insert(at % (len(elements) + 1), elements[at % len(elements)])
    elif flaw == "non-string id":
        elements.insert(at % (len(elements) + 1), 7)
    elif flaw is not None:
        bad = {"unknown pair id": ["a", "z"], "non-string pair id": [None, "a"], "three ids": ["a", "a", "a"]}
        pairs.insert(at % (len(pairs) + 1), bad.get(flaw, "ab"))
    return elements, pairs


def _outcome(make):
    """What make() gives: the class, ids and relation bytes, or the error class and message."""
    try:
        p = make()
    except OrderConesError as exc:
        return type(exc), str(exc)
    return type(p), p.elements, p.rel.shape, p.rel.dtype, p.rel.tobytes()


@_ORACLE
@given(_pair_inputs())
def test_pairs_take_the_closed_route_to_the_full_checks_result(case):
    elements, pairs = case
    for cls, build in ((FinitePoset, build_poset), (FinitePreorder, build_preorder)):
        # The full check: the constructor over the closure that _pairs_to_relation builds.
        want = _outcome(lambda: cls(elements, _pairs_to_relation(elements, pairs)[1]))
        assert _outcome(lambda: cls.from_json({"elements": elements, "pairs": pairs})) == want
        assert _outcome(lambda: build(elements, pairs)) == want


def test_relations_the_library_closed_are_checked_once(monkeypatch):
    def refuse(a, b):
        raise AssertionError("transitivity checked again")

    monkeypatch.setattr(poset, "_compose", refuse)
    data = {"elements": ["a", "b", "c", "d"], "pairs": [["a", "b"], ["b", "c"], ["a", "d"]]}
    p = FinitePoset.from_json(data)
    assert build_poset(data["elements"], data["pairs"]) == p
    assert character_order(algebra_from_poset(p)) == p
    with pytest.raises(AntisymmetryViolation, match="2-cycle"):
        FinitePoset.from_json({"elements": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]]})
    # Relations from outside, and those a tolerance induced, are still checked in full.
    with pytest.raises(AssertionError, match="again"):
        FinitePoset.from_json({"elements": data["elements"], "relation": p.rel.tolist()})
    with pytest.raises(AssertionError, match="again"):
        order_from_functions(["a", "b"], [[0.0, 1.0]])


def _covers_by_full_square(p):
    """Reference covering pairs: the strict relation minus its full boolean square, in row-major order."""
    strict = p.rel & ~np.eye(p.n, dtype=bool)
    i, j = (strict & ~_compose(strict, strict)).nonzero()
    return [(p.elements[a], p.elements[b]) for a, b in zip(i.tolist(), j.tolist())]


def _listed(rel, perm):
    """The order rel on ids e0, e1, ... listed in the order perm."""
    return FinitePoset([f"e{k}" for k in perm], rel[np.ix_(perm, perm)])


def test_covering_pairs_equal_the_full_square_reference():
    posets = []
    for n in range(5):  # every partial order on up to 4 labelled elements, in every listing order
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product([False, True], repeat=len(off)):
            rel = np.eye(n, dtype=bool)
            for (i, j), b in zip(off, bits):
                rel[i, j] = b
            if np.array_equal(_closure(rel), rel) and np.count_nonzero(rel & rel.T) == n:
                posets += [_listed(rel, perm) for perm in itertools.permutations(range(n))]
    assert len({(p.rel.tobytes(), p.elements) for p in posets}) == len(posets) == 1 + 1 + 3 * 2 + 19 * 6 + 219 * 24
    rng = np.random.default_rng(41)
    # Random orders listed in a shuffled order: small and empty ones, sizes at either side of the
    # packed up-sets' byte and 64-bit word boundaries, and larger ones.
    for n in (0, 1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 257, 300):
        for prob in (0.01, 0.1):
            posets.append(_listed(_closure(np.triu(rng.random((n, n)) < prob, 1)), rng.permutation(n)))
    # A random order listed as a linear extension, and the same order listed in reverse.
    rel = _closure(np.triu(rng.random((200, 200)) < 0.05, 1))
    posets += [_listed(rel, np.arange(200)), _listed(rel, np.arange(200)[::-1])]
    # Complete bipartite orders K_{h,h}: every related pair is a cover.
    bipartite = []
    for h in (1, 2, 3, 50):
        rel = np.eye(2 * h, dtype=bool)
        rel[:h, h:] = True
        bipartite.append(_listed(rel, rng.permutation(2 * h)))
    chain = _listed(np.triu(np.ones((300, 300), dtype=bool)), rng.permutation(300))
    antichain = _listed(np.eye(300, dtype=bool), rng.permutation(300))
    posets += bipartite + [chain, antichain] + [sprinkle_minkowski(1000, seed).poset for seed in range(1, 6)]
    for p in posets:
        assert p.covering_pairs() == _covers_by_full_square(p)
    assert len(chain.covering_pairs()) == 299 and antichain.covering_pairs() == []
    assert [len(p.covering_pairs()) for p in bipartite] == [1, 4, 9, 2500]


@pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65])
def test_covering_pairs_in_either_linear_extension(n):
    # Listed in down-set-size order, every row of the relation starts at the diagonal and the
    # peel ranks by the listing; reversed or shuffled, it ranks by the argsort of down-set sizes.
    rng = np.random.default_rng(n)
    for prob in (0.05, 0.2, 0.5):
        rel = _closure(np.triu(rng.random((n, n)) < prob, 1))
        by_size = np.argsort(rel.sum(axis=0), kind="stable")
        for perm in (by_size, by_size[::-1], rng.permutation(n)):
            p = _listed(rel, perm)
            assert p.covering_pairs() == _covers_by_full_square(p)
        starts = [(_listed(rel, perm).rel.argmax(axis=1) == np.arange(n)).all() for perm in (by_size, by_size[::-1])]
        assert starts == [True, rel.sum() == n]  # reversed, only an antichain is still an extension


def test_a_sprinkle_is_listed_as_a_linear_extension():
    for seed in range(1, 6):
        p = sprinkle_minkowski(1000, seed).poset
        assert (p.rel.argmax(axis=1) == np.arange(p.n)).all()
        assert p.covering_pairs() == _covers_by_full_square(p)


def test_incomparable_pairs_read_the_upper_triangle_in_row_major_order():
    rng = np.random.default_rng(13)
    posets = [random_poset(rng, n) for n in range(13) for _ in range(4)] + [sprinkle_minkowski(200, 9).poset]
    for p in posets:
        i, j = np.triu(~(p.rel | p.rel.T), 1).nonzero()
        assert p.incomparable_pairs() == [(p.elements[a], p.elements[b]) for a, b in zip(i.tolist(), j.tolist())]
