import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercones.duality import (
    algebra_from_poset,
    character_order,
    morphism_check,
)
from ordercones.errors import UnknownId
from ordercones.isotone_cone import all_upset_indicators, cobounded_commutative, is_isotone
from ordercones.poset import bounds, build_poset
from ordercones.sampling import random_poset


def chain(*ids):
    return build_poset(ids, list(zip(ids, ids[1:])))


def diamond():
    return build_poset(
        ["bot", "m1", "m2", "top"],
        [("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")],
    )


def test_algebra_cone_examples():
    a = algebra_from_poset(chain("a", "b", "c"))
    assert a.cone.contains([0.0, 0.5, 2.0])
    assert not a.cone.contains([0.0, 2.0, 0.5])
    anti = algebra_from_poset(build_poset(["a", "b"], []))
    assert anti.cone.contains([5.0, -3.0])
    point = algebra_from_poset(build_poset(["x"], []))
    assert point.cone.contains([17.0])


def test_round_trip_reference_posets():
    for p in (chain("a", "b", "c"), build_poset(["a", "b"], []), diamond()):
        assert character_order(algebra_from_poset(p)) == p


def test_round_trip_random():
    rng = np.random.default_rng(20)
    for _ in range(200):
        p = random_poset(rng, int(rng.integers(1, 9)))
        assert character_order(algebra_from_poset(p)) == p


def test_morphism_identity_and_constant():
    p = chain("a", "b", "c")
    ident = morphism_check({e: e for e in p.elements}, p, p)
    assert ident.isotone and ident.pullback_preserves_cone
    point = build_poset(["m"], [])
    const = morphism_check({e: "m" for e in p.elements}, p, point)
    assert const.isotone and const.pullback_preserves_cone


def test_morphism_order_reversal_fails_both_flags():
    p = chain("a", "b", "c")
    flip = {"a": "c", "b": "b", "c": "a"}
    report = morphism_check(flip, p, p)
    assert not report.isotone and not report.pullback_preserves_cone
    # the explicit pullback that decreases: compose (0,1,2) with the flip
    pulled = np.array([0.0, 1.0, 2.0])[[p.index(flip[e]) for e in p.elements]]
    assert not is_isotone(p, pulled)


def test_morphism_unknown_id():
    p = chain("a", "b")
    with pytest.raises(UnknownId):
        morphism_check({"a": "zz", "b": "a"}, p, p)
    with pytest.raises(UnknownId):
        morphism_check({"a": "a"}, p, p)


def test_morphism_flags_agree_on_random_maps():
    rng = np.random.default_rng(21)
    for _ in range(200):
        src = random_poset(rng, int(rng.integers(1, 7)))
        dst = random_poset(rng, int(rng.integers(1, 7)))
        mapping = {e: dst.elements[int(rng.integers(dst.n))] for e in src.elements}
        report = morphism_check(mapping, src, dst)
        assert report.isotone == report.pullback_preserves_cone


def _morphism_flags_by_loops(mapping, source, target):
    """morphism_check's flags as loops over the related pairs and over the target's up-sets."""
    idx = [target.index(mapping[e]) for e in source.elements]
    isotone = True
    for i in range(source.n):
        for j in range(source.n):
            if source.rel[i, j] and not target.rel[idx[i], idx[j]]:
                isotone = False
    preserves = all(is_isotone(source, g[idx]) for g in all_upset_indicators(target))
    return isotone, preserves


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "constant", "self"]),
)
def test_morphism_flags_are_the_loops(m, n, edge_prob, seed, kind):
    rng = np.random.default_rng(seed)
    src = random_poset(rng, m, edge_prob)
    dst = src if kind == "self" else random_poset(rng, n, edge_prob)
    if kind == "constant":
        mapping = dict.fromkeys(src.elements, dst.elements[int(rng.integers(dst.n))])
    else:
        mapping = {e: dst.elements[int(rng.integers(dst.n))] for e in src.elements}
    report = morphism_check(mapping, src, dst)
    assert type(report.isotone) is bool and type(report.pullback_preserves_cone) is bool
    assert (report.isotone, report.pullback_preserves_cone) == _morphism_flags_by_loops(mapping, src, dst)


def test_cobounded_duality_reference_posets():
    for p, bounded in ((chain("a", "b", "c"), True), (build_poset(["a", "b"], []), False), (diamond(), True)):
        assert cobounded_commutative(p).cobounded == bounds(p).bounded == bounded


def test_cobounded_duality_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = random_poset(rng, int(rng.integers(1, 9)))
        assert cobounded_commutative(p).cobounded == bounds(p).bounded

