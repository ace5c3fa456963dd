import numpy as np
import pytest

from ordercones.errors import InvalidInput, UnknownId
from ordercones.gps import FiniteMetricSpace, gps_complete, gps_order, landmark_functions
from ordercones.isotone_cone import is_isotone, order_from_functions
from ordercones.poset import FinitePoset
from ordercones.sampling import random_metric_space_data


def euclidean(points_by_id):
    ids = list(points_by_id)
    arr = np.array([points_by_id[i] for i in ids], dtype=float)
    dist = np.linalg.norm(arr[:, None, :] - arr[None, :, :], axis=2)
    return FiniteMetricSpace(ids, dist)


def unit_square():
    return euclidean({"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)})


def test_metric_validation():
    with pytest.raises(InvalidInput):
        FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(InvalidInput):
        FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])  # distinct at distance 0
    with pytest.raises(InvalidInput):
        FiniteMetricSpace(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle
    with pytest.raises(UnknownId):
        gps_complete(unit_square(), ["nope"])


def test_full_landmark_set_is_complete():
    sq = unit_square()
    assert gps_complete(sq, list(sq.points))


def test_square_single_corner_is_not_complete():
    # the two corners adjacent to the landmark are equidistant from it
    assert not gps_complete(unit_square(), ["a"])


def test_scalene_triangle_single_landmark_complete():
    tri = euclidean({"p": (0, 0), "q": (4, 0), "r": (1, 2)})
    for landmark in tri.points:
        assert gps_complete(tri, [landmark])


def test_full_landmark_set_gives_equality_order():
    sq = unit_square()
    result = gps_order(sq, list(sq.points))
    assert result.complete
    assert np.array_equal(result.order.rel, np.eye(4, dtype=bool))


def test_two_points_single_landmark_chain():
    two = euclidean({"a": (0, 0), "b": (3, 0)})
    result = gps_order(two, ["a"])
    assert result.order.leq("a", "b") and not result.order.leq("b", "a")


def test_collinear_points_form_chain():
    line = euclidean({"0": (0, 0), "1": (1, 0), "2": (2, 0)})
    result = gps_order(line, ["0"])
    assert result.complete
    p = FinitePoset(result.order.elements, result.order.rel)
    assert p.leq("0", "1") and p.leq("1", "2") and p.leq("0", "2")
    assert not p.leq("2", "0")


def test_reversed_orientation_is_the_dual_order():
    rng = np.random.default_rng(30)
    for _ in range(30):
        ids, dist = random_metric_space_data(rng, int(rng.integers(2, 9)))
        space = FiniteMetricSpace(ids, dist)
        landmarks = [ids[i] for i in rng.choice(len(ids), size=int(rng.integers(1, len(ids) + 1)), replace=False)]
        fwd = gps_order(space, landmarks).order
        rev = gps_order(space, landmarks, orientation="reversed").order
        assert np.array_equal(fwd.rel, rev.rel.T)
    with pytest.raises(InvalidInput):
        gps_order(space, landmarks, orientation="sideways")


def test_gps_order_matches_function_induced_order():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        ids, dist = random_metric_space_data(rng, n)
        space = FiniteMetricSpace(ids, dist)
        landmarks = [ids[i] for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        fns = landmark_functions(space, landmarks)
        result = gps_order(space, landmarks)
        got = result.order
        want = order_from_functions(ids, fns).preorder
        assert got == want
        assert result.complete == got.is_antisymmetric() == gps_complete(space, landmarks)
        for f in fns:
            assert is_isotone(got, f)


def test_complete_landmarks_give_poset():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        ids, dist = random_metric_space_data(rng, n)
        space = FiniteMetricSpace(ids, dist)
        result = gps_order(space, list(ids))
        assert result.complete
        assert result.order.is_antisymmetric()
        FinitePoset(result.order.elements, result.order.rel)  # raises if not a partial order


def test_more_landmarks_relate_fewer_pairs():
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        ids, dist = random_metric_space_data(rng, n)
        space = FiniteMetricSpace(ids, dist)
        small = [ids[i] for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False)]
        extra = [i for i in ids if i not in small]
        big = small + [extra[int(rng.integers(len(extra)))]]
        rel_small = gps_order(space, small).order.rel
        rel_big = gps_order(space, big).order.rel
        assert not (rel_big & ~rel_small).any()


def test_metric_json_round_trip():
    sq = unit_square()
    again = FiniteMetricSpace.from_json(sq.to_json())
    assert again.points == sq.points
    assert np.array_equal(again.dist, sq.dist)


def test_complete_means_the_emitted_order_is_antisymmetric():
    # d(y, z) - d(x, z) is just over tol, but d(y, z) <= d(x, z) + tol once rounded: x <= y <= x
    space = FiniteMetricSpace(["x", "y", "z"], [[0, 0.5, 1], [0.5, 0, 1.000000000001], [1, 1.000000000001, 0]])
    for orientation in ("remark", "reversed"):
        result = gps_order(space, ["z"], orientation=orientation)
        assert result.complete == result.order.is_antisymmetric()
        assert not result.complete
    assert not gps_complete(space, ["z"])


def test_complete_refuses_what_order_refuses():
    # profiles 1, 1 + 0.8e-12, 1 + 1.6e-12: neighbours tie within tol, the outer two do not, so no transitive relation
    d = [[0, 0.5, 0.5, 1], [0.5, 0, 0.5, 1 + 0.8e-12], [0.5, 0.5, 0, 1 + 1.6e-12], [1, 1 + 0.8e-12, 1 + 1.6e-12, 0]]
    space = FiniteMetricSpace(["a", "b", "c", "z"], d)
    for check in (gps_order, gps_complete):
        with pytest.raises(InvalidInput, match="transitive"):
            check(space, ["z"])


def test_empty_space():
    space = FiniteMetricSpace([], np.zeros((0, 0)))
    assert space.n == 0 and space.dist.shape == (0, 0)
    result = gps_order(space, [])
    assert result.complete and result.order.n == 0
    assert gps_complete(space, [])
