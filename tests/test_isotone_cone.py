import io
import json
import tracemalloc
import warnings
from contextlib import redirect_stdout
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordercones import cli
from ordercones.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    NegativeValues,
    NotIsotone,
    OrderConesError,
    OrderNotDetermined,
    PointsNotSeparated,
)
from ordercones.isotone_cone import (
    _Table,
    _isotone,
    _undominated,
    Constant,
    Generator,
    Join,
    Meet,
    Scale,
    Sum,
    TableJoin,
    all_upset_indicators,
    as_function,
    as_functions,
    cobounded_commutative,
    eval_expr,
    eval_expr_many,
    expr_from_json,
    generated_cone_contains,
    is_isotone,
    minimal_witness,
    order_from_functions,
    stone_nachbin_express,
    stone_nachbin_express_many,
    upset_decomposition,
    upset_decomposition_many,
)
from ordercones.poset import FinitePoset, bounds, build_poset, combine, sprinkle_minkowski
from ordercones.sampling import _running_max, random_isotone, random_poset, random_total_order, separating_family


def chain(*ids):
    return build_poset(ids, list(zip(ids, ids[1:])))


def grid(rows, cols):
    return combine(chain(*[str(i) for i in range(rows)]), chain(*[str(j) for j in range(cols)]), "product")


# --------------------------------------------------------------------------
# membership and induced orders


def test_is_isotone_on_chain():
    c = chain("a", "b", "c")
    assert is_isotone(c, [0, 1, 2])
    assert not is_isotone(c, [0, 2, 1])


def test_constants_are_isotone_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_poset(rng, int(rng.integers(1, 7)))
        assert is_isotone(p, np.full(p.n, float(rng.normal())))


def test_is_isotone_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_isotone(chain("a", "b"), [0, 1, 2])


def test_order_from_single_function_is_chain():
    pre, separates = order_from_functions(["a", "b", "c"], [[0, 1, 2]])
    assert separates
    assert pre.leq("a", "c") and not pre.leq("c", "a")


def test_order_from_empty_family_is_complete():
    pre, separates = order_from_functions(["a", "b"], [])
    assert pre.rel.all()
    assert not separates


def test_order_from_non_separating_family():
    pre, separates = order_from_functions(["a", "b", "c"], [[0, 0, 1]])
    assert not separates
    assert pre.leq("a", "b") and pre.leq("b", "a")
    assert pre.leq("a", "c") and not pre.leq("c", "a")


# --------------------------------------------------------------------------
# expression trees


def test_eval_constant():
    assert eval_expr(Constant(3.0), [[0.0, 1.0]]).tolist() == [3.0, 3.0]
    assert eval_expr(Constant(3.0), [], size=2).tolist() == [3.0, 3.0]


def test_eval_join_of_generators():
    out = eval_expr(Join(Generator(0), Generator(1)), [[0, 1], [1, 0]])
    assert out.tolist() == [1.0, 1.0]


def test_eval_affine():
    out = eval_expr(Sum(Scale(2.0, Generator(0)), Constant(-1.0)), [[0, 1]])
    assert out.tolist() == [-1.0, 1.0]


def test_eval_bad_generator_index():
    with pytest.raises(IndexOutOfRange):
        eval_expr(Generator(3), [[0, 1]])


def test_negative_scale_factor_rejected():
    with pytest.raises(InvalidInput):
        Scale(-1.0, Constant(0.0))


def test_expr_json_round_trip():
    expr = Join(Meet(Constant(1.0), Sum(Scale(2.0, Generator(0)), Constant(-0.5))), Generator(1))
    assert expr_from_json(expr.to_json()) == expr


# --------------------------------------------------------------------------
# constructive reconstruction


def test_express_two_chain_affine_leaf():
    p = chain("a", "b")
    gens = [[0.0, 1.0]]
    expr = stone_nachbin_express(p, gens, [0.0, 5.0])
    assert np.allclose(eval_expr(expr, gens), [0.0, 5.0])
    # the interpolation slope through (a, b) is 5 with zero offset
    flat = str(expr.to_json())
    assert "'factor': 5.0" in flat


def test_express_constant_target_uses_constants():
    p = chain("a", "b", "c")
    gens = [[0.0, 1.0, 2.0]]
    expr = stone_nachbin_express(p, gens, [4.0, 4.0, 4.0])
    assert np.allclose(eval_expr(expr, gens), 4.0)
    assert "gen" not in str(expr.to_json())


def test_express_grid_max_from_projections():
    g = grid(2, 2)
    proj1 = [0.0, 0.0, 1.0, 1.0]
    proj2 = [0.0, 1.0, 0.0, 1.0]
    target = np.maximum(proj1, proj2)
    expr = stone_nachbin_express(g, [proj1, proj2], target)
    assert np.allclose(eval_expr(expr, [proj1, proj2]), target)


def test_express_rejects_wrong_order_or_target():
    p = chain("a", "b", "c")
    with pytest.raises(OrderNotDetermined):
        stone_nachbin_express(p, [[0.0, 0.0, 1.0]], [0.0, 1.0, 2.0])
    with pytest.raises(NotIsotone):
        stone_nachbin_express(p, [[0.0, 1.0, 2.0]], [0.0, 2.0, 1.0])


def test_express_rejects_an_intransitive_induced_order_as_order_from_functions():
    # With tol = 1 the family makes a ~ b ~ c but not c <= a: that relation
    # is no preorder, and both calls refuse it the same way.
    p = chain("a", "b", "c")
    with pytest.raises(InvalidInput, match="transitive"):
        order_from_functions(p.elements, [[0.0, 0.6, 1.2]], tol=1.0)
    with pytest.raises(InvalidInput, match="transitive"):
        stone_nachbin_express(p, [[0.0, 0.6, 1.2]], [0.0, 1.0, 2.0], tol=1.0)


def test_express_random_exactness():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(40):
        p = random_poset(rng, int(rng.integers(1, 8)))
        gens = separating_family(rng, p)
        for _ in range(5):
            target = random_isotone(rng, p)
            got = eval_expr(stone_nachbin_express(p, gens, target), gens)
            worst = max(worst, float(np.max(np.abs(got - target))))
    assert worst <= 1e-9


def test_prune_preserves_evaluation():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = random_poset(rng, int(rng.integers(2, 7)))
        gens = separating_family(rng, p)
        target = random_isotone(rng, p)
        full = stone_nachbin_express(p, gens, target)
        pruned = stone_nachbin_express(p, gens, target, prune=True)
        assert np.array_equal(eval_expr(full, gens), eval_expr(pruned, gens))
        assert len(str(pruned.to_json())) <= len(str(full.to_json()))


def _greedy_prune(expr, gens):
    """Reference prune: children one by one, each against those kept so far."""
    if not isinstance(expr, (Join, Meet)):
        return expr
    kind = Join if isinstance(expr, Join) else Meet  # a TableJoin's pruned children make a plain Join
    children = [_greedy_prune(c, gens) for c in expr.children]
    vals = [eval_expr(c, gens) for c in children]
    covers = (lambda a, b: (a >= b).all()) if kind is Join else (lambda a, b: (a <= b).all())
    kept: list[int] = []
    for i, v in enumerate(vals):
        if not any(covers(vals[k], v) for k in kept):
            kept = [k for k in kept if not covers(v, vals[k])] + [i]
    kept_children = [children[i] for i in kept]
    return kept_children[0] if len(kept_children) == 1 else kind(*kept_children)


def _random_express_inputs(rng, count):
    """Random posets with n = 1..7, separating families and isotone targets;
    every other target is rounded, so tied values and equal leaf rows occur."""
    for t in range(count):
        p = random_poset(rng, int(rng.integers(1, 8)))
        target = random_isotone(rng, p)
        yield p, separating_family(rng, p), np.round(target) if t % 2 else target


def test_prune_matches_greedy_reference():
    rng = np.random.default_rng(14)
    for p, gens, target in _random_express_inputs(rng, 120):
        full = stone_nachbin_express(p, gens, target)
        pruned = stone_nachbin_express(p, gens, target, prune=True)
        assert pruned.to_json() == _greedy_prune(full, gens).to_json()


def _children(node, cls):
    return list(node.children) if isinstance(node, cls) else [node]


def test_prune_keeps_exactly_the_undominated_children():
    rng = np.random.default_rng(15)
    for p, gens, target in _random_express_inputs(rng, 60):
        full = stone_nachbin_express(p, gens, target)
        pruned = stone_nachbin_express(p, gens, target, prune=True)
        leaf_vals = [[eval_expr(leaf, gens) for leaf in meet.children] for meet in full.children]
        mins = [np.min(vals, axis=0) for vals in leaf_vals]
        kept = _children(pruned, Join)
        kept_vals = [eval_expr(c, gens) for c in kept]
        # No kept join child lies below a sibling; every meet of the full tree does.
        assert not any((kept_vals[b] >= kept_vals[a]).all() for a, b in permutations(range(len(kept)), 2))
        assert all(any((k >= v).all() for k in kept_vals) for v in mins)
        for child, value in zip(kept, kept_vals):
            i = next(i for i, m in enumerate(mins) if np.array_equal(m, value))  # first equal meet
            leaves = _children(child, Meet)
            assert all(leaf in full.children[i].children for leaf in leaves)
            vals = [eval_expr(leaf, gens) for leaf in leaves]
            # No kept leaf lies above a sibling; every leaf of meet i does.
            assert not any((vals[b] <= vals[a]).all() for a, b in permutations(range(len(vals)), 2))
            assert all(any((k <= v).all() for k in vals) for v in leaf_vals[i])


def test_prune_keeps_the_first_of_equal_rows():
    # Rounded target on a chain: the middle meet has two equal constant
    # leaves (the pairs (b, b) and (b, c)); exactly one, the first, stays.
    p = chain("a", "b", "c")
    gens = [[0.0, 1.0, 2.0]]
    pruned = stone_nachbin_express(p, gens, np.round([0.2, 1.4, 1.1]), prune=True)
    assert pruned.to_json() == {
        "op": "meet",
        "args": [
            {"op": "sum", "args": [{"op": "scale", "factor": 1.0, "args": [{"gen": 0}]}, {"const": 0.0}]},
            {"const": 1.0},
        ],
    }
    # Five candidates at two points, as one row of the (m, R, n) layout.
    values = np.array([[1.0, 2.0], [0.0, 3.0], [1.0, 2.0], [0.0, 3.0], [2.0, 3.0]]).T[:, None, :]
    assert np.flatnonzero(_undominated(values, below=True)[0]).tolist() == [0, 1]
    assert np.flatnonzero(_undominated(values, below=False)[0]).tolist() == [4]
    assert np.flatnonzero(_undominated(values[:, :, :4], below=False)[0]).tolist() == [0, 1]


def _undominated_per_point(values, below):
    """_undominated as it was made one point at a time, an (R, n, n) comparison
    per point, kept as the shift kernel's reference."""
    _, r, n = values.shape
    le = np.ones((r, n, n), dtype=bool)  # le[r, a, b]: candidate a <= candidate b
    buf = np.empty_like(le)
    for v in values:
        le &= np.less_equal(v[:, :, None], v[:, None, :], out=buf)
    dom = le if below else le.transpose(0, 2, 1)
    earlier = np.triu(np.ones((n, n), dtype=bool), 1)
    return ~(dom & (~dom.transpose(0, 2, 1) | earlier)).any(axis=1)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 59, 60, 61])
def test_undominated_matches_the_per_point_loop(n):
    specials = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan])
    for m, r in product([1, 2, 60], [1, 2, 18]):
        rng = np.random.default_rng([n, m, r])
        # Shifts of one profile by a few offsets, so that many candidates are
        # comparable or tied; then special values, then copies of candidates.
        values = rng.uniform(-2.0, 2.0, (m, 1, 1)) + rng.integers(-2, 3, (1, r, n)) / 2
        values = np.where(rng.random(values.shape) < 0.1, rng.choice(specials, values.shape), values)
        if n:
            values[:, :, rng.integers(0, n, n // 3)] = values[:, :, rng.integers(0, n, n // 3)]
        for below in (True, False):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _undominated(values, below=below)
            assert got.shape == (r, n)
            assert np.array_equal(got, _undominated_per_point(values, below)), (m, r, below)


def test_prune_on_the_empty_poset():
    empty = FinitePoset([], np.zeros((0, 0), dtype=bool))
    for prune in (False, True):
        assert stone_nachbin_express(empty, [[]], [], prune=prune).to_json() == {"op": "join", "args": []}


_EXAMPLES = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def _express_inputs(draw):
    """A random poset with n = 1..12, a separating family and an isotone target.
    Half the targets are rounded to halves, so tied values and -0.0 occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_poset(rng, draw(st.integers(1, 12)), edge_prob=draw(st.sampled_from([0.1, 0.35, 0.7])))
    gens = np.array(separating_family(rng, p))
    target = random_isotone(rng, p)
    if draw(st.booleans()):
        target = np.round(2 * target) / 2
    return rng, p, gens, target


def _outcome(expr, functions, size=None):
    """eval_expr's bytes, or the message of the IndexOutOfRange it raises."""
    try:
        return eval_expr(expr, functions, size=size).tobytes()
    except IndexOutOfRange as exc:
        return str(exc)


@_EXAMPLES
@given(_express_inputs(), st.booleans())
def test_table_join_evaluates_as_its_tree(inputs, prune):
    rng, p, gens, target = inputs
    expr = stone_nachbin_express(p, gens, target, prune=prune)
    tree = Join(*expr.children) if isinstance(expr, TableJoin) else expr
    got = eval_expr(expr, gens)
    assert np.max(np.abs(got - target)) <= 1e-9
    assert got.tobytes() == eval_expr(tree, gens).tobytes()
    assert expr.to_json() == tree.to_json()
    assert expr == tree == expr_from_json(expr.to_json()) and hash(expr) == hash(tree)
    # Another family of the same length, rounded so -0.0 and ties occur; then
    # a shorter one, where only the leaves the tree visits need their generator.
    other = np.round(2 * rng.uniform(-2.0, 2.0, size=gens.shape)) / 2
    assert _outcome(expr, other) == _outcome(tree, other)
    short = gens[: int(rng.integers(0, len(gens)))]
    assert _outcome(expr, short, size=p.n) == _outcome(tree, short, size=p.n)


def _per_row_prune(stack, lam, mu, k):
    """(rows, keep) of the prune as it was made row by row, one n x n x n
    comparison per row and every row masked, kept as the batched prune's reference."""
    def undominated(rows, below):
        le = (rows[:, None, :] <= rows[None, :, :]).all(axis=2)
        dom = le if below else le.T
        earlier = np.triu(np.ones(le.shape, dtype=bool), 1)
        return np.flatnonzero(~(dom & (~dom.T | earlier)).any(axis=0)).tolist()

    n = len(lam)
    keep, mins = np.zeros((n, n), dtype=bool), np.empty((n, n))
    for i in range(n):
        values = lam[i, :, None] * stack[k[i]] + mu[i, :, None]
        keep[i, undominated(values, below=True)] = True
        mins[i] = values.min(axis=0)
    return np.array(undominated(mins, below=False), dtype=np.intp), keep


def _dominance_inputs(n, seed):
    """A random 2-D dominance order on n points, its two coordinates and
    n/2 - 2 running maxima over down-sets as generators, and one more as target."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    rel = (pts[:, None, 0] <= pts[None, :, 0]) & (pts[:, None, 1] <= pts[None, :, 1])
    iso = np.where(rel, rng.uniform(-2.0, 2.0, size=(n // 2 - 1, n, 1)), -np.inf).max(axis=1)
    return None, FinitePoset([f"d{i}" for i in range(n)], rel), np.vstack([pts.T, iso[:-1]]), iso[-1]


@_EXAMPLES
@given(_express_inputs())
@example((None, FinitePoset([], np.zeros((0, 0), dtype=bool)), np.zeros((1, 0)), np.zeros(0)))
@example((None, FinitePoset(["a"], np.ones((1, 1), dtype=bool)), np.array([[0.0]]), np.array([0.5])))
@example(_dominance_inputs(72, 3))  # rows in blocks of 12: six for the meets, two or more for the leaf masks
def test_batched_prune_matches_the_per_row_prune(inputs):
    _, p, gens, target = inputs
    table = stone_nachbin_express(p, gens, target).table
    rows, keep = _per_row_prune(gens, table.lam, table.mu, table.k)
    want = TableJoin(table=table._replace(rows=rows, keep=keep))
    pruned = stone_nachbin_express(p, gens, target, prune=True)
    if isinstance(pruned, TableJoin):
        assert pruned.table.rows.tolist() == rows.tolist()
        assert np.array_equal(pruned.table.keep[rows], keep[rows])
    else:  # a single kept row is returned as its meet or its leaf
        assert len(rows) == 1
    assert pruned.to_json() == (want.children[0] if len(rows) == 1 else want).to_json()
    assert p.n < 70 or len(rows) > 12


def test_a_60_element_prune_peaks_below_4_mb():
    # Its blocks hold at most about 2^17 floats each (2.7 MB traced in all).
    _, p, gens, target = _dominance_inputs(60, 1)
    tracemalloc.start()
    try:
        stone_nachbin_express(p, gens, target, prune=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


_CHAIN3 = FinitePoset(["a", "b", "c"], np.triu(np.ones((3, 3), dtype=bool)))


@_EXAMPLES
@given(_express_inputs(), st.booleans())
@example((None, FinitePoset(["a"], np.ones((1, 1), dtype=bool)), np.array([[0.0]]), np.array([0.5])), False)
@example((None, FinitePoset(["a"], np.ones((1, 1), dtype=bool)), np.array([[0.0]]), np.array([0.5])), True)  # one leaf
@example((None, _CHAIN3, np.array([[0.0, 1.0, 2.0]]), np.array([-0.0, -0.0, 1.0])), False)  # tied -0.0 leaves
@example((None, _CHAIN3, np.array([[0.0, 1.0, 2.0]]), np.array([-0.0, -0.0, 1.0])), True)  # branches of one leaf
@example(_dominance_inputs(72, 3), False)
@example(_dominance_inputs(72, 3), True)
def test_the_cli_writes_an_expression_as_json_dumps_writes_its_to_json(inputs, prune):
    # The CLI writes a TableJoin from its tables, and any other tree from its to_json().
    _, p, gens, target = inputs
    argv = [
        "cone", "express", "--poset", json.dumps({"elements": p.elements, "relation": p.rel.astype(int).tolist()}),
        "--generators", json.dumps(gens.tolist()), "--target", json.dumps(target.tolist()),
    ] + ["--prune"] * prune
    out = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out):
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    expr = stone_nachbin_express(p, gens, target, prune=prune)
    payload = {"expr": expr.to_json(), "max_error": float(np.max(np.abs(eval_expr(expr, gens) - target)))}
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_table_join_keeps_the_trees_signed_zeros():
    # The only leaf the pruned row of a keeps is lam*g_0 + mu with mu = -0.0.
    # Where a family has g_0 = -0.0, lam*g_0 + mu alone is -0.0, but the
    # tree's Sum node reduces from +0.0 and gives +0.0.
    p = FinitePoset(["a", "b", "c"], np.eye(3, dtype=bool))
    gens = [
        [0.0, -0.44566046143620586, -1.7217039875062294],
        [-1.6437021807084986, 1.841859693257264, -1.9154552553927333],
        [-0.12455466033956686, 0.0, 0.11525891740081962],
    ]
    expr = stone_nachbin_express(p, gens, [-0.0, -1.0, -1.0], prune=True)
    tree = Join(*expr.children)
    families = (
        [[-1.0, 0.0, -0.0], [0.0, -1.0, -0.0], [-0.0, -0.0, 0.0]],
        [[-0.0, -0.0, 1.0], [0.0, -0.0, -1.0], [0.0, 1.0, 0.0]],
    )
    for family in families:
        assert eval_expr(expr, family).tobytes() == eval_expr(tree, family).tobytes()


def test_table_join_repeats_the_trees_reduction_order():
    # Hand-made tables whose leaves are all zeros of either sign: which zero a
    # min or max returns then depends on the order numpy reduces in.  With a
    # one-column family numpy reduces each meet as one contiguous run.
    rng = np.random.default_rng(4)
    for t in range(60):
        n = int(rng.integers(8, 20))
        keep = rng.random((n, n)) < 0.7
        keep[:, 0] = True
        table = _Table(
            rng.choice([-0.0, 0.0], size=n), np.ones((n, n)), rng.choice([-0.0, 0.0], size=(n, n)),
            np.zeros((n, n), dtype=np.intp), rng.random((n, n)) < 0.5, np.arange(n), keep if t % 2 else None,
        )
        expr = TableJoin(table=table)
        tree = Join(*expr.children)
        for family in ([[0.0]], [[-0.0]], [[-0.0, 0.0, -0.0]]):
            assert eval_expr(expr, family).tobytes() == eval_expr(tree, family).tobytes()


def test_a_one_leaf_table_evaluates_as_its_tree_on_one_column():
    # A one-column family walks the tree unless the table has a single leaf.
    zeros = [0.0, -0.0]
    for f, lam, mu, tied in product(zeros + [1.5], zeros + [2.0], zeros + [-0.5], [False, True]):
        table = _Table(
            np.array([f]), np.array([[lam]]), np.array([[mu]]), np.zeros((1, 1), dtype=np.intp),
            np.array([[tied]]), np.arange(1), None,
        )
        expr = TableJoin(table=table)
        tree = Join(*expr.children)
        for family in ([[0.0]], [[-0.0]], [[1.0]], [[-2.0], [0.5]]):
            want = eval_expr(tree, family).tobytes()
            assert eval_expr(expr, family).tobytes() == want
            assert eval_expr_many([expr, expr], family).tobytes() == 2 * want


# --------------------------------------------------------------------------
# checking function families


_NAN, _INF = float("nan"), float("inf")
# name -> (family, error kind of eval_expr, of order_from_functions and of
# stone_nachbin_express on the 3-chain; None where the call succeeds)
_FAMILIES = {
    "ragged": ([[0, 1, 2], [0, 1]], DimensionMismatch, DimensionMismatch, DimensionMismatch),
    "ragged-nan": ([[0, 1, 2], [_NAN, 1]], InvalidInput, DimensionMismatch, DimensionMismatch),
    "flat": ([0, 1, 2], InvalidInput, InvalidInput, InvalidInput),
    "wrong-width": ([[0, 1], [1, 0]], None, DimensionMismatch, DimensionMismatch),
    "nan": ([[0, _NAN, 2]], InvalidInput, InvalidInput, InvalidInput),
    "inf": ([[0, 1, _INF]], InvalidInput, InvalidInput, InvalidInput),
    "nan-wrong-width": ([[0, _NAN]], InvalidInput, DimensionMismatch, DimensionMismatch),
    "text": ([[0, "x", 2]], InvalidInput, InvalidInput, InvalidInput),
    "nested": ([[[0, 1, 2]]], InvalidInput, InvalidInput, InvalidInput),
    "empty": ([], InvalidInput, None, OrderNotDetermined),
    "good": ([[0, 1, 2], [0, 0, 1]], None, None, None),
}


def _row_by_row(functions, n=None):
    """The per-row check as_functions replaced, kept as its reference."""
    rows = [as_function(f, n) for f in functions]
    if n is None and len({f.shape[0] for f in rows}) > 1:
        raise DimensionMismatch("generator functions must share a length")
    return rows


def _error(call):
    try:
        call()
    except OrderConesError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [None, 3])
@pytest.mark.parametrize("name", list(_FAMILIES))
def test_as_functions_matches_the_row_by_row_check(name, n):
    family = _FAMILIES[name][0]
    want = _error(lambda: _row_by_row(family, n))
    assert _error(lambda: as_functions(family, n)) == want
    if want is None:
        assert as_functions(family, n).tolist() == [f.tolist() for f in _row_by_row(family, n)]


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_bad_families_keep_their_error_kinds(name):
    family, *kinds = _FAMILIES[name]
    calls = (
        lambda: eval_expr(Generator(0), family),
        lambda: order_from_functions(["a", "b", "c"], family),
        lambda: stone_nachbin_express(chain("a", "b", "c"), family, [0.0, 1.0, 2.0]),
    )
    for call, kind in zip(calls, kinds):
        error = _error(call)
        assert (error and error[0]) == kind


# --------------------------------------------------------------------------
# stacked reconstruction: stone_nachbin_express_many and eval_expr_many


@st.composite
def _stack_inputs(draw):
    """A random poset with n = 0..12, a separating family and 0..6 isotone
    targets drawn as c1 draws them; some or all are rounded to halves, so
    tied values and -0.0 occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 12))
    p = random_poset(rng, n, edge_prob=draw(st.sampled_from([0.1, 0.35, 0.7])))
    gens = np.array(separating_family(rng, p))
    targets = _running_max(p.rel, rng.uniform(-2.0, 2.0, size=(draw(st.integers(0, 6)), n)))
    halves = rng.random(len(targets)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    targets[halves] = np.round(2 * targets[halves]) / 2
    return rng, p, gens, targets


def _result(call):
    """The bytes of the array call returns, or the kind and message of its error."""
    try:
        return call().tobytes()
    except OrderConesError as exc:
        return type(exc), str(exc)


@_EXAMPLES
@given(_stack_inputs())
def test_stacked_build_is_the_scalar_target_by_target(inputs):
    rng, p, gens, targets = inputs
    batch = stone_nachbin_express_many(p, gens, targets)
    scalar = [stone_nachbin_express(p, gens, t) for t in targets]
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        assert isinstance(b, TableJoin) and json.dumps(b.to_json()) == json.dumps(s.to_json())
    # The building family, one rounded so -0.0 and ties occur, one column of
    # it, a wider one and a shorter one (where only visited leaves need
    # their generator, else the first failing target's IndexOutOfRange).
    families = (
        gens,
        np.round(2 * rng.uniform(-2.0, 2.0, size=gens.shape)) / 2,
        gens[:, :1],
        np.round(rng.uniform(-2.0, 2.0, size=(len(gens), p.n + 3))),
        gens[: int(rng.integers(0, len(gens)))],
    )
    for family in families:
        want = [_result(lambda: eval_expr(s, family, size=p.n)) for s in scalar]
        error = next((w for w in want if isinstance(w, tuple)), None)
        assert _result(lambda: eval_expr_many(batch, family, size=p.n)) == (error or b"".join(want))
        assert [_result(lambda: eval_expr(b, family, size=p.n)) for b in batch] == want


def test_stacked_build_on_the_empty_poset_and_no_targets():
    empty = FinitePoset([], np.zeros((0, 0), dtype=bool))
    batch = stone_nachbin_express_many(empty, [[]], np.empty((2, 0)))
    assert [b.to_json() for b in batch] == [stone_nachbin_express(empty, [[]], []).to_json()] * 2
    assert _result(lambda: eval_expr_many(batch, [[]])) == (InvalidInput, "join needs at least one child")
    p = chain("a", "b", "c")
    assert stone_nachbin_express_many(p, [[0.0, 1.0, 2.0]], []) == []
    assert eval_expr_many([], [[0.0, 1.0, 2.0]]).shape == (0, 3)


_NEAR = 1.0 - 1e-13  # isotone within the default tol, but no generator falls from b to c
_TWO = [[0.0, 1.0, 2.0], [0.0, 0.0, 1.0]]
# name -> (family, targets) on the 3-chain; each is refused
_BAD_STACKS = {
    "coarse family": ([[0.0, 0.0, 1.0]], [[0.0, 1.0, 2.0]]),
    "empty family": ([], [[0.0, 1.0, 2.0]]),
    "ragged family": ([[0.0, 1.0, 2.0], [0.0, 1.0]], [[0.0, 1.0, 2.0]]),
    "nan family": ([[0.0, _NAN, 2.0]], [[0.0, 1.0, 2.0]]),
    "second not isotone": (_TWO, [[0.0, 1.0, 2.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
    "second short": (_TWO, [[0.0, 1.0, 2.0], [0.0, 1.0, _NEAR]]),
    "short, then not isotone": (_TWO, [[0.0, 1.0, _NEAR], [0.0, 2.0, 1.0]]),
    "not isotone, then short": (_TWO, [[0.0, 2.0, 1.0], [0.0, 1.0, _NEAR]]),
    "ragged targets": (_TWO, [[0.0, 1.0, 2.0], [0.0, 1.0]]),
    "narrow targets": (_TWO, [[0.0, 1.0]]),
    "nan target": (_TWO, [[0.0, 1.0, 2.0], [0.0, _NAN, 2.0]]),
    "text target": (_TWO, [[0.0, "x", 2.0]]),
}


@pytest.mark.parametrize("name", list(_BAD_STACKS))
def test_stacked_build_refuses_as_the_first_refused_scalar(name):
    family, targets = _BAD_STACKS[name]
    p = chain("a", "b", "c")
    want = next(filter(None, (_error(lambda: stone_nachbin_express(p, family, t)) for t in targets)))
    assert _error(lambda: stone_nachbin_express_many(p, family, targets)) == want


def test_eval_expr_many_takes_any_list_of_expressions():
    rng = np.random.default_rng(21)
    p = random_poset(rng, 5)
    gens = np.array(separating_family(rng, p))
    targets = _running_max(p.rel, rng.uniform(-2.0, 2.0, size=(3, p.n)))
    exprs = [
        stone_nachbin_express(p, gens, targets[0], prune=True),
        *stone_nachbin_express_many(p, gens, targets[1:]),
        Join(Generator(0), Constant(0.5)),
        stone_nachbin_express(chain("a", "b", "c", "d", "e"), [[0.0, 1.0, 2.0, 3.0, 4.0]], [0.0, 0.0, 1.0, 1.0, 3.0]),
    ]
    want = b"".join(eval_expr(e, gens).tobytes() for e in exprs)
    assert eval_expr_many(exprs, gens).tobytes() == want
    assert eval_expr_many(iter(exprs), gens).tobytes() == want


# --------------------------------------------------------------------------
# telescoping decomposition


def test_upset_decomposition_merges_levels():
    c = chain("a", "b", "c")
    terms = upset_decomposition(c, [0.5, 0.5, 2.0])
    assert len(terms) == 2
    (c0, ind0), (c1, ind1) = terms
    assert c0 == pytest.approx(0.5) and ind0.tolist() == [1, 1, 1]
    assert c1 == pytest.approx(1.5) and ind1.tolist() == [0, 0, 1]


def test_upset_decomposition_constant():
    c = chain("a", "b")
    terms = upset_decomposition(c, [2.5, 2.5])
    assert len(terms) == 1
    assert terms[0][0] == pytest.approx(2.5) and terms[0][1].tolist() == [1, 1]


def test_upset_decomposition_drops_zero_base():
    c = chain("a", "b", "c")
    terms = upset_decomposition(c, [0.0, 1.0, 2.0])
    assert [(t[0], t[1].tolist()) for t in terms] == [(1.0, [0, 1, 1]), (1.0, [0, 0, 1])]


def test_upset_decomposition_rejects_bad_inputs():
    c = chain("a", "b")
    with pytest.raises(NotIsotone):
        upset_decomposition(c, [1.0, 0.0])
    with pytest.raises(NegativeValues):
        upset_decomposition(c, [-1.0, 0.0])


def test_upset_decomposition_reconstructs_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = random_poset(rng, int(rng.integers(1, 9)))
        f = np.maximum(random_isotone(rng, p), 0.0)
        total = np.zeros(p.n)
        for coeff, ind in upset_decomposition(p, f):
            assert coeff >= -1e-12
            assert is_isotone(p, ind)
            total += coeff * ind
        assert np.max(np.abs(total - f)) <= 1e-9


# Levels that tie, fall within the default tol or within 0.5 of each other
# (quarter steps), or sit at (signed) zero.
_LEVELS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, 5e-13, -5e-13, 1.0, 1.0 + 5e-13, 1.0 + 1.2e-12, 1.0 + 2e-12]),
    st.integers(0, 12).map(lambda k: k / 4),
    st.floats(0.0, 3.0),
)


@st.composite
def _padded_row(draw, m, kind):
    """(poset, values, padded values) for one stack row; a "raw" or "negative" row may be refused."""
    n = draw(st.sampled_from(range(m, -1, -1)))
    p = random_poset(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    raw = np.array(draw(st.lists(_LEVELS, min_size=n, max_size=n)), dtype=float)
    if kind != "raw":
        raw = np.where(p.rel, raw[:, None], -np.inf).max(axis=0, initial=-np.inf)
    if kind == "shifted":  # a minimum below 0, within some tol
        raw = raw - draw(st.sampled_from([1e-13, 0.3]))
    if kind == "negative" and n:
        raw[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1e-13, -1.0]))
    padding = draw(st.lists(st.sampled_from([0.0, 5.0, -3.0, np.nan]), min_size=m - n, max_size=m - n))
    return p, raw, np.concatenate([raw, padding])


@st.composite
def _padded_stacks(draw):
    """m and up to six rows; one stack in three also holds one row that may be refused."""
    m = draw(st.sampled_from(range(8, -1, -1)))
    rows = draw(st.lists(st.sampled_from(["isotone", "shifted"]).flatmap(lambda k: _padded_row(m, k)), max_size=5))
    if draw(st.integers(0, 2)) == 0:
        bad = draw(_padded_row(m, draw(st.sampled_from(["raw", "negative"]))))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    return m, rows or [draw(_padded_row(m, "isotone"))]


def _antichain_row(values, padding):
    p = FinitePoset([f"e{i}" for i in range(len(values))], np.eye(len(values), dtype=bool))
    return p, np.array(values), np.array(values + padding)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_padded_stacks(), st.sampled_from([1e-12, 0.0, 0.5]))
# 0.25 merges into the level at 0 but is within tol of the level at 0.75
@example((4, [_antichain_row([0.0, 0.25, 0.75], [5.0])]), 0.5)
# the level at 0.45 is within tol of the padded element's 0
@example((3, [_antichain_row([-0.3, 0.45], [0.0])]), 0.5)
def test_upset_decomposition_many_is_the_scalar_row_by_row(stack, tol):
    m, rows = stack
    rels = np.zeros((len(rows), m, m), dtype=bool)
    for r, (p, _, _) in enumerate(rows):
        rels[r, : p.n, : p.n] = p.rel
    values = np.stack([padded for _, _, padded in rows])
    want = []
    for p, f, _ in rows:
        try:
            want.append(upset_decomposition(p, f, tol=tol))
        except OrderConesError as exc:
            with pytest.raises(type(exc)):
                upset_decomposition_many(rels, values, tol=tol)
            return
    coeffs, indicators, kept = upset_decomposition_many(rels, values, tol=tol)
    assert coeffs.shape == kept.shape == (len(rows), m) and indicators.shape == (len(rows), m, m)
    for r, ((p, _, _), terms) in enumerate(zip(rows, want)):
        assert kept[r].tolist() == [t < len(terms) for t in range(m)]
        for t, (coeff, ind) in enumerate(terms):
            assert np.float64(coeff).tobytes() == coeffs[r, t].tobytes()
            assert ind.tobytes() == indicators[r, t, : p.n].tobytes()
        assert not indicators[r, :, p.n :].any() and not indicators[r, len(terms) :].any()
        assert not coeffs[r, len(terms) :].any()


def test_upset_decomposition_many_checks_its_stacks():
    chain2 = np.array([[[True, True], [False, True]]])
    with pytest.raises(DimensionMismatch):
        upset_decomposition_many(chain2, [[0.0, 1.0, 2.0]])
    with pytest.raises(InvalidInput):
        upset_decomposition_many(chain2.astype(int), [[0.0, 1.0]])
    with pytest.raises(InvalidInput):
        upset_decomposition_many(chain2, [[0.0, np.inf]])
    # the padded second element is related to the first
    with pytest.raises(InvalidInput):
        upset_decomposition_many(np.array([[[True, True], [False, False]]]), [[0.0, 0.0]])
    # a -> b -> c without a -> c
    intransitive = np.eye(3, dtype=bool)[None] | np.array([[[0, 1, 0], [0, 0, 1], [0, 0, 0]]], dtype=bool)
    with pytest.raises(InvalidInput):
        upset_decomposition_many(intransitive, [[0.0, 1.0, 2.0]])
    # the first refused row decides the error
    two = np.concatenate([chain2, chain2])
    with pytest.raises(NegativeValues):
        upset_decomposition_many(two, [[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NotIsotone):
        upset_decomposition_many(two, [[1.0, 0.0], [-1.0, 0.0]])


# --------------------------------------------------------------------------
# generated cones


def test_generated_cone_product_of_projections():
    g = grid(2, 2)
    proj1 = [0.0, 0.0, 1.0, 1.0]
    proj2 = [0.0, 1.0, 0.0, 1.0]
    product = (np.array(proj1) * np.array(proj2)).tolist()
    assert generated_cone_contains(g.elements, [proj1, proj2], product)
    assert not generated_cone_contains(g.elements, [proj1, proj2], [0.0, 1.0, 0.5, 0.2])
    assert generated_cone_contains(g.elements, [proj1, proj2], proj1)


def test_generated_cone_requires_separation():
    with pytest.raises(PointsNotSeparated):
        generated_cone_contains(["a", "b"], [[1.0, 1.0]], [0.0, 0.0])


def test_product_order_tensor_on_grids():
    # products of nonnegative isotone factor functions generate exactly the
    # cone of the product order, both directions, on grids up to 4x4
    rng = np.random.default_rng(14)
    for rows, cols in [(2, 2), (3, 2), (3, 3), (4, 4)]:
        g = grid(rows, cols)
        # nonnegative isotone factor families: the constant plus the
        # tail indicators 1_{i >= a} on each chain
        row_fns = np.vstack([np.ones(rows), np.triu(np.ones((rows, rows)))])
        col_fns = np.vstack([np.ones(cols), np.triu(np.ones((cols, cols)))])
        gens = []
        for rf in row_fns:
            for cf in col_fns:
                gens.append([rf[i] * cf[j] for i in range(rows) for j in range(cols)])
        for _ in range(25):
            f = random_isotone(rng, g)
            assert generated_cone_contains(g.elements, gens, f) == is_isotone(g, f)
            noisy = f + rng.normal(scale=0.4, size=g.n)
            assert generated_cone_contains(g.elements, gens, noisy) == is_isotone(g, noisy)


# --------------------------------------------------------------------------
# minimality


def test_minimal_witness_on_antichain():
    p = build_poset(["a", "b"], [])
    w = minimal_witness(p)
    assert (w.x, w.y) == ("a", "b")
    assert w.in_cone.tolist() == [0.0, 1.0]
    assert w.outside.tolist() == [1.0, 0.0]


def test_minimal_witness_none_for_chains():
    assert minimal_witness(chain("a", "b", "c")) is None


def test_minimal_witness_takes_the_first_incomparable_pair():
    rng = np.random.default_rng(30)
    posets = [random_poset(rng, n, prob) for n in range(13) for prob in (0.0, 0.3, 0.7, 1.0)]
    for p in posets + [sprinkle_minkowski(200, 4).poset]:
        pairs = p.incomparable_pairs()
        w = minimal_witness(p)
        if not pairs:
            assert w is None
            continue
        assert (w.x, w.y) == pairs[0]
        assert w.in_cone.tolist() == p.rel[p.index(w.y)].astype(float).tolist()
        assert w.outside.tolist() == p.rel[p.index(w.x)].astype(float).tolist()


def test_minimal_witness_on_diamond_separates_all_pairs():
    p = build_poset(["bot", "m1", "m2", "top"], [("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")])
    w = minimal_witness(p)
    assert {w.x, w.y} == {"m1", "m2"}
    ix, iy = p.index(w.x), p.index(w.y)
    for a in p.elements:
        for b in p.elements:
            if a == b:
                continue
            h = w.separator(a, b)
            assert is_isotone(p, h)
            assert h[ix] <= h[iy]
            assert h[p.index(a)] != h[p.index(b)]


def test_total_orders_pin_down_their_cone():
    rng = np.random.default_rng(15)
    for _ in range(25):
        p = random_total_order(rng, int(rng.integers(1, 8)))
        gens = separating_family(rng, p)
        for _ in range(5):
            f = rng.normal(size=p.n)
            assert generated_cone_contains(p.elements, gens, f) == is_isotone(p, f)


# --------------------------------------------------------------------------
# co-boundedness


def test_cobounded_chain():
    assert cobounded_commutative(chain("a", "b", "c")).cobounded


def test_cobounded_antichain_witness():
    res = cobounded_commutative(build_poset(["a", "b"], []))
    assert not res.cobounded
    w = res.witness
    assert w.condition == "sum"
    assert w.f.tolist() == [2.0, 1.0] and w.g.tolist() == [1.0, 2.0]
    assert w.lhs == pytest.approx(3.0) and w.rhs == pytest.approx(4.0)


def test_cobounded_v_poset_fails_inverse_condition():
    v = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    res = cobounded_commutative(v)
    assert not res.cobounded
    w = res.witness
    assert w.condition == "inverse"
    assert (w.f > 0).all() and (w.g > 0).all()
    assert is_isotone(v, w.f) and is_isotone(v, w.g)
    assert w.lhs < w.rhs - 1e-9


def test_cobounded_requires_nonempty():
    with pytest.raises(InvalidInput):
        cobounded_commutative(build_poset([], []))


# --------------------------------------------------------------------------
# cone axioms on random members


def test_shift_makes_members_nonnegative():
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = random_poset(rng, int(rng.integers(1, 8)))
        f = random_isotone(rng, p)
        shifted = f + np.max(np.abs(f))
        assert is_isotone(p, shifted) and (shifted >= 0).all()


def test_products_of_nonneg_members_stay_members():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = random_poset(rng, int(rng.integers(1, 8)))
        f = np.maximum(random_isotone(rng, p), 0.0)
        g = np.maximum(random_isotone(rng, p), 0.0)
        assert is_isotone(p, f * g, tol=0.0)


def test_cone_object_axioms_sampled():
    from ordercones.isotone_cone import IsotoneCone

    rng = np.random.default_rng(19)
    for _ in range(20):
        p = random_poset(rng, int(rng.integers(1, 7)))
        cone = IsotoneCone(p)
        f, g = random_isotone(rng, p), random_isotone(rng, p)
        assert cone.contains(np.full(p.n, float(rng.normal())))
        assert cone.contains(f + g)
        assert cone.contains(float(rng.exponential()) * f)
        assert cone.contains(np.maximum(f, g))
        assert cone.contains(np.minimum(f, g))
        g = np.maximum(f, 0.0)
        assert cone.contains(g) and (g >= 0).all()


def test_direct_sum_membership_is_componentwise():
    rng = np.random.default_rng(18)
    for _ in range(40):
        p = random_poset(rng, int(rng.integers(1, 5)))
        q = random_poset(rng, int(rng.integers(1, 5)))
        union = combine(p, q, "disjoint_union")
        f = random_isotone(rng, p)
        g = random_isotone(rng, q)
        assert is_isotone(union, np.concatenate([f, g]))
        bad_f = f.copy()
        if p.n >= 2 and p.strict_pairs():
            x, y = p.strict_pairs()[0]
            bad_f[p.index(x)] = bad_f[p.index(y)] + 1.0
            assert is_isotone(union, np.concatenate([bad_f, g])) == is_isotone(p, bad_f)


def _upsets_by_bitmask(p):
    """all_upset_indicators as a loop over the subset bitmasks, keeping those closed upward."""
    up_masks = [int("".join("1" if b else "0" for b in reversed(p.rel[i])), 2) for i in range(p.n)]
    rows = []
    for mask in range(1, 1 << p.n):
        closed = 0
        for i in range(p.n):
            if mask >> i & 1:
                closed |= up_masks[i]
        if closed == mask:
            rows.append([float(mask >> i & 1) for i in range(p.n)])
    return np.array(rows) if rows else np.zeros((0, p.n))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 9), st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_all_upset_indicators_are_the_bitmask_loop(n, edge_prob, seed, limit):
    p = random_poset(np.random.default_rng(seed), n, edge_prob)
    got = all_upset_indicators(p, limit=limit)
    want = _upsets_by_bitmask(p) if n <= limit else p.rel.astype(float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _upsets_by_comparison(p):
    """all_upset_indicators by comparing every subset's indicator across every related pair."""
    subsets = (np.arange(1, 1 << p.n)[:, None] >> np.arange(p.n) & 1).astype(float)
    return subsets[_isotone(p.rel, subsets, 0.0)]


def _all_posets(n):
    """Every partial order on n labelled elements."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in product([False, True], repeat=len(off)):
        rel = np.eye(n, dtype=bool)
        for (i, j), b in zip(off, bits):
            rel[i, j] = b
        if not (rel & rel.T & ~np.eye(n, dtype=bool)).any() and not ((rel.astype(int) @ rel.astype(int) > 0) & ~rel).any():
            yield FinitePoset([f"e{i}" for i in range(n)], rel)


def test_all_upset_indicators_equal_the_subset_comparison():
    rng = np.random.default_rng(31)
    exhaustive = [p for n in range(5) for p in _all_posets(n)]
    assert len(exhaustive) == 1 + 1 + 3 + 19 + 219
    for p in exhaustive + [random_poset(rng, n, prob) for n in range(13) for prob in (0.0, 0.2, 0.5, 1.0)]:
        got, want = all_upset_indicators(p), _upsets_by_comparison(p)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _cobounded_by_bounds(p):
    """(cobounded, condition, f, g) read off the poset's greatest and lowest elements, as bounds finds them."""
    b = bounds(p)
    if b.bounded:
        return True, None, None, None
    strict = p.rel & ~np.eye(p.n, dtype=bool)
    at = np.arange(p.n)
    if b.top is None:
        i, j = np.flatnonzero(~strict.any(axis=1))[:2]
        return False, "sum", 1.0 + (at == i), 1.0 + (at == j)
    i, j = np.flatnonzero(~strict.any(axis=0))[:2]
    return False, "inverse", 2.0 - (at == i), 2.0 - (at == j)


def test_cobounded_commutative_equals_the_bounds_reference():
    rng = np.random.default_rng(37)
    exhaustive = [p for n in range(1, 5) for p in _all_posets(n)]
    assert len(exhaustive) == 242
    sampled = [random_poset(rng, int(rng.integers(1, 13)), float(rng.random())) for _ in range(2000)]
    seen = set()
    for p in exhaustive + sampled:
        res, (cobounded, condition, f, g) = cobounded_commutative(p), _cobounded_by_bounds(p)
        assert res.cobounded is cobounded
        if cobounded:
            assert res.witness is None
        else:
            w = res.witness
            assert w.condition == condition
            assert w.f.dtype == f.dtype and w.f.tobytes() == f.tobytes() and w.g.tobytes() == g.tobytes()
        seen.add(condition)
    assert seen == {None, "sum", "inverse"}
