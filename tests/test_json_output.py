"""The CLI's JSON emitter writes what json.dumps(sort_keys=True, indent=2) writes."""
import enum
import hashlib
import io
import json
import os
import subprocess
import sys
from collections.abc import Iterator
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ordercones import cli, poset
from ordercones.errors import DomainError
from ordercones.isotone_cone import Constant, Generator, Join, Meet, TableJoin, _Table
from ordercones.sampling import random_poset


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=cli._json_default, allow_nan=False)


class _Id(str):
    pass


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


_EXAMPLES = settings(derandomize=True, max_examples=200, deadline=None)
_finite = st.floats(allow_nan=False, allow_infinity=False)
# Strings that look like the emitter's separators and brackets, or need escaping.
_text = st.one_of(st.text(max_size=6), st.sampled_from(['", "', ", ", '"', "[", "{", "]}", "\n", "a, b", "é✓", "\x00", ""]))
_ids = st.one_of(_text, _text.map(_Id))
_levels = st.sampled_from(list(_Level))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    _finite,
    st.sampled_from([0.0, -0.0, 1e300, -1e-300, 5e-324]),
    _ids,
    _levels,
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3), elements=_finite),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
)


@st.composite
def _rows(draw):
    """Rows of ids of one width, as lists or tuples, often with one odd item.

    The odd item is a ragged or empty row, a bare id where a row belongs,
    or a row whose last cell is not a string.
    """
    width = draw(st.integers(0, 3))
    row = st.lists(_ids, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), min_size=1, max_size=5))
    i = draw(st.integers(0, len(rows) - 1))
    odd = draw(st.sampled_from(["none", "none", "ragged", "empty", "bare", "cell"]))
    if odd == "ragged":
        rows[i] = draw(st.lists(_ids, max_size=4))
    elif odd == "empty":
        rows[i] = []
    elif odd == "bare":
        rows[i] = draw(_ids)
    elif odd == "cell" and width:
        rows[i] = [*rows[i][:-1], draw(st.one_of(_scalars, _levels, st.lists(_ids, max_size=2)))]
    return rows


_payloads = st.recursive(
    st.one_of(_scalars, _arrays, _rows()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_ids, inner, max_size=5),
        st.dictionaries(st.one_of(st.integers(-5, 5), _finite, _levels), inner, max_size=3),
    ),
    max_leaves=30,
)


# Flat lists of scalars, where a string after a number puts a quote in the
# fast path's body, and rows of ids are drawn on their own as well.
@_EXAMPLES
@given(st.one_of(_payloads, st.lists(_scalars, min_size=2, max_size=6), _rows()))
@example([1, "a, b"])
@example([0.5, [1, 2], {}])
@example([["a", "b"], ("c", "d")])
@example((('", "', '"'), ["\x00", "é✓"]))
@example([[_Id("x"), "y"], ["z", _Id("w")]])
@example([["a"], ["b", "c"]])
@example([[], []])
@example([["a", "b"], "cd"])
@example([["a", "b"], ["c", 1]])
@example([["a", _Level.HIGH]])
def test_emitter_matches_json_dumps(payload):
    assert cli._dumps(payload) == _reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"a": float("nan")},
        [1, 2, float("inf")],
        [-float("inf")],
        {"a": ["x", {"b": [0.5, float("nan")]}]},
        {"a": np.array([[1.0, np.inf]])},
        [np.float64("nan")],
        {float("nan"): 1},
    ],
    ids=["dict-value", "flat-list", "lone-item", "nested", "array", "numpy-scalar", "key"],
)
def test_non_finite_values_are_domain_errors(payload):
    with pytest.raises(ValueError):
        _reference(payload)
    with pytest.raises(DomainError):
        cli._dumps(payload)


def _stdout(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _stdout_sha256(argv) -> str:
    return hashlib.sha256(_stdout(argv).encode()).hexdigest()


_GRID = [(x, y) for x in range(3) for y in range(4)]
_EXPRESS = [
    "cone", "express", "--prune",
    "--poset", json.dumps({
        "elements": [f"p{x}{y}" for x, y in _GRID],
        "relation": [[int(a[0] <= b[0] and a[1] <= b[1]) for b in _GRID] for a in _GRID],
    }),
    "--generators", json.dumps([[x for x, _ in _GRID], [y for _, y in _GRID], [x * y for x, y in _GRID]]),
    "--target", json.dumps([0.5 * x + y * y + 0.25 * x * y for x, y in _GRID]),
]


def _dominance_express(n, seed, prune=True):
    """cone express (--prune by default) on a random 2-D dominance order of n points,
    with the two coordinates and n/2 - 2 running maxima over down-sets as generators."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    rel = (pts[:, None, 0] <= pts[None, :, 0]) & (pts[:, None, 1] <= pts[None, :, 1])
    iso = np.where(rel, rng.uniform(-2.0, 2.0, size=(n // 2 - 1, n, 1)), -np.inf).max(axis=1)
    return [
        "cone", "express", *["--prune"] * prune,
        "--poset", json.dumps({"elements": [f"d{i}" for i in range(n)], "relation": rel.astype(int).tolist()}),
        "--generators", json.dumps(np.vstack([pts.T, iso[:-1]]).tolist()),
        "--target", json.dumps(iso[-1].tolist()),
    ]


# sha256 of stdout as json.dumps(sort_keys=True, indent=2) wrote it before
# the emitter replaced that call; the 60-point prune, as the per-row prune
# wrote it before the batched one replaced it; the unpruned 40-point
# expression, as _dumps wrote its to_json() before the table writer.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["poset", "sprinkle", "--n", "200", "--seed", "42"],
         "192ffc82ae475cbf374643340e88528b0632533898304ac9901a3144fc8e7ac1"),
        (["poset", "sprinkle", "--n", "1000", "--seed", "1"],
         "a742fa58a3beb0584096f0a9429fa2d62fe986595244bef5d26096eb1ff428f2"),
        (_EXPRESS, "f410dd52b8b49f021642797ccfac9ca49e3b03725e00baf37f2ea6c5a8c4c9a9"),
        (_dominance_express(60, 24), "2091077a99aa21948ce597fa7e4549d1bb459da6964c2446278696fdcb0e4bb9"),
        (_dominance_express(40, 25, prune=False), "32d5808957ad90cc150c122d5cb306bd6ad8550b0efe477153a9cfb0ff25f777"),
        (["m2", "order", "--region", '{"kind": "cap", "center": [0, 0, 1], "radius": 0.3}',
          "--samples", "200", "--seed", "1"],
         "6492114679db967094611d7a991dbc5394f05a88d6f65d3e1fa68513378efc10"),
    ],
    ids=["sprinkle", "sprinkle-1000", "express-prune", "express-prune-60", "express-40", "m2-order-scan"],
)
def test_stdout_bytes_are_pinned(argv, digest):
    assert _stdout_sha256(argv) == digest


def _hand_table(seed):
    """Tables of n = 0..6 with signed zeros, ties and extreme values, every
    other one pruned: then some rows are listed, each keeps at least one leaf."""
    rng = np.random.default_rng(seed)
    n, pruned = seed % 7, seed % 2 == 1
    values = np.array([0.0, -0.0, 0.1, 2.25, 1e-300, 5e-324, 1e300, 3.0])  # a factor is never below -0.0
    lam, mu = rng.choice(values, size=(n, n)), rng.choice(values, size=(n, n)) * rng.choice([1.0, -1.0], size=(n, n))
    rows = np.flatnonzero(rng.random(n) < 0.6) if pruned else np.arange(n)
    keep = rng.random((n, n)) < 0.3
    keep[np.arange(n), rng.integers(0, max(n, 1), size=n)] = True
    keep[np.setdiff1d(np.arange(n), rows)] = False
    table = _Table(rng.choice(values, size=n), lam, mu, rng.integers(0, 12, size=(n, n)), rng.random((n, n)) < 0.3,
                   rows, keep if pruned else None)
    return TableJoin(table=table)


@pytest.mark.parametrize("seed", range(28))
def test_tables_are_written_as_the_to_json_of_their_nodes(seed):
    expr = _hand_table(seed)
    for nest in (lambda e: e, lambda e: {"expr": e, "max_error": 0.0}, lambda e: [[e, 1], {"x": [e]}]):
        assert cli._dumps(nest(expr)) == json.dumps(nest(expr.to_json()), sort_keys=True, indent=2)
    tree = Join(Meet(Generator(0), Constant(-0.0)), Constant(0.5))  # any other tree is written from its to_json()
    assert cli._dumps([tree]) == json.dumps([tree.to_json()], sort_keys=True, indent=2)


# Leaf (0, 0) is a kept Sum leaf, (0, 1) is pruned and (1, 0) is tied.
@pytest.mark.parametrize(
    "table, cell, value, refused",
    [("lam", (0, 0), np.inf, True), ("mu", (0, 0), np.nan, True), ("mu", (1, 1), -np.inf, True),
     ("mu", (0, 1), -np.inf, False), ("lam", (1, 0), np.inf, False), ("mu", (1, 0), np.nan, False)],
    ids=["factor", "const", "second-row", "pruned-leaf", "tied-leaf-factor", "tied-leaf-const"],
)
def test_the_table_writer_refuses_what_the_node_path_refuses(table, cell, value, refused):
    f, lam, mu = np.array([1.0, 2.0]), np.ones((2, 2)), np.zeros((2, 2))
    {"lam": lam, "mu": mu}[table][cell] = value
    tied, keep = np.array([[False, False], [True, False]]), np.array([[True, False], [True, True]])
    expr = TableJoin(table=_Table(f, lam, mu, np.zeros((2, 2), dtype=np.intp), tied, np.arange(2), keep))
    if not refused:
        assert cli._dumps(expr) == json.dumps(expr.to_json(), sort_keys=True, indent=2)
        return
    with pytest.raises(DomainError) as want:
        cli._dumps(expr.to_json())
    with pytest.raises(DomainError) as got:
        cli._dumps(expr)
    assert str(got.value) == str(want.value) == "result is not finite: Out of range float values are not JSON compliant"


def _lists(payload) -> str:
    """json.dumps of the payload with every array in its list form."""
    return json.dumps(json.loads(_reference(payload)), sort_keys=True, indent=2)


_NESTINGS = [
    lambda r: r,
    lambda r: {"relation": r, "elements": ["a"]},
    lambda r: {"poset": {"relation": r}, "projection": {}},
    lambda r: [[r, 1], {"x": [r]}],
]


@pytest.mark.parametrize("n", [0, 1, 2, 7, 60])
@pytest.mark.parametrize("nest", range(len(_NESTINGS)))
def test_relation_arrays_are_written_as_their_lists(n, nest):
    p = random_poset(np.random.default_rng(n), n) if n else poset.FinitePoset([], np.zeros((0, 0), bool))
    payload = p._payload()
    assert payload["relation"].dtype == np.uint8 and not payload["relation"].flags.owndata  # the view of rel
    text = cli._dumps(_NESTINGS[nest](payload))
    assert text == json.dumps(_NESTINGS[nest](p.to_json()), sort_keys=True, indent=2)


@_EXAMPLES
@given(st.recursive(
    hnp.arrays(np.uint8, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5), elements=st.integers(0, 2)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
))
def test_uint8_arrays_of_any_shape_and_values_are_written_as_their_lists(payload):
    # Only nonempty 2-D 0/1 arrays take the byte template; the others keep the list path.
    assert cli._dumps(payload) == _lists(payload)


def _handler_payload(argv):
    args = cli._parser().parse_args(argv)
    return args.handler(args)


_CHAIN = json.dumps({"elements": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]})
_V = json.dumps({"elements": ["bot", "l", "r"], "pairs": [["bot", "l"], ["bot", "r"]]})
_SPACE = json.dumps({"points": ["o", "a", "b"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "landmarks": ["o"]})


_VERB_ARGVS = [
    pytest.param(["poset", "combine", "--mode", "product", "--a", _CHAIN, "--b", _V], id="combine"),
    pytest.param(["gps", "order", "--in", _SPACE], id="gps-order"),
    pytest.param(["dual", "characters", "--in", _V], id="dual-characters"),
    pytest.param(["poset", "reduce", "--in", json.dumps(
        {"elements": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "a"], ["b", "c"]]})], id="reduce"),
    pytest.param(["dual", "from-poset", "--in", _V], id="dual-algebra"),
    pytest.param(["cone", "order-from", "--elements", '["a","b","c"]', "--functions", "[[0,0,1],[1,0,2]]"],
                 id="order-from"),
    pytest.param(["poset", "sprinkle", "--n", "0", "--seed", "1"], id="sprinkle-0"),
    pytest.param(["poset", "sprinkle", "--n", "1", "--seed", "1"], id="sprinkle-1"),
    pytest.param(["poset", "sprinkle", "--n", "60", "--seed", "2"], id="sprinkle-60"),
    # Past 10 and 100 points the ids' sorted order crosses digit widths ("p10" before "p2").
    pytest.param(["poset", "sprinkle", "--n", "11", "--seed", "3"], id="sprinkle-11"),
    pytest.param(["poset", "sprinkle", "--n", "101", "--seed", "4"], id="sprinkle-101"),
]


@pytest.mark.parametrize("argv", _VERB_ARGVS)
def test_verb_payloads_are_written_as_their_lists(argv):
    payload = _handler_payload(argv)
    assert cli._dumps(payload) == _lists(payload)
    assert _stdout(argv) == _lists(payload) + "\n"


_CAP = '{"kind":"cap","center":[0,0,1],"radius":0.5}'


# The large answers: a relation grid of 10^6 cells, and a scan of two blocks.
@pytest.mark.parametrize("argv", _VERB_ARGVS + [
    pytest.param(["poset", "sprinkle", "--n", "1000", "--seed", "1"], id="sprinkle-1000-seed-1"),
    pytest.param(["poset", "sprinkle", "--n", "1000", "--seed", "2"], id="sprinkle-1000-seed-2"),
    pytest.param(["m2", "order", "--region", _CAP, "--samples", "5000", "--seed", "2", "--format", "csv"], id="scan-csv"),
    pytest.param(["m2", "order", "--region", _CAP, "--samples", "5000", "--seed", "2"], id="scan-json"),
])
def test_every_sink_gets_the_same_bytes(tmp_path, argv):
    path = tmp_path / "answer"
    assert _stdout(argv + ["--out", str(path)]) == ""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    piped = subprocess.run([sys.executable, "-W", "error", "-m", "ordercones.cli", *argv],
                           capture_output=True, env=env, timeout=120)
    assert piped.returncode == 0 and piped.stderr == b""
    written = path.read_bytes()
    assert written == piped.stdout == _stdout(argv).encode()
    if "csv" not in argv:
        payload = _handler_payload(argv)
        # A streamed scan has no payload to dump; test_cli checks its text against the whole one.
        node = json.loads(written) if isinstance(payload, Iterator) else json.loads(_reference(payload))
        assert written == (json.dumps(node, sort_keys=True, indent=2) + "\n").encode()


def test_printed_pairs_come_from_covering_pairs(monkeypatch):
    # The benchmark's answer check for poset sprinkle drops a covering pair
    # this way; a printed pair taken from elsewhere would defuse it.
    argv = ["poset", "sprinkle", "--n", "60", "--seed", "2"]
    full = json.loads(_stdout(argv))["pairs"]
    original = poset.FinitePoset.covering_pairs
    monkeypatch.setattr(poset.FinitePoset, "covering_pairs", lambda self: original(self)[:-1])
    assert json.loads(_stdout(argv))["pairs"] == full[:-1]
