"""Command line front end: JSON in, JSON or CSV out, one verb per operation.

Flags that take structured input accept either inline JSON or a file path
("-" reads standard input).  Exit codes: 0 success, 1 domain error (with a
machine-readable error object) or standard output closed by its reader (with
nothing on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, InvalidInput, OrderConesError, string_ids

# Each library module is imported in the functions that use it, so a call runs
# only the modules of its verb: `poset check` never imports m2 or acceptance.
if TYPE_CHECKING:
    from . import duality, gps, hermitian, m2, poset

def _json_default(obj):
    """JSON form of the numpy values and dataclass records payloads carry.

    A record is the shallow dict of its fields; _indented writes what they hold.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if type(obj) is _Coords:
        return {e: {"t": t, "x": x} for e, t, x in zip(obj.ids, obj.t.tolist(), obj.x.tolist())}
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(default=_json_default, allow_nan=False).encode
# What the C encoder writes for a str when ensure_ascii is on.
_string = json.encoder.encode_basestring_ascii


def _key(key) -> str:
    # A key that is not a string is written as the C encoder writes keys.
    return _string(key) if isinstance(key, str) else _encode({key: None})[1:-7]


def _indented(obj, indent: str) -> str | memoryview | list:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it at this indent.

    json.dumps with an indent always runs the pure-Python encoder; here
    every value goes through the cheapest C call that writes the same
    bytes, and each container's text is assembled in one copy.  A relation
    grid is its byte buffer, and a value holding one a list of parts (_joined).
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        sep = ",\n" + inner
        parts = []  # separators and texts in turn: one join copies each text once
        for k, v in sorted(obj.items()):
            parts += (sep, _key(k), ": ", _indented(v, inner))
        parts[0] = "{\n" + inner
        parts.append("\n" + indent + "}")
        return _joined(parts)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if not isinstance(obj[0], (str, list, tuple, dict)):
            body = _encode(obj)[1:-1]
            # Without quotes or brackets the body holds only bare numbers,
            # true, false and null, so every ", " is an item separator.
            if '"' not in body and "[" not in body and "{" not in body:
                return f"[\n{inner}{body.replace(', ', sep)}\n{indent}]"
        elif type(obj[0]) in (list, tuple) and (text := _string_rows(obj, indent)) is not None:
            return text
        parts = [sep] * (2 * len(obj))  # as for a dict
        parts[1::2] = [_indented(x, inner) for x in obj]
        parts[0] = "[\n" + inner
        parts.append("\n" + indent + "]")
        return _joined(parts)
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or isinstance(obj, (int, float)):
        return _encode(obj)
    if type(obj) is _Coords:
        return _coords(obj, indent)
    if isinstance(obj, np.ndarray) and obj.dtype == np.uint8 and obj.ndim == 2 and obj.size and obj.max() <= 1:
        return _bit_matrix(obj, indent)
    # Only a loaded isotone_cone can have made an expression tree.
    cone = sys.modules.get(f"{__package__}.isotone_cone")
    if cone is not None and isinstance(obj, cone.LatticeExpr):
        if isinstance(obj, cone.TableJoin):
            return _table_join(obj.table, indent)
        return _indented(obj.to_json(), indent)
    return _indented(_json_default(obj), indent)


def _joined(parts: list) -> str | list:
    """parts as one text or, when a grid buffer is among them at any depth, one flat list of texts and buffers."""
    try:
        return "".join(parts)
    except TypeError:
        return [q for p in parts for q in (p if type(p) is list else (p,))]


def _string_rows(rows, indent: str) -> str | None:
    """Plain lists or tuples of one nonzero length, holding only strings, as _indented writes them.

    Every cell goes through one map of the string encoder, and the rows
    through two joins; anything else gives None, for the per-item path.
    """
    width = len(rows[0])
    if not (width and isinstance(rows[0][0], str)):  # a matrix of numbers stops here
        return None
    if not set(map(type, rows)) <= {list, tuple} or set(map(len, rows)) != {width}:
        return None
    inner, cell = indent + "  ", indent + "    "
    cells = map(_string, itertools.chain.from_iterable(rows))
    # zip over width references to one iterator takes the cells a row at a time.
    try:  # the string encoder refuses anything that is not a str
        body = f"\n{inner}],\n{inner}[\n{cell}".join(map((",\n" + cell).join, zip(*[cells] * width)))
    except TypeError:
        return None
    return f"[\n{inner}[\n{cell}{body}\n{inner}]\n{indent}]"


def _bit_matrix(a: np.ndarray, indent: str) -> memoryview:
    """A nonempty 2-D 0/1 uint8 array as _indented writes its list of lists, in ASCII bytes.

    Every row takes the same width in the text, so the whole matrix is one
    byte template with the digits written into it: a part of its own, never joined.
    """
    inner, cell = indent + "  ", indent + "    "
    opening, closing, row_sep = "[\n" + inner, "\n" + indent + "]", ",\n" + inner
    head, sep, tail = "[\n" + cell, ",\n" + cell, "\n" + inner + "]" + row_sep
    n, m = a.shape
    row = np.frombuffer((head + ("0" + sep) * (m - 1) + "0" + tail).encode(), np.uint8)
    text = np.empty(len(opening) + n * row.size, np.uint8)
    text[:len(opening)] = np.frombuffer(opening.encode(), np.uint8)
    grid = text[len(opening):].reshape(n, row.size)
    grid[:] = row
    grid[:, len(head):row.size - len(tail):len(sep) + 1] += a  # "0" + 1 is "1"
    end = text.size - len(row_sep)  # the last row separator gives way to the closing bracket
    text[end:end + len(closing)] = np.frombuffer(closing.encode(), np.uint8)
    return memoryview(text[:end + len(closing)])


@dataclasses.dataclass(frozen=True)
class _Coords:
    """A sprinkle's coordinates: its ids and their finite t and x, float arrays in the order of
    the ids.  Their JSON is Sprinkling.coords_json()'s, {id: {"t": t, "x": x}}; _coords writes it."""

    ids: tuple[str, ...]
    t: np.ndarray
    x: np.ndarray


def _coords(coords: _Coords, indent: str) -> str:
    """The coordinates as _indented writes their JSON, one row of _padded_rows a point, in sorted()
    order of the ids: the quoted id, then t and x as _repr_slots writes them."""
    if not coords.ids:
        return "{}"
    order = sorted(range(len(coords.ids)), key=coords.ids.__getitem__)
    head, tail = _indented({"@": None}, indent).split('"@": null')
    opening, middle, closing = _indented({"t": "@", "x": "@"}, indent + "  ").split('"@"')
    sep = f",\n{indent}  "
    ids = np.array([_string(coords.ids[i]) for i in order], "S")  # ASCII, padded
    text = _padded_rows([sep, ids.view(np.uint8).reshape(len(ids), -1), ": " + opening, _repr_slots(coords.t[order]),
                         middle, _repr_slots(coords.x[order]), closing])
    return head + str(text[len(sep):], "ascii") + tail


def _table_join(t, indent: str) -> str:
    """The TableJoin of the Stone-Nachbin tables t as _indented writes its to_json().

    The tables are read once as lists.  Each leaf fills the text of its
    indent, its floats written with float.__repr__, and each meet and the
    join are one join of their argument texts.  A visited leaf value that is
    not finite raises the encoder's ValueError, as writing the leaf's node does.
    """
    rows, visited = t.visited()
    factor_const = np.stack((t.lam[rows], t.mu[rows]), axis=-1)  # each Sum leaf's floats in the order written
    bad = visited[..., None] & ~np.isfinite(factor_const)
    if bad.any():
        _encode(float(factor_const[tuple(np.argwhere(bad)[0])]))
    fl, lam, mu, k, tied = (a.tolist() for a in t[:5])
    branch = indent + "    "
    in_meet, lone = _leaf_texts(branch + "    "), _leaf_texts(branch)
    branches = []
    for i, cols, single in t.meets():
        (c0, c1), (s0, s1, s2, s3) = lone if single else in_meet
        tied_i, k_i, lam_i, mu_i, f_i = tied[i], k[i], lam[i], mu[i], f"{c0}{fl[i]!r}{c1}"
        leaves = [f_i if tied_i[j] else f"{s0}{k_i[j]}{s1}{lam_i[j]!r}{s2}{mu_i[j]!r}{s3}" for j in cols]
        branches.append(leaves[0] if single else _node("meet", leaves, branch))
    return _node("join", branches, indent)


@functools.cache
def _leaf_texts(indent: str) -> tuple[list[str], list[str]]:
    """The text of a tied leaf around its constant, and of a Sum leaf around its
    generator index, factor and constant, as _indented writes their to_json() at this indent."""
    tied = {"const": "@"}
    total = {"op": "sum", "args": [{"op": "scale", "factor": "@", "args": [{"gen": "@"}]}, {"const": "@"}]}
    return _indented(tied, indent).split('"@"'), _indented(total, indent).split('"@"')


@functools.cache
def _frame(op: str, indent: str) -> tuple[str, str, str]:
    """The text of {"args": [...], "op": op} at this indent before, between and after its arguments."""
    head, tail = _indented({"args": [None], "op": op}, indent).split("null")
    return head, ",\n" + indent + "    ", tail


def _node(op: str, args: list[str], indent: str) -> str:
    """{"args": args, "op": op} as _indented writes it, the args already written at indent + 4."""
    if not args:
        return _indented({"args": [], "op": op}, indent)
    head, sep, tail = _frame(op, indent)
    return head + sep.join(args) + tail


def _parts(payload: dict | list) -> list:
    """Strict JSON, sorted keys, two-space indent, as texts and grid buffers: NaN or inf is a DomainError."""
    try:
        text = _indented(payload, "")
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from exc
    return text if type(text) is list else [text]


def _dumps(payload: dict | list) -> str:
    """The text of _parts(payload), each grid decoded."""
    return "".join(p if isinstance(p, str) else str(p, "ascii") for p in _parts(payload))


def _load(text: str):
    """Inline JSON when it looks like JSON, else a file path ('-' is stdin)."""
    stripped = text.strip()
    if not stripped:
        raise InvalidInput("empty input")
    if stripped == "-":
        source, read = "standard input does not parse as JSON", sys.stdin.read
    elif stripped[:1] in "[{" or stripped in ("true", "false", "null"):
        source, read = "inline JSON does not parse", lambda: stripped
    else:
        source = f"file {text!r} does not parse as JSON"

        def read() -> str:
            with open(text, "r", encoding="utf-8") as fh:
                return fh.read()
    try:
        return json.loads(read())
    except OSError as exc:
        raise InvalidInput(f"cannot read {text!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise InvalidInput(f"{source}: {exc}") from exc


def _emit(args, result) -> None:
    """Write a handler's result, then one newline, to --out or standard output, as UTF-8 bytes.

    The result is a text, a payload (written as _parts gives it, each grid
    buffer in one write) or an iterator of texts and bytes, written one
    after another so that a long output is never held whole.  Standard
    output takes the bytes in its binary buffer, whatever the locale; a
    sink without one, such as io.StringIO, the decoded text.  A handler
    finishes its input checks before it returns, so a refused call writes
    nothing and no --out file.
    """
    if isinstance(result, str):
        parts = (result,)
    elif isinstance(result, Iterator):
        parts = result
    else:
        parts = _parts(result)
    if args.out:
        with open(args.out, "wb") as fh:
            _write(fh.write, parts)
    else:
        sys.stdout.flush()
        sink = getattr(sys.stdout, "buffer", None)
        _write(sink.write if sink else lambda data: sys.stdout.write(str(data, "utf-8")), parts)


def _write(write, parts) -> None:
    for part in parts:
        write(part.encode() if isinstance(part, str) else part)
    write(b"\n")


def _function_arg(value) -> np.ndarray:
    from . import isotone_cone
    data = _load(value)
    if isinstance(data, dict):
        data = data.get("values")
    return isotone_cone.as_function(data)


def _functions_arg(value) -> np.ndarray:
    from . import isotone_cone
    data = _load(value)
    if isinstance(data, dict):
        data = data.get("functions", data.get("values"))
    if not isinstance(data, list):
        raise InvalidInput('functions must be a list of value lists, or an object with "functions" or "values"')
    return isotone_cone.as_functions(data)


def _poset_arg(value) -> poset.FinitePoset:
    from . import poset
    return poset.FinitePoset.from_json(_load(value))


def _preorder_arg(value) -> poset.FinitePreorder:
    from . import poset
    return poset.FinitePreorder.from_json(_load(value))


def _region_arg(value) -> m2.SphericalRegion:
    from . import m2
    return m2.SphericalRegion.from_json(_load(value))


def _hermitian_arg(value) -> hermitian.HermitianMatrix:
    from . import hermitian
    data = _load(value)
    if isinstance(data, list):
        data = {"re": data}
    return hermitian.HermitianMatrix.from_json(data)


def _pure_state_arg(value) -> m2.PureStatePoint:
    from . import m2
    data = _load(value)
    if isinstance(data, list):
        data = {"xi": data} if any(isinstance(x, list) for x in data) else {"bloch": data}
    return m2.PureStatePoint.from_json(data)


def _check_seed(seed: int) -> None:
    """numpy's generators take non-negative seeds only."""
    if seed < 0:
        raise InvalidInput(f"--seed must be non-negative, got {seed}")


def _relation_csv(pre: poset.FinitePreorder) -> str:
    lines = ["source,target"]
    lines += [f"{x},{y}" for x, y in sorted(pre.strict_pairs())]
    return "\n".join(lines)


def _relation_payload(args, obj: poset.FinitePreorder, extra: dict | None = None) -> dict | str:
    if args.format == "csv":
        return _relation_csv(obj)
    payload = obj._payload()
    if extra:
        payload.update(extra)
    return payload


# --------------------------------------------------------------------------
# poset verbs


def _cmd_poset_check(args):
    from . import poset
    data = _load(getattr(args, "in"))
    if isinstance(data, dict) and isinstance(data.get("elements"), list):
        # Ids that are not strings make unreadable input (exit 1), not an invalid order.
        string_ids(data["elements"], "element ids", utf8=True)
    try:
        p = poset.FinitePoset.from_json(data)
    except OrderConesError as exc:
        return {"valid": False, "reason": exc.kind, "detail": str(exc)}
    return {"valid": True, "bounded": poset.bounds(p).bounded}


def _cmd_poset_reduce(args):
    from . import poset
    reduced, projection = poset.reduce_preorder(_preorder_arg(getattr(args, "in")))
    return {"poset": reduced._payload(), "projection": projection}


def _cmd_poset_combine(args):
    from . import poset
    return _relation_payload(args, poset.combine(_poset_arg(args.a), _poset_arg(args.b), args.mode))


def _cmd_poset_interval(args):
    from . import poset
    return {"elements": poset.interval(_poset_arg(getattr(args, "in")), args.x, args.y)}


def _cmd_poset_bounds(args):
    from . import poset
    return poset.bounds(_poset_arg(getattr(args, "in")))


def _cmd_poset_sprinkle(args):
    from . import poset
    sprinkled = poset.sprinkle_minkowski(args.n, args.seed)
    coords = _Coords(sprinkled.poset.elements, np.array(sprinkled.t), np.array(sprinkled.x))
    return _relation_payload(args, sprinkled.poset, {"coords": coords})


# --------------------------------------------------------------------------
# cone verbs

# The cone verbs that read values run with numpy's overflow and invalid-value
# warnings off.  A difference, product or sum past the largest float is then
# inf with its sign (NaN for inf - inf or 0 * inf): a comparison with it
# decides as the exact value would, and _dumps refuses a result that is not
# finite.  The library keeps numpy's warnings; guarding its kernels instead
# would slow is_isotone, which small-poset callers run many times.
_OVERFLOW_IS_INF = np.errstate(over="ignore", invalid="ignore")


@_OVERFLOW_IS_INF
def _cmd_cone_isotone(args):
    from . import isotone_cone
    p = _preorder_arg(args.poset)
    f = _function_arg(args.f)
    return {"isotone": isotone_cone.is_isotone(p, f, tol=args.tol)}


@_OVERFLOW_IS_INF
def _cmd_cone_order_from(args):
    from . import isotone_cone
    elements = _load(args.elements)
    fns = _functions_arg(args.functions)
    pre, separates = isotone_cone.order_from_functions(elements, fns, tol=args.tol)
    return _relation_payload(args, pre, {"separates_points": separates})


@_OVERFLOW_IS_INF
def _cmd_cone_express(args):
    from . import isotone_cone
    p = _poset_arg(args.poset)
    gens = _functions_arg(args.generators)
    target = _function_arg(args.target)
    expr = isotone_cone.stone_nachbin_express(p, gens, target, tol=args.tol, prune=args.prune)
    err = float(np.max(np.abs(isotone_cone.eval_expr(expr, gens) - target), initial=0.0))  # 0.0 over no points
    return {"expr": expr, "max_error": err}  # _indented writes a TableJoin from its tables


@_OVERFLOW_IS_INF
def _cmd_cone_eval(args):
    from . import isotone_cone
    expr = isotone_cone.expr_from_json(_load(args.expr))
    fns = _functions_arg(args.functions) if args.functions else []
    return {"values": isotone_cone.eval_expr(expr, fns, size=args.size)}


@_OVERFLOW_IS_INF
def _cmd_cone_decompose(args):
    from . import isotone_cone
    p = _poset_arg(args.poset)
    terms = isotone_cone.upset_decomposition(p, _function_arg(args.f), tol=args.tol)
    return {"terms": [{"coeff": c, "indicator": ind} for c, ind in terms]}


@_OVERFLOW_IS_INF
def _cmd_cone_contains(args):
    from . import isotone_cone
    contained = isotone_cone.generated_cone_contains(
        _load(args.elements), _functions_arg(args.functions), _function_arg(args.f), tol=args.tol
    )
    return {"contains": contained}


def _cmd_cone_minimal(args):
    from . import isotone_cone
    witness = isotone_cone.minimal_witness(_poset_arg(getattr(args, "in")))
    if witness is None:
        return {"witness": None, "totally_ordered": True}
    payload = {
        "witness": {"x": witness.x, "y": witness.y, "in_cone": witness.in_cone, "outside": witness.outside},
        "totally_ordered": False,
    }
    if args.pair:
        a, b = args.pair
        payload["separator"] = {"a": a, "b": b, "values": witness.separator(a, b)}
    return payload


def _cmd_cone_cobounded(args):
    from . import isotone_cone
    return isotone_cone.cobounded_commutative(_poset_arg(getattr(args, "in")))


# --------------------------------------------------------------------------
# herm verbs


def _cmd_herm_spectral(args):
    from . import hermitian
    return hermitian.spectral(_hermitian_arg(getattr(args, "in"))).to_json()


def _cmd_herm_fn(args):
    from . import hermitian
    named = {
        "abs": abs,
        "sqrt": hermitian.nonnegative_sqrt,
        "square": lambda x: x * x,
        "identity": lambda x: x,
        "exp": np.errstate(over="ignore")(np.exp),  # an overflowing exp is inf, which func_calc refuses
    }
    if args.fn not in named:
        raise InvalidInput(f"unknown function {args.fn!r}; pick one of {sorted(named)}")
    return hermitian.func_calc(_hermitian_arg(getattr(args, "in")), named[args.fn]).to_json()


def _cmd_herm_lattice(args):
    from . import hermitian
    join, meet = hermitian.lattice_ops(_hermitian_arg(args.a), _hermitian_arg(args.b))
    return {"join": join.to_json(), "meet": meet.to_json()}


def _cmd_herm_classify(args):
    from . import hermitian
    return hermitian.classify(_hermitian_arg(getattr(args, "in")))


# --------------------------------------------------------------------------
# m2 verbs


def _cmd_m2_hopf(args):
    from . import m2
    data = _load(args.xi)
    if isinstance(data, dict):
        if "xi" not in data:
            raise InvalidInput('spinor JSON needs "xi"')
        data = data["xi"]
    return {"bloch": m2.hopf(m2.spinor(data))}


def _cmd_m2_member(args):
    from . import m2
    return {"member": m2.iso_membership(_region_arg(args.region), _hermitian_arg(args.matrix), tol=args.tol)}


_CSV_BLOCK = 4096  # samples formatted per block by m2 order --samples, as CSV rows or JSON objects


def _cmd_m2_order(args):
    from . import m2
    region = _region_arg(args.region)
    if args.samples is None:
        if not args.p or not args.q:
            raise InvalidInput("need --p and --q (or --samples for a scan)")
        p = _pure_state_arg(args.p)
        q = _pure_state_arg(args.q)
        return {"relation": m2.pure_state_order(region, p, q, tol=args.tol)}
    if args.samples <= 0:
        raise InvalidInput(f"--samples must be positive, got {args.samples}")
    _check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    pts = rng.normal(size=(2 * args.samples, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    codes = m2._order_codes(region, pts[0::2], pts[1::2], args.tol)
    if args.format == "csv":
        return _scan_csv(pts.reshape(args.samples, 6), codes)
    return _scan_json(pts.reshape(args.samples, 6), codes)


def _scan_csv(pairs: np.ndarray, codes: np.ndarray):
    """The scan's CSV text, the header and then one block of rows at a time."""
    yield "px,py,pz,qx,qy,qz,relation"
    yield from _scan_rows(pairs, codes, ["\n", ",", ",", ",", ",", ",", ",", ""])


def _scan_json(pairs: np.ndarray, codes: np.ndarray):
    """{"samples": [{"p", "q", "relation"}, ...]} as _dumps writes it, one
    block of samples at a time, as _scan_csv writes its rows."""
    head, tail = _indented({"samples": [None]}, "").split("null")
    # One sample's text around its six coordinates and its relation, a plain word, in quotes.
    parts = _indented({"p": ["@"] * 3, "q": ["@"] * 3, "relation": "@"}, "    ").split('"@"')
    sep = ",\n    "
    rows = _scan_rows(pairs, codes, [sep + parts[0], *parts[1:6], parts[6] + '"', '"' + parts[7]])
    yield head
    yield next(rows)[len(sep):]  # the first sample follows the head, not a separator
    yield from rows
    yield tail


def _scan_rows(pairs: np.ndarray, codes: np.ndarray, pieces: list[str]) -> Iterator[bytes]:
    """The (N, 6) pairs and their relations as bytes, one block of _CSV_BLOCK samples a part.

    Sample i is pieces[0], then each coordinate as float.__repr__ writes it
    followed by the next piece, then the relation word m2._RELATIONS[codes[i]]
    and pieces[7].  A block is one _padded_rows.
    """
    from . import m2
    words = np.array(m2._RELATIONS.tolist(), "S").view(np.uint8).reshape(len(m2._RELATIONS), -1)  # ASCII, padded
    for start in range(0, len(pairs), _CSV_BLOCK):
        block = pairs[start:start + _CSV_BLOCK]
        cells = [pieces[0]]
        for k, piece in enumerate(pieces[1:7]):  # a column at a time: its temporaries stay in cache
            cells += (_repr_slots(block[:, k]), piece)
        yield _padded_rows(cells + [words[codes[start:start + _CSV_BLOCK]], pieces[7]])


def _padded_rows(cells: list) -> bytes:
    """Rows of cells side by side, as bytes: a str cell is the same ASCII text in every row, an
    (n, w) uint8 array one text per row padded with zero bytes.  The padding is dropped in one pass."""
    n = next(len(c) for c in cells if not isinstance(c, str))
    grid = [c if not isinstance(c, str) else np.broadcast_to(np.frombuffer(c.encode(), np.uint8), (n, len(c)))
            for c in cells]
    return np.concatenate(grid, axis=1).tobytes().translate(None, b"\0")


_SLOT = 24  # bytes: the longest float.__repr__, such as "-2.2250738585072014e-308"


@functools.cache
def _repr_tables() -> tuple[np.ndarray, ...]:
    """_repr_slots' tables, made on its first call.

    The powers 10**17 ... 10**20 (exact doubles) and their high and low
    halves; each number 0 ... 9999 as four ASCII digits, as a uint32, then
    again with its trailing zeros made padding; and the eight bytes before
    the last 16 digits, for a sign, a number of zeros after "0." and a
    first digit, at (sign * 4 + zeros) * 10 + digit.
    """
    ten = np.array([1e17, 1e18, 1e19, 1e20])
    split = ten * 134217729.0  # 2**27 + 1: Veltkamp's split into halves of 26 bits
    ten_hi = split - (split - ten)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for col in range(4):  # broadcast, not divided: this runs in the first scan of a process
        digits[..., col] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - col))
    digits = digits.reshape(10000, 4)
    trimmed = digits.copy()
    zero = np.ones(10000, bool)
    for col in range(3, -1, -1):
        zero &= digits[:, col] == 48
        trimmed[zero, col] = 0
    heads = np.zeros((2, 4, 10, 8), np.uint8)  # sign, "0", ".", three zeros, padding, first digit
    heads[1, ..., 0] = 45
    heads[..., 1:3] = (48, 46)
    for zeros in range(1, 4):
        heads[:, zeros, :, 3:3 + zeros] = 48
    heads[..., 7] = 48 + np.arange(10)
    groups = np.concatenate([digits, trimmed]).view(np.uint32).ravel()
    return ten, ten_hi, ten - ten_hi, groups, heads.view(np.uint64).ravel()


def _repr_slots(x: np.ndarray) -> np.ndarray:
    """Each float64 of x as float.__repr__ writes it: an (x.size, _SLOT) uint8
    array, one row per value, its ASCII text padded with zero bytes.

    The domain certified here is 1e-4 <= |x| < 1 (bounds as doubles), which
    repr writes as "0." and the shortest digits that read back as x.  Why
    each step is exact, for |x| = M * 2**E with 2**52 <= M < 2**53:

    - Three comparisons with the doubles 0.1, 0.01 and 0.001, each above
      its decimal, give the q in 17 ... 20 for which X = |x| * 10**q lies
      in (10**16, 10**17).
    - X is p + e exactly: p the rounded product, an integer above 2**53,
      and e Dekker's error term (both factors split into 26-bit halves),
      |e| <= 8.
    - h, half an ulp of x times 10**q, is 5**q * 2**(E + q - 1): an exact
      double below 11.1.  The fraction f of X and h have no bits outside
      2**3 ... 2**-47, so f +- h and every other small sum below is exact.
    - repr writes the multiple of 10**j with the largest j in
      [X - h, X + h], and of two such, the one nearer X.  The ends of that
      interval, (2M +- 1) * 5**q * 2**(E + q - 1) with E + q - 1 <= -34,
      are never integers, so whether they count (repr counts them iff M
      is even) does not matter.  The interval spans less than 23, so the
      multiple is the one multiple of 100 in it when there is one; else
      the multiple of 10 nearest X when the interval holds one; else X
      rounded.  Its 17 digits come from the tables, trailing zeros dropped.
    - A power of two needs no care although its half-gap below is half
      the one above: here it is 2**-k, k <= 13, whose exact decimal is a
      multiple of 10**4 at this scale and so the multiple of 100 found.

    Every other value gets repr(x) in its row: NaN, +-inf, +-0.0, |x| < 1e-4
    or >= 1, and X halfway between its two nearest candidates (repr takes
    the even one).
    """
    x = np.ravel(x)
    ten_t, ten_hi_t, ten_lo_t, groups, heads = _repr_tables()
    a = np.abs(x)
    known = (a >= 1e-4) & (a < 1.0)
    a = np.where(known, a, 0.75)  # every other lane computes on a harmless value
    bits = a.view(np.uint64)
    zeros = (a < 0.1).view(np.int8) + (a < 0.01).view(np.int8) + (a < 0.001).view(np.int8)
    ten, ten_hi, ten_lo = np.take(ten_t, zeros), np.take(ten_hi_t, zeros), np.take(ten_lo_t, zeros)
    p = a * ten
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    e = ((a_hi * ten_hi - p) + a_hi * ten_lo + a_lo * ten_hi) + a_lo * ten_lo
    e_int = np.floor(e)
    whole = p.astype(np.int64) + e_int.astype(np.int64)  # X = whole + f, 0 <= f < 1
    f = e - e_int
    h = np.ldexp(ten, (bits >> np.uint64(52)).astype(np.int32) - 1076)
    # The integers in [X - h, X + h], whose ends are never integers.
    low, high = whole + np.ceil(f - h).astype(np.int64), whole + np.floor(f + h).astype(np.int64)
    by100 = high // 100 * 100
    tens = high // 10 * 10 >= low
    down10 = whole // 10 * 10
    t = (whole - down10) + f  # X - down10, exact
    multiple = np.where(tens, down10 + 10 * (t > 5), whole + (f > 0.5))
    tie = np.where(tens, t == 5, f == 0.5)
    hundreds = by100 >= low
    multiple = np.where(hundreds, by100, multiple)
    exact = known & (hundreds | ~tie)
    first = multiple // 10**16
    rest = multiple - first * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1 = upper // 10**4
    g2 = upper - g1 * 10**4
    g3 = lower // 10**4
    g4 = lower - g3 * 10**4
    slots = np.empty((x.size, _SLOT), np.uint8)
    words = slots.view(np.uint32)  # words 2 ... 5 hold four digits each, trimmed after the last nonzero
    words[:, 5] = np.take(groups, g4 + 10000)
    trim = g4 == 0
    words[:, 4] = np.take(groups, g3 + 10000 * trim)
    trim &= g3 == 0
    words[:, 3] = np.take(groups, g2 + 10000 * trim)
    trim &= g2 == 0
    words[:, 2] = np.take(groups, g1 + 10000 * trim)
    slots.view(np.uint64)[:, 0] = np.take(heads, (np.signbit(x) * 4 + zeros) * 10 + first)
    other = np.flatnonzero(~exact)
    if other.size:
        slots[other] = np.array([repr(v) for v in x[other].tolist()], f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)
    return slots


def _cmd_m2_state_order(args):
    from . import m2
    region = _region_arg(args.region)
    rho = m2.DensityState.from_json(_load(args.rho))
    sigma = m2.DensityState.from_json(_load(args.sigma))
    return {"relation": m2.state_order(region, rho, sigma, tol=args.tol)}


def _cmd_m2_fs(args):
    from . import m2
    p = _pure_state_arg(args.p)
    q = _pure_state_arg(args.q)
    return {"distance": m2.fubini_study(p, q), "probability": m2.transition_probability(p, q)}


def _cmd_m2_transverse(args):
    from . import hermitian, m2
    data = _load(args.matrix)
    if isinstance(data, list):
        data = {"re": data}
    mat = hermitian.complex_matrix_from_json(data)
    return m2.transversality(_region_arg(args.region), mat, tol=args.tol).to_json()


def _cmd_m2_join_coeffs(args):
    from . import m2
    alpha, beta = m2.join_coeffs(_hermitian_arg(args.a), _hermitian_arg(args.b))
    return {"alpha": alpha, "beta": beta}


def _cmd_m2_cobounded(args):
    from . import m2
    witness = m2.cobounded_witness(_region_arg(args.region))
    return {"witness": None if witness is None else witness.to_json()}


def _cmd_m2_rotation(args):
    from . import m2
    return {"preserves": m2.rotation_preserves(_region_arg(args.region), _load(args.matrix), tol=args.tol)}


# --------------------------------------------------------------------------
# dual verbs


def _cmd_dual_from_poset(args):
    from . import duality
    return duality.algebra_from_poset(_poset_arg(getattr(args, "in"))).to_json()


def _algebra_arg(value) -> duality.FiniteCommutativeIStar:
    from . import duality, poset
    data = _load(value)
    if isinstance(data, dict) and "poset" in data:
        data = data["poset"]
    return duality.algebra_from_poset(poset.FinitePoset.from_json(data))


def _cmd_dual_characters(args):
    from . import duality
    return _relation_payload(args, duality.character_order(_algebra_arg(getattr(args, "in"))))


def _cmd_dual_morphism(args):
    from . import duality
    mapping = _load(args.map)
    if isinstance(mapping, dict) and "map" in mapping:
        mapping = mapping["map"]
    if not isinstance(mapping, dict):
        raise InvalidInput(f"map must be an object from source ids to target ids, got {type(mapping).__name__}")
    return duality.morphism_check(mapping, _poset_arg(args.source), _poset_arg(args.target))


def _cmd_dual_cobounded_duality(args):
    from . import isotone_cone, poset
    p = _poset_arg(getattr(args, "in"))
    cobounded = isotone_cone.cobounded_commutative(p).cobounded
    bounded = poset.bounds(p).bounded
    return {"agree": cobounded == bounded, "cobounded": cobounded, "bounded": bounded}


# --------------------------------------------------------------------------
# gps verbs


def _space_arg(args) -> tuple[gps.FiniteMetricSpace, list]:
    from . import gps
    data = _load(getattr(args, "in"))
    space = gps.FiniteMetricSpace.from_json(data)
    landmarks = data.get("landmarks", [])
    if args.landmarks:
        landmarks = _load(args.landmarks)
    if not isinstance(landmarks, list):
        raise InvalidInput(f"landmarks must be a list of point ids, got {type(landmarks).__name__}")
    if not landmarks:
        raise InvalidInput("no landmarks given (in the file or via --landmarks)")
    return space, landmarks


def _cmd_gps_complete(args):
    from . import gps
    space, landmarks = _space_arg(args)
    return {"complete": gps.gps_complete(space, landmarks, tol=args.tol)}


def _cmd_gps_order(args):
    from . import gps
    space, landmarks = _space_arg(args)
    result = gps.gps_order(space, landmarks, orientation=args.orientation, tol=args.tol)
    return _relation_payload(args, result.order, {"complete": result.complete, "orientation": args.orientation})


# --------------------------------------------------------------------------
# accept: a text report and an exit code, not a payload


def _criteria_arg(text: str) -> list[int]:
    from . import acceptance
    try:
        only = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"--criteria must be comma-separated integers, got {text!r}") from exc
    known = [number for number, *_ in acceptance.CRITERIA]
    unknown = [c for c in only if c not in known]
    if unknown:
        raise InvalidInput(f"unknown criteria {unknown}: the criteria are numbered {known[0]}-{known[-1]}")
    return only


def _accept_all(args) -> int:
    from . import acceptance
    only = _criteria_arg(args.criteria) if args.criteria is not None else None
    _check_seed(args.seed)
    results = acceptance.run_all(seed=args.seed, fast=args.fast, only=only)
    for r in results:
        print(r.line())
    all_passed = all(r.passed for r in results)
    if args.out:
        _emit(args, {"seed": args.seed, "fast": args.fast, "all_passed": all_passed, "criteria": results})
    print("ALL CRITERIA PASSED" if all_passed else "CRITERIA FAILED")
    return 0 if all_passed else 1


# --------------------------------------------------------------------------
# parser

_REQ = {"required": True}
_IN = [("--in", _REQ)]


def _tol() -> float:
    from .isotone_cone import DEFAULT_TOL
    return DEFAULT_TOL


def _geom() -> float:
    from .m2 import GEOM_TOL
    return GEOM_TOL


# group -> (help, verb -> (handler, flags, function giving the --tol default or None, has --format)).
# Every verb also gets --out; flags come first, then --out, --tol, --format.
_VERBS = {
    "poset": ("finite poset operations", {
        "check": (_cmd_poset_check, _IN, None, False),
        "reduce": (_cmd_poset_reduce, _IN, None, False),
        "combine": (_cmd_poset_combine, [
            ("--mode", {"choices": ["product", "disjoint_union"], "required": True}),
            ("--a", _REQ), ("--b", _REQ)], None, True),
        "interval": (_cmd_poset_interval, _IN + [("--x", _REQ), ("--y", _REQ)], None, False),
        "bounds": (_cmd_poset_bounds, _IN, None, False),
        "sprinkle": (_cmd_poset_sprinkle, [
            ("--n", {"type": int, "required": True}), ("--seed", {"type": int, "required": True})], None, True),
    }),
    "cone": ("isotone cone operations", {
        "isotone": (_cmd_cone_isotone, [("--poset", _REQ), ("--f", _REQ)], _tol, False),
        "order-from": (_cmd_cone_order_from, [("--elements", _REQ), ("--functions", _REQ)], _tol, True),
        "express": (_cmd_cone_express, [
            ("--poset", _REQ), ("--generators", _REQ), ("--target", _REQ),
            ("--prune", {"action": "store_true"})], _tol, False),
        "eval": (_cmd_cone_eval, [("--expr", _REQ), ("--functions", {}), ("--size", {"type": int})], None, False),
        "decompose": (_cmd_cone_decompose, [("--poset", _REQ), ("--f", _REQ)], _tol, False),
        "contains": (_cmd_cone_contains, [("--elements", _REQ), ("--functions", _REQ), ("--f", _REQ)], _tol, False),
        "minimal": (_cmd_cone_minimal, _IN + [("--pair", {"nargs": 2, "metavar": ("A", "B")})], None, False),
        "cobounded": (_cmd_cone_cobounded, _IN, None, False),
    }),
    "herm": ("hermitian matrix operations", {
        "spectral": (_cmd_herm_spectral, _IN, None, False),
        "fn": (_cmd_herm_fn, _IN + [("--fn", _REQ)], None, False),
        "lattice": (_cmd_herm_lattice, [("--a", _REQ), ("--b", _REQ)], None, False),
        "classify": (_cmd_herm_classify, _IN, None, False),
    }),
    "m2": ("2x2 algebra order operations", {
        "hopf": (_cmd_m2_hopf, [("--xi", _REQ)], None, False),
        "member": (_cmd_m2_member, [("--region", _REQ), ("--matrix", _REQ)], _geom, False),
        "order": (_cmd_m2_order, [
            ("--region", _REQ), ("--p", {}), ("--q", {}), ("--samples", {"type": int}),
            ("--seed", {"type": int, "default": 0})], _geom, True),
        "state-order": (_cmd_m2_state_order, [("--region", _REQ), ("--rho", _REQ), ("--sigma", _REQ)], _geom, False),
        "fs": (_cmd_m2_fs, [("--p", _REQ), ("--q", _REQ)], None, False),
        "transverse": (_cmd_m2_transverse, [("--region", _REQ), ("--matrix", _REQ)], _geom, False),
        "join-coeffs": (_cmd_m2_join_coeffs, [("--a", _REQ), ("--b", _REQ)], None, False),
        "cobounded": (_cmd_m2_cobounded, [("--region", _REQ)], None, False),
        "rotation": (_cmd_m2_rotation, [("--region", _REQ), ("--matrix", _REQ)], _geom, False),
    }),
    "dual": ("poset/algebra round trips", {
        "from-poset": (_cmd_dual_from_poset, _IN, None, False),
        "characters": (_cmd_dual_characters, _IN, None, True),
        "morphism": (_cmd_dual_morphism, [
            ("--source", {"required": True, "help": "domain poset of the map"}),
            ("--target", {"required": True, "help": "codomain poset of the map"}),
            ("--map", _REQ)], None, False),
        "cobounded-duality": (_cmd_dual_cobounded_duality, _IN, None, False),
    }),
    "gps": ("landmark orders on metric spaces", {
        "complete": (_cmd_gps_complete, _IN + [("--landmarks", {})], _tol, False),
        "order": (_cmd_gps_order, _IN + [
            ("--landmarks", {}), ("--orientation", {"choices": ["remark", "reversed"], "default": "remark"})],
            _tol, True),
    }),
}


def _choices(names) -> str:
    return "{" + ",".join(names) + "}"  # argparse's own rendering of a subcommand list


def build_parser(group: str | None = None, verb: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, or, for a group and verb of _VERBS, one that holds that verb alone.

    The one-verb parser names every group and verb in its usage lines, as the
    full parser does, so on an argv that starts with that group and verb the
    two print the same bytes.
    """
    parser = argparse.ArgumentParser(
        prog="ordercones",
        description="Finite posets, isotone cones, and 2x2 matrix order structures.",
    )
    one = group is not None
    tree = {group: (_VERBS[group][0], {verb: _VERBS[group][1][verb]})} if one else _VERBS
    groups = parser.add_subparsers(dest="group", required=True, metavar=_choices([*_VERBS, "accept"]) if one else None)
    for name, (group_help, verbs) in tree.items():
        g = groups.add_parser(name, help=group_help).add_subparsers(
            dest="verb", required=True, metavar=_choices(_VERBS[name][1]) if one else None)
        for v, (handler, flags, tol, fmt) in verbs.items():
            sp = g.add_parser(v)
            for flag, kwargs in flags:
                sp.add_argument(flag, **kwargs)
            sp.add_argument("--out", help="write the result to this path instead of stdout")
            if tol is not None:
                sp.add_argument("--tol", type=float, default=tol(), help="comparison tolerance")
            if fmt:
                sp.add_argument("--format", choices=["json", "csv"], default="json")
            sp.set_defaults(handler=handler)
    if one:
        return parser

    g = groups.add_parser("accept", help="run the acceptance suite").add_subparsers(dest="verb", required=True)
    sp = g.add_parser("all")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--fast", action="store_true", help="scaled-down smoke run")
    sp.add_argument("--criteria", help="comma-separated criterion numbers to run")
    sp.add_argument("--out", help="write the JSON report here")
    return parser


@functools.cache
def _parser(group: str | None = None, verb: str | None = None) -> argparse.ArgumentParser:
    """build_parser(group, verb), built once per process; parse_args keeps no state between calls."""
    return build_parser(group, verb)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known group and verb get their one-verb parser; --help, accept and unknown words the full one.
    if len(argv) > 1 and argv[1] in _VERBS.get(argv[0], ("", {}))[1]:
        args = _parser(argv[0], argv[1]).parse_args(argv)
    else:
        args = _parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise InvalidInput(f"--tol must be a finite non-negative number, got {tol!r}")
        if args.group == "accept":
            return _accept_all(args)
        try:
            result = args.handler(args)
        except MemoryError:  # a size the machine cannot hold, refused before any byte is written
            raise InvalidInput("input too large for this machine's memory") from None
        _emit(args, result)
        sys.stdout.flush()  # and its binary buffer: a reader that closed the pipe shows here, not at exit
    except OrderConesError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": str(exc)}}, sort_keys=True))
        return 1
    except BrokenPipeError:  # standard output now goes to devnull, so the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
