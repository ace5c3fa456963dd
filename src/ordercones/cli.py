"""Command line front end: JSON in, JSON or CSV out, one verb per operation.

Flags that take structured input accept either inline JSON or a file path
("-" reads standard input).  Exit codes: 0 success, 1 domain error (with a
machine-readable error object), 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import acceptance, duality, gps, hermitian, isotone_cone, m2, poset
from .errors import DomainError, InvalidInput, OrderConesError, string_ids


def _json_default(obj):
    """JSON form of the numpy values and dataclass records payloads carry.

    A record is the shallow dict of its fields; _indented writes what they hold.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_encode = json.JSONEncoder(default=_json_default, allow_nan=False).encode


def _key(key) -> str:
    # A key that is not a string is written as the C encoder writes keys.
    return _encode(key) if isinstance(key, str) else _encode({key: None})[1:-7]


def _indented(obj, indent: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it at this indent.

    json.dumps with an indent always runs the pure-Python encoder; here
    every scalar, key and flat list goes through the C encoder instead.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [_key(k) + ": " + _indented(v, inner) for k, v in sorted(obj.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if not isinstance(obj[0], (str, list, tuple, dict)):
            body = _encode(obj)[1:-1]
            # Without quotes or brackets the body holds only bare numbers,
            # true, false and null, so every ", " is an item separator.
            if '"' not in body and "[" not in body and "{" not in body:
                return "[\n" + inner + body.replace(", ", ",\n" + inner) + "\n" + indent + "]"
        items = [_indented(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if obj is None or isinstance(obj, (str, int, float)):
        return _encode(obj)
    if isinstance(obj, np.ndarray) and obj.dtype == np.uint8 and obj.ndim == 2 and obj.size and obj.max() <= 1:
        return _bit_matrix(obj, indent)
    return _indented(_json_default(obj), indent)


def _bit_matrix(a: np.ndarray, indent: str) -> str:
    """A nonempty 2-D 0/1 uint8 array as _indented writes its list of lists.

    Every row takes the same width in the text, so the whole matrix is one
    byte template with the digits written into it, decoded once.
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
    return str(memoryview(text[:end + len(closing)]), "ascii")


def _dumps(payload: dict | list) -> str:
    """Strict JSON, sorted keys, two-space indent: a NaN or infinite value is a DomainError."""
    try:
        return _indented(payload, "")
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from exc


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


def _emit(args, payload: dict | list | str) -> None:
    text = payload if isinstance(payload, str) else _dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _function_arg(value) -> np.ndarray:
    data = _load(value)
    if isinstance(data, dict):
        data = data.get("values")
    return isotone_cone.as_function(data)


def _functions_arg(value) -> np.ndarray:
    data = _load(value)
    if isinstance(data, dict):
        data = data.get("functions", data.get("values"))
    if not isinstance(data, list):
        raise InvalidInput('functions must be a list of value lists, or an object with "functions" or "values"')
    return isotone_cone.as_functions(data)


def _poset_arg(value) -> poset.FinitePoset:
    return poset.FinitePoset.from_json(_load(value))


def _preorder_arg(value) -> poset.FinitePreorder:
    return poset.FinitePreorder.from_json(_load(value))


def _region_arg(value) -> m2.SphericalRegion:
    return m2.SphericalRegion.from_json(_load(value))


def _hermitian_arg(value) -> hermitian.HermitianMatrix:
    data = _load(value)
    if isinstance(data, list):
        data = {"re": data}
    return hermitian.HermitianMatrix.from_json(data)


def _pure_state_arg(value) -> m2.PureStatePoint:
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
    data = _load(getattr(args, "in"))
    if isinstance(data, dict) and isinstance(data.get("elements"), list):
        # Ids that are not strings make unreadable input (exit 1), not an invalid order.
        string_ids(data["elements"], "element ids")
    try:
        p = poset.FinitePoset.from_json(data)
    except OrderConesError as exc:
        return {"valid": False, "reason": exc.kind, "detail": str(exc)}
    return {"valid": True, "bounded": poset.bounds(p).bounded}


def _cmd_poset_reduce(args):
    reduced, projection = poset.reduce_preorder(_preorder_arg(getattr(args, "in")))
    return {"poset": reduced._payload(), "projection": projection}


def _cmd_poset_combine(args):
    return _relation_payload(args, poset.combine(_poset_arg(args.a), _poset_arg(args.b), args.mode))


def _cmd_poset_interval(args):
    return {"elements": poset.interval(_poset_arg(getattr(args, "in")), args.x, args.y)}


def _cmd_poset_bounds(args):
    return poset.bounds(_poset_arg(getattr(args, "in")))


def _cmd_poset_sprinkle(args):
    sprinkled = poset.sprinkle_minkowski(args.n, args.seed)
    return _relation_payload(args, sprinkled.poset, {"coords": sprinkled.coords_json()})


# --------------------------------------------------------------------------
# cone verbs


def _cmd_cone_isotone(args):
    p = _preorder_arg(args.poset)
    f = _function_arg(args.f)
    return {"isotone": isotone_cone.is_isotone(p, f, tol=args.tol)}


def _cmd_cone_order_from(args):
    elements = _load(args.elements)
    fns = _functions_arg(args.functions)
    pre, separates = isotone_cone.order_from_functions(elements, fns, tol=args.tol)
    return _relation_payload(args, pre, {"separates_points": separates})


def _cmd_cone_express(args):
    p = _poset_arg(args.poset)
    gens = _functions_arg(args.generators)
    target = _function_arg(args.target)
    expr = isotone_cone.stone_nachbin_express(p, gens, target, tol=args.tol, prune=args.prune)
    err = float(np.max(np.abs(isotone_cone.eval_expr(expr, gens) - target)))
    return {"expr": expr.to_json(), "max_error": err}


def _cmd_cone_eval(args):
    expr = isotone_cone.expr_from_json(_load(args.expr))
    fns = _functions_arg(args.functions) if args.functions else []
    return {"values": isotone_cone.eval_expr(expr, fns, size=args.size)}


def _cmd_cone_decompose(args):
    p = _poset_arg(args.poset)
    terms = isotone_cone.upset_decomposition(p, _function_arg(args.f), tol=args.tol)
    return {"terms": [{"coeff": c, "indicator": ind} for c, ind in terms]}


def _cmd_cone_contains(args):
    contained = isotone_cone.generated_cone_contains(
        _load(args.elements), _functions_arg(args.functions), _function_arg(args.f), tol=args.tol
    )
    return {"contains": contained}


def _cmd_cone_minimal(args):
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
    return isotone_cone.cobounded_commutative(_poset_arg(getattr(args, "in")))


# --------------------------------------------------------------------------
# herm verbs


_NAMED_FUNCTIONS = {
    "abs": abs,
    "sqrt": hermitian.nonnegative_sqrt,
    "square": lambda x: x * x,
    "identity": lambda x: x,
    "exp": np.exp,
}


def _cmd_herm_spectral(args):
    return hermitian.spectral(_hermitian_arg(getattr(args, "in"))).to_json()


def _cmd_herm_fn(args):
    if args.fn not in _NAMED_FUNCTIONS:
        raise InvalidInput(f"unknown function {args.fn!r}; pick one of {sorted(_NAMED_FUNCTIONS)}")
    a = _hermitian_arg(getattr(args, "in"))
    # An overflowing exp is inf, which func_calc refuses as a DomainError.
    with np.errstate(over="ignore"):
        return hermitian.func_calc(a, _NAMED_FUNCTIONS[args.fn]).to_json()


def _cmd_herm_lattice(args):
    join, meet = hermitian.lattice_ops(_hermitian_arg(args.a), _hermitian_arg(args.b))
    return {"join": join.to_json(), "meet": meet.to_json()}


def _cmd_herm_classify(args):
    return hermitian.classify(_hermitian_arg(getattr(args, "in")))


# --------------------------------------------------------------------------
# m2 verbs


def _cmd_m2_hopf(args):
    data = _load(args.xi)
    if isinstance(data, dict):
        if "xi" not in data:
            raise InvalidInput('spinor JSON needs "xi"')
        data = data["xi"]
    return {"bloch": m2.hopf(m2.spinor(data))}


def _cmd_m2_member(args):
    return {"member": m2.iso_membership(_region_arg(args.region), _hermitian_arg(args.matrix), tol=args.tol)}


_CSV_BLOCK = 4096  # sample rows formatted per block by m2 order --samples --format csv


def _cmd_m2_order(args):
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
    relations = m2.pure_state_order_many(region, pts[0::2], pts[1::2], tol=args.tol)
    if args.format == "csv":
        pairs = pts.reshape(args.samples, 6)
        lines = ["px,py,pz,qx,qy,qz,relation"]
        # Python floats for a block at a time: all 6N at once would add
        # about a tenth to the scan's peak memory.
        for start in range(0, args.samples, _CSV_BLOCK):
            block = pairs[start:start + _CSV_BLOCK].tolist()
            rels = relations[start:start + _CSV_BLOCK]
            lines += [",".join(map(repr, row)) + "," + rel for row, rel in zip(block, rels)]
        return "\n".join(lines)
    return {"samples": [{"p": p, "q": q, "relation": rel} for p, q, rel in zip(pts[0::2], pts[1::2], relations)]}


def _cmd_m2_state_order(args):
    region = _region_arg(args.region)
    rho = m2.DensityState.from_json(_load(args.rho))
    sigma = m2.DensityState.from_json(_load(args.sigma))
    return {"relation": m2.state_order(region, rho, sigma, tol=args.tol)}


def _cmd_m2_fs(args):
    p = _pure_state_arg(args.p)
    q = _pure_state_arg(args.q)
    return {"distance": m2.fubini_study(p, q), "probability": m2.transition_probability(p, q)}


def _cmd_m2_transverse(args):
    data = _load(args.matrix)
    if isinstance(data, list):
        data = {"re": data}
    mat = hermitian.complex_matrix_from_json(data)
    return m2.transversality(_region_arg(args.region), mat, tol=args.tol).to_json()


def _cmd_m2_join_coeffs(args):
    alpha, beta = m2.join_coeffs(_hermitian_arg(args.a), _hermitian_arg(args.b))
    return {"alpha": alpha, "beta": beta}


def _cmd_m2_cobounded(args):
    witness = m2.cobounded_witness(_region_arg(args.region))
    return {"witness": None if witness is None else witness.to_json()}


def _cmd_m2_rotation(args):
    return {"preserves": m2.rotation_preserves(_region_arg(args.region), _load(args.matrix), tol=args.tol)}


# --------------------------------------------------------------------------
# dual verbs


def _cmd_dual_from_poset(args):
    return duality.algebra_from_poset(_poset_arg(getattr(args, "in"))).to_json()


def _algebra_arg(value) -> duality.FiniteCommutativeIStar:
    data = _load(value)
    if isinstance(data, dict) and "poset" in data:
        data = data["poset"]
    return duality.algebra_from_poset(poset.FinitePoset.from_json(data))


def _cmd_dual_characters(args):
    return _relation_payload(args, duality.character_order(_algebra_arg(getattr(args, "in"))))


def _cmd_dual_morphism(args):
    mapping = _load(args.map)
    if isinstance(mapping, dict) and "map" in mapping:
        mapping = mapping["map"]
    if not isinstance(mapping, dict):
        raise InvalidInput(f"map must be an object from source ids to target ids, got {type(mapping).__name__}")
    return duality.morphism_check(mapping, _poset_arg(args.source), _poset_arg(args.target))


def _cmd_dual_cobounded_duality(args):
    p = _poset_arg(getattr(args, "in"))
    return {
        "agree": duality.cobounded_duality_check(p),
        "cobounded": isotone_cone.cobounded_commutative(p).cobounded,
        "bounded": poset.bounds(p).bounded,
    }


# --------------------------------------------------------------------------
# gps verbs


def _space_arg(args) -> tuple[gps.FiniteMetricSpace, list]:
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
    space, landmarks = _space_arg(args)
    return {"complete": gps.gps_complete(space, landmarks, tol=args.tol)}


def _cmd_gps_order(args):
    space, landmarks = _space_arg(args)
    result = gps.gps_order(space, landmarks, orientation=args.orientation, tol=args.tol)
    return _relation_payload(args, result.order, {"complete": result.complete, "orientation": args.orientation})


# --------------------------------------------------------------------------
# accept: a text report and an exit code, not a payload


def _criteria_arg(text: str) -> list[int]:
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
_TOL = isotone_cone.DEFAULT_TOL
_GEOM = m2.GEOM_TOL

# group -> (help, verb -> (handler, flags, --tol default or None, has --format)).
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
        "isotone": (_cmd_cone_isotone, [("--poset", _REQ), ("--f", _REQ)], _TOL, False),
        "order-from": (_cmd_cone_order_from, [("--elements", _REQ), ("--functions", _REQ)], _TOL, True),
        "express": (_cmd_cone_express, [
            ("--poset", _REQ), ("--generators", _REQ), ("--target", _REQ),
            ("--prune", {"action": "store_true"})], _TOL, False),
        "eval": (_cmd_cone_eval, [("--expr", _REQ), ("--functions", {}), ("--size", {"type": int})], None, False),
        "decompose": (_cmd_cone_decompose, [("--poset", _REQ), ("--f", _REQ)], _TOL, False),
        "contains": (_cmd_cone_contains, [("--elements", _REQ), ("--functions", _REQ), ("--f", _REQ)], _TOL, False),
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
        "member": (_cmd_m2_member, [("--region", _REQ), ("--matrix", _REQ)], _GEOM, False),
        "order": (_cmd_m2_order, [
            ("--region", _REQ), ("--p", {}), ("--q", {}), ("--samples", {"type": int}),
            ("--seed", {"type": int, "default": 0})], _GEOM, True),
        "state-order": (_cmd_m2_state_order, [("--region", _REQ), ("--rho", _REQ), ("--sigma", _REQ)], _GEOM, False),
        "fs": (_cmd_m2_fs, [("--p", _REQ), ("--q", _REQ)], None, False),
        "transverse": (_cmd_m2_transverse, [("--region", _REQ), ("--matrix", _REQ)], _GEOM, False),
        "join-coeffs": (_cmd_m2_join_coeffs, [("--a", _REQ), ("--b", _REQ)], None, False),
        "cobounded": (_cmd_m2_cobounded, [("--region", _REQ)], None, False),
        "rotation": (_cmd_m2_rotation, [("--region", _REQ), ("--matrix", _REQ)], _GEOM, False),
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
        "complete": (_cmd_gps_complete, _IN + [("--landmarks", {})], _TOL, False),
        "order": (_cmd_gps_order, _IN + [
            ("--landmarks", {}), ("--orientation", {"choices": ["remark", "reversed"], "default": "remark"})],
            _TOL, True),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordercones",
        description="Finite posets, isotone cones, and 2x2 matrix order structures.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, verbs) in _VERBS.items():
        g = groups.add_parser(group, help=group_help).add_subparsers(dest="verb", required=True)
        for verb, (handler, flags, tol, fmt) in verbs.items():
            sp = g.add_parser(verb)
            for flag, kwargs in flags:
                sp.add_argument(flag, **kwargs)
            sp.add_argument("--out", help="write the result to this path instead of stdout")
            if tol is not None:
                sp.add_argument("--tol", type=float, default=tol, help="comparison tolerance")
            if fmt:
                sp.add_argument("--format", choices=["json", "csv"], default="json")
            sp.set_defaults(handler=handler)

    g = groups.add_parser("accept", help="run the acceptance suite").add_subparsers(dest="verb", required=True)
    sp = g.add_parser("all")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--fast", action="store_true", help="scaled-down smoke run")
    sp.add_argument("--criteria", help="comma-separated criterion numbers to run")
    sp.add_argument("--out", help="write the JSON report here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process; parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise InvalidInput(f"--tol must be a finite non-negative number, got {tol!r}")
        if args.group == "accept":
            return _accept_all(args)
        _emit(args, args.handler(args))
    except OrderConesError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": str(exc)}}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
