"""Cones of isotone real functions on finite posets.

A function is a plain float vector aligned with the poset's element order.
The cone of isotone functions is polyhedral: membership is the pairwise
condition f(x) <= f(y) whenever x <= y.  This module also carries the
lattice expression trees used to rebuild isotone functions from sublattice
cone generators.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    NegativeValues,
    NotIsotone,
    OrderNotDetermined,
    PointsNotSeparated,
    float_array,
    string_ids,
)
from .poset import FinitePoset, FinitePreorder, _compose

__all__ = [
    "DEFAULT_TOL",
    "as_function",
    "as_functions",
    "is_isotone",
    "order_from_functions",
    "OrderFromFunctions",
    "Generator",
    "Constant",
    "Sum",
    "Scale",
    "Join",
    "TableJoin",
    "Meet",
    "expr_from_json",
    "eval_expr",
    "eval_expr_many",
    "stone_nachbin_express",
    "stone_nachbin_express_many",
    "upset_decomposition",
    "upset_decomposition_many",
    "generated_cone_contains",
    "minimal_witness",
    "MinimalWitness",
    "cobounded_commutative",
    "CoboundedResult",
    "NormAdditivityWitness",
    "IsotoneCone",
    "principal_upset_indicators",
    "all_upset_indicators",
]

# Pairwise membership tolerance; double precision over small lattices.
DEFAULT_TOL = 1e-12


def as_function(values, n: int | None = None) -> np.ndarray:
    """Coerce to a float vector, rejecting NaN/inf and wrong lengths."""
    f = float_array(values, "function values")
    if f.ndim != 1:
        raise InvalidInput(f"function must be a flat vector, got shape {f.shape}")
    if n is not None and f.shape[0] != n:
        raise DimensionMismatch(f"expected {n} values, got {f.shape[0]}")
    if not np.isfinite(f).all():
        raise InvalidInput("function values must be finite")
    return f


def as_functions(functions, n: int | None = None) -> np.ndarray:
    """A function family as an (m, n) float array, checked in one pass.

    Rejects what as_function rejects, with the same errors.  A family that
    is not one rectangular numeric array is checked row by row, so its
    first bad row names the fault; without n, the rows must share a length.
    """
    try:
        stack = np.asarray(functions, dtype=float)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.ndim != 2:
        rows = [as_function(f, n) for f in functions]
        if n is None and len({f.shape[0] for f in rows}) > 1:
            raise DimensionMismatch("generator functions must share a length")
        return np.stack(rows) if rows else np.empty((0, n or 0))
    if not len(stack):
        return np.empty((0, stack.shape[1] if n is None else n))
    if n is not None and stack.shape[1] != n:
        raise DimensionMismatch(f"expected {n} values, got {stack.shape[1]}")
    if not np.isfinite(stack).all():
        raise InvalidInput("function values must be finite")
    return stack


def is_isotone(p: FinitePreorder, f, tol: float = DEFAULT_TOL) -> bool:
    """True iff f(x) <= f(y) + tol for every related pair x <= y."""
    return bool(_isotone(p.rel, as_function(f, p.n), tol))


def _isotone(rel: np.ndarray, f: np.ndarray, tol: float) -> np.ndarray:
    """Whether f(x_j) - f(x_i) >= -tol wherever rel[i, j], over the leading axes of rel and f."""
    return ((f[..., None, :] - f[..., :, None] >= -tol) | ~rel).all(axis=(-2, -1))


class OrderFromFunctions(NamedTuple):
    preorder: FinitePreorder
    separates_points: bool


def order_from_functions(elements, functions, tol: float = DEFAULT_TOL) -> OrderFromFunctions:
    """The preorder x <= y iff s(x) <= s(y) for every s in the family.

    An empty family yields the complete preorder.  The relation is a
    partial order exactly when the family separates points, reported in
    the flag.
    """
    elements = string_ids(elements, "element ids")
    pre = FinitePreorder(elements, _induced(as_functions(functions, len(elements)), tol))
    return OrderFromFunctions(pre, pre.is_antisymmetric())


def _induced(stack: np.ndarray, tol: float) -> np.ndarray:
    """rel[i, j] iff s(x_i) <= s(x_j) + tol for every row s of the (m, n) stack."""
    return (stack[:, :, None] <= stack[:, None, :] + tol).all(axis=0)


# --------------------------------------------------------------------------
# Lattice expression trees


class LatticeExpr:
    """Base of the expression AST; nodes are immutable."""

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Generator(LatticeExpr):
    index: int

    def to_json(self):
        return {"gen": self.index}


@dataclass(frozen=True)
class Constant(LatticeExpr):
    value: float

    def to_json(self):
        return {"const": float(self.value)}


@dataclass(frozen=True)
class _Nary(LatticeExpr):
    """A node over any number of children, written {"op": op, "args": [...]}."""

    op: ClassVar[str]
    children: tuple[LatticeExpr, ...]

    def __init__(self, *children: LatticeExpr):
        object.__setattr__(self, "children", tuple(children))

    def to_json(self):
        return {"op": self.op, "args": [c.to_json() for c in self.children]}


class Sum(_Nary):
    op = "sum"


@dataclass(frozen=True)
class Scale(LatticeExpr):
    factor: float
    child: LatticeExpr

    def __post_init__(self):
        if self.factor < 0:
            raise InvalidInput(f"scale factor must be >= 0, got {self.factor}")

    def to_json(self):
        return {"op": "scale", "factor": float(self.factor), "args": [self.child.to_json()]}


class Join(_Nary):
    op = "join"


class Meet(_Nary):
    op = "meet"


class _Table(NamedTuple):
    """The Stone-Nachbin normal form of a target f, stored densely.

    Leaf (i, j) is the constant f[i] where tied[i, j], else
    lam[i, j]*g_k[i, j] + mu[i, j].  The join runs over rows, the meet of
    row i over its columns.  A prune picks the rows from their meets before
    it takes any leaf mask; then only the listed rows remain, and keep[i]
    marks the kept columns of a listed row i only (a dropped row's is all
    False).  keep is None when nothing was pruned.  eval_expr_many stacks
    unpruned tables along a leading target axis.
    """

    f: np.ndarray  # (n,)
    lam: np.ndarray  # (n, n)
    mu: np.ndarray  # (n, n)
    k: np.ndarray  # (n, n) generator indices
    tied: np.ndarray  # (n, n) bool
    rows: np.ndarray  # ascending row indices
    keep: np.ndarray | None  # (n, n) bool

    def meets(self) -> list[tuple[int, list[int], bool]]:
        """Each listed row i with the columns j its meet keeps, in order, and
        whether the row stands as its single leaf: after a prune, one that
        keeps one leaf does."""
        if self.keep is None:
            cols = list(range(len(self.f)))
            return [(i, cols, False) for i in self.rows.tolist()]
        out = []
        for i in self.rows.tolist():
            cols = np.flatnonzero(self.keep[i]).tolist()
            out.append((i, cols, len(cols) == 1))
        return out

    def visited(self) -> tuple[slice | np.ndarray, np.ndarray]:
        """The index of the listed rows and the mask of their Sum leaves, the
        leaves the tree visits that read a generator; a target axis stays."""
        if self.keep is None:  # an unpruned table lists every row
            return slice(None), ~self.tied
        return self.rows, self.keep[self.rows] & ~self.tied[self.rows]

    def branches(self) -> list[LatticeExpr]:
        """The explicit join children: a Meet per row, or its single leaf after a prune."""
        fl, lam, mu, k, tied = (a.tolist() for a in (self.f, self.lam, self.mu, self.k, self.tied))
        out = []
        for i, cols, lone in self.meets():
            leaves = [
                Constant(fl[i]) if tied[i][j]
                else Sum(Scale(lam[i][j], Generator(k[i][j])), Constant(mu[i][j]))
                for j in cols
            ]
            out.append(leaves[0] if lone else Meet(*leaves))
        return out


class TableJoin(Join):
    """A join of meets kept as the Stone-Nachbin tables it was built from.

    eval_expr evaluates the tables directly.  children (and with it
    to_json, equality and repr) builds the explicit Meets and leaves on
    first use; it equals the Join of the same children.
    """

    def __init__(self, table: _Table):
        object.__setattr__(self, "table", table)

    @cached_property
    def children(self) -> tuple[LatticeExpr, ...]:
        return tuple(self.table.branches())

    def __eq__(self, other):
        return isinstance(other, Join) and self.children == other.children

    __hash__ = Join.__hash__


def expr_from_json(data: dict) -> LatticeExpr:
    if not isinstance(data, dict):
        raise InvalidInput(f"expression node must be an object, got {type(data).__name__}")
    if "gen" in data:
        if isinstance(data["gen"], bool) or not isinstance(data["gen"], Integral):
            raise InvalidInput(f'"gen" must be an integer, got {data["gen"]!r}')
        return Generator(int(data["gen"]))
    if "const" in data:
        return Constant(_finite(data, "const"))
    op, args = data.get("op"), data.get("args", [])
    if not isinstance(args, list):
        raise InvalidInput(f'"args" must be a list, got {args!r}')
    args = [expr_from_json(a) for a in args]
    if op == "scale" and len(args) != 1 or op in ("join", "meet") and not args:
        raise InvalidInput(f"{op} takes {'exactly' if op == 'scale' else 'at least'} one arg, got {len(args)}")
    if op == "scale":
        return Scale(_finite(data, "factor"), args[0])
    for cls in (Sum, Join, Meet):
        if op == cls.op:
            return cls(*args)
    raise InvalidInput(f"unknown expression node {data!r}")


def _finite(data: dict, key: str) -> float:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= sys.float_info.max:
        raise InvalidInput(f'"{key}" must be a finite number, got {value!r}')
    return float(value)


def eval_expr(expr: LatticeExpr, functions, size: int | None = None) -> np.ndarray:
    """Evaluate an expression tree against a generator family.

    join/meet are pointwise max/min.  size is only needed when the family
    is empty and the tree is all constants.  A TableJoin is evaluated from
    its tables, to the bytes the walk of its children gives.
    """
    fns, n = _family_width(functions, size)
    return _run(expr, fns, n)


def eval_expr_many(exprs, functions, size: int | None = None) -> np.ndarray:
    """eval_expr of each expression against one family, as a (T, n) stack.

    Unpruned TableJoins over one poset size, as stone_nachbin_express_many
    returns them, are evaluated as one stacked table; any other list goes
    expression by expression.  Rows and errors are eval_expr's, the first
    failing expression deciding which.
    """
    fns, n = _family_width(functions, size)
    exprs = list(exprs)
    tables = [e.table for e in exprs if isinstance(e, TableJoin) and _tabled(e.table, n) and e.table.keep is None]
    if exprs and len(tables) == len(exprs) and len({t.f.shape for t in tables}) == 1:
        f, lam, mu, k, tied = (np.array(a) for a in zip(*(t[:5] for t in tables)))
        return _eval_table(_Table(f, lam, mu, k, tied, tables[0].rows, None), fns, n)
    return np.array([_run(e, fns, n) for e in exprs]) if exprs else np.empty((0, n))


def _family_width(functions, size: int | None) -> tuple[np.ndarray, int]:
    """The checked family and the length of the functions it evaluates to."""
    fns = as_functions(functions)
    if len(fns):
        return fns, fns.shape[1]
    if size is None:
        raise InvalidInput("empty generator family needs an explicit size")
    n = int(size)
    if n < 0:
        raise InvalidInput(f"size must be nonnegative, got {n}")
    return fns, n


def _tabled(t: _Table, n: int) -> bool:
    """Whether a TableJoin's table t is evaluated for functions of length n.

    For n = 1 numpy may reduce a meet or the join as one contiguous run,
    which breaks signed-zero ties in another order than the tree walk: then
    only a table of one leaf, with no ties to break, is evaluated, and any
    other walks the tree.
    """
    return n > 1 or t.k.shape[-2:] == (1, 1)


def _run(node: LatticeExpr, fns: np.ndarray, n: int) -> np.ndarray:
    """The tree walk of eval_expr."""
    if isinstance(node, TableJoin) and _tabled(node.table, n):
        return _eval_table(node.table, fns, n)
    if isinstance(node, Generator):
        if not 0 <= node.index < len(fns):
            raise IndexOutOfRange(f"generator index {node.index} out of range for {len(fns)} functions")
        return fns[node.index]
    if isinstance(node, Constant):
        return np.full(n, node.value)
    if isinstance(node, Scale):
        return node.factor * _run(node.child, fns, n)
    if isinstance(node, Sum):
        vals = [_run(c, fns, n) for c in node.children]
        return np.sum(vals, axis=0) if vals else np.zeros(n)
    if isinstance(node, (Join, Meet)):
        vals = [_run(c, fns, n) for c in node.children]
        if not vals:
            raise InvalidInput(f"{node.op} needs at least one child")
        return (np.max if isinstance(node, Join) else np.min)(vals, axis=0)
    raise InvalidInput(f"unknown expression node {node!r}")


def _eval_table(t: _Table, fns: np.ndarray, n: int) -> np.ndarray:
    """The tree walk of t's join of meets, computed in row blocks.

    Each leaf gets the tree's float operations (one multiply, one add from
    the additive identity, or the tied constant) and min/max are exact, so
    the bytes are the tree walk's.  Only leaves the tree visits must have a
    generator in range; pruned leaves enter the meet as +inf.  An unpruned
    t may carry a leading target axis, and the result then carries it too.
    """
    if not len(t.rows):
        raise InvalidInput("join needs at least one child")
    rows, visited = t.visited()
    k = t.k[..., rows, :]
    bad = visited & (k >= len(fns))
    if bad.any():
        raise IndexOutOfRange(f"generator index {k[tuple(np.argwhere(bad)[0])]} out of range for {len(fns)} functions")
    if not len(fns):  # every visited leaf is a constant; any row serves the others
        fns = np.zeros((1, n))
    # Leaves are laid out column first, (columns, rows, ..., n) in C order:
    # the meet and then the join reduce the outermost axis one entry after
    # the other, as the tree's np.min and np.max over a list of rows do.
    lead = range(k.ndim - 2)  # the target axis, if any
    k = np.minimum(k.transpose(-1, -2, *lead), len(fns) - 1, order="C")
    lam, mu, tied = (a[..., rows, :].transpose(-1, -2, *lead)[..., None] for a in (t.lam, t.mu, t.tied))
    f = t.f[..., rows].transpose(-1, *lead)[..., None]
    pruned = None if t.keep is None else ~t.keep[rows].T[..., None]
    meets = np.empty(k.shape[1:] + (n,))
    step = max(1, (1 << 16) // (k[:, :1].size * n))  # blocks of at most 2^16 floats
    for lo in range(0, len(t.rows), step):
        b = slice(lo, lo + step)
        leaves = fns[k[:, b]]
        leaves *= lam[:, b]
        leaves += mu[:, b]
        leaves += 0.0  # a Sum node reduces from +0.0, so a -0.0 leaf comes out +0.0
        np.copyto(leaves, f[b], where=tied[:, b])
        if pruned is not None:
            np.copyto(leaves, np.inf, where=pruned[:, b])
        meets[b] = leaves.min(axis=0)
    return meets.max(axis=0)


def stone_nachbin_express(
    p: FinitePoset,
    generators,
    target,
    tol: float = DEFAULT_TOL,
    prune: bool = False,
) -> LatticeExpr:
    """Rebuild an isotone target from sublattice-cone generators.

    For every ordered pair (x, y) a two-point interpolant lam*j + mu*1 is
    taken through the target values at x and y, with j picked from the
    generators to have the widest usable gap.  The result is the join over
    x of the meet over y of these interpolants, which reproduces the
    target exactly on a finite poset.  It is returned as a TableJoin.

    The generators must induce exactly the poset's order (otherwise
    OrderNotDetermined) and the target must be isotone (NotIsotone).
    With prune=True, branches that cannot affect the evaluation against
    these generators are dropped: a meet keeps the leaves no sibling lies
    below at every element, the join the meets no sibling lies above, each
    keeps the first of equal children, and a single survivor replaces its
    parent (a single meet or leaf is returned as a plain tree).
    Evaluation is preserved exactly.
    """
    stack = _order_family(p, generators, tol)
    big_f = as_function(target, p.n).copy()
    lam, mu, k, tied = (a[0] for a in _interpolants(p, stack, big_f[None], tol))

    n = p.n
    rows, keep = np.arange(n), None
    if prune:
        # values(b)[e, r, j] is leaf (b[r], j) at element e, rounded as
        # eval_expr rounds lam*g + mu, so the masks see what evaluation sees.
        # The rows are picked from their meets first; only they get leaf masks.
        g = np.ascontiguousarray(stack.T)

        def values(b):
            v = g[:, k[b]]
            v *= lam[b]
            v += mu[b]
            return v

        step = max(1, (1 << 16) // (n * n or 1))  # blocks of at most 2^16 floats
        mins = np.empty((n, n))  # mins[e, i]: the meet of row i at element e
        for lo in range(0, n, step):
            mins[:, lo : lo + step] = values(slice(lo, lo + step)).min(axis=2)
        rows = np.flatnonzero(_undominated(mins[:, None], below=False)[0])
        keep = np.zeros((n, n), dtype=bool)  # a dropped row keeps no leaf
        for lo in range(0, len(rows), step):
            b = rows[lo : lo + step]
            keep[b] = _undominated(values(b), below=True)
    table = _Table(big_f, lam, mu, k, tied, rows, keep)
    for a in table:
        if a is not None:
            a.setflags(write=False)
    expr = TableJoin(table=table)
    return expr.children[0] if prune and len(rows) == 1 else expr


def stone_nachbin_express_many(p: FinitePoset, generators, targets, tol: float = DEFAULT_TOL) -> list[TableJoin]:
    """stone_nachbin_express, unpruned, of each row of a (T, n) target stack.

    The family is checked once and the tables of all targets are built
    together; each TableJoin equals the scalar's to the byte, in its
    to_json and its evaluation.  A bad family or target stack raises the
    scalar's error; otherwise the first target the scalar refuses decides.
    """
    stack = _order_family(p, generators, tol)
    fs = as_functions(targets, p.n).copy()
    tables = (fs, *_interpolants(p, stack, fs, tol))
    rows = np.arange(p.n)
    for a in (*tables, rows):
        a.setflags(write=False)
    return [TableJoin(table=_Table(*row, rows, None)) for row in zip(*tables)]


def _order_family(p: FinitePoset, generators, tol: float) -> np.ndarray:
    """The generators as an (m, n) stack, refused unless they induce exactly p's order."""
    stack = as_functions(generators, p.n)
    if not len(stack):
        raise OrderNotDetermined("generator family is empty")
    induced = _induced(stack, tol)
    if not np.array_equal(induced, p.rel):
        FinitePreorder(p.elements, induced)  # rejects a relation the tolerance left intransitive
        raise OrderNotDetermined("generators do not induce the poset's order")
    return stack


def _interpolants(p: FinitePoset, stack: np.ndarray, fs: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The tables (lam, mu, k, tied), each (T, n, n), of the (T, n) targets fs.

    The interpolant of target t for the pair (x_i, x_j) is
    lam[t, i, j]*g_k[t, i, j] + mu[t, i, j]: g_k has the widest gap in the
    direction of the target's rise (the first such generator on ties).
    Pairs with equal target values are constant leaves; there lam is 0 and
    mu is f_t(x_i).  The first target that is not isotone, or has a pair
    whose widest gap does not exceed tol, is refused.
    """
    isotone = _isotone(p.rel, fs, tol)
    refused = not isotone.all()
    if refused:
        fs = fs[: np.argmin(isotone)]  # the targets before the first that is not isotone
    n = p.n
    rise = fs[:, None, :] - fs[:, :, None]  # rise[t, i, j] = f_t(x_j) - f_t(x_i)
    sign = np.sign(rise)
    k = np.empty(rise.shape, dtype=np.intp)
    step = max(1, (1 << 20) // (fs.size * len(stack) or 1))  # blocks of at most 2^20 floats
    for lo in range(0, n, step):
        gaps = stack[:, None, :] - stack[:, lo : lo + step, None]  # g_k(x_j) - g_k(x_i)
        k[:, lo : lo + step] = (gaps * sign[:, None, lo : lo + step]).argmax(axis=1)
    idx = np.arange(n)
    at_i = stack[k, idx[:, None]]
    gap = stack[k, idx] - at_i
    tied = sign == 0
    short = (sign * gap <= tol) & ~tied
    if short.any():  # only for targets isotone within tol but not exactly
        _, i, j = np.argwhere(short)[0]
        raise OrderNotDetermined(f"no generator separates {p.elements[i]!r} and {p.elements[j]!r}")
    if refused:
        raise NotIsotone("target is not isotone for the poset's order")
    lam = rise / np.where(tied, 1.0, gap)
    mu = fs[:, :, None] - lam * at_i
    return lam, mu, k, tied


def _undominated(values: np.ndarray, below: bool) -> np.ndarray:
    """The (R, n) mask of the candidates no other candidate of their row
    dominates pointwise from below (<= everywhere) or, with below=False,
    from above; of equal candidates the first.  values[e, r, j] is
    candidate j of row r at point e, for m points, shape (m, R, n).
    vv[e, j, r] holds the block candidates first and twice over, so the
    partners at cyclic shift s are vv[:, s:s + n]: one long <= and one AND
    down the points per shift, the comparisons of a per-point loop, and AND
    is exact: the same masks, NaN, inf and -0.0 included.  At n = 60, 18 rows
    take 2^17 floats in vv, 2^16 in v, 2^16 bools in each of cmp, by_shift, le."""
    _, r, n = values.shape
    v = np.ascontiguousarray(values.transpose(0, 2, 1))  # a copy apart from vv: numpy buffers a strided operand
    vv = np.concatenate((v, v), axis=1)
    cmp = np.empty_like(v, dtype=bool)
    by_shift = np.empty((n, n, r), dtype=bool)  # by_shift[s, a, r]: candidate a <= candidate (a + s) % n
    for s in range(n):
        np.less_equal(v, vv[:, s : s + n], out=cmp)
        np.logical_and.reduce(cmp, axis=0, out=by_shift[s])
    a = np.arange(n)
    le = by_shift[(a - a[:, None]) % n, a[:, None]].transpose(2, 0, 1)  # le[r, a, b]: candidate a <= candidate b
    dom = le if below else le.transpose(0, 2, 1)  # dom[r, a, b]: a dominates b
    earlier = np.triu(np.ones((n, n), dtype=bool), 1)  # earlier[a, b]: a < b
    return ~(dom & (~dom.transpose(0, 2, 1) | earlier)).any(axis=1)


def upset_decomposition(
    p: FinitePoset, f, tol: float = DEFAULT_TOL
) -> list[tuple[float, np.ndarray]]:
    """Write a nonnegative isotone function as a positive sum of up-set indicators.

    Values are sorted ascending and telescoped: the lowest level multiplies
    the full-set indicator (dropped when zero), every further level v_k
    contributes (v_k - v_{k-1}) times the indicator of {f >= v_k}, which is
    an up-set because f is isotone.  Levels closer than tol are merged.
    """
    f = as_function(f, p.n)
    if not _isotone(p.rel, f, tol):
        raise NotIsotone("function is not isotone")
    if (f < -tol).any():
        raise NegativeValues("function must be nonnegative")
    levels: list[float] = []
    for v in np.sort(f):
        if not levels or v - levels[-1] > tol:
            levels.append(float(v))
    terms: list[tuple[float, np.ndarray]] = []
    prev = 0.0
    for k, v in enumerate(levels):
        coeff = v - prev
        indicator = (f >= v - tol).astype(float)
        if k > 0 or coeff > tol:
            terms.append((coeff, indicator))
        prev = v
    return terms


def upset_decomposition_many(
    rels, values, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """upset_decomposition for an (N, m, m) stack of relations and an (N, m) stack of values.

    Element i of row r is present iff rels[r, i, i]; a padded element is
    unrelated to every element and its value is ignored.  Returns (coeffs,
    indicators, kept) of shapes (N, m), (N, m, m) and (N, m): row r's terms
    are (coeffs[r, t], indicators[r, t]) for the t with kept[r, t], which
    come first and in the scalar's order, with the scalar's bytes and 0 on
    padded elements; everything else is 0.  The scalar's rules run as masks
    over the m sorted positions.  A row the scalar refuses raises its error,
    the first such row deciding which.
    """
    rels = np.asarray(rels)
    if rels.dtype != bool or rels.ndim != 3 or rels.shape[1] != rels.shape[2]:
        raise InvalidInput(f"relations must be an (N, m, m) boolean stack, got {rels.dtype} {rels.shape}")
    f = float_array(values, "function values")
    if f.shape != rels.shape[:2]:
        raise DimensionMismatch(f"expected values of shape {rels.shape[:2]}, got {f.shape}")
    present = rels.diagonal(axis1=1, axis2=2)
    if (rels & ~(present[:, :, None] & present[:, None, :])).any() or (_compose(rels, rels) & ~rels).any():
        raise InvalidInput("relations must be transitive, and padded elements unrelated")
    if not np.isfinite(f[present]).all():
        raise InvalidInput("function values must be finite")
    f = np.where(present, f, 0.0)
    not_isotone = ~_isotone(rels, f, tol)
    bad = not_isotone | (present & (f < -tol)).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        if not_isotone[row]:
            raise NotIsotone(f"function {row} is not isotone")
        raise NegativeValues(f"function {row} must be nonnegative")
    m = f.shape[1]
    # ordered[r, j]: the j-th smallest present value of row r where real[r, j], else 0
    real = np.arange(m) < present.sum(axis=1)[:, None]
    ordered = np.where(real, np.sort(np.where(present, f, np.inf), axis=1), 0.0)
    # The first sorted value opens a level; a later one opens a level when it
    # rises more than tol above the last.  A level is a term when that rise
    # (from 0 for the first) is more than tol, so every level but the first is.
    rise = np.empty(f.shape)
    level = np.empty(f.shape, dtype=bool)
    last = np.zeros(len(f))
    for j in range(m):
        rise[:, j] = ordered[:, j] - last
        level[:, j] = real[:, j] & (rise[:, j] > tol)
        last = np.where(level[:, j] | (j == 0), ordered[:, j], last)
    r, j = np.nonzero(level)
    t = np.cumsum(level, axis=1)[r, j] - 1
    coeffs, indicators = np.zeros(f.shape), np.zeros(rels.shape)
    coeffs[r, t] = rise[r, j]
    indicators[r, t] = present[r] & (f[r] >= (ordered[r, j] - tol)[:, None])
    return coeffs, indicators, np.arange(m) < level.sum(axis=1)[:, None]


def generated_cone_contains(elements, generators, f, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the isocone generated by a point-separating family.

    The generated cone coincides with the isotone functions of the induced
    order, so membership reduces to isotonicity for that order.
    """
    pre, separates = order_from_functions(elements, generators, tol=tol)
    if not separates:
        raise PointsNotSeparated("generator family does not separate the elements")
    return is_isotone(pre, f, tol=tol)


@dataclass(frozen=True)
class MinimalWitness:
    """Certificate that the isotone cone has a strict sub-isocone.

    x, y is an incomparable pair; in_cone lies in the restricted cone
    J = {f isotone : f(x) <= f(y)} with a strict gap, outside is isotone
    but not in J.  separator(a, b) produces a member of J telling two
    given distinct elements apart.
    """

    poset: FinitePoset
    x: str
    y: str
    in_cone: np.ndarray
    outside: np.ndarray

    def separator(self, a: str, b: str) -> np.ndarray:
        p = self.poset
        ia, ib = p.index(a), p.index(b)
        if ia == ib:
            raise InvalidInput("separator needs two distinct elements")
        ix, iy = p.index(self.x), p.index(self.y)
        f = p.rel[ia].astype(float)  # indicator of the up-set of a
        if f[ia] == f[ib]:
            f = p.rel[ib].astype(float)
        if f[ix] <= f[iy]:
            return f
        g = self.in_cone
        if g[ia] != g[ib]:
            return g.copy()
        # Reflect f across ker(ev_x - ev_y) along g; stays isotone because
        # the coefficient is nonnegative, lands in J by construction.
        coeff = -2.0 * (f[ix] - f[iy]) / (g[ix] - g[iy])
        return f + coeff * g


def minimal_witness(p: FinitePoset) -> MinimalWitness | None:
    """None when the poset is totally ordered, else a sub-isocone certificate."""
    # incomparable_pairs()[0]: the mask is symmetric with a false diagonal, so its first set cell in row-major
    # order lies above the diagonal (a set cell left of it would mirror into an earlier row), the upper triangle's first
    incomparable = ~(p.rel | p.rel.T).ravel()
    if not incomparable.any():
        return None
    i, j = divmod(int(incomparable.argmax()), p.n)
    g = p.rel[j].astype(float)  # up-set of y: g(x)=0 < 1=g(y)
    g_prime = p.rel[i].astype(float)  # up-set of x: decreasing on (x, y)
    return MinimalWitness(poset=p, x=p.elements[i], y=p.elements[j], in_cone=g, outside=g_prime)


@dataclass(frozen=True)
class NormAdditivityWitness:
    f: np.ndarray
    g: np.ndarray
    condition: str  # "sum" or "inverse"
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CoboundedResult:
    cobounded: bool
    witness: NormAdditivityWitness | None


def cobounded_commutative(p: FinitePoset) -> CoboundedResult:
    """Norm additivity on the nonnegative cone, with the sup norm.

    Additivity of ||f+g|| on nonnegative isotone functions, together with
    the same condition on inverses of strictly positive ones, holds exactly
    when the poset has both a greatest and a lowest element, that is, in a
    finite poset, exactly one maximal and exactly one minimal element.  When
    it fails, a violating pair built from up-set indicators of two maximal
    (or two minimal) elements is returned.
    """
    if p.n == 0:
        raise InvalidInput("co-boundedness needs a nonempty poset")
    strict = p._strict()
    maximal = np.flatnonzero(~strict.any(axis=1))
    minimal = np.flatnonzero(~strict.any(axis=0))
    if len(maximal) > 1:
        # Two maximal elements; each function peaks only at its own, since
        # the up-set of a maximal element is the singleton.
        i, j = maximal[0], maximal[1]
        f = 1.0 + (np.arange(p.n) == i).astype(float)
        g = 1.0 + (np.arange(p.n) == j).astype(float)
        lhs = float(np.max(f + g))
        rhs = float(np.max(f) + np.max(g))
        return CoboundedResult(False, NormAdditivityWitness(f, g, "sum", lhs, rhs))
    if len(minimal) == 1:
        return CoboundedResult(True, None)
    # Top exists but bottom does not: violate the inverse condition with
    # strictly positive functions dipping only at distinct minimal elements.
    i, j = minimal[0], minimal[1]
    f = 2.0 - (np.arange(p.n) == i).astype(float)
    g = 2.0 - (np.arange(p.n) == j).astype(float)
    lhs = float(np.max(1.0 / f + 1.0 / g))
    rhs = float(np.max(1.0 / f) + np.max(1.0 / g))
    return CoboundedResult(False, NormAdditivityWitness(f, g, "inverse", lhs, rhs))


def principal_upset_indicators(p: FinitePoset) -> np.ndarray:
    """Indicator rows of the up-sets {y : x <= y}, one per element."""
    return p.rel.astype(float)


def all_upset_indicators(p: FinitePoset, limit: int = 12) -> np.ndarray:
    """Indicator rows of every nonempty proper-or-full up-set.

    Enumerates all 2^n subsets, so it falls back to the principal family
    above the size limit; the principal family induces the same order.
    """
    if p.n > limit:
        return principal_upset_indicators(p)
    # row k - 1 is the subset whose bit i is set in k, in ascending k
    subsets = (np.arange(1, 1 << p.n)[:, None] >> np.arange(p.n) & 1).astype(float)
    # below[k, j] counts the members of subset k below element j: an up-set has none below an element outside it
    below = subsets @ p.rel.astype(float)
    return subsets[~((below > 0.0) & (subsets == 0.0)).any(axis=1)]


@dataclass(frozen=True)
class IsotoneCone:
    """The cone of isotone functions on a finite poset.

    Contains the constants and is closed under sum, nonnegative scaling
    and pointwise min/max; closedness is automatic for polyhedral cones in
    finite dimensions.
    """

    poset: FinitePoset

    def contains(self, f, tol: float = DEFAULT_TOL) -> bool:
        return is_isotone(self.poset, f, tol=tol)
