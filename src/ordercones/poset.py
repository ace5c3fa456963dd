"""Finite posets and preorders over string element ids.

Relations are stored as dense boolean matrices, rel[i][j] meaning
element_i related-to element_j.  All values are immutable after
construction; every operation returns fresh objects.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AntisymmetryViolation, InvalidInput, UnknownId, string_ids

__all__ = [
    "FinitePreorder",
    "FinitePoset",
    "Bounds",
    "Sprinkling",
    "build_preorder",
    "build_poset",
    "reduce_preorder",
    "combine",
    "interval",
    "bounds",
    "sprinkle_minkowski",
]


def _closure(rel: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure over the last two axes, Warshall style (n is small).

    A (..., n, n) stack is closed slice by slice in the same n steps.
    """
    n = rel.shape[-1]
    out = rel.astype(bool, order="C")  # a fresh C-ordered copy, so the reshape below is a view
    out.reshape(*out.shape[:-2], n * n)[..., :: n + 1] = True  # the diagonal of every slice
    for k in range(n):
        out |= out[..., :, k : k + 1] & out[..., k : k + 1, :]
    return out


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product: out[i, j] iff a[i, k] and b[k, j] for some k.

    One float32 BLAS product, exact at any n: a sum of nonnegative 0/1
    terms is > 0 exactly when one of them is 1.  A square converts once.
    """
    fa = a.astype(np.float32)
    return (fa @ (fa if b is a else b.astype(np.float32))) > 0


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class FinitePreorder:
    """Element ids plus a reflexive, transitive boolean relation matrix."""

    def __init__(self, elements, rel):
        elements = string_ids(elements, "element ids", utf8=True)
        if len(set(elements)) != len(elements):
            raise InvalidInput("element ids must be distinct")
        rel = np.asarray(rel, dtype=bool)
        n = len(elements)
        if rel.shape != (n, n):
            raise InvalidInput(f"relation must be {n}x{n}, got {rel.shape}")
        if not rel.diagonal().all():
            raise InvalidInput("relation must be reflexive")
        if (_compose(rel, rel) & ~rel).any():
            raise InvalidInput("relation must be transitive")
        self._adopt(elements, rel)

    @classmethod
    def _closed(cls, elements, rel: np.ndarray):
        """An instance over a relation the library has just built and closed itself.

        Skips the checks that the closure makes true: distinct string ids,
        an n x n shape, reflexivity and transitivity.  A FinitePoset still
        checks antisymmetry, the one check kept, since closing a relation
        can make a 2-cycle.  Never use it on input from outside the library.
        The callers:

        - FinitePreorder.from_json and FinitePoset.from_json in the pairs
          form, build_preorder and build_poset: _pairs_to_relation checks
          the ids and the pairs and closes the relation with _closure;
        - duality.character_order: a relation induced by functions with
          tolerance 0 is reflexive and transitive;
        - sampling.random_poset, sampling.random_total_order and
          sprinkle_minkowski: closed, or transitive by construction.
        """
        self = cls.__new__(cls)
        self._adopt(tuple(elements), rel)
        return self

    def _adopt(self, elements: tuple[str, ...], rel: np.ndarray) -> None:
        """Store checked ids and relation; both constructors end here, so FinitePoset checks antisymmetry here."""
        self.elements = elements
        self.rel = _freeze(rel)
        self._index = {e: i for i, e in enumerate(elements)}

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownId(f"unknown element id {x!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self.rel[self.index(x), self.index(y)])

    def is_antisymmetric(self) -> bool:
        # rel is reflexive, so its symmetric pairs are the n diagonal ones and no more
        return np.count_nonzero(self.rel & self.rel.T) == self.n

    def _pairs(self, flat: list[int]) -> list[tuple[str, str]]:
        """The id pairs at these flat indices of an n x n matrix, in their order.

        Callers scan a mask flat, about ten times faster than np.nonzero's 2-D
        scan at n = 1000; divmod turns each flat index back into (row, column).
        """
        e = self.elements
        return [(e[i], e[j]) for i, j in map(divmod, flat, itertools.repeat(self.n))]

    def _strict(self) -> np.ndarray:
        out = self.rel.copy()
        out.flat[:: self.n + 1] = False
        return out

    def strict_pairs(self) -> list[tuple[str, str]]:
        """All related pairs with distinct endpoints (regenerates the relation)."""
        return self._pairs(self._strict().ravel().nonzero()[0].tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePreorder)
            and self.elements == other.elements
            and np.array_equal(self.rel, other.rel)
        )

    def __hash__(self):
        return hash((self.elements, self.rel.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)!r}, {self.rel.sum()} pairs)"

    def to_json(self) -> dict:
        payload = self._payload()
        payload["pairs"] = [list(pair) for pair in payload["pairs"]]
        payload["relation"] = payload["relation"].tolist()
        return payload

    def _payload(self) -> dict:
        """to_json's fields with the pairs as id tuples and the relation as rel's zero-copy 0/1 uint8 view.

        The CLI writes both straight to JSON text; to_json turns them into
        the lists library callers get.
        """
        return {
            "elements": list(self.elements),
            "pairs": self._emitted_pairs(),
            "relation": self.rel.view(np.uint8),
        }

    def _emitted_pairs(self) -> list[tuple[str, str]]:
        return self.strict_pairs()

    @classmethod
    def from_json(cls, data: dict) -> "FinitePreorder":
        """An instance of cls from {"elements", "relation"} or {"elements", "pairs"}."""
        if not isinstance(data, dict):
            raise InvalidInput(f"poset JSON must be an object, got {type(data).__name__}")
        if "elements" not in data:
            raise InvalidInput('missing "elements" key')
        elements = data["elements"]
        if not isinstance(elements, list):
            raise InvalidInput(f'"elements" must be a list of ids, got {type(elements).__name__}')
        if "relation" in data:
            return cls(elements, _relation_from_json(data["relation"]))
        pairs = data.get("pairs", [])
        if not isinstance(pairs, list):
            raise InvalidInput(f'"pairs" must be a list of [x, y] pairs, got {type(pairs).__name__}')
        return cls._closed(*_pairs_to_relation(elements, pairs))


class FinitePoset(FinitePreorder):
    """A preorder that is also antisymmetric."""

    def _adopt(self, elements: tuple[str, ...], rel: np.ndarray) -> None:
        super()._adopt(elements, rel)
        if not self.is_antisymmetric():
            raise AntisymmetryViolation("relation contains a 2-cycle between distinct ids")

    def covering_pairs(self) -> list[tuple[str, str]]:
        """Transitive reduction: the pairs x < y with nothing strictly between, in row-major order.

        The peel ranks the elements by a linear extension.  When each row of the relation starts at
        the diagonal (its first related element is the element itself), no related pair is listed
        backwards, so the listing is one and ranks are indices.  Otherwise x < y makes the down-set
        of x strictly smaller than that of y, so ranking by down-set size (a stable argsort) is one.
        Each up-set is packed into one int, rank k at bit m - 1 - k: x itself is its up-set's
        highest bit, and of the rest the element y of lowest rank, the highest bit, has nothing
        below it there, so y covers x.  The peel emits y and drops y's up-set until nothing is
        left: O(covers * n / 30) operations on the ints' 30-bit digits, fewer as their top bits go.
        The covers are then sorted into row-major order.
        """
        n, rel = self.n, self.rel
        if n and (rel.argmax(axis=1) == np.arange(n)).all():
            order = list(range(n))
        else:
            order = np.argsort(rel.sum(axis=0, dtype=np.int32), kind="stable").tolist()
            rel = rel.take(order, 1)
        packed = np.packbits(rel, axis=1)
        w = packed.shape[1]
        m = 8 * w
        rows = packed.tobytes()
        up = [int.from_bytes(rows[k * w:(k + 1) * w], "big") for k in range(n)]
        outside = [~up[y] for y in order]  # by rank: everything but that element's up-set
        flat = []
        for x, rest in enumerate(up):
            rest ^= 1 << (rest.bit_length() - 1)
            row = x * n
            while rest:
                k = m - rest.bit_length()
                flat.append(row + order[k])
                rest &= outside[k]
        flat.sort()
        return self._pairs(flat)

    def incomparable_pairs(self) -> list[tuple[str, str]]:
        """The incomparable pairs (x, y), x listed before y, in row-major order."""
        # The mask is symmetric with a false diagonal: each pair is kept once, from its upper half.
        i, j = (~(self.rel | self.rel.T)).nonzero()
        upper = i < j
        e = self.elements
        return [(e[a], e[b]) for a, b in zip(i[upper].tolist(), j[upper].tolist())]

    def is_total(self) -> bool:
        return (self.rel | self.rel.T).all()

    def _emitted_pairs(self) -> list[tuple[str, str]]:
        return self.covering_pairs()


def _relation_from_json(relation) -> np.ndarray:
    """A 0/1 matrix whose entries are booleans or the numbers 0 and 1, nothing else."""
    try:
        rel = np.asarray(relation)
    except ValueError as exc:  # a ragged list
        raise InvalidInput(f"relation must be a square 0/1 matrix: {exc}") from exc
    if rel.dtype != bool and (rel.dtype.kind not in "iuf" or not np.isin(rel, (0, 1)).all()):
        raise InvalidInput("relation entries must be true/false or the numbers 0 and 1")
    return rel.astype(bool)


def _pairs_to_relation(elements, pairs) -> tuple[tuple[str, ...], np.ndarray]:
    """The element ids and the reflexive-transitive closure of the pairs over them."""
    ids = string_ids(elements, "element ids", utf8=True)
    index = {e: i for i, e in enumerate(ids)}
    if len(index) != len(ids):
        raise InvalidInput("element ids must be distinct")
    rel = np.zeros((len(ids), len(ids)), dtype=bool)  # _closure adds the diagonal
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidInput(f"a pair must hold exactly two ids, got {pair!r}")
        x, y = string_ids(pair, "pair ids")
        if x not in index:
            raise UnknownId(f"unknown element id {x!r}")
        if y not in index:
            raise UnknownId(f"unknown element id {y!r}")
        rel[index[x], index[y]] = True
    return ids, _closure(rel)


def build_preorder(elements, generating_pairs) -> FinitePreorder:
    """Reflexive-transitive closure of the generating pairs, as a preorder."""
    return FinitePreorder._closed(*_pairs_to_relation(elements, generating_pairs))


def build_poset(elements, generating_pairs) -> FinitePoset:
    """Reflexive-transitive closure of the generating pairs.

    Raises AntisymmetryViolation if the closure relates two distinct ids
    both ways; callers expecting cycles should use build_preorder.
    """
    return FinitePoset._closed(*_pairs_to_relation(elements, generating_pairs))


def reduce_preorder(q: FinitePreorder) -> tuple[FinitePoset, dict[str, str]]:
    """Collapse mutually related elements into classes; order the classes.

    Classes are the equivalence classes of (x <= y and y <= x); the class
    of x is named after its first member in declared element order.  The
    returned projection maps each id to its class id and is isotone.
    """
    mutual = q.rel & q.rel.T
    first = mutual.argmax(axis=1) if q.n else np.zeros(0, dtype=int)  # first member of each class
    reps = np.flatnonzero(first == np.arange(q.n))
    names = [q.elements[r] for r in reps.tolist()]
    projection = {e: q.elements[f] for e, f in zip(q.elements, first.tolist())}
    return FinitePoset(names, q.rel[np.ix_(reps, reps)]), projection


def combine(p: FinitePoset, q: FinitePoset, mode: str) -> FinitePoset:
    """Product order or disjoint union of two posets.

    product: (x, y) <= (x', y') iff x <= x' and y <= y', elements named
    "(x,y)".  disjoint_union: both orders kept, every cross pair
    incomparable; ids are prefixed "L:" / "R:" only on collision.
    """
    if mode == "product":
        elements = [f"({x},{y})" for x in p.elements for y in q.elements]
        rel = np.kron(p.rel, q.rel)
        return FinitePoset(elements, rel)
    if mode == "disjoint_union":
        if set(p.elements) & set(q.elements):
            left = [f"L:{x}" for x in p.elements]
            right = [f"R:{y}" for y in q.elements]
        else:
            left, right = list(p.elements), list(q.elements)
        n, m = p.n, q.n
        rel = np.zeros((n + m, n + m), dtype=bool)
        rel[:n, :n] = p.rel
        rel[n:, n:] = q.rel
        return FinitePoset(left + right, rel)
    raise InvalidInput(f"mode must be 'product' or 'disjoint_union', got {mode!r}")


def interval(p: FinitePoset, x: str, y: str) -> list[str]:
    """The closed interval {z : x <= z <= y}; empty when x is not below y."""
    i, j = p.index(x), p.index(y)
    return [p.elements[k] for k in np.flatnonzero(p.rel[i] & p.rel[:, j]).tolist()]


@dataclass(frozen=True)
class Bounds:
    top: str | None
    bottom: str | None

    @property
    def bounded(self) -> bool:
        return self.top is not None and self.bottom is not None


def bounds(p: FinitePoset) -> Bounds:
    """Greatest and lowest elements, when they exist (the last one listed, in a preorder)."""
    tops = np.flatnonzero(p.rel.all(axis=0))
    bottoms = np.flatnonzero(p.rel.all(axis=1))
    return Bounds(
        top=p.elements[tops[-1]] if len(tops) else None,
        bottom=p.elements[bottoms[-1]] if len(bottoms) else None,
    )


@dataclass(frozen=True)
class Sprinkling:
    """A sprinkled causal poset with its generating coordinates."""

    poset: FinitePoset
    t: tuple[float, ...]
    x: tuple[float, ...]

    def coords_json(self) -> dict:
        return {
            e: {"t": self.t[i], "x": self.x[i]}
            for i, e in enumerate(self.poset.elements)
        }


def _causal_relation(t: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Points sorted by t, with t = (u + v) / 2 in floats: the reflexive relation
    u[i] <= u[j] and v[i] <= v[j] and t[i] < t[j], in row blocks of at most 2^16 cells."""
    n = len(t)
    rel = np.zeros((n, n), dtype=bool)
    # Sorted by t, t[j] <= t[i] for j < i, so t > fails there: rows a:b are compared from column a.
    # Rounding is monotone, so u >= and v >= imply t >=; with t sorted, t > can then fail only
    # between equal t values, and the two comparisons decide every other cell.
    a = 0
    while a < n:
        b = a + max(1, (1 << 16) // (n - a))
        rel[a:b, a:] = (u[a:] >= u[a:b, None]) & (v[a:] >= v[a:b, None])
        a = b
    # Each run of equal t is one square around the diagonal: cleared, then the diagonal set.
    ties = t[1:][t[1:] == t[:-1]]
    for lo, hi in zip(np.searchsorted(t, ties).tolist(), np.searchsorted(t, ties, "right").tolist()):
        rel[lo:hi, lo:hi] = False
    rel.flat[:: n + 1] = True
    return rel


def sprinkle_minkowski(n: int, seed: int) -> Sprinkling:
    """Sprinkle n points into the unit causal diamond of 1+1 Minkowski space.

    Lightcone coordinates u = t+x, v = t-x are uniform on [0,1]^2, which is
    exactly the diamond between (0,0) and (1,0).  The causal relation is
    x < y iff dt > 0 and dt >= |dx|, reflexivized.  Deterministic for a
    fixed seed, bit for bit.
    """
    if n < 0:
        raise InvalidInput("point count must be nonnegative")
    # SplitMix64, the k-th output mixing state seed + k * golden gamma (mod 2**64)
    z = np.uint64(int(seed) % 2**64) + np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = (z ^ (z >> np.uint64(31))) / 2.0**64
    u, v = z[0::2], z[1::2]
    pts = np.array([(u + v) / 2.0, (u - v) / 2.0, u, v])
    t, x, u, v = pts[:, np.lexsort(pts[::-1])]  # sorted by t, then x, u and v
    rel = _causal_relation(t, u, v)
    # u >=, v >= and t > are each transitive, so their conjunction is too.
    poset = FinitePoset._closed([f"p{i}" for i in range(n)], rel)
    return Sprinkling(poset=poset, t=tuple(t.tolist()), x=tuple(x.tolist()))
