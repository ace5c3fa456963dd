"""Round trip between finite posets and their diagonal function algebras.

A finite poset determines the algebra of functions on its elements
together with the cone of isotone ones; evaluation at elements gives the
characters, and comparing characters against a generating family of the
cone recovers the poset on the nose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownId, string_ids
from .isotone_cone import (
    DEFAULT_TOL,
    IsotoneCone,
    _induced,
    _isotone,
    all_upset_indicators,
)
from .poset import FinitePoset

__all__ = [
    "FiniteCommutativeIStar",
    "algebra_from_poset",
    "character_order",
    "MorphismReport",
    "morphism_check",
]


@dataclass(frozen=True)
class FiniteCommutativeIStar:
    """Diagonal algebra over an index set with its isotone cone.

    Members are real vectors over the index set read as diagonal hermitian
    matrices; the cone members are the isotone ones.  Up-set indicators
    plus constants span the cone.
    """

    cone: IsotoneCone

    @property
    def poset(self) -> FinitePoset:
        return self.cone.poset

    def generator_functions(self) -> np.ndarray:
        return all_upset_indicators(self.poset)

    def to_json(self) -> dict:
        return {
            "elements": list(self.poset.elements),
            "poset": self.poset.to_json(),
            "generators": self.generator_functions().tolist(),
        }


def algebra_from_poset(p: FinitePoset) -> FiniteCommutativeIStar:
    return FiniteCommutativeIStar(cone=IsotoneCone(p))


def character_order(algebra: FiniteCommutativeIStar) -> FinitePoset:
    """Order the characters by comparing them on the cone's generators.

    ev_x <= ev_y holds when f(x) <= f(y) for every generator f; with the
    up-set indicator family this reproduces the underlying poset exactly
    (integer arithmetic, no tolerance needed).  With tolerance 0 the
    induced relation is reflexive and transitive, so only antisymmetry is
    checked.
    """
    return FinitePoset._closed(algebra.poset.elements, _induced(algebra.generator_functions(), 0.0))


@dataclass(frozen=True)
class MorphismReport:
    isotone: bool
    pullback_preserves_cone: bool


def _mapping_indices(mapping: dict, source: FinitePoset, target: FinitePoset) -> np.ndarray:
    string_ids(mapping.values(), "map values")
    idx = np.empty(source.n, dtype=int)
    for i, e in enumerate(source.elements):
        if e not in mapping:
            raise UnknownId(f"map is not defined on {e!r}")
        idx[i] = target.index(mapping[e])
    return idx


def morphism_check(mapping: dict, source: FinitePoset, target: FinitePoset) -> MorphismReport:
    """Check a map of posets as an algebra morphism on functions.

    Any total map gives a *-morphism by composition; the report compares
    isotonicity of the map against the pullback carrying the target's
    cone generators into the source's cone.  The two flags agree for every
    map, which is what makes the order side and the algebra side match.
    """
    idx = _mapping_indices(mapping, source, target)
    isotone = not (source.rel & ~target.rel[np.ix_(idx, idx)]).any()
    preserves = bool(_isotone(source.rel, all_upset_indicators(target)[:, idx], DEFAULT_TOL).all())
    return MorphismReport(isotone=isotone, pullback_preserves_cone=preserves)

