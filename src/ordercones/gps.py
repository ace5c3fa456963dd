"""Orders on finite metric spaces from distance comparison to landmarks."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, UnknownId, float_array, string_ids
from .isotone_cone import DEFAULT_TOL, order_from_functions
from .poset import FinitePreorder

__all__ = [
    "FiniteMetricSpace",
    "gps_complete",
    "gps_order",
    "GpsOrder",
    "landmark_functions",
]


class FiniteMetricSpace:
    """Point ids with a distance matrix.

    Validated: symmetric, zero diagonal, positive off the diagonal, and
    triangle inequality within 1e-9.
    """

    def __init__(self, points, dist):
        points = string_ids(points, "point ids", utf8=True)
        if len(set(points)) != len(points):
            raise InvalidInput("point ids must be distinct")
        d = float_array(dist, "distance matrix")
        n = len(points)
        if d.shape != (n, n):
            raise InvalidInput(f"distance matrix must be {n}x{n}, got {d.shape}")
        if not np.isfinite(d).all():
            raise InvalidInput("distances must be finite")
        if np.max(np.abs(d - d.T), initial=0.0) > 1e-9:
            raise InvalidInput("distance matrix must be symmetric")
        if np.max(np.abs(np.diag(d)), initial=0.0) > 0:
            raise InvalidInput("distance matrix must have a zero diagonal")
        off = d + np.eye(n)
        if (off <= 0).any():
            raise InvalidInput("distinct points must have positive distance")
        if n:
            worst = np.max(d[:, None, :] - (d[:, :, None] + d[None, :, :]))
            if worst > 1e-9:
                raise InvalidInput(f"triangle inequality fails by {worst:.2e}")
        d = d.copy()
        d.setflags(write=False)
        self.points = points
        self.dist = d
        self._index = {x: i for i, x in enumerate(points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownId(f"unknown point id {x!r}") from None

    def to_json(self) -> dict:
        return {"points": list(self.points), "dist": self.dist.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteMetricSpace":
        if not isinstance(data, dict) or not {"points", "dist"} <= data.keys():
            raise InvalidInput('metric space JSON must be an object with "points" and "dist"')
        if not isinstance(data["points"], list):
            raise InvalidInput(f'"points" must be a list of ids, got {type(data["points"]).__name__}')
        return cls(data["points"], data["dist"])


def landmark_functions(space: FiniteMetricSpace, landmarks) -> np.ndarray:
    """One row per landmark z: the function x -> d(x, z)."""
    rows = [space.dist[:, space.index(z)] for z in string_ids(landmarks, "landmark ids")]
    return np.array(rows) if rows else np.zeros((0, space.n))


def gps_complete(space: FiniteMetricSpace, landmarks, tol: float = DEFAULT_TOL) -> bool:
    """Whether the landmark order is antisymmetric: no two points share a profile within tol."""
    return order_from_functions(space.points, landmark_functions(space, landmarks), tol=tol).separates_points


class GpsOrder(NamedTuple):
    order: FinitePreorder
    complete: bool


def gps_order(
    space: FiniteMetricSpace,
    landmarks,
    orientation: str = "remark",
    tol: float = DEFAULT_TOL,
) -> GpsOrder:
    """The relation x <= y iff d(x, z) <= d(y, z) for every landmark z.

    orientation="reversed" flips the comparison to d(x, z) >= d(y, z);
    both directions give valid (mutually dual) orders.  Distance ties
    within tol count as equality.  When the landmark set is GPS-complete
    the relation is antisymmetric and the result can be read as a poset.
    """
    if orientation not in ("remark", "reversed"):
        raise InvalidInput(f"orientation must be 'remark' or 'reversed', got {orientation!r}")
    profiles = landmark_functions(space, landmarks)
    if orientation == "reversed":
        profiles = -profiles
    return GpsOrder(*order_from_functions(space.points, profiles, tol=tol))
