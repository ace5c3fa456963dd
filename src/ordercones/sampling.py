"""Seeded random instances: posets, isotone functions, regions, metrics."""
from __future__ import annotations

import numpy as np

from .isotone_cone import DEFAULT_TOL, _induced, principal_upset_indicators
from .m2 import SphericalRegion
from .poset import FinitePoset, _closure

__all__ = [
    "random_poset",
    "random_total_order",
    "random_isotone",
    "random_isotone_stack",
    "random_nonneg_isotone",
    "separating_family",
    "random_metric_space_data",
    "region_fixtures",
    "sample_region_points",
    "sample_cone_members",
]

# random_poset's default edge probability and random_nonneg_isotone's upper value,
# which random_isotone_stack repeats.
_EDGE_PROB = 0.35
_NONNEG_HI = 3.0


def random_poset(rng: np.random.Generator, n: int, edge_prob: float = _EDGE_PROB) -> FinitePoset:
    """Random n-element poset from a shuffled upper-triangular edge set."""
    perm, edges = _draw_edges(rng, n, edge_prob)
    a, b = _upper_pairs(n)
    rel = np.zeros((n, n), dtype=bool)
    rel[perm[a], perm[b]] = edges
    return FinitePoset._closed([f"e{i}" for i in range(n)], _closure(rel))


def _draw_edges(rng: np.random.Generator, n: int, edge_prob: float) -> tuple[np.ndarray, np.ndarray]:
    """random_poset's draws: a permutation and one edge flag per pair a < b of _upper_pairs(n)."""
    return rng.permutation(n), rng.random(n * (n - 1) // 2) < edge_prob


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a < b of n elements in row-major order, as a scalar loop would draw them."""
    return np.nonzero(~np.tri(n, dtype=bool))


def _running_max(rel: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """out[..., j] = max of raw[..., i] over i <= j: the least isotone function above raw."""
    return np.where(rel, raw[..., :, None], -np.inf).max(axis=-2, initial=-np.inf)


def random_total_order(rng: np.random.Generator, n: int) -> FinitePoset:
    perm = rng.permutation(n)
    a, b = _upper_pairs(n)
    rel = np.eye(n, dtype=bool)
    rel[perm[a], perm[b]] = True
    return FinitePoset._closed([f"e{i}" for i in range(n)], rel)


def random_isotone(rng: np.random.Generator, p: FinitePoset, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    """Random isotone function: running maxima of noise over down-sets."""
    return _running_max(p.rel, rng.uniform(lo, hi, size=p.n))


def random_isotone_stack(
    rng: np.random.Generator, count: int, max_n: int = 8, functions: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """count random posets with `functions` random nonnegative isotone functions on each, as padded stacks.

    Makes the draws of the loop that, count times, takes n = rng.integers(1,
    max_n + 1), p = random_poset(rng, n) and then `functions` times
    random_nonneg_isotone(rng, p): the same values and the same final
    generator state.  Returns (rels, values) of shapes (count, max_n, max_n)
    and (count, functions, max_n).  Row r holds its poset in rels[r, :n, :n]
    and its functions in values[r, :, :n]; a padded element has no relation,
    not even to itself, and value 0.
    """
    sizes = np.empty(count, dtype=np.intp)
    perms = np.zeros((count, max_n), dtype=np.intp)
    edges = np.zeros((count, max_n * (max_n - 1) // 2), dtype=bool)
    raw = np.zeros((count, functions, max_n))
    for row in range(count):
        n = sizes[row] = rng.integers(1, max_n + 1)
        perms[row, :n], edges[row, : n * (n - 1) // 2] = _draw_edges(rng, n, _EDGE_PROB)
        for k in range(functions):
            raw[row, k, :n] = rng.uniform(0.0, _NONNEG_HI, size=n)
    rels = np.zeros((count, max_n, max_n), dtype=bool)
    for n in range(2, max_n + 1):
        rows = np.flatnonzero(sizes == n)
        a, b = _upper_pairs(n)
        perm = perms[rows, :n]
        rels[rows[:, None], perm[:, a], perm[:, b]] = edges[rows, : len(a)]
    # Padded elements close to themselves alone, so their running max is their raw 0.
    rels = _closure(rels)
    values = _running_max(rels[:, None], raw)
    present = np.arange(max_n) < sizes[:, None]
    return rels & present[:, :, None] & present[:, None, :], values


def random_nonneg_isotone(rng: np.random.Generator, p: FinitePoset) -> np.ndarray:
    return random_isotone(rng, p, lo=0.0, hi=_NONNEG_HI)


def separating_family(rng: np.random.Generator, p: FinitePoset) -> list[np.ndarray]:
    """Random isotone functions that induce exactly the poset's order.

    Starts from random members and, if the induced order is still coarser,
    mixes in randomly rescaled up-set indicators until it matches.
    """
    fns = [random_isotone(rng, p) for _ in range(max(1, p.n // 2 + 2))]
    indicators = list(principal_upset_indicators(p))
    rng.shuffle(indicators)
    for ind in indicators:
        if np.array_equal(_induced(np.array(fns), DEFAULT_TOL), p.rel):
            return fns
        fns.append(float(rng.uniform(0.5, 2.0)) * ind + float(rng.uniform(-1.0, 1.0)))
    return fns


def random_metric_space_data(rng: np.random.Generator, n: int) -> tuple[list[str], np.ndarray]:
    """Euclidean point cloud in 3-space with a guaranteed minimum spread."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(n, 3))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        if n < 2 or (dist + np.eye(n)).min() > 1e-3:
            return [f"x{i}" for i in range(n)], dist


def region_fixtures() -> list[tuple[str, SphericalRegion]]:
    """Ten spherical regions spanning the kinds: caps, hulls, full sphere."""
    e3 = [0.0, 0.0, 1.0]
    tilted = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    hull_tight = [
        [0.1, 0.0, np.sqrt(1 - 0.01)],
        [-0.05, 0.09, np.sqrt(1 - 0.0025 - 0.0081)],
        [-0.05, -0.09, np.sqrt(1 - 0.0025 - 0.0081)],
    ]
    hull_spread = [
        [0.6, 0.0, 0.8],
        [-0.3, np.sqrt(0.27), 0.8],
        [-0.3, -np.sqrt(0.27), 0.8],
    ]
    hull_square = [
        [0.5, 0.5, np.sqrt(0.5)],
        [-0.5, 0.5, np.sqrt(0.5)],
        [-0.5, -0.5, np.sqrt(0.5)],
        [0.5, -0.5, np.sqrt(0.5)],
    ]
    hull_skew = [
        [0.9, 0.1, np.sqrt(1 - 0.81 - 0.01)],
        [0.2, 0.6, np.sqrt(1 - 0.04 - 0.36)],
        [0.1, -0.4, np.sqrt(1 - 0.01 - 0.16)],
        [0.5, 0.2, np.sqrt(1 - 0.25 - 0.04)],
    ]
    hull_tilted = (np.array(hull_spread) @ _rotation_from_z(tilted).T).tolist()
    return [
        ("cap-0.1", SphericalRegion.cap(e3, 0.1)),
        ("cap-0.3", SphericalRegion.cap(e3, 0.3)),
        ("cap-pi4", SphericalRegion.cap(e3, np.pi / 4)),
        ("cap-pi2", SphericalRegion.cap(e3, np.pi / 2)),
        ("hull-tight", SphericalRegion.hull(hull_tight)),
        ("hull-spread", SphericalRegion.hull(hull_spread)),
        ("hull-square", SphericalRegion.hull(hull_square)),
        ("hull-skew", SphericalRegion.hull(hull_skew)),
        ("hull-tilted", SphericalRegion.hull(hull_tilted)),
        ("full", SphericalRegion.full()),
    ]


def _rotation_from_z(target: np.ndarray) -> np.ndarray:
    """A rotation sending e3 to the given unit vector."""
    z = np.array([0.0, 0.0, 1.0])
    crs = np.cross(z, target)
    s = np.linalg.norm(crs)
    c = float(z @ target)
    if s < 1e-12:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    k = crs / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + s * kx + (1 - c) * (kx @ kx)


def sample_region_points(rng: np.random.Generator, region: SphericalRegion, count: int) -> np.ndarray:
    """Random unit vectors inside the region, (count, 3)."""
    if region.kind == "full":
        pts = rng.normal(size=(count, 3))
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if region.kind == "cap":
        cosang = rng.uniform(np.cos(region.radius), 1.0, size=count)
        sinang = np.sqrt(1.0 - cosang**2)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
        local = np.stack([sinang * np.cos(phi), sinang * np.sin(phi), cosang], axis=1)
        return local @ _rotation_from_z(region.center).T
    rays = region.extreme_vertices
    weights = rng.exponential(size=(count, rays.shape[0]))
    pts = weights @ rays
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sample_cone_members(
    rng: np.random.Generator, region: SphericalRegion, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random cone members as Pauli coordinates (c, v) with v = scale * k.

    The identity coefficient roams over both signs; the traceless part is
    a nonnegative multiple of a region point.
    """
    k = sample_region_points(rng, region, count)
    scale = rng.exponential(scale=1.0, size=count)
    c = rng.normal(scale=1.5, size=count)
    return c, scale[:, None] * k
