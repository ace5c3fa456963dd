"""Reference Bloch-sphere geometry in plain numpy, independent of ordercones.

Regions are the same ten shapes as the library's test fixtures (four caps,
five hulls, the full sphere), written out here as CLI JSON.  Every answer
the m2 side of the benchmark checks is recomputed from these formulas:
cone membership through Caratheodory triples of hull vertices, dual-cone
membership through the vertices or the complementary cap angle.
Margins are signed (positive inside); a check is skipped only when the
margin falls in the BAND around the boundary.
"""
from __future__ import annotations

import itertools

import numpy as np

BAND = 1e-6


def _rotation_from_z(target) -> np.ndarray:
    z = np.array([0.0, 0.0, 1.0])
    target = np.asarray(target, dtype=float)
    crs = np.cross(z, target)
    s = np.linalg.norm(crs)
    c = float(z @ target)
    if s < 1e-12:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    k = crs / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + s * kx + (1 - c) * (kx @ kx)


def region_jsons() -> list[dict]:
    """The ten region kinds as the CLI reads them."""
    e3 = [0.0, 0.0, 1.0]
    spread = [[0.6, 0.0, 0.8], [-0.3, np.sqrt(0.27), 0.8], [-0.3, -np.sqrt(0.27), 0.8]]
    tilted = (np.array(spread) @ _rotation_from_z(np.ones(3) / np.sqrt(3.0)).T).tolist()
    hulls = [
        [
            [0.1, 0.0, np.sqrt(1 - 0.01)],
            [-0.05, 0.09, np.sqrt(1 - 0.0025 - 0.0081)],
            [-0.05, -0.09, np.sqrt(1 - 0.0025 - 0.0081)],
        ],
        spread,
        [
            [0.5, 0.5, np.sqrt(0.5)],
            [-0.5, 0.5, np.sqrt(0.5)],
            [-0.5, -0.5, np.sqrt(0.5)],
            [0.5, -0.5, np.sqrt(0.5)],
        ],
        [
            [0.9, 0.1, np.sqrt(1 - 0.81 - 0.01)],
            [0.2, 0.6, np.sqrt(1 - 0.04 - 0.36)],
            [0.1, -0.4, np.sqrt(1 - 0.01 - 0.16)],
            [0.5, 0.2, np.sqrt(1 - 0.25 - 0.04)],
        ],
        tilted,
    ]
    caps = [{"kind": "cap", "center": e3, "radius": r} for r in (0.1, 0.3, np.pi / 4, np.pi / 2)]
    return caps + [{"kind": "hull", "vertices": [list(map(float, v)) for v in h]} for h in hulls] + [
        {"kind": "full"}
    ]


class RefRegion:
    """Signed cone and dual-cone margins of one region, batched over rows."""

    def __init__(self, data: dict):
        self.kind = data["kind"]
        if self.kind == "cap":
            self.center = np.asarray(data["center"], dtype=float)
            self.radius = float(data["radius"])
        elif self.kind == "hull":
            v = np.asarray(data["vertices"], dtype=float)
            self.vertices = v / np.linalg.norm(v, axis=1, keepdims=True)
            triples = []
            for idx in itertools.combinations(range(len(self.vertices)), 3):
                t = self.vertices[list(idx)].T  # columns are the three rays
                if abs(np.linalg.det(t)) > 1e-9:
                    triples.append(t)
            self.triples = np.array(triples)

    def cone_margin(self, v: np.ndarray) -> np.ndarray:
        """> 0 when the ray through v lies inside the region's cone."""
        v = np.atleast_2d(np.asarray(v, dtype=float))
        vhat = v / np.linalg.norm(v, axis=1, keepdims=True)
        if self.kind == "full":
            return np.full(len(v), np.inf)
        if self.kind == "cap":
            return self.radius - np.arccos(np.clip(vhat @ self.center, -1.0, 1.0))
        # v is in the cone iff it has nonnegative weights over some triple of
        # vertices (Caratheodory in three dimensions).
        w = np.linalg.solve(self.triples[None, :, :, :], vhat[:, None, :, None])[..., 0]
        return w.min(axis=2).max(axis=1)

    def dual_margin(self, d: np.ndarray) -> np.ndarray:
        """> 0 when d pairs nonnegatively with every region point."""
        d = np.atleast_2d(np.asarray(d, dtype=float))
        dhat = d / np.linalg.norm(d, axis=1, keepdims=True)
        if self.kind == "full":
            return np.full(len(d), -1.0)
        if self.kind == "cap":
            return (np.pi / 2 - self.radius) - np.arccos(np.clip(dhat @ self.center, -1.0, 1.0))
        return (dhat @ self.vertices.T).min(axis=1)

    def sample_inside(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Unit vectors well inside the region, (count, 3)."""
        if self.kind == "full":
            return unit_rows(rng.normal(size=(count, 3)))
        if self.kind == "cap":
            cosang = rng.uniform(np.cos(0.9 * self.radius), 1.0, size=count)
            sinang = np.sqrt(1.0 - cosang**2)
            phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
            local = np.stack([sinang * np.cos(phi), sinang * np.sin(phi), cosang], axis=1)
            return local @ _rotation_from_z(self.center).T
        weights = rng.exponential(size=(count, len(self.vertices))) + 0.05
        return unit_rows(weights @ self.vertices)


def unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def relation(margin_fwd: float, margin_back: float) -> str | None:
    """Pure or density state relation from the two dual margins; None in the band."""
    if abs(margin_fwd) < BAND or abs(margin_back) < BAND:
        return None
    if margin_fwd > 0:
        return "less"
    if margin_back > 0:
        return "greater"
    return "incomparable"


def relations(ref: RefRegion, b1: np.ndarray, b2: np.ndarray) -> list[str | None]:
    """Batched state relations of b1 to b2 (rows), None where undecided."""
    d = np.atleast_2d(b2) - np.atleast_2d(b1)
    fwd, back = ref.dual_margin(d), ref.dual_margin(-d)
    return [relation(f, b) for f, b in zip(fwd, back)]


def hopf(xi: np.ndarray) -> np.ndarray:
    """Bloch vectors of spinor rows (N, 2)."""
    cross = np.conj(xi[:, 0]) * xi[:, 1]
    return np.stack(
        [2.0 * cross.real, 2.0 * cross.imag, np.abs(xi[:, 0]) ** 2 - np.abs(xi[:, 1]) ** 2], axis=1
    )


def pauli_matrices(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(N, 2, 2) hermitian stack c*s0 + v.s, exactly self-adjoint."""
    out = np.empty((len(c), 2, 2), dtype=complex)
    out[:, 0, 0] = c + v[:, 2]
    out[:, 1, 1] = c - v[:, 2]
    out[:, 0, 1] = v[:, 0] - 1j * v[:, 1]
    out[:, 1, 0] = v[:, 0] + 1j * v[:, 1]
    return out
