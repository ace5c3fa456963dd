"""Order structures on 2x2 complex matrices via Bloch-sphere geometry.

Hermitian 2x2 matrices are coordinatized as c*s0 + v.s with the Pauli
basis; a membership cone is cut out by a closed, geodesically convex
region of the unit sphere of traceless matrices plus the full multiples
of the identity.  Pure states map to the sphere through the Hopf
fibration, and the induced state order is a dual-cone test on Bloch
vectors.

The geometry needs only numpy and cross products.  A hull region is set
up from the pairwise cross products of its vertices: they decide the
open half-sphere condition (Gordan's alternative), and the pairs whose
plane leaves every vertex on one side give the extreme vertices and the
facets that decide membership.  The kernels `_inside` and `_dual` state
each region kind's membership and dual-cone rule once, over leading axes;
the scalar and batch entry points read their input and call one of them.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotARotation,
    NotNormal,
    NotNormalized,
    float_array,
)
from .hermitian import (
    HermitianMatrix, _as_hermitian, _dots, _finite_length, _finite_lengths, _fold, _hk, _pauli_parts, _read_matrix,
)

__all__ = [
    "GEOM_TOL",
    "SIGMA",
    "PauliCoords",
    "pauli_coords",
    "matrix_from_pauli",
    "matrix_from_pauli_many",
    "hopf",
    "spinor",
    "SphericalRegion",
    "iso_membership",
    "PureStatePoint",
    "DensityState",
    "pure_state_order",
    "pure_state_order_many",
    "state_order",
    "fubini_study",
    "transition_probability",
    "TransversalityResult",
    "transversality",
    "join_coeffs",
    "join_coeffs_from_difference",
    "join_coeffs_many",
    "M2CoboundedWitness",
    "cobounded_witness",
    "rotation_preserves",
]

GEOM_TOL = 1e-9
_UNIT_TOL = 1e-9  # how far from 1 the length of a unit vector or spinor read as input may be

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class PauliCoords:
    """Coefficients (c, v) of a hermitian 2x2 matrix c*s0 + v.s."""

    c: float
    v: np.ndarray


def pauli_coords(a) -> PauliCoords:
    c, v1, v2, v3, s = _scaled_pauli(a)
    return PauliCoords(c * s, np.array([v1, v2, v3]) * s)


def _scaled_pauli(a) -> tuple[float, float, float, float, float]:
    """(c, v1, v2, v3, s): the Pauli coordinates of m, for (m, s) the reading of a 2x2 a (see HermitianMatrix)."""
    m, s = _as_hermitian(a)._scaled
    if m.shape != (2, 2):
        raise DimensionMismatch(f"need a 2x2 matrix, got {m.shape}")
    return (*map(float, _pauli_parts(m)), s)


def matrix_from_pauli(c: float, v) -> HermitianMatrix:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DimensionMismatch(f"coefficient vector must have 3 entries, got {v.shape}")
    return HermitianMatrix(matrix_from_pauli_many(np.asarray(c), v))


def matrix_from_pauli_many(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) complex stack c*s0 + v.s for c of shape (...) and v of shape (..., 3)."""
    return (
        c[..., None, None] * SIGMA[0]
        + v[..., 0, None, None] * SIGMA[1]
        + v[..., 1, None, None] * SIGMA[2]
        + v[..., 2, None, None] * SIGMA[3]
    )


def hopf(xi) -> np.ndarray:
    """Bloch image (2Re(x1~ x2), 2Im(x1~ x2), |x1|^2 - |x2|^2) of a unit spinor."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape != (2,):
        raise DimensionMismatch(f"state vector must have 2 entries, got {xi.shape}")
    nrm = _finite_length(xi)
    if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN or inf whenever an entry is non-finite
        if not np.isfinite(xi).all():
            raise InvalidInput("state vector entries must be finite")
        raise NotNormalized(f"state vector has norm {nrm!r}")
    xi = xi / nrm
    cross = np.conj(xi[0]) * xi[1]
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(xi[0]) ** 2 - abs(xi[1]) ** 2])


def spinor(pairs) -> np.ndarray:
    """The complex vector whose entries are given as [re, im] pairs."""
    pairs = float_array(pairs, "xi")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DimensionMismatch(f"xi must be a list of [re, im] pairs, got shape {pairs.shape}")
    return pairs[:, 0] + 1j * pairs[:, 1]


def _read_vector(v, what: str, unit: float | None = None) -> tuple[np.ndarray, float]:
    """A 3-vector and its _finite_length (a Python float), divided by it when unit is given.

    Another shape is DimensionMismatch; text, a NaN or infinite entry, or a
    length more than unit off 1 is InvalidInput.
    """
    v = float_array(v, what).reshape(-1)
    if v.shape != (3,):
        raise DimensionMismatch(f"{what} must have 3 entries, got {v.shape}")
    nrm = _finite_length(v)
    if unit is None:
        if not nrm < math.inf:
            raise InvalidInput(f"{what} entries must be finite")
        return v, nrm
    if not abs(nrm - 1.0) <= unit:  # a NaN or infinite entry fails too
        raise InvalidInput(f"{what} must be finite and unit length, got norm {nrm!r}")
    return v / nrm, nrm


def _read_rows(vs, what: str, unit: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) rows and their lengths, each row read, and rounded, as _read_vector reads it alone."""
    vs = float_array(vs, what)
    if vs.ndim != 2 or vs.shape[1] != 3:
        raise DimensionMismatch(f"{what} must be an (N, 3) array, got shape {vs.shape}")
    norms = _finite_lengths(vs)
    bad = ~(norms < np.inf) if unit is None else ~(np.abs(norms - 1.0) <= unit)
    if bad.any():
        row = int(np.argmax(bad))
        _read_vector(vs[row], f"{what} row {row}", unit)  # raises with the scalar message
        raise InvalidInput(f"{what} row {row} has norm {float(norms[row])!r}")  # should the roundings part
    return (vs, norms) if unit is None else (vs / norms[:, None], norms)


def _angle(u, w):
    """Angles between unit vectors u (..., 3) and w (3,), each pairing rounded as for u alone."""
    return np.arccos(np.clip(_dots(u, w), -1.0, 1.0))


_REGION_FIELDS = {"full": (), "cap": ("center", "radius"), "hull": ("vertices",)}


class SphericalRegion:
    """A closed, geodesically convex sphere region with nonempty interior.

    Kinds: the full sphere; a cap of angular radius in (0, pi/2] around a
    unit center (angles measured on the sphere itself); or the geodesic
    hull of unit vertices lying strictly inside an open half-sphere.
    The induced cone of nonnegative multiples is full dimensional.

    Hulls are set up with cross products alone (see _hull_cone): the
    extreme vertices are kept in input order, with duplicates and
    vertices on an arc between others dropped, and the inward facet
    normals through pairs of them decide membership.
    """

    kind: str

    def __init__(self, kind: str, center=None, radius: float | None = None, vertices=None):
        self.kind = kind
        self.center = None
        self.radius = None
        self.vertices = None
        self._extreme = None
        self._facets = None
        if kind == "full":
            return
        if kind == "cap":
            self.center = _read_vector(center, "cap center", unit=1e-12)[0]
            radius = float_array(radius, "cap radius")
            if radius.shape != ():
                raise InvalidInput("cap radius must be a number")
            radius = float(radius)
            if not 0.0 < radius <= np.pi / 2.0 + GEOM_TOL:
                raise InvalidInput(f"cap radius must be in (0, pi/2], got {radius!r}")
            self.radius = min(radius, np.pi / 2.0)
            self.center.setflags(write=False)
            return
        if kind == "hull":
            verts = float_array(vertices, "hull vertices")
            if verts.ndim != 2 or verts.shape[1] != 3 or verts.shape[0] < 3:
                raise InvalidInput("hull needs at least 3 unit vertices of dimension 3")
            norms = _finite_lengths(verts, square_sums=True)
            if not np.max(np.abs(norms - 1.0)) <= _UNIT_TOL:  # a NaN or infinite entry fails too
                raise InvalidInput("hull vertices must be finite and unit length")
            verts = verts / norms[:, None]
            if np.linalg.matrix_rank(verts, tol=GEOM_TOL) < 3:
                raise InvalidInput("hull cone must be full dimensional")
            self._extreme, self._facets = _hull_cone(verts)
            self.vertices = verts
            self.vertices.setflags(write=False)
            self._extreme.setflags(write=False)
            self._facets.setflags(write=False)
            return
        raise InvalidInput(f"unknown region kind {kind!r}")

    # Constructors ---------------------------------------------------------

    @classmethod
    def full(cls) -> "SphericalRegion":
        return cls("full")

    @classmethod
    def cap(cls, center, radius: float) -> "SphericalRegion":
        return cls("cap", center=center, radius=radius)

    @classmethod
    def hull(cls, vertices) -> "SphericalRegion":
        return cls("hull", vertices=vertices)

    @classmethod
    def from_json(cls, data: dict) -> "SphericalRegion":
        if not isinstance(data, dict):
            raise InvalidInput("region JSON must be an object")
        kind = data.get("kind")
        if kind not in _REGION_FIELDS:
            raise InvalidInput(f"unknown region kind {kind!r}")
        missing = [name for name in _REGION_FIELDS[kind] if name not in data]
        if missing:
            raise InvalidInput(f"{kind} region JSON needs {', '.join(map(repr, missing))}")
        return cls(kind, **{name: data[name] for name in _REGION_FIELDS[kind]})

    def to_json(self) -> dict:
        if self.kind == "full":
            return {"kind": "full"}
        if self.kind == "cap":
            return {"kind": "cap", "center": self.center.tolist(), "radius": self.radius}
        return {"kind": "hull", "vertices": self.vertices.tolist()}

    @property
    def extreme_vertices(self) -> np.ndarray:
        if self.kind != "hull":
            raise InvalidInput("extreme vertices are defined for hull regions only")
        return self._extreme

    def __repr__(self):
        if self.kind == "cap":
            return f"SphericalRegion.cap({self.center.tolist()}, {self.radius})"
        if self.kind == "hull":
            return f"SphericalRegion.hull({len(self._extreme)} extreme vertices)"
        return "SphericalRegion.full()"

    # Membership -----------------------------------------------------------

    def _inside(self, units: np.ndarray, tol: float) -> np.ndarray:
        """Membership of unit vectors (..., 3): cap angle, hull facets, full sphere."""
        if self.kind == "full":
            return np.ones(units.shape[:-1], dtype=bool)
        if self.kind == "cap":
            return _angle(units, self.center) <= self.radius + tol
        return _fold(np.minimum, units @ self._facets.T) >= -tol

    def _dual(self, ds: np.ndarray, norms, tol: float) -> np.ndarray:
        """Dual-cone membership of vectors (..., 3) of lengths norms; a length up to tol is zero.

        Caps use the complementary angle, hulls only need the extreme
        vertices, and the full sphere dualizes to the origin.
        """
        zero = norms <= tol
        if self.kind == "full":
            return zero
        if self.kind == "cap":
            units = ds / np.where(zero, 1.0, norms)[..., None]
            return zero | (_angle(units, self.center) <= np.pi / 2.0 - self.radius + tol)
        return zero | (_fold(np.minimum, ds @ self._extreme.T) >= -tol * norms)

    def contains(self, u, tol: float = GEOM_TOL) -> bool:
        """Membership of a unit vector in the sphere region."""
        return bool(self._inside(_read_vector(u, "query point", unit=1e-6)[0], tol))

    def contains_many(self, pts, tol: float = GEOM_TOL) -> np.ndarray:
        """contains on each of the (N, 3) unit rows."""
        return self._inside(_read_rows(pts, "query points", unit=1e-6)[0], tol)

    def cone_contains(self, v, tol: float = GEOM_TOL) -> bool:
        v, nrm = _read_vector(v, "vector")
        return nrm <= tol or bool(self._inside(v / nrm, tol))

    def cone_contains_many(self, vs, tol: float = GEOM_TOL) -> np.ndarray:
        vs, norms = _read_rows(vs, "vectors")
        zero = norms <= tol
        return zero | self._inside(vs / np.where(zero, 1.0, norms)[:, None], tol)

    # Dual cone ------------------------------------------------------------

    def dual_contains(self, d, tol: float = GEOM_TOL) -> bool:
        """Membership of d in the dual cone {d : d.k >= 0 for all k in region}."""
        return bool(self._dual(*_read_vector(d, "vector"), tol))

    def dual_contains_many(self, ds, tol: float = GEOM_TOL) -> np.ndarray:
        return self._dual(*_read_rows(ds, "vectors"), tol)


def _hull_cone(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme rays, in input order, and inward unit facet normals of a hull cone.

    Everything comes from the pairwise cross products of the unit vertices.
    Gordan's alternative decides the half-sphere condition: the vertices
    lie in an open half-sphere iff 0 is not in their convex hull.  The
    cone's facet normals are among the signed cross products and generate
    its dual cone, so the sum of the vertices and the signed cross products
    that are nonnegative on all vertices is then an axis w with v.w > 0
    for every vertex v; it must clear every vertex by GEOM_TOL, the scale
    of the rank check.
    Vertices within GEOM_TOL of an earlier kept one are duplicates.  A pair
    of rays supports the cone when no ray lies more than GEOM_TOL outside
    its plane; the ends of supporting pairs are extreme unless they lie
    within GEOM_TOL of another supporting plane, strictly between its two
    rays.  The facets are the supporting pairs of extreme rays, listed by
    pair in input order and turned towards the sum of the extreme rays.
    """
    x, y = verts[:, [1, 2, 0]], verts[:, [2, 0, 1]]
    cross = x[:, None] * y[None] - y[:, None] * x[None]  # np.cross of every pair, bit for bit
    i, j = np.array(list(itertools.combinations(range(len(verts)), 2))).T
    cands = np.concatenate([cross[i, j], -cross[i, j], verts])
    w = cands[(cands @ verts.T >= -1e-12).all(axis=1)].sum(axis=0)
    if not (verts @ w).min() > GEOM_TOL * float(np.linalg.norm(w)):
        raise InvalidInput("hull vertices must lie strictly inside an open half-sphere")
    near = _finite_lengths(verts[:, None] - verts[None]) <= GEOM_TOL
    keep: list[int] = []
    for k in range(len(verts)):
        if not near[k, keep].any():
            keep.append(k)
    rays, keep = verts[keep], np.array(keep)
    a, b = np.array(list(itertools.combinations(range(len(keep)), 2))).T
    normals = cross[keep[a], keep[b]]
    norms = _finite_lengths(normals)
    side = rays @ normals.T
    side = np.where(side.sum(axis=0) < 0, -side, side)
    support = (side >= -GEOM_TOL * norms).all(axis=0)
    gram = rays @ rays.T
    # ray c lies on the arc strictly between a and b when c.a > a.b and c.b > a.b
    between = (np.abs(side) <= GEOM_TOL * norms) & (gram[:, a] > gram[a, b]) & (gram[:, b] > gram[a, b])
    ends = np.bincount(np.concatenate([a[support], b[support]]), minlength=len(keep)) > 0
    extreme = ends & ~between[:, support].any(axis=1)
    if extreme.sum() < 3:
        raise InvalidInput("hull cone must be full dimensional")
    facet = support & extreme[a] & extreme[b]
    units = normals[facet] / norms[facet, None]
    return rays[extreme], np.where((units @ rays[extreme].sum(axis=0) > 0)[:, None], units, -units)


def iso_membership(region: SphericalRegion, a, tol: float = GEOM_TOL) -> bool:
    """Cone membership of a hermitian 2x2 matrix; the identity part is free, a traceless part up to tol * s is 0."""
    return region.cone_contains(_scaled_pauli(a)[1:4], tol=tol)


# --------------------------------------------------------------------------
# States


class PureStatePoint:
    """A projective qubit state, carried as its unit Bloch vector."""

    def __init__(self, bloch):
        self.bloch = _read_vector(bloch, "Bloch vector", unit=_UNIT_TOL)[0]
        self.bloch.setflags(write=False)

    @classmethod
    def from_xi(cls, xi) -> "PureStatePoint":
        return cls(hopf(xi))

    @classmethod
    def from_bloch(cls, bloch) -> "PureStatePoint":
        return cls(bloch)

    @classmethod
    def from_json(cls, data: dict) -> "PureStatePoint":
        if isinstance(data, dict) and "xi" in data:
            return cls.from_xi(spinor(data["xi"]))
        if isinstance(data, dict) and "bloch" in data:
            return cls.from_bloch(data["bloch"])
        raise InvalidInput('state JSON needs "xi" or "bloch"')

    def to_json(self) -> dict:
        return {"bloch": self.bloch.tolist()}


class DensityState:
    """A 2x2 density matrix, carried as its Bloch vector of length <= 1."""

    def __init__(self, bloch):
        b, nrm = _read_vector(bloch, "density Bloch vector")
        if not nrm <= 1.0 + 1e-12:
            raise InvalidInput("density Bloch vector must be finite with norm <= 1")
        b.setflags(write=False)
        self.bloch = b

    @classmethod
    def from_json(cls, data: dict) -> "DensityState":
        if isinstance(data, dict) and "bloch" in data:
            return cls(data["bloch"])
        raise InvalidInput('density state JSON needs "bloch"')

    def to_json(self) -> dict:
        return {"bloch": self.bloch.tolist()}


def _bloch_relation(region: SphericalRegion, b1, b2, tol: float = GEOM_TOL) -> str:
    d = b2 - b1
    nrm = _finite_length(d)
    if nrm <= tol:
        return "equal"
    if region._dual(d, nrm, tol):
        return "less"
    return "greater" if region._dual(-d, nrm, tol) else "incomparable"


def pure_state_order(region: SphericalRegion, p: PureStatePoint, q: PureStatePoint, tol: float = GEOM_TOL) -> str:
    """Relation of two pure states under the region's cone.

    p is below q exactly when every region point pairs no higher with p
    than with q, which is the dual-cone test on the Bloch difference.
    """
    return _bloch_relation(region, p.bloch, q.bloch, tol=tol)


_RELATIONS = np.array(["equal", "less", "greater", "incomparable"], dtype=object)


def pure_state_order_many(region: SphericalRegion, P, Q, tol: float = GEOM_TOL) -> list[str]:
    """pure_state_order row by row on (N, 3) arrays of unit Bloch vectors.

    One dual-cone batch test of d = q - p decides "less" (and "equal");
    the reverse test of -d runs only on the rows it leaves open.  On caps and
    the full sphere row i's relation is exactly that of PureStatePoint(P[i])
    and PureStatePoint(Q[i]).  A hull pairs all rows with its vertices in one
    matrix product, so there a pair within rounding of tol may go either way.
    """
    return _RELATIONS[_order_codes(region, P, Q, tol)].tolist()


def _order_codes(region: SphericalRegion, P, Q, tol: float) -> np.ndarray:
    """pure_state_order_many's relations as uint8 indices into _RELATIONS."""
    P = _read_rows(P, "Bloch vectors p", unit=_UNIT_TOL)[0]
    Q = _read_rows(Q, "Bloch vectors q", unit=_UNIT_TOL)[0]
    if P.shape != Q.shape:
        raise DimensionMismatch(f"p and q must hold the same number of rows, got {len(P)} and {len(Q)}")
    d = Q - P
    norms = _finite_lengths(d)
    less = region._dual(d, norms, tol)  # also true where norms <= tol
    codes = np.where(less, np.uint8(1), np.uint8(3))
    codes[norms <= tol] = 0
    rest = np.flatnonzero(~less)
    codes[rest[region._dual(-d.take(rest, axis=0), norms.take(rest), tol)]] = 2
    return codes


def state_order(region: SphericalRegion, rho: DensityState, sigma: DensityState, tol: float = GEOM_TOL) -> str:
    """Relation of two density states; restricts to pure_state_order on the sphere."""
    return _bloch_relation(region, rho.bloch, sigma.bloch, tol=tol)


def fubini_study(p: PureStatePoint, q: PureStatePoint) -> float:
    """Projective distance arccos(b1.b2)/2 in [0, pi/2]; pole to equator is pi/4."""
    return float(_angle(p.bloch, q.bloch)) / 2.0


def transition_probability(p: PureStatePoint, q: PureStatePoint) -> float:
    """Squared overlap |<xi|eta>|^2 = cos^2 of the projective distance."""
    return float(np.cos(fubini_study(p, q)) ** 2)


# --------------------------------------------------------------------------
# Transversality and join coefficients


@dataclass(frozen=True)
class TransversalityResult:
    classification: str
    eigenvalues: tuple[complex, complex]
    axis: np.ndarray | None

    def to_json(self) -> dict:
        out: dict = {"classification": self.classification}
        out["eigenvalues"] = [[z.real, z.imag] for z in self.eigenvalues]
        if self.axis is not None:
            out["axis"] = self.axis.tolist()
        return out


def transversality(region: SphericalRegion, n, tol: float = GEOM_TOL) -> TransversalityResult:
    """Classify a normal 2x2 matrix against the region's cone.

    Everything is read from m = n / s, with s the power of two just above
    the largest real or imaginary part of n (see hermitian._read_matrix), so
    no product of entries overflows.  With m = c*s0 + w.s in complex Pauli
    coordinates, the commutator [m, m*] is 4 (Re w x Im w).s, so its largest
    entry is 4 max(|x3|, hypot(x1, x2)) for x = Re w x Im w, and n is normal
    when that is at most 1e-9.  With mu the principal square root of w.w,
    the eigenvalues are c + mu and c - mu, and u = Re(w / mu), normalised,
    is the axis of c + mu: for a normal m, w = mu * u with u real, while in
    general z = w / mu has z.z = 1, so Re(z) is never shorter than 1.  The
    eigenvalues s*l are ordered descending by real part, then imaginary
    part, as computed (not by the sign of mu), and the axis of the first one
    is u or -u.  Membership of u alone means the second eigenvalue sits
    below the first, of -u alone the reverse, of both an incomparable
    two-point spectrum, of neither no transverse commutative subalgebra.
    Two eigenvalues l within 1e-10 are reported as scalar rather than forced
    into one of the four cases.

    The closed form takes no numpy matrix product, no LAPACK
    eigendecomposition and no Hopf map of an eigenvector, and u, a unit
    vector by construction, goes straight to region._inside without
    contains reading it again: about half the time of a call (2x2, x86-64,
    numpy 2.4).
    """
    n = np.asarray(n, dtype=complex)
    if n.shape != (2, 2):
        raise DimensionMismatch(f"need a 2x2 matrix, got {n.shape}")
    m, s = _read_matrix(n)
    (m00, m01), (m10, m11) = m.tolist()
    c, w = (m00 + m11) / 2.0, ((m01 + m10) / 2.0, (m01 - m10) * 0.5j, (m00 - m11) / 2.0)
    (a1, a2, a3), (b1, b2, b3) = [wi.real for wi in w], [wi.imag for wi in w]
    x1, x2, x3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    gap = 4.0 * max(abs(x3), math.hypot(x1, x2))
    if gap > 1e-9:
        raise NotNormal(f"matrix is {gap:.2e} of its scale squared away from normal")
    mu = cmath.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    vals = [c + mu, c - mu]
    top = int((vals[1].real, vals[1].imag) > (vals[0].real, vals[0].imag))
    lam1, lam2 = vals[top] * s, vals[1 - top] * s
    if abs(vals[top] - vals[1 - top]) <= 1e-10:
        return TransversalityResult("scalar", (lam1, lam2), None)
    x = [(wi / mu).real for wi in w]
    u = np.array(x) * ((-1.0 if top else 1.0) / math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]))
    in_plus, in_minus = bool(region._inside(u, tol)), bool(region._inside(-u, tol))
    if in_plus and in_minus:
        tag = "incomparable_spectrum"
    elif in_plus:
        tag = "lambda2_below_lambda1"
    elif in_minus:
        tag = "lambda1_below_lambda2"
    else:
        tag = "not_transverse"
    return TransversalityResult(tag, (lam1, lam2), u)


def join_coeffs_from_difference(t: float, r: float) -> tuple[float, float]:
    """Join coefficients ((1 + k) / 2, (h - k*t) / 2) from the difference's halved trace t and traceless length r,
    with h = max(|t|, r) and k = t / h as in hermitian._hk, on Python floats."""
    h = max(abs(t), r)
    k = t / h if h > 0.0 else t
    return (1.0 + k) / 2.0, (h - k * t) / 2.0


def join_coeffs_many(t, r) -> tuple[np.ndarray, np.ndarray]:
    """join_coeffs_from_difference elementwise, on arrays of t and r."""
    t = np.asarray(t, dtype=float)
    h, k = _hk(t, np.asarray(r, dtype=float))
    return (1.0 + k) / 2.0, (h - k * t) / 2.0


def join_coeffs(a, b) -> tuple[float, float]:
    """Coefficients with join(a, b) = alpha*a + (1-alpha)*b + beta*s0.

    With t the halved trace of d = a - b, r the length of its traceless part,
    h = max(|t|, r) and k = t / h (0 where h = 0), |d| = h*s0 + k*(d - t*s0)
    (hermitian._abs2), so alpha = (1 + k) / 2 and beta = (h - k*t) / 2.  In
    floating point too |k| <= 1 and 0 <= k*t <= h, so alpha is in [0, 1] and
    beta >= 0.  Comparable pairs give (1, 0) or (0, 0), equal ones (1/2, 0).
    t and r are read over the larger scale s of the pair (see HermitianMatrix),
    r summed as _abs2 sums it, so nothing overflows.
    """
    *pa, sa = _scaled_pauli(a)
    *pb, sb = _scaled_pauli(b)
    s = max(sa, sb)
    t, v1, v2, v3 = (x * (sa / s) - y * (sb / s) for x, y in zip(pa, pb))
    alpha, beta = join_coeffs_from_difference(t, math.sqrt(v1 * v1 + v2 * v2 + v3 * v3))
    return alpha, beta * s


@dataclass(frozen=True)
class M2CoboundedWitness:
    a: HermitianMatrix
    b: HermitianMatrix
    k1: np.ndarray
    k2: np.ndarray
    norm_a: float
    norm_b: float
    norm_sum: float

    @property
    def slack(self) -> float:
        return self.norm_a + self.norm_b - self.norm_sum

    def to_json(self) -> dict:
        return {
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "k1": self.k1.tolist(),
            "k2": self.k2.tolist(),
            "norm_a": self.norm_a,
            "norm_b": self.norm_b,
            "norm_sum": self.norm_sum,
            "slack": self.slack,
        }


def _orthogonal_to(u: np.ndarray) -> np.ndarray:
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(u)))] = 1.0
    w = np.cross(u, pick)
    return w / np.linalg.norm(w)


def cobounded_witness(region: SphericalRegion) -> M2CoboundedWitness | None:
    """Two positive cone members breaking norm additivity.

    With distinct unit region points k1 and k2, the matrices s0 + k1.s and
    s0 + k2.s each have norm 2 while their sum has norm 2 + |k1 + k2| < 4.
    Any valid region has interior, so such a pair always exists.
    """
    if region.kind == "full":
        k1, k2 = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    elif region.kind == "cap":
        w = _orthogonal_to(region.center)
        k1 = np.cos(region.radius) * region.center + np.sin(region.radius) * w
        k2 = np.cos(region.radius) * region.center - np.sin(region.radius) * w
    else:
        rays = region.extreme_vertices
        gram = rays @ rays.T
        np.fill_diagonal(gram, np.inf)
        i, j = np.unravel_index(int(np.argmin(gram)), gram.shape)
        k1, k2 = rays[i], rays[j]
    if np.linalg.norm(k1 - k2) <= 1e-12:
        return None
    a = matrix_from_pauli(1.0, k1)
    b = matrix_from_pauli(1.0, k2)
    norm_sum = 2.0 + float(np.linalg.norm(k1 + k2))
    return M2CoboundedWitness(a, b, k1, k2, 2.0, 2.0, norm_sum)


def rotation_preserves(region: SphericalRegion, rot, tol: float = GEOM_TOL) -> bool:
    """Whether a rotation maps the region onto itself.

    Caps require the center to be fixed, hulls that the extreme vertices
    are permuted; the full sphere accepts every rotation.
    """
    rot = float_array(rot, "rotation")
    if rot.shape != (3, 3):
        raise DimensionMismatch(f"rotation must be 3x3, got {rot.shape}")
    if not np.isfinite(rot).all():
        raise InvalidInput("rotation entries must be finite")
    if np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-9 or abs(np.linalg.det(rot) - 1.0) > 1e-9:
        raise NotARotation("matrix is not orthogonal with determinant one")
    if region.kind == "full":
        return True
    if region.kind == "cap":
        return float(np.linalg.norm(rot @ region.center - region.center)) <= tol
    rays = region.extreme_vertices
    moved = rays @ rot.T
    used = [False] * rays.shape[0]
    for m in moved:
        hit = None
        for idx in range(rays.shape[0]):
            if not used[idx] and np.linalg.norm(m - rays[idx]) <= tol:
                hit = idx
                break
        if hit is None:
            return False
        used[hit] = True
    return True
