import hashlib
import io
import itertools
import json
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ordercones import cli, hermitian, m2
from ordercones.errors import DimensionMismatch, DomainError, InvalidInput, NotARotation, NotHermitian, NotNormal, NotNormalized
from ordercones.hermitian import (
    HermitianMatrix,
    _finite_length,
    _finite_lengths,
    _scale,
    complex_matrix_from_json,
    func_calc,
    nonnegative_sqrt,
    spectral,
)
from ordercones.m2 import (
    SIGMA,
    DensityState,
    PureStatePoint,
    SphericalRegion,
    cobounded_witness,
    fubini_study,
    hopf,
    iso_membership,
    join_coeffs,
    join_coeffs_from_difference,
    join_coeffs_many,
    matrix_from_pauli,
    matrix_from_pauli_many,
    pauli_coords,
    pure_state_order,
    pure_state_order_many,
    rotation_preserves,
    state_order,
    transition_probability,
    transversality,
)
from ordercones.hermitian import classify, lattice_ops, projection_decomposition, projection_decomposition_many
from ordercones.isotone_cone import DEFAULT_TOL, is_isotone
from ordercones.poset import build_preorder
from ordercones.sampling import region_fixtures, sample_cone_members, sample_region_points

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)


# --------------------------------------------------------------------------
# coordinates and the Hopf map


def test_pauli_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = float(rng.normal())
        v = rng.normal(size=3)
        coords = pauli_coords(matrix_from_pauli(c, v))
        assert abs(coords.c - c) <= 1e-12
        assert np.max(np.abs(coords.v - v)) <= 1e-12


def test_hopf_reference_points():
    assert np.allclose(hopf([1, 0]), [0, 0, 1])
    assert np.allclose(hopf([1 / np.sqrt(2), 1 / np.sqrt(2)]), [1, 0, 0])
    assert np.allclose(hopf([1 / np.sqrt(2), 1j / np.sqrt(2)]), [0, 1, 0])


def test_hopf_ignores_global_phase():
    rng = np.random.default_rng(1)
    for _ in range(20):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert np.allclose(hopf(xi), hopf(phase * xi), atol=1e-12)
        assert abs(np.linalg.norm(hopf(xi)) - 1.0) <= 1e-12


def test_hopf_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        hopf([1.0, 1.0])


# --------------------------------------------------------------------------
# regions


def test_region_validation():
    with pytest.raises(InvalidInput):
        SphericalRegion.cap([0, 0, 2], 0.3)
    with pytest.raises(InvalidInput):
        SphericalRegion.cap(E3, 0.0)
    with pytest.raises(InvalidInput):
        SphericalRegion.cap(E3, 2.0)
    # antipodal vertices are not inside an open half-sphere
    with pytest.raises(InvalidInput):
        SphericalRegion.hull([[0, 0, 1], [0, 0, -1], [1, 0, 0]])
    # coplanar-through-origin vertices span a flat cone
    with pytest.raises(InvalidInput):
        SphericalRegion.hull([[1, 0, 0], [0, 1, 0], [np.sqrt(0.5), np.sqrt(0.5), 0]])


def test_cap_membership():
    cap = SphericalRegion.cap(E3, 0.3)
    assert cap.contains(E3)
    assert not cap.contains(-E3)
    assert SphericalRegion.full().contains(-E3)


def test_cap_membership_boundary():
    cap = SphericalRegion.cap(E3, 0.3)
    inside = rotation(E1, 0.29) @ E3
    outside = rotation(E1, 0.31) @ E3
    assert cap.contains(inside)
    assert not cap.contains(outside)


def _triple_inverses(rays: np.ndarray) -> np.ndarray:
    """Inverses of the nonsingular ray triples, (T, 3, 3)."""
    inv = [
        np.linalg.inv(rays[list(idx)].T)
        for idx in itertools.combinations(range(len(rays)), 3)
        if abs(np.linalg.det(rays[list(idx)])) > 1e-9
    ]
    return np.array(inv).reshape(-1, 3, 3)


def oracle_margin(rays: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed Caratheodory margin of each row, positive inside cone(rays).

    In three dimensions u lies in the cone exactly when u = R_T c with
    c >= 0 for some triple T of rays; the margin is the best triple's
    smallest coefficient.  Rays with no nonsingular triple span a flat
    cone, which no unit vector off their plane is in.
    """
    coeffs = np.einsum("tij,nj->nti", _triple_inverses(rays), pts)
    return coeffs.min(axis=2).max(axis=1, initial=-np.inf)


def brute_force_extreme(verts) -> np.ndarray:
    """Deduplicated unit vertices outside the cone of the others, in input order."""
    verts = np.asarray(verts, dtype=float)
    verts = verts / np.linalg.norm(verts, axis=1)[:, None]
    uniq: list[np.ndarray] = []
    for v in verts:
        if all(np.linalg.norm(v - u) > 1e-9 for u in uniq):
            uniq.append(v)
    rays = np.array(uniq)
    if len(rays) <= 3:
        return rays
    keep = [i for i in range(len(rays)) if oracle_margin(np.delete(rays, i, axis=0), rays[i : i + 1])[0] < -1e-7]
    return rays[keep]


def random_hulls(seed: int, count: int) -> list[np.ndarray]:
    """Seeded hull vertex sets, 3-8 vertices within 1.3 rad of a random axis."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(3, 9))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        tilt = rng.uniform(0.1, 1.3, size=k)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=k)
        side = np.cross(axis, np.eye(3)[int(np.argmin(np.abs(axis)))])
        side /= np.linalg.norm(side)
        other = np.cross(axis, side)
        ring = np.cos(phi)[:, None] * side + np.sin(phi)[:, None] * other
        out.append(np.cos(tilt)[:, None] * axis + np.sin(tilt)[:, None] * ring)
    return out


def oracle_hulls() -> list[tuple[str, SphericalRegion]]:
    fixtures = [(name, r) for name, r in region_fixtures() if r.kind == "hull"]
    return fixtures + [(f"random-{i}", SphericalRegion.hull(v)) for i, v in enumerate(random_hulls(17, 40))]


def test_hull_membership_matches_caratheodory_oracle():
    rng = np.random.default_rng(2)
    for name, region in oracle_hulls():
        rays = region.extreme_vertices
        near = rng.exponential(size=(1500, len(rays))) @ rays + rng.normal(scale=0.2, size=(1500, 3))
        pts = np.vstack([rng.normal(size=(1500, 3)), near])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        margin = oracle_margin(rays, pts)
        clear = np.abs(margin) >= 1e-7
        expected = margin[clear] > 0
        assert expected.any() and not expected.all(), name
        assert np.array_equal(region.contains_many(pts)[clear], expected), name
        scalar = np.array([region.contains(u) for u in pts[clear]])
        assert np.array_equal(scalar, expected), name


def test_hull_extreme_vertices_match_brute_force():
    hulls = [r.vertices for _, r in region_fixtures() if r.kind == "hull"] + random_hulls(18, 60)
    for verts in hulls:
        expected = brute_force_extreme(verts)
        assert np.array_equal(SphericalRegion.hull(verts).extreme_vertices, expected)


def test_hull_drops_duplicate_and_arc_vertices():
    a = np.array([0.6, 0.0, 0.8])
    b = np.array([-0.3, np.sqrt(0.27), 0.8])
    c = np.array([-0.3, -np.sqrt(0.27), 0.8])
    arc = (a + b) / np.linalg.norm(a + b)
    inner = (a + b + c) / np.linalg.norm(a + b + c)
    near_a = a + np.array([0.0, 1e-10, 0.0])
    verts = [inner, a, arc, b, a, near_a / np.linalg.norm(near_a), c]
    region = SphericalRegion.hull(verts)
    assert np.allclose(region.extreme_vertices, [a, b, c], rtol=0.0, atol=1e-15)
    assert np.array_equal(region.extreme_vertices, brute_force_extreme(verts))
    assert region.contains(arc) and region.contains(inner)


@st.composite
def _hull_with_insert(draw):
    """A seeded random hull with a duplicate, arc midpoint or interior point inserted."""
    verts = random_hulls(draw(st.integers(0, 2**32 - 1)), 1)[0]
    region = SphericalRegion.hull(verts)
    extreme = region.extreme_vertices
    kind = draw(st.sampled_from(["duplicate", "arc", "interior"]))
    if kind == "duplicate":
        extra = verts[draw(st.integers(0, len(verts) - 1))]
    elif kind == "arc":
        # the midpoint of the two ends of one facet
        facet = region._facets[draw(st.integers(0, len(extreme) - 1))]
        extra = extreme[np.abs(extreme @ facet) <= 1e-9].sum(axis=0)
    else:
        extra = extreme.sum(axis=0) + extreme[draw(st.integers(0, len(extreme) - 1))]
    at = draw(st.integers(0, len(verts)))
    return np.insert(verts, at, extra / np.linalg.norm(extra), axis=0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_hull_with_insert())
def test_hull_cone_matches_brute_force_with_inserted_vertex(verts):
    region = SphericalRegion.hull(verts)
    extreme, facets = region.extreme_vertices, region._facets
    assert np.array_equal(extreme, brute_force_extreme(verts))
    assert len(facets) == len(extreme)
    assert np.allclose(np.linalg.norm(facets, axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert (region.vertices @ facets.T).min() >= -1e-9
    assert ((np.abs(extreme @ facets.T) <= 1e-9).sum(axis=0) == 2).all()


def test_hull_cone_bytes_are_pinned():
    hulls = [r.vertices for _, r in region_fixtures() if r.kind == "hull"] + random_hulls(23, 200)
    digest = hashlib.sha256()
    for verts in hulls:
        region = SphericalRegion.hull(verts)
        for arr in (region.extreme_vertices, region._facets):
            digest.update(np.array(arr.shape).tobytes() + arr.tobytes())
    assert digest.hexdigest() == "a23a63da6bb8322af520da976db815a85cf161890048563e0219d1d833627f8d"


@pytest.mark.parametrize("delta, kept", [(5e-10, False), (1e-7, True)])
def test_hull_vertex_just_outside_an_arc(delta, kept):
    # a vertex more than 1e-9 outside the plane of two extreme vertices is
    # extreme; one closer than that counts as lying on their arc
    a = np.array([0.6, 0.0, 0.8])
    b = np.array([-0.3, np.sqrt(0.27), 0.8])
    c = np.array([-0.3, -np.sqrt(0.27), 0.8])
    normal = np.cross(a, b)
    normal /= np.linalg.norm(normal) * np.sign(normal @ c)
    mid = (a + b) / np.linalg.norm(a + b) - delta * normal
    mid /= np.linalg.norm(mid)
    region = SphericalRegion.hull([a, mid, b, c])
    expected = [a, mid, b, c] if kept else [a, b, c]
    assert np.array_equal(region.extreme_vertices, np.array(expected))


@pytest.mark.parametrize(
    "verts",
    [
        # an antipodal pair with one or two more vertices
        [[0, 0, 1], [0, 0, -1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0]],
        # vertices surrounding the origin: a regular tetrahedron
        (np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)).tolist(),
        # an equator triple around the origin plus the pole spans a closed half-space
        [[1, 0, 0], [-0.5, np.sqrt(0.75), 0], [-0.5, -np.sqrt(0.75), 0], [0, 0, 1]],
        # great-circle triples span a flat cone
        [[1, 0, 0], [0, 1, 0], [np.sqrt(0.5), np.sqrt(0.5), 0]],
        [[1, 0, 0], [-0.5, np.sqrt(0.75), 0], [-0.5, -np.sqrt(0.75), 0]],
    ],
)
def test_hull_rejects_degenerate_vertices(verts):
    with pytest.raises(InvalidInput):
        SphericalRegion.hull(verts)


def test_cone_contains_zero_vector():
    cap = SphericalRegion.cap(E3, 0.3)
    assert cap.cone_contains([0.0, 0.0, 0.0])
    assert cap.cone_contains(5.0 * E3)
    assert not cap.cone_contains(-5.0 * E3)


@pytest.mark.parametrize("kind", ["cap", "hull", "full"])
@pytest.mark.parametrize(
    "value, error",
    [([np.nan, 0.0, 0.0], InvalidInput), ([np.inf, 0.0, 0.0], InvalidInput), ([1.0, 2.0], DimensionMismatch), ("abc", InvalidInput)],
)
def test_scalar_cone_and_dual_membership_check_their_input(kind, value, error):
    region = {name.split("-")[0]: region for name, region in region_fixtures()}[kind]
    with pytest.raises(error):
        region.cone_contains(value)
    with pytest.raises(error):
        region.dual_contains(value)


_FIXTURES = dict(region_fixtures())


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _FIXTURES["full"].contains_many([[0.0, 0.0, 1.0, 0.0]]), DimensionMismatch),
        (lambda: _FIXTURES["full"].contains_many([[np.nan, 0.0, 1.0]]), InvalidInput),
        (lambda: _FIXTURES["hull-spread"].dual_contains_many([[np.inf, 0.0, 0.0]]), InvalidInput),
        (lambda: _FIXTURES["cap-0.3"].contains_many([[np.inf, 0.0, 0.0]]), InvalidInput),
        (lambda: _FIXTURES["cap-0.3"].cone_contains_many([0.0, 0.0, 1.0]), DimensionMismatch),
        (lambda: _FIXTURES["hull-square"].cone_contains_many([["x", 0.0, 1.0]]), InvalidInput),
    ],
    ids=["wrong-width", "nan", "inf-dual", "inf-cap", "flat", "text"],
)
def test_batch_membership_checks_its_input_as_the_scalar_does(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


def test_batch_readers_refuse_a_bad_row_even_where_the_scalar_reader_passes_it(monkeypatch):
    # Should a row length ever round unlike the scalar one at the unit edge,
    # the row is still refused rather than handed back normalised.
    monkeypatch.setattr(m2, "_read_vector", lambda *args: None)
    with pytest.raises(InvalidInput, match="row 1"):
        _FIXTURES["full"].contains_many([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    with pytest.raises(InvalidInput, match="row 0"):
        _FIXTURES["hull-spread"].dual_contains_many([[np.inf, 0.0, 0.0]])


def _boundary_directions(rng, center, angles, n):
    """n unit vectors at the given angles from center, each moved by up to 64 ulps of its angle."""
    e1 = np.cross(center, rng.normal(size=3))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    theta = rng.choice(angles, size=n) * (1.0 + rng.integers(-64, 65, size=n) * 2.0**-52)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.cos(theta)[:, None] * center + np.sin(theta)[:, None] * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2)


@pytest.mark.parametrize("name", ["cap-0.1", "cap-pi4", "cap-pi2", "cap-tilted", "full", "hull-skew", "hull-square"])
def test_batch_membership_and_order_equal_the_scalar_forms_row_by_row(name):
    # 1e5 rows over the regions.  On caps and the full sphere every row
    # sits within 64 ulps of an angle the cap rules compare against, or has
    # a length within ulps of tol, so any rounding the batch forms took
    # differently from the scalar ones would show.  Hulls pair rows with
    # their facets in one matrix product, so they are checked on random rows.
    region = SphericalRegion.cap([0.48, -0.6, 0.64], 0.7) if name == "cap-tilted" else _FIXTURES[name]
    rng = np.random.default_rng(18)
    n = 3584  # four blocks of n rows on each of the seven regions
    if region.kind == "cap":
        r, tol = region.radius, 1e-9
        units = _boundary_directions(rng, region.center, [r + tol, np.pi / 2.0 - r + tol], 4 * n)
    else:
        units = rng.normal(size=(4 * n, 3))
        units /= np.linalg.norm(units, axis=1)[:, None]
    lengths = 10.0 ** rng.uniform(-160.0, 160.0, size=n)
    lengths[: n // 4] = 1e-9 * (1.0 + rng.integers(-64, 65, size=n // 4) * 2.0**-52)
    lengths[n // 4 : n // 2] = rng.choice([1e-160, 1e160], size=n // 4)
    vs = units[:n] * lengths[:, None]
    near_unit = units[n : 2 * n] * (1.0 + rng.uniform(-1e-7, 1e-7, size=n))[:, None]
    assert region.contains_many(near_unit).tolist() == [region.contains(u) for u in near_unit]
    assert region.cone_contains_many(vs).tolist() == [region.cone_contains(v) for v in vs]
    assert region.dual_contains_many(vs).tolist() == [region.dual_contains(d) for d in vs]
    # Pairs (-u, u) and (u, -u) put the Bloch difference on the dual boundary; the
    # rest are random pairs, one side up to 1e-10 off unit length.
    P = np.concatenate([-units[2 * n : 2 * n + n // 4], units[2 * n + n // 4 : 2 * n + n // 2], units[3 * n : 3 * n + n // 2]])
    Q = np.concatenate([-P[: n // 2], units[3 * n + n // 2 : 4 * n] * (1.0 + rng.uniform(-1e-10, 1e-10, size=n // 2))[:, None]])
    batch = pure_state_order_many(region, P, Q)
    assert batch == [pure_state_order(region, PureStatePoint(p), PureStatePoint(q)) for p, q in zip(P, Q)]


def _off_boundary_rows(region):
    """Unit rows 2e-9 either side of the region's boundary (and of a cap's dual boundary)."""
    if region.kind == "full":
        return np.empty((0, 3))
    if region.kind == "cap":
        perp = np.cross(region.center, np.random.default_rng(21).normal(size=(8, 3)))
        perp /= np.linalg.norm(perp, axis=1)[:, None]
        angles = np.repeat([region.radius, np.pi / 2 - region.radius], 4)[:, None] + np.tile([-2e-9, 2e-9], 4)[:, None]
        return np.cos(angles) * region.center + np.sin(angles) * perp
    rows = []
    for normal in region._facets:
        # the midpoint of the facet's edge, between the two extreme vertices on its plane
        mid = region.extreme_vertices[np.abs(region.extreme_vertices @ normal) <= 1e-12].sum(axis=0)
        mid /= np.linalg.norm(mid)
        rows += [mid - 2e-9 * normal, mid + 2e-9 * normal]
    return np.array(rows) / np.linalg.norm(rows, axis=1)[:, None]


def test_cone_and_dual_membership_of_huge_vectors_batch_as_scalar():
    # The squares of these entries overflow; the lengths must not, so the
    # batch answers as the scalar does, without a warning.  The same holds
    # for rows 2e-9 off each boundary and rows of length tol*(1 +- 1e-15).
    rows = np.array([
        [0.0, 0.0, 1e200], [0.0, 0.0, -1e200], [1e200, 0.0, 0.0], [1e200, 1e200, 1e200],
        [0.0, 1e-9, 1e200], [3e307, 0.0, 1e308], [0.0, 0.0, 1.0], [1e-300, 0.0, 0.0], [0.0, 0.0, 0.0],
    ])
    units = np.random.default_rng(22).normal(size=(6, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    short = np.concatenate([units * 1e-9 * (1 - 1e-15), units * 1e-9 * (1 + 1e-15)])
    regions = [SphericalRegion.cap(E3, 0.3), SphericalRegion.cap(np.ones(3) / np.sqrt(3.0), np.pi / 2), SphericalRegion.full()]
    regions += [region for _, region in region_fixtures() if region.kind in ("cap", "hull")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for region in regions:
            edge = _off_boundary_rows(region)
            vs = np.concatenate([rows, short, edge, -edge])
            assert region.cone_contains_many(vs).tolist() == [region.cone_contains(v) for v in vs]
            assert region.dual_contains_many(vs).tolist() == [region.dual_contains(d) for d in vs]
            assert region.contains_many(edge).tolist() == [region.contains(u) for u in edge]
            if region.kind == "cap":
                assert region.contains_many(edge[:4]).tolist() == [True, False] * 2
                if region.radius < 1.5:  # arccos cannot tell angles near 0 apart below about 1.5e-8
                    assert region.dual_contains_many(edge[4:]).tolist() == [True, False] * 2
            elif region.kind == "hull":
                assert region.contains_many(edge).tolist() == [False, True] * len(region._facets)
            assert region.cone_contains_many(short).tolist() == [True] * 6 + [region.cone_contains(u) for u in units]
    cap = regions[0]
    assert cap.cone_contains_many(rows[[0, 6]]).tolist() == [True, True]
    assert cap.dual_contains([0.0, 0.0, 1e200]) and not cap.dual_contains([0.0, 0.0, -1e200])
    assert regions[3].dual_contains_many(rows[:2]).tolist() == [True, False]


def test_unit_vectors_with_overflowing_entries_are_invalid_input_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for huge in ([1e200, 0.0, 0.0], [0.0, 3e307, 1e308]):
            with pytest.raises(InvalidInput, match="unit length"):
                PureStatePoint(huge)
            with pytest.raises(InvalidInput, match="unit length"):
                SphericalRegion.cap(huge, 0.3)
            with pytest.raises(InvalidInput, match="unit length"):
                SphericalRegion.full().contains(huge)
            with pytest.raises(InvalidInput, match="row 1"):
                pure_state_order_many(SphericalRegion.full(), [E3, huge], [E3, E1])
    with pytest.raises(InvalidInput) as batch:
        pure_state_order_many(SphericalRegion.full(), [[1e200, 0.0, 0.0]], [E3])
    with pytest.raises(InvalidInput) as scalar:
        PureStatePoint([1e200, 0.0, 0.0])
    assert str(batch.value) == "Bloch vectors p row 0 must be finite and unit length, got norm 1e+200"
    assert str(scalar.value).endswith("got norm 1e+200")


def test_finite_lengths_keep_the_bits_of_the_plain_norm():
    # Each row's length is np.linalg.norm of that row alone, bit for bit, in
    # every memory layout the rows may arrive in, for 3-vectors and spinors.
    # At 1e-300 the plain squares underflow, so there the reference is the
    # plain norm of the row times 2**1000, scaled back: exact, as the length
    # is taken on the row over a power of two.
    rng = np.random.default_rng(16)
    for scale in (1e-300, 1e-5, 1.0, 1e100, 1e149, 1e150, 1e153):
        k = 1000 if scale < 1e-200 else 0
        vs = rng.normal(size=(2000, 3)) * scale
        plain = [float(np.linalg.norm(v * 2.0**k)) * 2.0**-k for v in vs]
        assert [_finite_length(v) for v in vs] == plain
        wide = np.zeros((2000, 6))
        wide[:, ::2] = vs
        for rows in (vs, np.asfortranarray(vs), wide[:, ::2], vs[::-1][::-1]):
            assert _finite_lengths(rows).tolist() == plain
        assert _finite_lengths(vs.reshape(500, 4, 3)).reshape(-1).tolist() == plain
        xi = (rng.normal(size=(2000, 2)) + 1j * rng.normal(size=(2000, 2))) * scale
        plain = [float(np.linalg.norm(x * 2.0**k)) * 2.0**-k for x in xi]
        assert [_finite_length(x) for x in xi] == plain
        assert _finite_lengths(xi).tolist() == plain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v, want in (([3.0, 4.0, 0.0], 5.0), ([3.0 + 4.0j, 0.0], 5.0)):
            v = np.array(v) * 2.0**700
            assert _finite_length(v) == want * 2.0**700
            assert _finite_lengths(np.array([v, v / 2.0**700])).tolist() == [want * 2.0**700, want]
        assert _finite_length(np.array([np.inf, 0.0, 0.0])) == np.inf
        assert _finite_lengths(np.array([[np.inf, 0.0, 0.0]])).tolist() == [np.inf]
        assert not np.isfinite(_finite_lengths(np.array([[0.0, np.inf + 0j]]))).any()
        assert np.isnan(_finite_length(np.array([1.0, np.nan, 0.0])))
        assert np.isnan(_finite_lengths(np.array([[1.0, np.nan, 0.0]]))).all()


def test_finite_lengths_take_the_plain_length_only_where_it_is_the_scaled_one():
    # Rows that mix 1e-300 and 1 entries, rows near 1e154 (where the plain
    # squares start to overflow), near 1e308, and around 2**-450 and 2**450,
    # the ends of the plain range: the lengths are those of the scaled rule
    # on every row, bit for bit, in both roundings.
    rng = np.random.default_rng(30)
    unit = rng.normal(size=(3000, 3))
    mixed = unit * np.where(rng.random((3000, 3)) < 0.5, 1e-300, 1.0)
    scales = np.concatenate([10.0 ** rng.uniform(153.5, 154.5, 1000), 10.0 ** rng.uniform(307, 308, 1000),
                             2.0 ** rng.uniform(-451, -449, 500), 2.0 ** rng.uniform(449, 451, 500)])
    rows = np.concatenate([mixed, unit / np.abs(unit).max(axis=1)[:, None] * scales[:, None]])
    xi = rows[:, :2] + 1j * rows[:, 1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vs in (rows, xi):
            for square_sums in (False, True):
                want = hermitian._scaled_lengths(vs, square_sums)
                assert np.isfinite(want).all()
                assert _finite_lengths(vs, square_sums).tobytes() == want.tobytes()
                assert [float(_finite_lengths(v, square_sums)) for v in vs[::97]] == want[::97].tolist()


def test_iso_membership_examples():
    cap = SphericalRegion.cap(E3, 0.3)
    assert iso_membership(cap, matrix_from_pauli(7.0, E3))
    assert not iso_membership(cap, HermitianMatrix(SIGMA[1]))
    for _, region in region_fixtures():
        assert iso_membership(region, matrix_from_pauli(-3.5, [0, 0, 0]))


def test_membership_ignores_identity_part():
    rng = np.random.default_rng(3)
    for _, region in region_fixtures():
        c, v = sample_cone_members(rng, region, 20)
        for i in range(20):
            a = matrix_from_pauli(c[i], v[i])
            shifted = matrix_from_pauli(c[i] + float(rng.normal(scale=10)), v[i])
            assert iso_membership(region, a)
            assert iso_membership(region, shifted)


def test_membership_closed_under_operations_sampled():
    rng = np.random.default_rng(4)
    for _, region in region_fixtures():
        c1, v1 = sample_cone_members(rng, region, 200)
        c2, v2 = sample_cone_members(rng, region, 200)
        for i in range(200):
            a = matrix_from_pauli(c1[i], v1[i])
            b = matrix_from_pauli(c2[i], v2[i])
            join, meet = lattice_ops(a, b)
            assert iso_membership(region, a + b)
            assert iso_membership(region, float(rng.exponential()) * a)
            assert iso_membership(region, join)
            assert iso_membership(region, meet)


def test_cap_dual_cone_matches_boundary_minimum():
    # independent oracle: a linear functional on a cap is minimized either
    # at the antipode of its gradient (when that lies in the cap) or on
    # the boundary circle, where the value is cos(t)*(c.d) - sin(t)*|d_perp|
    rng = np.random.default_rng(14)
    for theta in (0.1, 0.3, np.pi / 4, np.pi / 2):
        region = SphericalRegion.cap(E3, theta)
        for _ in range(200):
            d = rng.normal(size=3)
            axial = float(d @ E3)
            perp = float(np.linalg.norm(d - axial * E3))
            low = np.cos(theta) * axial - np.sin(theta) * perp
            antipode_angle = np.arccos(np.clip(-axial / np.linalg.norm(d), -1, 1))
            if antipode_angle <= theta:
                low = -float(np.linalg.norm(d))
            if abs(low) < 1e-9:
                continue
            assert region.dual_contains(d) == (low > 0)


@pytest.mark.parametrize("scale", [1.0, 10.0, 1e-3])
def test_dual_cone_tolerance_is_scale_invariant(scale):
    # d lies just outside the spread hull's dual cone: its slack on the first
    # vertex is -5e-9 |d|, beyond the relative tolerance 1e-9 |d| at every scale
    region = dict(region_fixtures())["hull-spread"]
    v1 = region.vertices[0]
    d0 = E3 - (v1 @ E3) * v1
    d = 0.1 * d0 / np.linalg.norm(d0) - 5e-10 * v1
    assert float((region.vertices @ d).min()) == pytest.approx(-5e-10, rel=1e-6)
    d = scale * d
    assert region.dual_contains(d) is False
    assert region.dual_contains_many(d[None]).tolist() == [False]


def test_hull_dual_cone_vertex_test_agrees_with_sampling():
    # conic convexity: the functional is nonnegative on the whole region
    # exactly when it is nonnegative on the extreme vertices; the sampled
    # check is the independent side (signs only, since normalizing a
    # combination rescales negative values)
    rng = np.random.default_rng(15)
    for _, region in region_fixtures():
        if region.kind != "hull":
            continue
        for _ in range(50):
            d = rng.normal(size=3)
            verdict = region.dual_contains(d)
            sampled_min = float((sample_region_points(rng, region, 500) @ d).min())
            if sampled_min < -1e-6:
                assert not verdict
            if verdict:
                assert sampled_min >= -1e-9


# --------------------------------------------------------------------------
# state orders


def test_half_sphere_order_is_the_axis_ray():
    half = SphericalRegion.cap(E3, np.pi / 2)
    p = PureStatePoint.from_bloch([1.0, 0.0, 0.0])
    lifted = np.array([0.6, 0.0, 0.8])
    q = PureStatePoint.from_bloch(lifted)
    # difference is not a multiple of the axis: incomparable
    assert pure_state_order(half, p, q) == "incomparable"
    rho = DensityState([0.3, 0.2, -0.4])
    sigma = DensityState([0.3, 0.2, 0.5])  # rho + 0.9 * e3
    assert state_order(half, rho, sigma) == "less"
    assert state_order(half, sigma, rho) == "greater"


def test_full_sphere_order_is_trivial():
    full = SphericalRegion.full()
    rng = np.random.default_rng(5)
    for _ in range(20):
        b1 = rng.normal(size=3)
        b1 /= np.linalg.norm(b1)
        b2 = rng.normal(size=3)
        b2 /= np.linalg.norm(b2)
        p, q = PureStatePoint.from_bloch(b1), PureStatePoint.from_bloch(b2)
        expected = "equal" if np.allclose(b1, b2) else "incomparable"
        assert pure_state_order(full, p, q) == expected
    p = PureStatePoint.from_bloch(E3)
    assert pure_state_order(full, p, p) == "equal"


def test_state_order_examples():
    cap = SphericalRegion.cap(E3, 0.2)
    mixed = DensityState([0.0, 0.0, 0.0])
    north = DensityState(E3)
    assert state_order(cap, mixed, north) == "less"
    assert state_order(cap, north, mixed) == "greater"
    assert state_order(cap, mixed, mixed) == "equal"
    side = DensityState([0.5, 0.0, 0.0])
    assert state_order(cap, mixed, side) == "incomparable"


def test_pure_state_order_axioms_sampled():
    rng = np.random.default_rng(6)
    for _, region in [region_fixtures()[1], region_fixtures()[6]]:
        pts = rng.normal(size=(60, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        states = [PureStatePoint.from_bloch(b) for b in pts]
        rel = {}
        for i, p in enumerate(states):
            assert pure_state_order(region, p, p) == "equal"
            for j, q in enumerate(states):
                rel[i, j] = pure_state_order(region, p, q)
        for i in range(len(states)):
            for j in range(len(states)):
                if i == j:
                    continue
                if rel[i, j] == "less":
                    assert rel[j, i] == "greater"
                    for k in range(len(states)):
                        if rel[j, k] == "less":
                            assert rel[i, k] == "less"


# --------------------------------------------------------------------------
# projective distance


@pytest.mark.parametrize("name, region", region_fixtures(), ids=[name for name, _ in region_fixtures()])
def test_pure_state_order_many_matches_scalar(name, region):
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(600, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    half = len(pts) // 2
    # random pairs, then equal pairs (one side 1e-9 off unit length, so
    # they are equal only after each row is divided by its norm), then
    # antipodal pairs
    P = np.vstack([pts[:half], pts[:50] * (1.0 + 9e-10), pts[:50]])
    Q = np.vstack([pts[half:], pts[:50] * (1.0 - 9e-10), -pts[:50]])
    batch = pure_state_order_many(region, P, Q)
    scalar = [pure_state_order(region, PureStatePoint(p), PureStatePoint(q)) for p, q in zip(P, Q)]
    assert batch == scalar
    assert batch[half:half + 50] == ["equal"] * 50
    if name not in ("cap-pi2", "full"):  # dual cones with interior order some random pairs
        assert {"less", "greater", "incomparable"} <= set(batch)


@pytest.mark.parametrize(
    "row",
    [[0.0, 0.0, 1.0 + 1e-6], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ids=["non-unit", "nan", "inf", "zero"],
)
def test_pure_state_order_many_rejects_bad_rows(row):
    region = SphericalRegion.cap(E3, 0.3)
    good = np.tile(E1, (3, 1))
    bad = good.copy()
    bad[1] = row
    with pytest.raises(InvalidInput, match="row 1"):
        pure_state_order_many(region, bad, good)
    with pytest.raises(InvalidInput, match="row 1"):
        pure_state_order_many(region, good, bad)


def test_pure_state_order_many_checks_shapes():
    region = SphericalRegion.full()
    with pytest.raises(DimensionMismatch):
        pure_state_order_many(region, [[1.0, 0.0]], [[0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        pure_state_order_many(region, [E1, E3], [E3])
    with pytest.raises(InvalidInput):
        pure_state_order_many(region, [["x", 0, 0]], [E3])


@pytest.mark.parametrize("radius", [0.3, 1.0, 1.5])
def test_cap_dual_boundary_batch_matches_scalar(radius):
    # Directions 1e-11 rad either side of the cap's dual boundary (angle
    # pi/2 - radius + tol from the center, tol = GEOM_TOL = 1e-9): far
    # outside rounding, so batch and scalar must agree on every one.
    center = np.array([0.48, -0.6, 0.64])
    region = SphericalRegion.cap(center, radius)
    e1 = np.cross(center, E3)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    edge = np.pi / 2 - radius + 1e-9
    phi = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)[:, None]
    u = {}
    for side, theta in (("in", edge - 1e-11), ("out", edge + 1e-11)):
        u[side] = np.cos(theta) * center + np.sin(theta) * (np.cos(phi) * e1 + np.sin(phi) * e2)
    for side, want in (("in", True), ("out", False)):
        for scale in (1e-3, 1.0, 10.0):
            ds = scale * u[side]
            assert region.dual_contains_many(ds).tolist() == [want] * len(ds)
            assert [region.dual_contains(d) for d in ds] == [want] * len(ds)
    # The pair (-u, u) has Bloch difference 2u: "less" just inside the
    # boundary, "incomparable" just outside it (-2u is far from the dual).
    P = -np.vstack([u["in"], u["out"]])
    Q = -P
    batch = pure_state_order_many(region, P, Q)
    scalar = [pure_state_order(region, PureStatePoint(p), PureStatePoint(q)) for p, q in zip(P, Q)]
    assert batch == scalar
    assert batch == ["less"] * len(phi) + ["incomparable"] * len(phi)


def test_fubini_study_reference_values():
    north = PureStatePoint.from_bloch(E3)
    south = PureStatePoint.from_bloch(-E3)
    equator = PureStatePoint.from_bloch(E1)
    assert fubini_study(north, north) == pytest.approx(0.0)
    assert fubini_study(north, equator) == pytest.approx(np.pi / 4)
    assert fubini_study(north, south) == pytest.approx(np.pi / 2)
    assert transition_probability(north, south) == pytest.approx(0.0, abs=1e-12)


def test_transition_probability_matches_overlap():
    rng = np.random.default_rng(7)
    for _ in range(50):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        p, q = PureStatePoint.from_xi(xi), PureStatePoint.from_xi(eta)
        overlap = abs(np.vdot(xi, eta)) ** 2
        assert transition_probability(p, q) == pytest.approx(overlap, abs=1e-9)


def test_epsilon_disk_thresholds_sampled():
    rng = np.random.default_rng(8)
    band = 1e-6
    for eps in (0.1, 0.3, np.pi / 4):
        region = SphericalRegion.cap(E3, 2 * eps)
        bottom = PureStatePoint.from_bloch(-E3)
        top = PureStatePoint.from_bloch(E3)
        pts = rng.normal(size=(400, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for b in pts:
            state = PureStatePoint.from_bloch(b)
            fs_b = fubini_study(bottom, state)
            if abs(fs_b - 2 * eps) > band:
                comparable = pure_state_order(region, bottom, state) == "less"
                assert comparable == (fs_b >= 2 * eps)
            fs_t = fubini_study(top, state)
            if abs(fs_t - 2 * eps) > band:
                comparable = pure_state_order(region, state, top) == "less"
                assert comparable == (fs_t >= 2 * eps)


# --------------------------------------------------------------------------
# transversality


def test_transversality_reference_cases():
    cap = SphericalRegion.cap(E3, 0.3)
    full = SphericalRegion.full()
    assert transversality(cap, SIGMA[3]).classification == "lambda2_below_lambda1"
    assert transversality(cap, SIGMA[1]).classification == "not_transverse"
    assert transversality(full, SIGMA[3]).classification == "incomparable_spectrum"
    assert transversality(cap, -SIGMA[3]).classification == "lambda1_below_lambda2"


def test_transversality_scalar_and_errors():
    cap = SphericalRegion.cap(E3, 0.3)
    assert transversality(cap, 3.7 * SIGMA[0]).classification == "scalar"
    with pytest.raises(NotNormal):
        transversality(cap, np.array([[0, 1], [0, 0]]))


def test_transversality_unitary_input():
    # normal but not hermitian: a rotation about the z axis
    cap = SphericalRegion.cap(E3, 0.3)
    u = np.diag([np.exp(0.5j), np.exp(-0.5j)])
    res = transversality(cap, u)
    assert res.classification in ("lambda2_below_lambda1", "lambda1_below_lambda2")
    assert sorted(np.round([z.real for z in res.eigenvalues], 9)) == sorted(
        np.round([np.cos(0.5), np.cos(0.5)], 9)
    )
    assert np.allclose(np.abs(res.axis), E3, atol=1e-9)


@st.composite
def _normal_matrix(draw):
    """(n, c, z, u) with n = c*I + z*(u.sigma): |c| in [1e-3, 1e3], z real, imaginary or complex."""
    c = 10.0 ** draw(st.floats(-3, 3)) * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    theta, phi = draw(st.floats(0, np.pi)), draw(st.floats(0, 2 * np.pi))
    u = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    size = 10.0 ** draw(st.floats(-12, 3))
    kind = draw(st.sampled_from(["real", "imaginary", "complex"]))
    phase = draw({"real": st.sampled_from([0.0, np.pi]), "imaginary": st.sampled_from([0.5 * np.pi, -0.5 * np.pi]),
                  "complex": st.floats(0, 2 * np.pi)}[kind])
    z = size * np.exp(1j * phase)
    return c * SIGMA[0] + z * np.einsum("i,ijk->jk", u, SIGMA[1:]), c, z, u


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_normal_matrix())
def test_transversality_recovers_spectrum_and_axis(case):
    n, c, z, u = case
    scale = max(1.0, abs(c), abs(z))
    res = transversality(SphericalRegion.cap(E3, 0.3), n)
    lam1, lam2 = res.eigenvalues
    assert (lam1.real, lam1.imag) >= (lam2.real, lam2.imag)
    sign = 1.0 if abs(lam1 - (c + z)) <= abs(lam1 - (c - z)) else -1.0
    assert abs(lam1 - (c + sign * z)) <= 1e-12 * scale and abs(lam2 - (c - sign * z)) <= 1e-12 * scale
    if abs(z) >= 1e-6 * scale:
        assert np.max(np.abs(res.axis - sign * u)) <= 1e-9


def _boundary_margin(region, u):
    """How far the unit u is from deciding the other way in region._inside at tol 1e-9; inf for the full sphere."""
    if region.kind == "full":
        return np.inf
    if region.kind == "cap":
        return abs(float(np.arccos(np.clip(u @ region.center, -1.0, 1.0))) - region.radius - 1e-9)
    return abs(float((region._facets @ u).min()) + 1e-9)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_normal_matrix(), st.sampled_from(sorted(_FIXTURES)), st.integers(-60, 60), st.booleans())
@example((np.diag([1 - 1j, 1 + 1j]), 1.0, -1j, E3), "cap-0.3", 0, False)
def test_transversality_equals_an_eigendecomposition_oracle(case, name, k, huge):
    # The oracle is the LAPACK eigendecomposition of n / s and the Hopf image
    # of the eigenvector of the eigenvalue the closed form puts first.
    n = case[0] * 2.0**k
    if huge:
        n = n / np.abs(n.view(float)).max() * 0.5e308  # no eigenvalue past the largest float
    region = _FIXTURES[name]
    s = float(np.abs(n.view(float)).max())
    res = transversality(region, n)
    vals, vecs = np.linalg.eig(n / s)
    lam1, lam2 = res.eigenvalues[0] / s, res.eigenvalues[1] / s
    top = int(np.argmin(np.abs(vals - lam1)))
    assert abs(vals[top] - lam1) <= 1e-13 and abs(vals[1 - top] - lam2) <= 1e-13
    if top != int((vals[1].real, vals[1].imag) > (vals[0].real, vals[0].imag)):
        assert abs(vals[0].real - vals[1].real) <= 1e-12  # only a tie in the real parts orders them by rounding
    if res.classification == "scalar":
        assert res.axis is None and abs(vals[0] - vals[1]) <= 1e-10 + 1e-13
        return
    assert abs(vals[0] - vals[1]) > 1e-10 - 1e-13
    u = hopf(vecs[:, top])
    if abs(vals[0] - vals[1]) >= 1e-6:
        assert np.max(np.abs(res.axis - u)) <= 1e-9
    if min(_boundary_margin(region, u), _boundary_margin(region, -u)) > 1e-9:
        in_plus, in_minus = region.contains(u), region.contains(-u)
        want = {(True, True): "incomparable_spectrum", (True, False): "lambda2_below_lambda1",
                (False, True): "lambda1_below_lambda2", (False, False): "not_transverse"}[in_plus, in_minus]
        assert res.classification == want


def test_transversality_orders_computed_eigenvalues_not_the_sign_of_mu():
    # w.w = -1 - 0j here, whose principal root is -i: the first eigenvalue is c - mu = 1 + i, with axis -e3.
    res = transversality(SphericalRegion.cap(E3, 0.3), np.diag([1 - 1j, 1 + 1j]))
    assert res.eigenvalues == (1 + 1j, 1 - 1j)
    assert res.axis.tolist() == [0.0, 0.0, -1.0]
    assert res.classification == "lambda1_below_lambda2"


def _commutator_gap(n):
    """The largest entry of m m* - m* m, by numpy products, for m the reading of n that transversality takes."""
    m, _ = hermitian._read_matrix(np.asarray(n, dtype=complex))
    return float(np.abs(m @ m.conj().T - m.conj().T @ m).max())


def _normality_cases(rng):
    """Normal matrices, the same off normal by 1e-12 to 1e-8, and the same with their gap set near 1e-9."""
    def gaussian():
        return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    for _ in range(3000):
        q, _ = np.linalg.qr(gaussian())
        n = q @ np.diag(rng.normal(size=2) + 1j * rng.normal(size=2)) @ q.conj().T * 2.0 ** rng.uniform(-60, 60)
        e = gaussian() * np.abs(n.view(float)).max()
        kind = rng.integers(3)
        if kind == 1:
            n = n + 10.0 ** rng.uniform(-12, -8) * e
        elif kind == 2:  # the gap is linear in a small perturbation: aim it 1e-6 to 1e-2 of the cut off the cut
            off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, -2)
            n = n + 1e-6 * 1e-9 / _commutator_gap(n + 1e-6 * e) * (1.0 + off) * e
        yield n
        if rng.random() < 0.05:
            yield n / np.abs(n.view(float)).max() * 1.7e308
    yield np.array([[1e200, 0.0], [0.0, -1e200]])
    yield np.array([[1e200, 1e200], [0.0, 0.0]])


def test_closed_form_normality_equals_a_commutator_oracle():
    region = SphericalRegion.cap(E3, 0.3)
    decided = {True: 0, False: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in _normality_cases(np.random.default_rng(41)):
            gap = _commutator_gap(n)
            if abs(gap - 1e-9) <= 1e-14:
                continue
            if gap > 1e-9:
                with pytest.raises(NotNormal) as refused:
                    transversality(region, n)
                assert str(refused.value) == f"matrix is {gap:.2e} of its scale squared away from normal"
            else:
                transversality(region, n)
            decided[gap > 1e-9] += 1
    assert min(decided.values()) >= 500


def test_transversality_axis_is_not_taken_from_rounding_noise():
    # The hermitian part of this normal matrix is 1000*I up to rounding; the
    # axis lives in the anti-hermitian part.
    n = {"re": [[1000.0000000000016, 1.2e-12], [1.2e-12, 999.9999999999984]], "im": [[0.8, 0.6], [0.6, -0.8]]}
    res = transversality(SphericalRegion.cap(E3, 0.645), complex_matrix_from_json(n))
    assert res.classification == "lambda2_below_lambda1"
    assert np.max(np.abs(np.array(res.eigenvalues) - [1000 + 1j, 1000 - 1j])) <= 1e-9
    assert np.max(np.abs(res.axis - [0.6, 0.0, 0.8])) <= 1e-9


def test_transversality_with_entries_whose_products_overflow():
    cap = SphericalRegion.cap(E3, 0.3)
    with pytest.raises(NotNormal):
        transversality(cap, np.array([[1e200, 1e200], [0, 0]]))
    res = transversality(cap, np.array([[1e200, 0], [0, -1e200]]))
    assert res.classification == "lambda2_below_lambda1"
    assert res.eigenvalues == (1e200 + 0j, -1e200 + 0j)
    assert np.max(np.abs(res.axis - E3)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_transversality_rejects_non_finite_entries(bad):
    with pytest.raises(InvalidInput):
        transversality(SphericalRegion.cap(E3, 0.3), np.array([[bad, 0], [0, 1]], dtype=complex))


def test_half_sphere_boundary_pair_is_incomparable_spectrum():
    half = SphericalRegion.cap(E3, np.pi / 2)
    res = transversality(half, SIGMA[1])
    assert res.classification == "incomparable_spectrum"


def test_members_induce_the_natural_spectrum_order():
    # a hermitian member with a genuine traceless part puts its larger
    # eigenvalue on top, unless the antipodal axis is also in the region
    rng = np.random.default_rng(16)
    for _, region in region_fixtures():
        if region.kind == "full":
            continue
        c, v = sample_cone_members(rng, region, 30)
        for i in range(30):
            r = np.linalg.norm(v[i])
            if r < 1e-6:
                continue
            a = matrix_from_pauli(c[i], v[i])
            res = transversality(region, a.mat)
            assert res.eigenvalues[0].real > res.eigenvalues[1].real
            if region.contains(-v[i] / r):
                assert res.classification == "incomparable_spectrum"
            else:
                assert res.classification == "lambda2_below_lambda1"


# --------------------------------------------------------------------------
# join coefficients


def test_join_coeffs_opposite_axes():
    alpha, beta = join_coeffs(HermitianMatrix(SIGMA[3]), HermitianMatrix(-SIGMA[3]))
    assert alpha == pytest.approx(0.5) and beta == pytest.approx(1.0)
    join, _ = lattice_ops(HermitianMatrix(SIGMA[3]), HermitianMatrix(-SIGMA[3]))
    assert join.allclose(SIGMA[0], tol=1e-12)


def test_join_coeffs_commuting_diagonals():
    a, b = HermitianMatrix.diag([3, 0]), HermitianMatrix.diag([1, 2])
    alpha, beta = join_coeffs(a, b)
    recon = alpha * a.mat + (1 - alpha) * b.mat + beta * SIGMA[0]
    assert np.max(np.abs(recon - np.diag([3.0, 2.0]))) <= 1e-12


def test_join_coeffs_comparable_and_equal_pairs():
    rng = np.random.default_rng(9)
    b = HermitianMatrix((lambda m: (m + m.conj().T) / 2)(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
    a = b + 5.0 * SIGMA[0]
    assert join_coeffs(a, b) == (1.0, 0.0)
    assert join_coeffs(b, b) == (0.5, 0.0)


def test_join_coeffs_many_is_bit_identical_to_scalar():
    rng = np.random.default_rng(12)
    # rows at scales 2**-60..2**60: generic, |t| within 1e-9 of r, r = 0 (commuting) and t = r = 0 (equal)
    t, r = rng.normal(size=(2, 20_000)) * np.ldexp(1.0, rng.integers(-60, 61, size=20_000))
    r = np.abs(r)
    r[1::4] = np.abs(t[1::4]) * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, size=5000))
    r[2::4] = 0.0
    t[3::4], r[3::4] = 0.0, 0.0
    t = np.concatenate([rng.normal(scale=2.0, size=2000), t, [1.0, -1.0, 0.0, 1e-13, -2.5, 3.0, 0.0]])
    r = np.concatenate([np.abs(rng.normal(size=2000)), r, [0.0, 0.0, 0.0, 0.0, 1e-12, 2e-12, 5e-13]])
    alpha, beta = join_coeffs_many(t, r)
    want = np.array([join_coeffs_from_difference(float(a), float(b)) for a, b in zip(t, r)])
    assert alpha.tobytes() == want[:, 0].tobytes()
    assert beta.tobytes() == want[:, 1].tobytes()
    assert alpha[-7:-3].tolist() == [1.0, 0.0, 0.5, 1.0]  # comparable pairs give 1 or 0, equal ones 1/2
    assert ((alpha >= 0.0) & (alpha <= 1.0) & (beta >= 0.0)).all()


def test_matrix_from_pauli_many_is_bit_identical_to_scalar():
    rng = np.random.default_rng(13)
    c, v = rng.normal(size=300), rng.normal(size=(300, 3))
    got = matrix_from_pauli_many(c, v)
    want = np.stack([matrix_from_pauli(ci, vi).mat for ci, vi in zip(c, v)])
    assert got.tobytes() == want.tobytes()


# Coordinates at and around 0 and 1e-12, and up to 1e6.
_coord = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 5e-13, 1.0, -1.0]), st.floats(-1e6, 1e6))
_length = st.one_of(st.sampled_from([0.0, 1e-12, 1.5e-12, 5e-13]), st.floats(0.0, 1e6))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(_coord, _length), min_size=1, max_size=20))
def test_join_coeffs_many_is_the_scalar_bit_for_bit(pairs):
    t, r = np.array(pairs).T
    alpha, beta = join_coeffs_many(t, r)
    want = np.array([join_coeffs_from_difference(a, b) for a, b in pairs])
    assert alpha.tobytes() == want[:, 0].tobytes()
    assert beta.tobytes() == want[:, 1].tobytes()


# Rows of (c, v1, v2, v3); each example puts a subnormal part next to one of order 1 or more.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 3), st.just(4)), elements=_coord))
@example(np.array([[[0.0, 0.0, 1.0, 2.2250738585e-313]]]))
@example(np.array([[[5e-324, 1.0, -1.0, 5e-324], [1e6, 5e-324, 0.0, 1.0]], [[0.0, -5e-324, 5e-324, -1.0], [1.0] * 4]]))
def test_matrix_from_pauli_many_is_the_scalar_bit_for_bit(rows):
    c, v = rows[..., 0], rows[..., 1:]
    got = matrix_from_pauli_many(c, v)
    assert got.shape == c.shape + (2, 2)
    want = np.array([[matrix_from_pauli(c[i, j], v[i, j]).mat for j in range(c.shape[1])] for i in range(c.shape[0])])
    assert got.tobytes() == want.tobytes()


def test_join_coeffs_random_reconstruction():
    rng = np.random.default_rng(10)
    for _ in range(300):
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = HermitianMatrix((m1 + m1.conj().T) / 2)
        b = HermitianMatrix((m2 + m2.conj().T) / 2)
        alpha, beta = join_coeffs(a, b)
        assert 0.0 <= alpha <= 1.0 and beta >= 0.0
        join, meet = lattice_ops(a, b)
        recon = alpha * a.mat + (1 - alpha) * b.mat + beta * SIGMA[0]
        assert np.max(np.abs(recon - join.mat)) <= 1e-9
        # the companion identity for the meet
        recon_meet = (1 - alpha) * a.mat + alpha * b.mat - beta * SIGMA[0]
        assert np.max(np.abs(recon_meet - meet.mat)) <= 1e-9


_JOIN_KINDS = ["generic", "near", "commuting", "equal"]


def _join_pair(rng, kind):
    """Two self-adjoint 2x2 matrices of the named kind, times one power of two in 2**-60..2**60."""
    c, v = rng.normal(size=2), rng.normal(size=(2, 3))
    if kind == "near":  # b within 1e-9 of a
        c[1], v[1] = c[0] + 1e-9 * c[1], v[0] + 1e-9 * v[1]
    elif kind == "commuting":  # b = p*a + q*1
        v[1] = rng.normal() * v[0]
    elif kind == "equal":
        c[1], v[1] = c[0], v[0]
    return _scaled(matrix_from_pauli_many(c, v), int(rng.integers(-60, 61)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(_JOIN_KINDS), st.integers(0, 2**32 - 1))
def test_join_coeffs_are_in_range_and_rebuild_the_lattice_join(kind, seed):
    a, b = _join_pair(np.random.default_rng(seed), kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, beta = join_coeffs(a, b)
        join, _ = lattice_ops(a, b)
    assert 0.0 <= alpha <= 1.0 and beta >= 0.0
    ulp = np.spacing(_scale(float(np.abs(np.stack([a, b]).view(float)).max())))
    assert np.abs(alpha * a + (1.0 - alpha) * b + beta * SIGMA[0] - join.mat).max() <= 4 * ulp
    if kind == "equal":
        assert (alpha, beta) == (0.5, 0.0)


def test_join_coeffs_stay_in_range_on_a_pair_of_size_1e6():
    # a - b is positive up to rounding, so alpha = 1 and beta = (h - t) / 2 is 0 or just above
    a = complex_matrix_from_json({
        "re": [[-27880.783511058962, -113267.46687930713], [-113267.46687930713, 770259.290796789]],
        "im": [[0, 207883.35130353685], [-207883.35130353685, 0]]})
    b = complex_matrix_from_json({
        "re": [[-722773.9990462515, 97652.67077559941], [97652.67077559941, -237038.66887501953]],
        "im": [[0, -492846.5514085313], [492846.5514085313, 0]]})
    alpha, beta = join_coeffs(a, b)
    assert 0.0 <= alpha <= 1.0 and beta >= 0.0
    join, _ = lattice_ops(a, b)
    assert np.abs(alpha * a + (1.0 - alpha) * b + beta * SIGMA[0] - join.mat).max() <= 4 * np.spacing(2.0**20)


# --------------------------------------------------------------------------
# co-boundedness witnesses


def test_cobounded_witness_full_sphere_max_violation():
    w = cobounded_witness(SphericalRegion.full())
    assert w.slack == pytest.approx(2.0)


def test_cobounded_witness_cap_matches_geometry():
    theta = 0.3
    w = cobounded_witness(SphericalRegion.cap(E3, theta))
    assert w.slack == pytest.approx(2.0 * (1.0 - np.cos(theta)))


def test_cobounded_witnesses_verify_numerically():
    for name, region in region_fixtures():
        w = cobounded_witness(region)
        assert w is not None, name
        assert iso_membership(region, w.a) and iso_membership(region, w.b)
        for m in (w.a, w.b):
            assert spectral(m).eigenvalues[0] >= -1e-12
        norm = lambda m: float(np.max(np.abs(np.linalg.eigvalsh(m))))
        assert norm(w.a.mat) == pytest.approx(w.norm_a)
        assert norm(w.a.mat + w.b.mat) == pytest.approx(w.norm_sum)
        assert w.slack >= 1e-6


# --------------------------------------------------------------------------
# rotations


def test_rotation_preserves_cap_about_its_axis():
    cap = SphericalRegion.cap(E3, 0.4)
    assert rotation_preserves(cap, rotation(E3, 1.1))
    assert not rotation_preserves(cap, rotation(E1, np.pi))
    assert rotation_preserves(SphericalRegion.full(), rotation(E1, np.pi))


def test_rotation_preserves_symmetric_hull():
    base = rotation(E3, 2 * np.pi / 3)
    v0 = np.array([0.5, 0.0, np.sqrt(0.75)])
    hull = SphericalRegion.hull([v0, base @ v0, base @ base @ v0])
    assert rotation_preserves(hull, base)
    assert not rotation_preserves(hull, rotation(E3, 0.5))


def test_rotation_validation():
    cap = SphericalRegion.cap(E3, 0.4)
    with pytest.raises(NotARotation):
        rotation_preserves(cap, np.diag([1.0, 1.0, -1.0]))  # a reflection


# --------------------------------------------------------------------------
# spectral structure of members


def test_monotone_calculus_keeps_membership():
    rng = np.random.default_rng(11)
    for _, region in region_fixtures():
        c, v = sample_cone_members(rng, region, 40)
        for i in range(40):
            a = matrix_from_pauli(c[i] + 0.01, v[i] + 0.0)
            if np.linalg.norm(v[i]) < 1e-6:
                continue
            out = func_calc(a, np.tanh)
            assert iso_membership(region, out)


def test_positive_members_decompose_over_member_projections():
    rng = np.random.default_rng(12)
    for _, region in region_fixtures():
        k = sample_region_points(rng, region, 30)
        for i in range(30):
            lam = float(rng.exponential()) + 0.01
            low = float(rng.exponential())
            a = matrix_from_pauli(lam + low, lam * k[i])
            dec = spectral(a)
            lam_min, lam_max = float(dec.eigenvalues[0]), float(dec.eigenvalues[1])
            top_vec = dec.eigenvectors[:, 1]
            p_top = HermitianMatrix(np.outer(top_vec, top_vec.conj()))
            assert lam_min >= -1e-12
            assert iso_membership(region, p_top)
            recon = lam_min * SIGMA[0] + (lam_max - lam_min) * p_top.mat
            assert np.max(np.abs(recon - a.mat)) <= 1e-9


def test_spectral_data_rebuilds_matrix_through_hopf_axis():
    rng = np.random.default_rng(13)
    for _ in range(50):
        c = float(rng.normal())
        v = rng.normal(size=3)
        if np.linalg.norm(v) < 1e-6:
            continue
        x = matrix_from_pauli(c, v)
        dec = spectral(x)
        lam_min, lam_max = dec.eigenvalues
        axis = hopf(dec.eigenvectors[:, 1])
        rebuilt = 0.5 * ((lam_max + lam_min) * SIGMA[0] + (lam_max - lam_min) * (
            axis[0] * SIGMA[1] + axis[1] * SIGMA[2] + axis[2] * SIGMA[3]
        ))
        assert np.max(np.abs(rebuilt - x.mat)) <= 1e-9


def test_state_json_round_trips():
    p = PureStatePoint.from_json({"xi": [[1.0, 0.0], [0.0, 0.0]]})
    assert np.allclose(p.bloch, E3)
    assert PureStatePoint.from_json(p.to_json()).bloch.tolist() == p.bloch.tolist()
    rho = DensityState.from_json({"bloch": [0.1, 0.2, 0.3]})
    assert DensityState.from_json(rho.to_json()).bloch.tolist() == rho.bloch.tolist()
    coords = pauli_coords(matrix_from_pauli(0.5, rho.bloch / 2.0))
    assert abs(coords.c - 0.5) <= 1e-12
    assert np.allclose(2.0 * coords.v, rho.bloch, atol=1e-12)


# --------------------------------------------------------------------------
# The power-of-two scale rule: every 2x2 question is invariant under a
# positive scale or homogeneous of degree 1, and power-of-two scaling is
# exact, so f(2**k * a) is f(a) or 2**k * f(a) bit for bit wherever no entry
# of 2**k * a or of the answer leaves the normal range.

_FIXTURE_REGIONS = [region for _, region in region_fixtures()]
_SHAPES = ["generic", "diagonal", "scalar", "positive", "singular", "close"]


def _scale_rule_matrix(rng, shape):
    """A hermitian 2x2 c*s0 + r*k.s of entries of order 1 and the named spectral shape."""
    c, r = float(rng.normal()), abs(float(rng.normal()))
    k = rng.normal(size=3)
    k = np.array([0.0, 0.0, np.sign(k[2])]) if shape == "diagonal" else k / np.linalg.norm(k)
    if shape == "scalar":
        r = 0.0
    elif shape == "positive":
        c = r + abs(float(rng.normal()))
    elif shape == "singular":
        c = r
    elif shape == "close":  # a spectral gap of about 1e-12 relative to the entries
        r = 1e-12 * abs(c)
    return matrix_from_pauli_many(np.asarray(c), r * k)


def _scale_rule_case(question, rng, shape):
    """(inputs, f): inputs a tuple of arrays, all scaled together, and f giving the answer
    as (degree-1 arrays, degree-0 parts)."""
    region = _FIXTURE_REGIONS[rng.integers(len(_FIXTURE_REGIONS))]
    a, b = _scale_rule_matrix(rng, shape), _scale_rule_matrix(rng, shape)
    positive = a + (abs(np.linalg.eigvalsh(a)[0]) + (shape != "singular") * abs(rng.normal())) * SIGMA[0]
    if question == "spectral":
        return (a,), lambda a: (lambda d: ([d.eigenvalues], [d.eigenvectors]))(spectral(a))
    if question == "classify":
        return (a,), lambda a: (lambda c: ([np.array(c.norm)], [c.positive, c.positive_invertible]))(classify(a))
    if question == "abs":
        return (a,), lambda a: ([func_calc(a, abs).mat], [])
    if question == "sqrt":  # degree 1/2, answered or refused alike at every scale
        return (a,), _sqrt_answer
    if question == "lattice":
        return (a, b), lambda a, b: ([m.mat for m in lattice_ops(a, b)], [])
    if question == "projection":
        return (positive,), lambda a: (lambda t: ([np.array([c for c, _ in t])], [p.mat for _, p in t]))(
            projection_decomposition(a))
    if question == "projection_many":
        return (np.stack([positive, a @ a, b @ b]),), lambda m: (lambda c, p, k: ([c], [p, k]))(
            *projection_decomposition_many(m))
    if question == "pauli":
        return (a,), lambda a: (lambda p: ([np.array(p.c), p.v], []))(pauli_coords(a))
    if question == "member":
        return (a,), lambda a: ([], [iso_membership(region, a)])
    if question == "join":
        return (a, b), lambda a, b: (lambda al, be: ([np.array(be)], [al]))(*join_coeffs(a, b))
    if question == "join_many":
        t = rng.normal(size=8) * np.array([1, 1, 1, 1, 1, 0, 1e-13, 1])
        r = np.abs(rng.normal(size=8)) * np.array([1, 1, 1, 0, 1e-13, 0, 1, 1])
        return (t, r), lambda t, r: (lambda al, be: ([be], [al]))(*join_coeffs_many(t, r))
    # transversality: a normal matrix u diag(l) u*
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    lam = rng.normal(size=2) + 1j * rng.normal(size=2)
    if shape in ("scalar", "close"):
        lam[1] = lam[0] * (1.0 + (shape == "close") * 1e-12)
    n = (q * lam) @ q.conj().T
    return (n,), lambda n: (lambda t: ([np.array(t.eigenvalues)], [t.classification, t.axis]))(
        transversality(region, n))


def _sqrt_answer(a):
    try:
        return [func_calc(a, nonnegative_sqrt).mat], [True]
    except DomainError:
        return [], [False]


def _normal_after(arrays, k: int) -> bool:
    """Whether every nonzero real and imaginary part of the arrays stays normal and finite times 2**k."""
    for x in arrays:
        parts = np.concatenate([np.ravel(np.real(x)), np.ravel(np.imag(x))]).astype(float)
        e = np.frexp(parts[parts != 0.0])[1] + k
        if not ((e >= -1021) & (e <= 1024)).all():
            return False
    return True


def _scaled(x, k: int):
    return np.ldexp(np.real(x), k) + 1j * np.ldexp(np.imag(x), k) if np.iscomplexobj(x) else np.ldexp(x, k)


_QUESTIONS = [
    "spectral", "classify", "abs", "sqrt", "lattice", "projection", "projection_many",
    "pauli", "member", "join", "join_many", "transversality",
]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(_QUESTIONS), st.sampled_from(_SHAPES), st.integers(0, 2**32 - 1), st.integers(-1000, 1000))
def test_every_2x2_question_follows_the_power_of_two_scale(question, shape, seed, k):
    inputs, f = _scale_rule_case(question, np.random.default_rng(seed), shape)
    k -= question == "sqrt" and k % 2  # sqrt(4**j * a) = 2**j * sqrt(a)
    out_k = k // 2 if question == "sqrt" else k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ones, zeros = f(*inputs)
        if not (_normal_after(inputs, k) and _normal_after(ones, out_k)):
            return
        got_ones, got_zeros = f(*(_scaled(x, k) for x in inputs))
    assert len(got_ones) == len(ones)
    for want, got in zip(ones, got_ones):
        assert np.asarray(_scaled(want, out_k)).tobytes() == np.asarray(got).tobytes()
    for want, got in zip(zeros, got_zeros):
        assert (np.asarray(want).tobytes() == np.asarray(got).tobytes()) if isinstance(want, np.ndarray) else want == got


# Small matrices, where absolute tolerances used to decide: each answer is the
# one at scale 1, scaled as the question is.
_T40, _T60 = 2.0**-40, 2.0**-60


@pytest.mark.parametrize(
    "question, want",
    [
        (lambda: [m.mat.tolist() for m in lattice_ops(np.diag([1e-11, 0.0]), np.zeros((2, 2)))],
         [[[1e-11, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        (lambda: classify(np.diag([-1.0, 1.0]) * _T40).positive, False),
        (lambda: transversality(SphericalRegion.cap(E3, 0.3), np.diag([1.0, 2.0]) * _T40).classification,
         "lambda1_below_lambda2"),
        (lambda: [c / _T40 for c, _ in projection_decomposition(np.diag([1.0, 2.0]) * _T40)], [1.0, 1.0]),
        (lambda: join_coeffs(np.array([[3.0, 1.0], [1.0, 0.0]]) * _T60, np.diag([0.0, 1.0]) * _T60),
         (0.7236067977499789, 0.894427190999916 * _T60)),
    ],
    ids=["lattice-1e-11", "classify-2^-40", "transversality-2^-40", "projection-2^-40", "join-coeffs-2^-60"],
)
def test_small_matrices_get_the_answers_of_scale_one(question, want):
    assert question() == want


@pytest.mark.parametrize("size, refused", [(5e3, NotNormal), (1e5, NotHermitian)], ids=["normal-5e3", "hermitian-1e5"])
def test_large_spectra_are_not_refused(size, refused):
    # u diag(d) u* from the QR of a complex Gaussian: d of modulus size at
    # random phases is normal, d real in +-size is hermitian; each only up to
    # rounding relative to size, which absolute cuts refused.
    rng = np.random.default_rng(5)
    count = 0
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        try:
            if refused is NotNormal:
                transversality(SphericalRegion.cap(E3, 0.3), (q * (size * np.exp(2j * np.pi * rng.random(2)))) @ q.conj().T)
            else:
                HermitianMatrix((q * rng.uniform(-size, size, 2)) @ q.conj().T)
        except refused:
            count += 1
    assert count == 0


# The commutative reduction: the maximal commutative subalgebra diagonal
# along a unit u has the two-point spectrum {p+, p-}, and the isocone of a
# region R cut to it is the isotone cone of the preorder pre_R(u), with
# p- <= p+ iff -u is not in R and p+ <= p- iff u is not in R.  This ties
# iso_membership to is_isotone, two layers that share no code.


def _reduction_preorder(region, u):
    pairs = [("p-", "p+")] * (not region.contains(-u)) + [("p+", "p-")] * (not region.contains(u))
    return build_preorder(["p+", "p-"], pairs)


@st.composite
def _reduction_cases(draw):
    """(region, u, l1, l2) over fixture regions, random caps and hulls, with u a region centre or vertex, its
    opposite, or random, and eigenvalues equal, near each other or apart, of sizes 1e-3 to 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = rng.normal(size=3)
    centre /= np.linalg.norm(centre)
    region = draw(st.sampled_from(
        _FIXTURE_REGIONS
        + [SphericalRegion.cap(centre, rng.uniform(0.05, np.pi / 2))]
        + [SphericalRegion.hull(sample_region_points(rng, SphericalRegion.cap(centre, 1.2), int(rng.integers(3, 6))))]
    ))
    axes = [rng.normal(size=3)]
    axes += [] if region.kind == "full" else [region.center] if region.kind == "cap" else list(region.extreme_vertices)
    u = np.asarray(draw(st.sampled_from(axes)), dtype=float)
    u = draw(st.sampled_from([1.0, -1.0])) * u / np.linalg.norm(u)
    l1 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
    gap = draw(st.sampled_from(["equal", "near", "apart"]))
    l2 = {"equal": l1, "near": l1 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -1)),
          "apart": float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))}[gap]
    return region, u, l1, l2


def _reduction_matrix(u, l1, l2):
    """l1 p+ + l2 p-, or None for a pair in the excluded band.

    On the m2 side a traceless part up to GEOM_TOL * s is zero, and the axis
    in a's Pauli coordinates carries a rounding of about 1e-16 * s / |l1 - l2|,
    so pairs with |l1 - l2| / 2 up to 1e-6 * s are left out; on the isotone
    side, pairs with |l1 - l2| up to DEFAULT_TOL.
    """
    p_plus, p_minus = matrix_from_pauli(0.5, u / 2.0).mat, matrix_from_pauli(0.5, -u / 2.0).mat
    a = l1 * p_plus + l2 * p_minus
    s = 2.0 ** np.frexp(np.abs(a.view(float)).max())[1]  # the matrix's power-of-two scale
    if l1 != l2 and (abs(l1 - l2) / 2.0 <= 1e-6 * s or abs(l1 - l2) <= DEFAULT_TOL):
        return None
    return a


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_reduction_cases())
def test_isocone_on_a_commutative_subalgebra_is_the_isotone_cone_of_its_spectrum(case):
    region, u, l1, l2 = case
    a = _reduction_matrix(u, l1, l2)
    if a is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert iso_membership(region, a) == is_isotone(_reduction_preorder(region, u), [l1, l2])


def _cli_payload(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_reduction_cases())
def test_the_commutative_reduction_answers_alike_through_the_cli(case):
    # The same pair as m2 member --region R --matrix a and as cone isotone
    # --poset pre_R(u) --f [l1, l2], with R as the CLI reads it back.
    region, u, l1, l2 = case
    a = _reduction_matrix(u, l1, l2)
    if a is None:
        return
    region_json = json.dumps(region.to_json())
    pre = _reduction_preorder(SphericalRegion.from_json(json.loads(region_json)), u)
    matrix = json.dumps({"re": a.real.tolist(), "im": a.imag.tolist()})
    member = _cli_payload(["m2", "member", "--region", region_json, "--matrix", matrix])
    isotone = _cli_payload(["cone", "isotone", "--poset", json.dumps(pre.to_json()), "--f", json.dumps([l1, l2])])
    assert member == {"member": isotone["isotone"]}


# transversality's tag for a normal matrix with axis u names the same
# two-point preorder of {p+, p-}.
_TAG_PAIRS = {
    "lambda2_below_lambda1": [("p-", "p+")],
    "lambda1_below_lambda2": [("p+", "p-")],
    "incomparable_spectrum": [],
    "not_transverse": [("p-", "p+"), ("p+", "p-")],
}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_reduction_cases(), st.floats(-1.5, 1.5))
def test_transversality_tag_names_the_preorder_of_the_commutative_reduction(case, phase):
    region, u, l1, l2 = case
    # A normal n = l1 P_u + l2 P_-u with l1 > l2, both turned by a common
    # phase of positive cosine, so that l1 keeps the larger real part and the
    # axis is u; scalar and near pairs, whose axis is rounding, are left out.
    if abs(l1 - l2) <= 1e-6 * max(abs(l1), abs(l2)):
        return
    l1, l2 = max(l1, l2), min(l1, l2)
    rot = np.exp(1j * phase)
    n = (l1 * rot) * matrix_from_pauli(0.5, u / 2.0).mat + (l2 * rot) * matrix_from_pauli(0.5, -u / 2.0).mat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transversality(region, n)
    assert np.abs(got.axis - u).max() <= 1e-9
    assert build_preorder(["p+", "p-"], _TAG_PAIRS[got.classification]) == _reduction_preorder(region, u)
