"""Executable acceptance suite: every criterion with its stated tolerance.

Each criterion is a seeded, deterministic check that reports a pass/fail
flag, the measured numbers, and its elapsed time against the stated
runtime budget.  `run_all` drives them; the CLI verb `accept all` and the
pytest acceptance module both call into here.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import duality, gps, hermitian, isotone_cone, m2, poset, sampling

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    seed: int
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        nums = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{tag}  {self.number:2d} {self.name:<28} {nums}  ({self.elapsed:.2f}s < {self.budget:.0f}s)"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def _rng(seed: int, number: int) -> np.random.Generator:
    return np.random.default_rng([seed, number])


def _scaled(count: int, fast: bool) -> int:
    return max(1, count // 20) if fast else count


# --------------------------------------------------------------------------
# Criteria


def _c1_stone_nachbin(seed: int, fast: bool) -> tuple[bool, dict]:
    """Expression reconstruction of isotone targets is exact to 1e-9."""
    rng = _rng(seed, 1)
    n_posets = _scaled(200, fast)
    n_targets = _scaled(20, fast)
    max_err = 0.0
    for _ in range(n_posets):
        p = sampling.random_poset(rng, int(rng.integers(1, 8)))
        gens = sampling.separating_family(rng, p)
        # the draws of n_targets random_isotone calls, made in one
        targets = sampling._running_max(p.rel, rng.uniform(-2.0, 2.0, size=(n_targets, p.n)))
        exprs = isotone_cone.stone_nachbin_express_many(p, gens, targets)
        got = isotone_cone.eval_expr_many(exprs, gens)
        max_err = max(max_err, float(np.max(np.abs(got - targets))))
    return max_err <= 1e-9, {
        "posets": n_posets,
        "targets_each": n_targets,
        "max_error": max_err,
    }


def _c2_gelfand_round_trip(seed: int, fast: bool) -> tuple[bool, dict]:
    """character_order after algebra_from_poset returns the identical relation."""
    rng = _rng(seed, 2)
    n_posets = _scaled(500, fast)
    mismatches = 0
    for _ in range(n_posets):
        p = sampling.random_poset(rng, int(rng.integers(1, 9)))
        back = duality.character_order(duality.algebra_from_poset(p))
        if back != p:
            mismatches += 1
    return mismatches == 0, {"posets": n_posets, "mismatches": mismatches}


def _c3_m2_closure(seed: int, fast: bool) -> tuple[bool, dict]:
    """Sums, scalings, joins, meets of cone members stay members (1e-9)."""
    rng = _rng(seed, 3)
    pairs_per_region = _scaled(10_000, fast)
    failures = 0
    checked = 0
    noncommuting = 0
    for name, region in sampling.region_fixtures():
        del name
        c1, v1 = sampling.sample_cone_members(rng, region, pairs_per_region)
        c2, v2 = sampling.sample_cone_members(rng, region, pairs_per_region)
        mats1, mats2 = m2.matrix_from_pauli_many(c1, v1), m2.matrix_from_pauli_many(c2, v2)
        noncommuting += int((np.linalg.norm(np.cross(v1, v2), axis=1) > 1e-9).sum())
        scale = rng.exponential(size=pairs_per_region)
        half_gap = hermitian.matrix_abs_many(mats1 - mats2) / 2.0
        mid = (mats1 + mats2) / 2.0
        for stack in (
            mats1 + mats2,
            scale[:, None, None] * mats1,
            mid + half_gap,
            mid - half_gap,
        ):
            _, v = m2.pauli_vparts_many(stack)
            ok = region.cone_contains_many(v, tol=1e-9)
            failures += int((~ok).sum())
            checked += len(ok)
        # Tie the vectorized path to the scalar membership operation.
        join = mid + half_gap
        for idx in rng.integers(0, pairs_per_region, size=5):
            got = m2.iso_membership(region, hermitian.HermitianMatrix(join[idx]), tol=1e-9)
            if not got:
                failures += 1
    return failures == 0, {
        "checked": checked,
        "failures": failures,
        "noncommuting_pairs": noncommuting,
    }


def _c4_join_coefficients(seed: int, fast: bool) -> tuple[bool, dict]:
    """alpha in [0,1], beta >= 0, and the affine join identity to 1e-9."""
    rng = _rng(seed, 4)
    count = _scaled(100_000, fast)
    c = rng.normal(scale=2.0, size=(count, 2))
    v = rng.normal(size=(count, 2, 3))
    t = c[:, 0] - c[:, 1]
    r = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
    alpha, beta = m2.join_coeffs_many(t, r)
    # Reconstruction oracle: the spectral |a-b| route, independent of the
    # closed form above.
    mats1, mats2 = m2.matrix_from_pauli_many(c[:, 0], v[:, 0]), m2.matrix_from_pauli_many(c[:, 1], v[:, 1])
    join = (mats1 + mats2) / 2.0 + hermitian.matrix_abs_many(mats1 - mats2) / 2.0
    recon = (
        alpha[:, None, None] * mats1
        + (1.0 - alpha)[:, None, None] * mats2
        + beta[:, None, None] * m2.SIGMA[0]
    )
    err = float(np.max(np.abs(recon - join)))
    # Tie the scalar operation to the batch values.
    spot_err = 0.0
    for idx in rng.integers(0, count, size=200):
        al, be = m2.join_coeffs(
            hermitian.HermitianMatrix(mats1[idx]), hermitian.HermitianMatrix(mats2[idx])
        )
        spot_err = max(spot_err, abs(al - alpha[idx]), abs(be - beta[idx]))
    ok = (
        bool((alpha >= -1e-9).all())
        and bool((alpha <= 1.0 + 1e-9).all())
        and bool((beta >= -1e-9).all())
        and err <= 1e-9
        and spot_err <= 1e-12
    )
    return ok, {
        "pairs": count,
        "alpha_min": float(alpha.min()),
        "alpha_max": float(alpha.max()),
        "beta_min": float(beta.min()),
        "max_error": err,
    }


def _c5_epsilon_disks(seed: int, fast: bool) -> tuple[bool, dict]:
    """Disk regions order pure states exactly at the doubled-radius threshold."""
    rng = _rng(seed, 5)
    per_eps = _scaled(10_000, fast)
    band = 1e-6
    north = np.array([0.0, 0.0, 1.0])
    south = -north
    mismatches = 0
    total = 0
    for eps in (0.1, 0.2, 0.3, np.pi / 4):
        region = m2.SphericalRegion.cap(north, 2.0 * eps)
        pts = rng.normal(size=(per_eps, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        fs_b = np.arccos(np.clip(pts @ south, -1.0, 1.0)) / 2.0
        fs_t = np.arccos(np.clip(pts @ north, -1.0, 1.0)) / 2.0
        # Relation of the bottom state below a sample: dual test on h - south.
        below_b = region.dual_contains_many(pts - south)
        above_t = region.dual_contains_many(north - pts)
        for fs, comparable in ((fs_b, below_b), (fs_t, above_t)):
            inside = fs >= 2.0 * eps + band
            outside = fs <= 2.0 * eps - band
            mismatches += int((inside & ~comparable).sum())
            mismatches += int((outside & comparable).sum())
            total += int(inside.sum() + outside.sum())
        # Tie to the scalar pure-state operation.
        for idx in rng.integers(0, per_eps, size=25):
            p_b = m2.PureStatePoint.from_bloch(south)
            q = m2.PureStatePoint.from_bloch(pts[idx])
            rel = m2.pure_state_order(region, p_b, q)
            if (rel == "less") != bool(below_b[idx]):
                mismatches += 1
    return mismatches == 0, {"samples": total, "mismatches": mismatches}


def _c6_transversality(seed: int, fast: bool) -> tuple[bool, dict]:
    """The four fixed classifications come out exactly."""
    del seed, fast
    north_cap = m2.SphericalRegion.cap([0, 0, 1], 0.3)
    full = m2.SphericalRegion.full()
    sigma1 = m2.SIGMA[1]
    sigma3 = m2.SIGMA[3]
    cases = [
        (north_cap, sigma3, "lambda2_below_lambda1"),
        (north_cap, sigma1, "not_transverse"),
        (full, sigma3, "incomparable_spectrum"),
        (north_cap, -sigma3, "lambda1_below_lambda2"),
    ]
    got = [m2.transversality(region, mat).classification for region, mat, _ in cases]
    want = [w for _, _, w in cases]
    return got == want, {"expected": ",".join(want), "got": ",".join(got)}


def _c7_cobounded(seed: int, fast: bool) -> tuple[bool, dict]:
    """Norm additivity agrees with bounds on posets; regions always violate."""
    rng = _rng(seed, 7)
    n_posets = _scaled(500, fast)
    disagreements = 0
    bad_witness = 0
    for _ in range(n_posets):
        p = sampling.random_poset(rng, int(rng.integers(1, 9)))
        res = isotone_cone.cobounded_commutative(p)
        if res.cobounded != poset.bounds(p).bounded:
            disagreements += 1
        if res.witness is not None:
            w = res.witness
            if w.condition == "sum":
                ok = (
                    isotone_cone.is_isotone(p, w.f)
                    and isotone_cone.is_isotone(p, w.g)
                    and (w.f >= 0).all()
                    and np.max(w.f + w.g) < np.max(w.f) + np.max(w.g) - 1e-9
                )
            else:
                ok = (
                    isotone_cone.is_isotone(p, w.f)
                    and (w.f > 0).all()
                    and (w.g > 0).all()
                    and np.max(1 / w.f + 1 / w.g) < np.max(1 / w.f) + np.max(1 / w.g) - 1e-9
                )
            if not ok:
                bad_witness += 1
    min_slack = np.inf

    def norm(mm):
        return float(np.max(np.abs(np.linalg.eigvalsh(mm))))

    for _, region in sampling.region_fixtures():
        w = m2.cobounded_witness(region)
        if w is None:
            bad_witness += 1
            continue
        slack = norm(w.a.mat) + norm(w.b.mat) - norm(w.a.mat + w.b.mat)
        member = m2.iso_membership(region, w.a) and m2.iso_membership(region, w.b)
        positive = hermitian.classify(w.a).positive and hermitian.classify(w.b).positive
        if not member or not positive:
            bad_witness += 1
        min_slack = min(min_slack, slack)
    ok = disagreements == 0 and bad_witness == 0 and min_slack >= 1e-6
    return ok, {
        "posets": n_posets,
        "disagreements": disagreements,
        "bad_witnesses": bad_witness,
        "min_region_slack": float(min_slack),
    }


def _c8_projections(seed: int, fast: bool) -> tuple[bool, dict]:
    """Positive isotone objects decompose over in-cone projections, to 1e-9."""
    rng = _rng(seed, 8)
    n_functions = _scaled(10_000, fast)
    per_region = _scaled(1_000, fast)
    # Every poset and its terms padded to 8 elements and 8 levels: a padded
    # element is unrelated and a padded term is zero, so both pass every check.
    rels, values = sampling.random_isotone_stack(rng, n_functions, 8)
    values = values[:, 0]
    gaps, ind, present = isotone_cone.upset_decomposition_many(rels, values)
    worst_coeff = float(gaps[present].min(initial=np.inf))
    # term t is an up-set iff its indicator is isotone; one term slot at a
    # time, so no (functions, terms, 8, 8) temporary is built
    up_ok = np.stack([isotone_cone._isotone(rels, ind[:, t], 1e-12) for t in range(ind.shape[1])], axis=1)
    rounded = np.round(ind, 12)
    zero_one = ((rounded == 0.0) | (rounded == 1.0)).all(axis=2)
    bad = int((~(up_ok & zero_one)).sum())
    # summed over t in order, as the terms were added one by one
    max_err = float(np.abs((gaps[:, :, None] * ind).sum(axis=1) - values).max())
    stacks = []
    for _, region in sampling.region_fixtures():
        lam = rng.exponential(size=per_region) + 1e-3
        extra = rng.exponential(size=per_region)
        k = sampling.sample_region_points(rng, region, per_region)
        mats = m2.matrix_from_pauli_many(lam + extra, lam[:, None] * k)
        coeffs, projs, kept = hermitian.projection_decomposition_many(mats)
        worst_coeff = min(worst_coeff, float(coeffs[kept].min(initial=np.inf)))
        _, v = m2.pauli_vparts_many(projs[kept])
        bad += int((~region.cone_contains_many(v, tol=1e-9)).sum())
        total = (coeffs[:, :, None, None] * projs).sum(axis=1)
        max_err = max(max_err, float(np.max(np.abs(total - mats))))
        stacks.append((mats, coeffs, projs, kept))
    # Tie the scalar operation to the batch terms.
    spot_err = 0.0
    for idx in rng.integers(0, len(stacks) * per_region, size=200):
        mats, coeffs, projs, kept = stacks[idx // per_region]
        i = idx % per_region
        terms = hermitian.projection_decomposition(mats[i])
        if len(terms) != kept[i].sum():
            spot_err = np.inf
            continue
        for (coeff, proj), t in zip(terms, np.flatnonzero(kept[i])):
            spot_err = max(spot_err, abs(coeff - coeffs[i, t]), float(np.max(np.abs(proj.mat - projs[i, t]))))
    ok = worst_coeff >= -1e-12 and bad == 0 and max_err <= 1e-9 and spot_err <= 1e-12
    return ok, {
        "functions": n_functions,
        "matrices": len(stacks) * per_region,
        "min_coeff": float(worst_coeff),
        "bad_projections": bad,
        "max_error": max_err,
    }


def _c9_products(seed: int, fast: bool) -> tuple[bool, dict]:
    """Pointwise products of nonnegative isotone functions stay in the cone."""
    rng = _rng(seed, 9)
    count = _scaled(10_000, fast)
    rels, values = sampling.random_isotone_stack(rng, count, 8, functions=2)
    prod = values[:, 0] * values[:, 1]
    isotone = isotone_cone._isotone(rels, prod, 0.0)
    failures = int((~isotone | (prod < 0).any(axis=1)).sum())
    return failures == 0, {"pairs": count, "failures": failures}


def _c10_gps(seed: int, fast: bool) -> tuple[bool, dict]:
    """Landmark order equals the function-induced order; full landmarks mean equality."""
    rng = _rng(seed, 10)
    count = _scaled(200, fast)
    mismatches = 0
    for _ in range(count):
        n = int(rng.integers(2, 11))
        ids, dist = sampling.random_metric_space_data(rng, n)
        space = gps.FiniteMetricSpace(ids, dist)
        size = int(rng.integers(1, n + 1))
        landmarks = [ids[i] for i in rng.choice(n, size=size, replace=False)]
        got = gps.gps_order(space, landmarks).order
        fns = gps.landmark_functions(space, landmarks)
        want = isotone_cone.order_from_functions(ids, fns).preorder
        if got != want:
            mismatches += 1
        full = gps.gps_order(space, list(ids)).order
        if not np.array_equal(full.rel, np.eye(n, dtype=bool)):
            mismatches += 1
    return mismatches == 0, {"spaces": count, "mismatches": mismatches}


def _c11_minimality(seed: int, fast: bool) -> tuple[bool, dict]:
    """Total orders admit no coarser separating order; others get a certificate."""
    rng = _rng(seed, 11)
    count = _scaled(100, fast)
    bad_total = 0
    bad_witness = 0
    for _ in range(count):
        p = sampling.random_total_order(rng, int(rng.integers(1, 8)))
        gens = sampling.separating_family(rng, p)
        induced = isotone_cone.order_from_functions(p.elements, gens).preorder
        if not np.array_equal(induced.rel, p.rel):
            bad_total += 1
    made = 0
    while made < count:
        p = sampling.random_poset(rng, int(rng.integers(2, 8)), edge_prob=0.3)
        if p.is_total():
            continue
        made += 1
        w = isotone_cone.minimal_witness(p)
        if w is None:
            bad_witness += 1
            continue
        ix, iy = p.index(w.x), p.index(w.y)
        if p.rel[ix, iy] or p.rel[iy, ix]:
            bad_witness += 1
            continue
        if not (
            isotone_cone.is_isotone(p, w.in_cone)
            and w.in_cone[ix] < w.in_cone[iy]
            and isotone_cone.is_isotone(p, w.outside)
            and w.outside[ix] > w.outside[iy]
        ):
            bad_witness += 1
            continue
        for a in p.elements:
            for b in p.elements:
                if a == b:
                    continue
                h = w.separator(a, b)
                if (
                    not isotone_cone.is_isotone(p, h)
                    or h[ix] > h[iy]
                    or h[p.index(a)] == h[p.index(b)]
                ):
                    bad_witness += 1
    ok = bad_total == 0 and bad_witness == 0
    return ok, {
        "total_orders": count,
        "non_total": count,
        "bad_total": bad_total,
        "bad_witness": bad_witness,
    }


CRITERIA: list[tuple[int, str, float, object]] = [
    (1, "stone-nachbin-exactness", 10.0, _c1_stone_nachbin),
    (2, "gelfand-naimark-round-trip", 5.0, _c2_gelfand_round_trip),
    (3, "m2-membership-closure", 30.0, _c3_m2_closure),
    (4, "join-coefficients", 10.0, _c4_join_coefficients),
    (5, "epsilon-disk-thresholds", 20.0, _c5_epsilon_disks),
    (6, "transversality-cases", 1.0, _c6_transversality),
    (7, "cobounded-duality", 1.0, _c7_cobounded),
    (8, "projection-decomposition", 6.0, _c8_projections),
    (9, "commuting-products", 5.0, _c9_products),
    (10, "gps-consistency", 1.0, _c10_gps),
    (11, "minimality-total-orders", 1.0, _c11_minimality),
]


def run_all(seed: int = 7, fast: bool = False, only: list[int] | None = None) -> list[CriterionResult]:
    results = []
    for number, name, budget, fn in CRITERIA:
        if only and number not in only:
            continue
        start = time.perf_counter()
        ok, details = fn(seed, fast)
        elapsed = time.perf_counter() - start
        passed = ok and (fast or elapsed < budget)
        results.append(
            CriterionResult(
                number=number,
                name=name,
                passed=passed,
                elapsed=elapsed,
                budget=budget,
                seed=seed,
                details=details,
            )
        )
    return results
