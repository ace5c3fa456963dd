"""The two request streams: many small poset requests, many small 2x2 queries.

Both are closed loops with one caller: the next request starts when the
previous one and its answer check are done.  Inputs come from the
benchmark's own vectorised numpy generators, seeded by the run seed, and
every answer is compared with a reference computed here, never with a
second call into ordercones.  A pool of requests is generated in set-up as
a few stacked arrays and walked in order (a run that outlasts the pool
starts over at its beginning); each request's inputs are cut from them
just before the request is timed, so the pool adds little to the
process's memory.
"""
from __future__ import annotations

import resource

import numpy as np

from common import Digest, Outcome, clock, expect, rescaled_summary
from geometry import RefRegion, hopf, pauli_matrices, region_jsons, relations, unit_rows

TOL = 1e-9
CHUNK = 2048  # requests generated at a time in set-up


class Stream:
    """A pool of requests run one after another, each timed and checked."""

    name = ""
    block = 1
    warmup = 200  # untimed requests before the first timed one
    fixed_count = 3000  # requests in each pass of a traced run

    def __init__(self, tiny: bool):
        self.digest = Digest()
        if tiny:
            self.warmup, self.fixed_count = 40, 100
        self.cursor = 0

    def warm_up(self) -> None:
        _, self.cursor = self.run(0, count=self.warmup)

    def measure(self, seconds: float) -> Outcome:
        out, self.cursor = self.run(self.cursor, seconds=seconds)
        return out

    def fixed(self, tracer=None) -> Outcome:
        """The same fixed run of requests each time it is called."""
        out, _ = self.run(self.warmup, count=self.fixed_count, tracer=tracer)
        return out

    def headline(self, out: Outcome, gauge) -> dict:
        return rescaled_summary(out, gauge, tail_q=99.0)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def case(self, i: int) -> dict:
        """The inputs and references of request i."""
        raise NotImplementedError

    def request(self, i: int, c: dict):
        raise NotImplementedError

    def check(self, c: dict, res) -> None:
        raise NotImplementedError

    def align(self, i: int) -> int:
        return -(-i // self.block) * self.block

    def run(self, start: int, count: int | None = None, seconds: float | None = None, tracer=None) -> tuple[Outcome, int]:
        """Run from request `start` for `count` requests or `seconds`; return the next index."""
        out = Outcome()
        lat = out.latencies
        i = self.align(start)
        began = clock()
        deadline = None if seconds is None else began + seconds
        while True:
            if count is not None and out.attempted >= count:
                break
            if deadline is not None and clock() >= deadline:
                break
            if tracer is not None:
                tracer.request = i
            c = self.case(i)
            t0 = clock()
            out.starts.append(t0)
            try:
                res = self.request(i, c)
            except Exception as exc:  # one failed request; the run goes on
                t1 = clock()
                out.fail(f"{self.name} request {i}", exc)
            else:
                t1 = clock()
                try:
                    self.check(c, res)
                except Exception as exc:
                    out.fail(f"{self.name} request {i}", exc)
            lat.append(t1 - t0)
            out.attempted += 1
            i += 1
        out.ended = clock()
        out.wall_s = out.ended - began
        return out, i


# --------------------------------------------------------------------------
# poset_stream


def stratified_sizes(rng: np.random.Generator, count: int, lo: int, hi: int) -> np.ndarray:
    """Sizes lo..hi, each equally often in every run of hi-lo+1, in random order.

    The median request sits between sizes of very different cost, so a mix
    that drifted with the seed would move it; this one cannot.
    """
    span = hi - lo + 1
    runs = np.argsort(rng.random((-(-count // span), span)), axis=1) + lo
    return runs.ravel()[:count]


def random_posets(rng: np.random.Generator, count: int, nmax: int, edge_prob: float = 0.35):
    """Sizes, generating edges and closed relations of `count` random posets.

    Each poset orders a random permutation of its n elements along a random
    upper-triangular edge set; arrays are padded to nmax.
    """
    n = stratified_sizes(rng, count, 1, nmax)
    slot = np.arange(nmax)
    valid = slot[None, :] < n[:, None]
    keys = np.where(valid, rng.random((count, nmax)), 2.0)
    perm = np.argsort(keys, axis=1)
    onehot = np.zeros((count, nmax, nmax), dtype=np.int64)
    onehot[np.arange(count)[:, None], slot[None, :], perm] = 1
    upper = np.triu(np.ones((nmax, nmax), dtype=bool), 1)
    edges = (rng.random((count, nmax, nmax)) < edge_prob) & upper & valid[:, :, None] & valid[:, None, :]
    gen = (onehot.transpose(0, 2, 1) @ edges.astype(np.int64) @ onehot) > 0
    rel = gen | (np.eye(nmax, dtype=bool)[None] & valid[:, :, None])
    for _ in range(int(np.ceil(np.log2(max(nmax, 2))))):
        r = rel.astype(np.int64)
        rel = rel | ((r @ r) > 0)
    return n, gen, rel, valid


def random_isotone(rng: np.random.Generator, rel: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Running maxima of uniform noise over down-sets: isotone by construction."""
    raw = rng.uniform(lo, hi, size=rel.shape[:2])
    return np.where(rel, raw[:, :, None], -np.inf).max(axis=1)


class PosetStream(Stream):
    """Small commutative requests; every GPS_EVERY-th one is a metric space."""

    name = "poset_stream"
    NMAX = 8
    GPS_EVERY = 10
    GPS_NMAX = 10

    def __init__(self, seed: int, tiny: bool):
        super().__init__(tiny)
        from ordercones import duality, gps, isotone_cone, poset

        self.poset, self.iso, self.duality, self.gps = poset, isotone_cone, duality, gps
        rng = np.random.default_rng([seed, 1])
        count = 512 if tiny else 16384
        self.count = count
        # Generated and kept in chunks, so that set-up's temporaries stay
        # small next to the library's own memory.
        self.parts = [self._chunk(rng, min(CHUNK, count - lo)) for lo in range(0, count, CHUNK)]

        gcount = max(1, count // self.GPS_EVERY)
        gm = self.GPS_NMAX
        self.gn = stratified_sizes(rng, gcount, 2, gm)
        pts = rng.uniform(-1.0, 1.0, size=(gcount, gm, 3))
        self.dist = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=3)
        gvalid = np.arange(gm)[None, :] < self.gn[:, None]
        self.lm_order = np.argsort(np.where(gvalid, rng.random((gcount, gm)), 2.0), axis=1)
        self.lm_count = np.floor(rng.random(gcount) * self.gn).astype(int) + 1
        self.digest.add(self.gn, pts, self.lm_order, self.lm_count)

    def _chunk(self, rng: np.random.Generator, count: int) -> dict:
        """Inputs and references of `count` poset requests."""
        nm = self.NMAX
        n, gen, rel, valid = random_posets(rng, count, nm)
        scale = rng.uniform(0.5, 2.0, size=(count, nm))
        shift = rng.uniform(-1.0, 1.0, size=(count, nm))
        extra = np.stack([random_isotone(rng, rel, -2.0, 2.0) for _ in range(2)], axis=1)
        target = random_isotone(rng, rel, -2.0, 2.0)
        nonneg = random_isotone(rng, rel, 0.0, 3.0)
        arbitrary = rng.uniform(-2.0, 2.0, size=(count, nm))
        self.digest.add(n, gen, scale, shift, extra, target, nonneg, arbitrary)

        related = rel & valid[:, :, None] & valid[:, None, :]
        diff = arbitrary[:, None, :] - arbitrary[:, :, None]
        arb_iso = ~(related & (diff < -1e-12)).any(axis=(1, 2))
        whole = valid[:, :, None] & valid[:, None, :]
        total = ((rel | rel.transpose(0, 2, 1)) | ~whole).all(axis=(1, 2))
        top = ((rel | ~valid[:, :, None]).all(axis=1)) & valid
        bottom = ((rel | ~valid[:, None, :]).all(axis=2)) & valid

        return {
            "n": n, "gen": gen, "rel": rel, "scale": scale, "shift": shift, "extra": extra,
            "target": target, "nonneg": nonneg, "arbitrary": arbitrary, "arb_iso": arb_iso, "total": total,
            "top_at": np.where(top.any(axis=1), top.argmax(axis=1), -1),
            "bottom_at": np.where(bottom.any(axis=1), bottom.argmax(axis=1), -1),
        }

    def case(self, i: int) -> dict:
        if i % self.GPS_EVERY == self.GPS_EVERY - 1:
            k = (i // self.GPS_EVERY) % len(self.gn)
            m = int(self.gn[k])
            names = [f"x{j}" for j in range(m)]
            lms = self.lm_order[k, : self.lm_count[k]]
            d = self.dist[k, :m, :m]
            prof = d[:, lms].T  # one row per landmark
            return {
                "kind": "gps",
                "json": {"points": names, "dist": d.tolist()},
                "landmarks": [names[j] for j in lms.tolist()],
                "profiles": prof,
                "names": tuple(names),
                "rel": (prof[:, :, None] <= prof[:, None, :] + 1e-12).all(axis=0),
            }
        k = i % self.count
        part, k = self.parts[k // CHUNK], k % CHUNK
        m = int(part["n"][k])
        names = [f"e{j}" for j in range(m)]
        rel = part["rel"][k, :m, :m]
        src, dst = np.nonzero(part["gen"][k, :m, :m])
        top, bottom = int(part["top_at"][k]), int(part["bottom_at"][k])
        # The separating family: scaled and shifted up-set indicators, then two isotone functions.
        indicators = rel * part["scale"][k, :m, None] + part["shift"][k, :m, None]
        return {
            "kind": "poset",
            "json": {"elements": names, "pairs": [[names[a], names[b]] for a, b in zip(src.tolist(), dst.tolist())]},
            "names": tuple(names),
            "rel": rel,
            "gens": np.concatenate([indicators, part["extra"][k, :, :m]]),
            "target": part["target"][k, :m],
            "nonneg": part["nonneg"][k, :m],
            "arbitrary": part["arbitrary"][k, :m],
            "arbitrary_isotone": bool(part["arb_iso"][k]),
            "total": bool(part["total"][k]),
            "top": names[top] if top >= 0 else None,
            "bottom": names[bottom] if bottom >= 0 else None,
        }

    def request(self, i: int, req: dict):
        iso = self.iso
        if req["kind"] == "gps":
            space = self.gps.FiniteMetricSpace.from_json(req["json"])
            order = self.gps.gps_order(space, req["landmarks"])
            induced = iso.order_from_functions(req["names"], req["profiles"])
            return order, induced
        p = self.poset.FinitePoset.from_json(req["json"])
        gens = req["gens"]
        flags = (iso.is_isotone(p, req["target"]), iso.is_isotone(p, req["arbitrary"]))
        expr = iso.stone_nachbin_express(p, gens, req["target"])
        values = iso.eval_expr(expr, gens)
        terms = iso.upset_decomposition(p, req["nonneg"])
        back = self.duality.character_order(self.duality.algebra_from_poset(p))
        cob = iso.cobounded_commutative(p)
        bnd = self.poset.bounds(p)
        witness = iso.minimal_witness(p)
        return p, flags, values, terms, back, cob, bnd, witness

    def check(self, req: dict, res) -> None:
        if req["kind"] == "gps":
            order, induced = res
            expect(order.order.elements == req["names"], "gps ids changed")
            expect(np.array_equal(order.order.rel, req["rel"]), "gps_order relation differs from reference")
            expect(np.array_equal(induced.preorder.rel, req["rel"]), "order_from_functions differs from reference")
            return
        p, flags, values, terms, back, cob, bnd, witness = res
        rel = req["rel"]
        expect(p.elements == req["names"] and np.array_equal(p.rel, rel), "constructed relation is not the closure")
        expect(flags == (True, req["arbitrary_isotone"]), f"is_isotone gave {flags}")
        expect(np.max(np.abs(values - req["target"])) <= TOL, "reconstruction error above 1e-9")
        f = req["nonneg"]
        total = np.zeros(len(f))
        for coeff, ind in terms:
            expect(coeff >= -1e-12, "negative decomposition coefficient")
            expect(set(np.unique(ind).tolist()) <= {0.0, 1.0}, "indicator is not 0/1")
            expect(not (rel & (ind[None, :] < ind[:, None])).any(), "indicator is not an up-set")
            total += coeff * ind
        expect(np.max(np.abs(total - f)) <= TOL, "decomposition error above 1e-9")
        expect(back.elements == req["names"] and np.array_equal(back.rel, rel), "round trip changed the poset")
        bounded = req["top"] is not None and req["bottom"] is not None
        expect(cob.cobounded == bounded, "co-boundedness disagrees with bounds")
        expect((bnd.top, bnd.bottom) == (req["top"], req["bottom"]), "bounds differ from reference")
        if req["total"]:
            expect(witness is None, "witness for a total order")
            return
        expect(witness is not None, "no witness for a non-total poset")
        x, y = req["names"].index(witness.x), req["names"].index(witness.y)
        expect(not rel[x, y] and not rel[y, x], "witness pair is comparable")
        for g, sign in ((witness.in_cone, 1.0), (witness.outside, -1.0)):
            expect(not (rel & (g[None, :] < g[:, None])).any(), "witness function is not isotone")
            expect(sign * (g[y] - g[x]) > 0, "witness function has the wrong gap")


# --------------------------------------------------------------------------
# m2_stream


class M2Stream(Stream):
    """Small per-pair queries; the region is parsed at the start of each block."""

    name = "m2_stream"
    block = 20
    fixed_count = 5000

    def __init__(self, seed: int, tiny: bool):
        super().__init__(tiny)
        from ordercones import hermitian, m2

        self.herm, self.m2 = hermitian, m2
        rng = np.random.default_rng([seed, 2])
        self.regions = region_jsons()
        refs = [RefRegion(r) for r in self.regions]
        blocks = 32 if tiny else 1600
        count = blocks * self.block
        # Each run of ten blocks visits every region kind once.
        self.block_kind = np.concatenate([rng.permutation(len(refs)) for _ in range(-(-blocks // len(refs)))])[:blocks]
        self.kind = np.repeat(self.block_kind, self.block)
        self.digest.add(self.regions, self.block_kind)
        # In chunks, so that set-up's temporaries stay small next to the library's memory.
        self.parts = [self._chunk(rng, refs, self.kind[lo : lo + CHUNK]) for lo in range(0, count, CHUNK)]
        self.region = None

    def _chunk(self, rng: np.random.Generator, refs: list, kind: np.ndarray):
        """Inputs and references of the requests of region kinds `kind`."""
        count = len(kind)
        inside = np.empty((count, 3))
        for r, ref in enumerate(refs):
            rows = np.flatnonzero(kind == r)
            inside[rows] = ref.sample_inside(rng, len(rows))
        anywhere = unit_rows(rng.normal(size=(count, 3)))
        use_inside = rng.random(count) < 0.5
        ca = rng.normal(scale=1.5, size=count)
        va = np.where(use_inside[:, None], inside, anywhere) * rng.exponential(size=count)[:, None]
        cb = rng.normal(scale=1.5, size=count)
        vb = rng.normal(size=(count, 3))
        p = unit_rows(rng.normal(size=(count, 3)))
        q = unit_rows(rng.normal(size=(count, 3)))
        rho = unit_rows(rng.normal(size=(count, 3))) * rng.random(count)[:, None] ** (1 / 3)
        sigma = unit_rows(rng.normal(size=(count, 3))) * rng.random(count)[:, None] ** (1 / 3)
        lam = rng.exponential(size=count) + 1e-3
        extra = rng.exponential(size=count)
        k_in = np.empty((count, 3))
        for r, ref in enumerate(refs):
            rows = np.flatnonzero(kind == r)
            k_in[rows] = ref.sample_inside(rng, len(rows))
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=count))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
        xi = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
        xi_perp = np.stack([-np.conj(xi[:, 1]), np.conj(xi[:, 0])], axis=1)
        lam1 = rng.normal(size=count) + 1j * rng.normal(size=count)
        step = rng.uniform(0.1, 2.0, size=count) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=count))
        lam2 = lam1 + step
        self.digest.add(use_inside, ca, va, cb, vb, p, q, rho, sigma, lam, extra, k_in, xi, lam1, lam2)

        a = pauli_matrices(ca, va)
        b = pauli_matrices(cb, vb)
        pos = pauli_matrices(lam + extra, lam[:, None] * k_in)
        unitary = np.stack([xi, xi_perp], axis=2)  # columns are eigenvectors
        normal = unitary @ (np.stack([lam1, lam2], axis=1)[:, :, None] * unitary.conj().transpose(0, 2, 1))
        # Reference join of the pair: the spectral (a+b)/2 + |a-b|/2, via eigh.
        vals, vecs = np.linalg.eigh(a - b)
        half_gap = (vecs * np.abs(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1) / 2.0
        join = (a + b) / 2.0 + half_gap
        meet = (a + b) / 2.0 - half_gap
        top_first = (lam1.real > lam2.real) | ((lam1.real == lam2.real) & (lam1.imag > lam2.imag))
        top_vec = np.where(top_first[:, None], xi, xi_perp)
        axis = hopf(top_vec)
        eig_sorted = np.where(top_first[:, None], np.stack([lam1, lam2], 1), np.stack([lam2, lam1], 1))
        fs = np.arctan2(np.linalg.norm(np.cross(p, q), axis=1), np.einsum("ij,ij->i", p, q)) / 2.0

        member = [None] * count
        proj_in = np.empty(count)
        axis_plus = np.empty(count)
        axis_minus = np.empty(count)
        pure = [None] * count
        mixed = [None] * count
        for r, ref in enumerate(refs):
            rows = np.flatnonzero(kind == r)
            for j, m in zip(rows, ref.cone_margin(va[rows])):
                member[j] = None if abs(m) < 1e-6 else bool(m > 0)
            proj_in[rows] = ref.cone_margin(k_in[rows])
            axis_plus[rows] = ref.cone_margin(axis[rows])
            axis_minus[rows] = ref.cone_margin(-axis[rows])
            for j, rel in zip(rows, relations(ref, p[rows], q[rows])):
                pure[j] = rel
            for j, rel in zip(rows, relations(ref, rho[rows], sigma[rows])):
                mixed[j] = rel
        # Transversality class from the cone margins of +-axis; None inside the band.
        decided = (np.abs(axis_plus) >= 1e-6) & (np.abs(axis_minus) >= 1e-6)
        tclass = np.select(
            [(axis_plus > 0) & (axis_minus > 0), axis_plus > 0, axis_minus > 0],
            ["incomparable_spectrum", "lambda2_below_lambda1", "lambda1_below_lambda2"],
            "not_transverse",
        )

        return {
            "a": a, "b": b, "pos": pos, "normal": normal, "p": p, "q": q, "rho": rho, "sigma": sigma,
            "join": join, "meet": meet, "fs": fs, "proj_inside": proj_in > 1e-6, "eigs": eig_sorted,
            "member": member, "pure": pure, "mixed": mixed,
            "tclass": [str(t) if ok else None for t, ok in zip(tclass, decided)],
        }

    def case(self, i: int) -> dict:
        slot = i % len(self.kind)
        c = {key: col[slot % CHUNK] for key, col in self.parts[slot // CHUNK].items()}
        c["slot"] = slot
        return c

    def request(self, i: int, c: dict):
        m2, herm = self.m2, self.herm
        slot = c["slot"]
        if slot % self.block == 0:
            self.region = m2.SphericalRegion.from_json(self.regions[self.kind[slot]])
        region = self.region
        a = herm.HermitianMatrix(c["a"])
        b = herm.HermitianMatrix(c["b"])
        member = m2.iso_membership(region, a)
        alpha, beta = m2.join_coeffs(a, b)
        join, meet = herm.lattice_ops(a, b)
        p = m2.PureStatePoint.from_bloch(c["p"])
        q = m2.PureStatePoint.from_bloch(c["q"])
        pure = m2.pure_state_order(region, p, q)
        mixed = m2.state_order(region, m2.DensityState(c["rho"]), m2.DensityState(c["sigma"]))
        fs = m2.fubini_study(p, q)
        terms = herm.projection_decomposition(herm.HermitianMatrix(c["pos"]))
        in_cone = [m2.iso_membership(region, proj) for _, proj in terms]
        trans = m2.transversality(region, c["normal"])
        return member, alpha, beta, join, meet, pure, mixed, fs, terms, in_cone, trans

    def check(self, c: dict, res) -> None:
        member, alpha, beta, join, meet, pure, mixed, fs, terms, in_cone, trans = res
        if c["member"] is not None:
            expect(member == c["member"], f"iso_membership gave {member}")
        expect(np.max(np.abs(join.mat - c["join"])) <= TOL, "lattice join differs from reference")
        expect(np.max(np.abs(meet.mat - c["meet"])) <= TOL, "lattice meet differs from reference")
        expect(-TOL <= alpha <= 1.0 + TOL and beta >= -TOL, "join coefficients out of range")
        affine = alpha * c["a"] + (1.0 - alpha) * c["b"] + beta * np.eye(2)
        expect(np.max(np.abs(affine - c["join"])) <= TOL, "join identity fails")
        if c["pure"] is not None:
            expect(pure == c["pure"], f"pure_state_order gave {pure}, want {c['pure']}")
        if c["mixed"] is not None:
            expect(mixed == c["mixed"], f"state_order gave {mixed}, want {c['mixed']}")
        expect(abs(fs - c["fs"]) <= TOL, "Fubini-Study distance differs")
        total = np.zeros((2, 2), dtype=complex)
        for coeff, proj in terms:
            expect(coeff >= -1e-12, "negative projection coefficient")
            total += coeff * proj.mat
        expect(np.max(np.abs(total - c["pos"])) <= TOL, "projection decomposition error above 1e-9")
        if c["proj_inside"]:
            expect(all(in_cone), "a spectral projection left the cone")
        if c["tclass"] is not None:
            expect(trans.classification == c["tclass"], f"transversality gave {trans.classification}")
        expect(np.max(np.abs(np.array(trans.eigenvalues) - c["eigs"])) <= TOL, "transversality eigenvalues differ")

