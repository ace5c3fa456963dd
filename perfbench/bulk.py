"""The bulk workloads: one large call through in-process ``cli.main``, repeated.

There is one workload per call, so each kernel has gates of its own:

  bulk_sprinkle  poset sprinkle --n 1000 (JSON): closure, covering_pairs, to_json
  bulk_prune     cone express --prune, 60-element dominance orders, 30 generators
  bulk_scan      m2 order --samples 100000 --format csv on a hull
  bulk_accept    accept all --seed <seed>

Each call writes its answer with ``--out`` to a file under the work
directory; the answer is then read back and checked against the
benchmark's own recomputation, outside the timed call.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
from pathlib import Path

import numpy as np

from common import Digest, Outcome, clock, eval_expr_json, expect, rescaled_summary
from geometry import BAND, RefRegion, region_jsons

HULL = region_jsons()[7]  # the four-vertex skew hull: extreme-ray pruning plus facet normals
# Typical wall seconds of one call with its answer check on the machine
# the baseline was measured on.  A run makes round(seconds / CALL_S) calls,
# at least MIN_CALLS: a count fixed by --seconds alone, not by how fast the
# host happens to be, so the slowest-call statistic means the same in every
# run.  For prune, 10 seconds give one call per input of PRUNE_INPUTS.
CALL_S = {"bulk_sprinkle": 3.2, "bulk_prune": 0.42, "bulk_scan": 3.8, "bulk_accept": 7.0}
MIN_CALLS = 2
# Prune's cost depends on the order and target (its run time spreads by
# about 25% from one input to the next), so each prune call gets the next
# of this many inputs and a run measures their mix, not one draw.
PRUNE_INPUTS = 24


def covering(rel: np.ndarray) -> np.ndarray:
    """Transitive reduction of a closed relation, via a float32 BLAS product."""
    strict = rel & ~np.eye(len(rel), dtype=bool)
    s = strict.astype(np.float32)
    return strict & ~((s @ s) > 0)


def dominance_input(rng: np.random.Generator, n: int):
    """A random 2-D dominance order with about n/2 isotone generators."""
    pts = rng.random((n, 2))
    rel = (pts[:, None, 0] <= pts[None, :, 0]) & (pts[:, None, 1] <= pts[None, :, 1])
    raw = rng.uniform(-2.0, 2.0, size=(max(n // 2 - 2, 0) + 1, n))
    # Running maxima over down-sets: isotone for the order, like the target.
    iso = np.where(rel[None, :, :], raw[:, :, None], -np.inf).max(axis=1)
    gens = np.vstack([pts.T, iso[:-1]])
    return pts, rel, gens, iso[-1]


class Bulk:
    """One of the four large calls, made again and again, each time checked."""

    def __init__(self, name: str, seed: int, tiny: bool, workdir: Path):
        from ordercones import cli

        self.name = name
        self.cli = cli
        self.tiny = tiny
        self.work = workdir
        self.work.mkdir(parents=True, exist_ok=True)
        self.digest = Digest()
        self.out = str(self.work / f"out_{name}")
        self.acceptance: dict[str, list[float]] = {}  # elapsed per criterion, over the calls
        # Call k runs argvs[k % len(argvs)] and checks its answer with check(k % len(argvs)).
        if name == "bulk_sprinkle":
            self.sprinkle_n = 60 if tiny else 1000
            self.digest.add(self.sprinkle_n, seed)
            self.argvs = [["poset", "sprinkle", "--n", str(self.sprinkle_n), "--seed", str(seed)]]
            self.check = self._check_sprinkle
            small = ["poset", "sprinkle", "--n", "20", "--seed", "1"]
        elif name == "bulk_prune":
            prune_n = 12 if tiny else 60
            rng = np.random.default_rng([seed, 3])
            names = [f"d{i}" for i in range(prune_n)]
            self.gens, self.target, self.argvs = [], [], []
            for k in range(PRUNE_INPUTS):
                pts, rel, gens, target = dominance_input(rng, prune_n)
                src, dst = np.nonzero(covering(rel))
                poset_json = {"elements": names, "pairs": [[names[a], names[b]] for a, b in zip(src, dst)]}
                files = self._write_inputs(k, poset=poset_json, gens=gens.tolist(), target=target.tolist())
                self.digest.add(pts, gens, target)
                self.gens.append(gens)
                self.target.append(target)
                self.argvs.append(["cone", "express", "--poset", files["poset"], "--generators", files["gens"],
                                   "--target", files["target"], "--prune"])
            self.check = self._check_express
            small = ["cone", "express", "--poset", '{"elements":["a","b"],"pairs":[["a","b"]]}',
                     "--generators", "[[0,1]]", "--target", "[0,2]", "--prune"]
        elif name == "bulk_scan":
            self.samples = 500 if tiny else 100_000
            files = self._write_inputs(0, hull=HULL)
            self.ref_hull = RefRegion(HULL)
            self.digest.add(HULL, self.samples, seed)
            self.argvs = [["m2", "order", "--region", files["hull"], "--samples", str(self.samples),
                           "--seed", str(seed), "--format", "csv"]]
            self.check = self._check_scan
            small = ["m2", "order", "--region", files["hull"], "--samples", "50", "--format", "csv"]
        elif name == "bulk_accept":
            self.digest.add(seed)
            self.argvs = [["accept", "all", "--seed", str(seed)] + (["--fast", "--criteria", "2,6,10"] if tiny else [])]
            self.check = self._check_accept
            small = ["accept", "all", "--fast", "--criteria", "6"]
        else:
            raise ValueError(f"unknown bulk workload {name!r}")
        for argv in self.argvs:
            argv += ["--out", self.out]
        self.small = small + ["--out", str(self.work / f"warm_up_{name}.out")]

    def _write_inputs(self, k: int, **inputs) -> dict[str, str]:
        files = {}
        for key, data in inputs.items():
            path = self.work / f"in_{self.name}_{k}_{key}.json"
            path.write_text(json.dumps(data))
            files[key] = str(path)
        return files

    def _call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def warm_up(self) -> None:
        """A small version of the call: lazy imports and solver set-up."""
        self._call(self.small)

    def _run(self, calls: int, tracer=None) -> Outcome:
        out = Outcome()
        self.acceptance = {}
        began = clock()
        for k in range(calls):
            if tracer is not None:
                tracer.request = k
            j = k % len(self.argvs)
            t0 = clock()
            try:
                rc = self._call(self.argvs[j])
            except Exception as exc:
                t1 = clock()
                out.fail(self.name, exc)
            else:
                t1 = clock()
                try:
                    expect(rc == 0, f"exit code {rc}")
                    self.check(j)
                except Exception as exc:
                    out.fail(self.name, exc)
            out.attempted += 1
            out.starts.append(t0)
            out.latencies.append(t1 - t0)
        out.ended = clock()
        out.wall_s = out.ended - began
        out.detail.update({k: (statistics.median(v), "s") for k, v in self.acceptance.items()})
        return out

    def measure(self, seconds: float) -> Outcome:
        calls = 1 if self.tiny else max(MIN_CALLS, round(seconds / CALL_S[self.name]))
        return self._run(calls)

    def fixed(self, tracer=None) -> Outcome:
        return self._run(1, tracer)

    def headline(self, out: Outcome, gauge) -> dict:
        # A few calls support no p99: the tail reported is the slowest call,
        # or for prune's two dozen calls on different inputs, p90.
        return rescaled_summary(out, gauge, tail_q=90.0 if self.name == "bulk_prune" else 100.0)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Answer checks ---------------------------------------------------------

    def _check_sprinkle(self, k: int) -> None:
        with open(self.out, encoding="utf-8") as fh:
            data = json.load(fh)
        names = data["elements"]
        expect(len(names) == self.sprinkle_n, "wrong point count")
        t = np.array([data["coords"][e]["t"] for e in names])
        x = np.array([data["coords"][e]["x"] for e in names])
        rel = np.array(data["relation"], dtype=bool)
        u, v = t + x, t - x
        du, dv, dt = (w[None, :] - w[:, None] for w in (u, v, t))
        want = ((du >= 0) & (dv >= 0) & (dt > 0)) | np.eye(len(t), dtype=bool)
        decided = (np.abs(du) > BAND) & (np.abs(dv) > BAND) & (np.abs(dt) > BAND)
        np.fill_diagonal(decided, True)
        expect(not (decided & (rel != want)).any(), "sprinkled relation differs from the coordinates")
        index = {e: i for i, e in enumerate(names)}
        got = np.zeros_like(rel)
        for a, b in data["pairs"]:
            got[index[a], index[b]] = True
        expect(np.array_equal(got, covering(rel)), "emitted pairs are not the covering pairs")

    def _check_express(self, k: int) -> None:
        with open(self.out, encoding="utf-8") as fh:
            data = json.load(fh)
        expect(data["max_error"] <= 1e-9, f"reported error {data['max_error']}")
        err = float(np.max(np.abs(eval_expr_json(data["expr"], self.gens[k]) - self.target[k])))
        expect(err <= 1e-9, f"pruned expression misses the target by {err:.3g}")

    def _check_scan(self, k: int) -> None:
        with open(self.out, encoding="utf-8") as fh:
            header = fh.readline().strip()
        expect(header == "px,py,pz,qx,qy,qz,relation", "unexpected CSV header")
        # Parsed into arrays, not Python rows, so the check adds little to peak memory.
        nums = np.loadtxt(self.out, delimiter=",", skiprows=1, usecols=range(6), ndmin=2)
        got = np.loadtxt(self.out, delimiter=",", skiprows=1, usecols=6, dtype=str, ndmin=1)
        expect(len(nums) == self.samples and len(got) == self.samples, "wrong sample count")
        p, q = nums[:, :3], nums[:, 3:]
        d = q - p
        fwd, back = self.ref_hull.dual_margin(d), self.ref_hull.dual_margin(-d)
        decided = (np.abs(fwd) >= BAND) & (np.abs(back) >= BAND) & (np.linalg.norm(d, axis=1) > BAND)
        want = np.where(fwd > 0, "less", np.where(back > 0, "greater", "incomparable"))
        bad = decided & (got != want)
        expect(not bad.any(), f"{int(bad.sum())} scan relations differ from the reference")

    def _check_accept(self, k: int) -> None:
        with open(self.out, encoding="utf-8") as fh:
            report = json.load(fh)
        expect(report["all_passed"] is True, "accept all did not pass")
        for c in report["criteria"]:
            self.acceptance.setdefault(f"acceptance.c{c['number']}_s", []).append(float(c["elapsed"]))
