"""The cli_cold workload: one fresh ``python -m ordercones.cli`` process per call.

Calls run one at a time over a fixed mix of README verbs, so every call
pays interpreter start, ``import ordercones`` and argparse set-up.  Each
call's stdout is parsed and checked against a reference computed here.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import Digest, Outcome, clock, eval_expr_json, expect, rescaled_summary
from geometry import RefRegion, pauli_matrices, region_jsons, relation, unit_rows
from streams import random_isotone, random_posets

VERBS = ("poset check", "cone express", "m2 member", "m2 order", "herm lattice", "dual characters", "gps order")
POOL = 64  # calls generated per verb; a run walks them in order
MIN_ROUNDS = 3  # rounds of the verb mix per run, at least: 21 calls, each verb three times
TOL = 1e-9


def _herm_json(m: np.ndarray) -> str:
    return json.dumps({"n": 2, "re": m.real.tolist(), "im": m.imag.tolist()})


def _matrix(data: dict) -> np.ndarray:
    return np.array(data["re"]) + 1j * np.array(data["im"])


class CliCold:
    name = "cli_cold"

    def __init__(self, seed: int, tiny: bool, root: Path, env: dict):
        self.root = root
        self.env = env
        self.command = [sys.executable, "-m", "ordercones.cli"]
        self.digest = Digest()
        rng = np.random.default_rng([seed, 4])
        regions = region_jsons()
        refs = [RefRegion(r) for r in regions]
        per = 8 if tiny else POOL
        self.min_rounds = 1 if tiny else MIN_ROUNDS
        calls: dict[str, list[tuple[list[str], object]]] = {v: [] for v in VERBS}

        n, gen, rel, _ = random_posets(rng, 3 * per, 8)
        target = random_isotone(rng, rel, -2.0, 2.0)
        scale = rng.uniform(0.5, 2.0, size=(3 * per, 8))
        self.digest.add(n, gen, target, scale)
        for k in range(3 * per):
            m = int(n[k])
            names = [f"e{i}" for i in range(m)]
            src, dst = np.nonzero(gen[k, :m, :m])
            pjson = json.dumps({"elements": names, "pairs": [[names[a], names[b]] for a, b in zip(src, dst)]})
            r = rel[k, :m, :m]
            if k % 3 == 0:
                bounded = bool(r.all(axis=0).any() and r.all(axis=1).any())
                calls["poset check"].append((["poset", "check", "--in", pjson], {"valid": True, "bounded": bounded}))
            elif k % 3 == 1:
                gens = r.astype(float) * scale[k, :m, None]
                argv = ["cone", "express", "--poset", pjson, "--generators", json.dumps(gens.tolist()),
                        "--target", json.dumps(target[k, :m].tolist())]
                calls["cone express"].append((argv, (gens, target[k, :m])))
            else:
                calls["dual characters"].append((["dual", "characters", "--in", pjson], (names, r)))

        hulls = [i for i, r in enumerate(regions) if r["kind"] == "hull"]
        which = rng.choice(hulls, size=per)
        c = rng.normal(scale=1.5, size=per)
        v = unit_rows(rng.normal(size=(per, 3))) * rng.exponential(size=per)[:, None]
        self.digest.add(which, c, v)
        mats = pauli_matrices(c, v)
        for k in range(per):
            ref = refs[which[k]]
            margin = float(ref.cone_margin(v[k])[0])
            want = None if abs(margin) < 1e-6 else margin > 0
            argv = ["m2", "member", "--region", json.dumps(regions[which[k]]), "--matrix", _herm_json(mats[k])]
            calls["m2 member"].append((argv, want))

        which = rng.integers(0, len(regions), size=per)
        p = unit_rows(rng.normal(size=(per, 3)))
        q = unit_rows(rng.normal(size=(per, 3)))
        self.digest.add(which, p, q)
        for k in range(per):
            ref = refs[which[k]]
            d = (q[k] - p[k])[None, :]
            want = relation(float(ref.dual_margin(d)[0]), float(ref.dual_margin(-d)[0]))
            argv = ["m2", "order", "--region", json.dumps(regions[which[k]]),
                    "--p", json.dumps({"bloch": p[k].tolist()}), "--q", json.dumps({"bloch": q[k].tolist()})]
            calls["m2 order"].append((argv, want))

        ca, cb = rng.normal(scale=1.5, size=(2, per))
        va, vb = rng.normal(size=(2, per, 3))
        self.digest.add(ca, cb, va, vb)
        a, b = pauli_matrices(ca, va), pauli_matrices(cb, vb)
        vals, vecs = np.linalg.eigh(a - b)
        half_gap = (vecs * np.abs(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1) / 2.0
        for k in range(per):
            mid = (a[k] + b[k]) / 2.0
            argv = ["herm", "lattice", "--a", _herm_json(a[k]), "--b", _herm_json(b[k])]
            calls["herm lattice"].append((argv, (mid + half_gap[k], mid - half_gap[k])))

        gn = rng.integers(2, 7, size=per)
        pts = rng.uniform(-1.0, 1.0, size=(per, 6, 3))
        lm_keys = rng.random((per, 6))
        lm_count = np.floor(rng.random(per) * gn).astype(int) + 1
        self.digest.add(gn, pts, lm_keys, lm_count)
        for k in range(per):
            m = int(gn[k])
            names = [f"x{i}" for i in range(m)]
            d = np.linalg.norm(pts[k, :m, None, :] - pts[k, None, :m, :], axis=2)
            lms = np.argsort(lm_keys[k, :m])[: lm_count[k]]
            prof = d[:, lms].T
            want = (prof[:, :, None] <= prof[:, None, :] + 1e-12).all(axis=0)
            space = json.dumps({"points": names, "dist": d.tolist(), "landmarks": [names[j] for j in lms]})
            calls["gps order"].append((["gps", "order", "--in", space], want))

        # Call j runs verb j mod 7, so every run sees the same mix.
        self.calls = [calls[VERBS[j % len(VERBS)]][j // len(VERBS) % per] for j in range(per * len(VERBS))]
        self.verbs = [VERBS[j % len(VERBS)] for j in range(len(self.calls))]
        self.cursor = 0

    def _run_one(self, j: int, out: Outcome, command: list[str]) -> None:
        argv, want = self.calls[j % len(self.calls)]
        verb = self.verbs[j % len(self.calls)]
        t0 = clock()
        out.starts.append(t0)
        try:
            proc = subprocess.run(
                command + argv,
                cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=120,
            )
        except Exception as exc:
            t1 = clock()
            out.fail(verb, exc)
        else:
            t1 = clock()
            try:
                expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stdout[-300:]}")
                self._check(verb, json.loads(proc.stdout), want)
            except Exception as exc:
                out.fail(verb, exc)
        out.attempted += 1
        out.latencies.append(t1 - t0)

    def _check(self, verb: str, got: dict, want) -> None:
        if verb == "poset check":
            expect(got == want, f"poset check gave {got}")
        elif verb == "cone express":
            gens, target = want
            expect(got["max_error"] <= TOL, "reported reconstruction error above 1e-9")
            err = np.max(np.abs(eval_expr_json(got["expr"], gens) - target))
            expect(err <= TOL, f"expression misses the target by {err:.3g}")
        elif verb == "m2 member":
            if want is not None:
                expect(got["member"] is want, f"member gave {got['member']}")
        elif verb == "m2 order":
            if want is not None:
                expect(got["relation"] == want, f"relation {got['relation']}, want {want}")
        elif verb == "herm lattice":
            join, meet = want
            expect(np.max(np.abs(_matrix(got["join"]) - join)) <= TOL, "join differs from reference")
            expect(np.max(np.abs(_matrix(got["meet"]) - meet)) <= TOL, "meet differs from reference")
        elif verb == "dual characters":
            names, rel = want
            expect(got["elements"] == names, "characters renamed the elements")
            expect(np.array_equal(np.array(got["relation"], dtype=bool), rel), "round trip changed the poset")
        elif verb == "gps order":
            expect(np.array_equal(np.array(got["relation"], dtype=bool), want), "gps order differs from reference")

    def warm_up(self) -> None:
        self._run_one(0, Outcome(), self.command)
        self.cursor = 1

    def measure(self, seconds: float) -> Outcome:
        """Calls for `seconds`, and at least MIN_ROUNDS rounds of the verb mix."""
        out = Outcome()
        began = clock()
        while out.attempted < self.min_rounds * len(VERBS) or clock() - began < seconds:
            self._run_one(self.cursor, out, self.command)
            self.cursor += 1
        out.ended = clock()
        out.wall_s = out.ended - began
        return out

    def fixed(self, command_for=None) -> Outcome:
        """One call of every verb; command_for(j) may route call j through another command."""
        out = Outcome()
        began = clock()
        for j in range(len(VERBS)):
            self._run_one(1 + j, out, self.command if command_for is None else command_for(j))
        out.ended = clock()
        out.wall_s = out.ended - began
        return out

    def headline(self, out: Outcome, gauge) -> dict:
        # Tens of cold calls support no p99: the tail reported is p75, which
        # over a fixed verb mix is the time of the second-slowest verbs.
        return rescaled_summary(out, gauge, tail_q=75.0)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
