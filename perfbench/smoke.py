"""Smoke test of the benchmark itself, at tiny sizes.

Usage, from the repository root:  python3 perfbench/smoke.py

1. Every workload of BENCHMARK.json, untraced and traced, prints every
   metric it must and checks its answers with fail_ratio == 0.
2. The same seed gives the same input digest; another seed another one.
3. A deliberately perturbed answer, injected here only, makes each
   workload's checks fail (fail_ratio > 0): the checks bite.

Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

if __name__ == "__main__" and sys.argv[1:2] == ["--perturbed-cli"]:
    # Stand-in for `python -m ordercones.cli` whose lattice join and meet
    # come out swapped.
    sys.path.insert(0, str(ROOT / "src"))
    from ordercones import cli, hermitian

    original = hermitian.lattice_ops
    hermitian.lattice_ops = lambda a, b: original(a, b)[::-1]
    sys.exit(cli.main(sys.argv[2:]))

sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from worker import build  # noqa: E402

OUT = HERE / "out"
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny", "--out", str(OUT / "smoke.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for {workload}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT / "smoke.jsonl", encoding="utf-8") as fh:
        record = json.loads(fh.read().strip().splitlines()[-1])
    return last, record


def check_runs() -> None:
    e2e_names = {name for name, *_ in END_TO_END}
    layer_names = {name for name, _ in PER_LAYER}
    for wl in WORKLOADS:
        last, rec = run(wl, 1, 0)
        check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{wl}: result line keys")
        check(set(last["metrics"]) == e2e_names, f"{wl}: every end-to-end metric present")
        check(rec["fail_ratio"] == 0 and last["correct"], f"{wl}: fail_ratio == 0 ({rec['notes']})")
        digest = rec["inputs_digest"]
        _, again = run(wl, 1, 0)
        check(again["inputs_digest"] == digest, f"{wl}: same seed, same input digest")
        _, other = run(wl, 2, 0)
        check(other["inputs_digest"] != digest, f"{wl}: other seed, other input digest")
        last, rec = run(wl, 1, 1)
        check(set(last["metrics"]) == layer_names, f"{wl}: every per-layer metric present (traced)")
        check(rec["fail_ratio"] == 0, f"{wl}: traced fail_ratio == 0")
        _, rec2 = run(wl, 1, 1)
        same = {k: v["calls"] for k, v in rec["layers"].items()} == {k: v["calls"] for k, v in rec2["layers"].items()}
        check(same, f"{wl}: span call counts repeat exactly")


def perturbed(workload: str):
    """Install a wrong answer for the workload; return an undo function."""
    from ordercones import duality, isotone_cone, m2, poset

    if workload in ("poset_stream", "bulk_prune"):
        owner, attr = isotone_cone, "eval_expr"
        original = owner.eval_expr
        replacement = lambda *a, **k: original(*a, **k) + 1e-6  # noqa: E731
    elif workload == "m2_stream":
        owner, attr = m2, "join_coeffs"
        original = owner.join_coeffs
        replacement = lambda a, b: (original(a, b)[0] + 1e-6, original(a, b)[1])  # noqa: E731
    elif workload == "bulk_sprinkle":
        owner, attr = poset.FinitePoset, "covering_pairs"
        original = owner.covering_pairs
        replacement = lambda self: original(self)[:-1]  # noqa: E731
    elif workload == "bulk_scan":
        owner, attr = m2, "pure_state_order"
        original = owner.pure_state_order
        replacement = lambda *a, **k: "less"  # noqa: E731
    elif workload == "bulk_accept":
        # The round trip comes back as the opposite order.
        owner, attr = duality, "character_order"
        original = owner.character_order
        replacement = lambda alg: poset.FinitePoset(original(alg).elements, original(alg).rel.T)  # noqa: E731
    else:
        return lambda: None
    setattr(owner, attr, replacement)
    return lambda: setattr(owner, attr, original)


def check_perturbations() -> None:
    for wl in WORKLOADS:
        workload = build(wl, 3, True, OUT / "smoke")
        if wl == "cli_cold":
            workload.command = [sys.executable, str(HERE / "smoke.py"), "--perturbed-cli"]
        workload.warm_up()
        undo = perturbed(wl)
        try:
            out = workload.fixed()
        finally:
            undo()
        check(out.failed > 0, f"{wl}: a perturbed answer raises fail_ratio ({out.failed}/{out.attempted})")
        if wl != "cli_cold":
            clean = workload.fixed()
            check(clean.failed == 0, f"{wl}: the same run without the perturbation passes")


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    check_runs()
    check_perturbations()
    print("smoke test passed" if not problems else f"smoke test FAILED: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
