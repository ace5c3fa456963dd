"""Compare two sets of benchmark runs: a base (parent) and a change.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the JSON lines run.py appends with --out, typically ten
seeds per workload.  For every workload and end-to-end metric the report
gives each side's median and quartiles, the ratio change/base with its
base, and a verdict:

  better      the change wins at least 9 in 10 seed-matched pairs and the
              medians differ by more than the base's quartile spread;
  worse       the change's median is worse than the base's by more than the
              metric's bound (for numbers without a bound: it loses 9 in 10
              pairs by more than the base's spread);
  unresolved  neither could be shown; the note says whether the change
              stayed within the bound or the base's spread exceeds it.

fail_ratio is worse as soon as the change fails more often than the base.

Per-layer numbers from traced runs are listed as median deltas.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

BETTER = {name: better for name, _, better, _ in END_TO_END}
BOUND = {name: bound for name, _, _, bound in END_TO_END}


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def series(records: list[dict], workload: str, trace: int) -> dict[str, dict[int, float]]:
    """metric -> seed -> value, over the chosen runs (the last run of a seed wins)."""
    out: dict[str, dict[int, float]] = {}
    for rec in records:
        if rec["workload"] != workload or rec["trace"] != trace or rec.get("tiny"):
            continue
        values = {k: v["value"] for k, v in rec["metrics"].items()}
        if not trace:
            values["fail_ratio"] = rec["fail_ratio"]
            values["wall_s"] = rec["wall_s"]
            values.update({f"whole_run.{k}": v[0] for k, v in rec["whole_run"].items() if k in BETTER})
            values.update({k: v[0] for k, v in rec["detail"].items()})
        for k, v in values.items():
            out.setdefault(k, {})[rec["seed"]] = v
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(name: str, base: dict[int, float], change: dict[int, float]) -> tuple[str, str]:
    lower_better = BETTER.get(name.removeprefix("whole_run."), "lower") == "lower"
    a, b = list(base.values()), list(change.values())
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    spread = qa3 - qa1
    if name == "fail_ratio":
        # Any extra failure counts against the change.
        return ("worse", f"{max(b):.3g} > {max(a):.3g}") if max(b) > max(a) else ("unresolved", "no more failures")
    if ma == 0:
        return "unresolved", "base median is 0"
    worse_share = ((mb - ma) if lower_better else (ma - mb)) / abs(ma)
    seeds = sorted(set(base) & set(change))
    wins = sum((change[s] < base[s]) if lower_better else (change[s] > base[s]) for s in seeds)
    losses = sum((change[s] > base[s]) if lower_better else (change[s] < base[s]) for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and worse_share < 0 and abs(mb - ma) > spread:
        return "better", f"wins {wins}/{len(seeds)} pairs"
    bound = BOUND.get(name)
    if bound is None:
        if seeds and losses >= 0.9 * len(seeds) and worse_share > 0 and abs(mb - ma) > spread:
            return "worse", f"loses {losses}/{len(seeds)} pairs"
        return "unresolved", f"wins {wins}/{len(seeds)} pairs"
    if spread / abs(ma) > bound and not all((x < min(a)) if lower_better else (x > max(a)) for x in b):
        return "unresolved", f"base spread {spread / abs(ma):.1%} exceeds bound {bound:.0%}"
    if worse_share > bound:
        return "worse", f"{worse_share:+.1%} against bound {bound:.0%}"
    return "unresolved", f"within bound {bound:.0%} ({worse_share:+.1%})"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for wl in workloads:
        sa, sb = series(base, wl, 0), series(change, wl, 0)
        if sa and sb:
            print(f"== {wl} (end to end; base -> change, median [q1, q3])")
            e2e = [n for n, *_ in END_TO_END]
            for name in e2e + sorted(set(sa) - set(e2e)):
                if name not in sb:
                    continue
                a, b = sa[name], sb[name]
                qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
                ratio = f"ratio {qb[1] / qa[1]:.3f} of base {fmt(qa[1])}" if qa[1] else "base 0"
                tag, note = verdict(name, a, b)
                print(
                    f"  {name:<22} {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}] n={len(a)} -> "
                    f"{fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] n={len(b)}  "
                    f"{ratio}  {tag}: {note}"
                )
        ta, tb = series(base, wl, 1), series(change, wl, 1)
        if ta and tb:
            print(f"== {wl} (per layer, traced; median base -> change, delta)")
            for name, unit in PER_LAYER:
                if name not in ta or name not in tb:
                    continue
                ma = statistics.median(ta[name].values())
                mb = statistics.median(tb[name].values())
                if ma == 0 and mb == 0:
                    continue
                ratio = f"ratio {mb / ma:.3f}" if ma else "new"
                print(f"  {name:<46} {fmt(ma)} -> {fmt(mb)} {unit}  delta {mb - ma:+.4g}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
