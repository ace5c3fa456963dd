"""One workload process: set up, then measure or trace, then print one JSON line.

Started by run.py.  The line carries ``ready_at``, the monotonic clock
when set-up (imports, input generation, warm-up) ended, from which run.py
computes ``setup_s``; with --setup-only the worker stops there.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from common import latency_summary  # noqa: E402
from gauge import SpeedGauge  # noqa: E402
from metrics import WORKLOADS  # noqa: E402


def build(name: str, seed: int, tiny: bool, workdir: Path):
    if name == "poset_stream":
        from streams import PosetStream

        return PosetStream(seed, tiny)
    if name == "m2_stream":
        from streams import M2Stream

        return M2Stream(seed, tiny)
    if name.startswith("bulk_"):
        from bulk import Bulk

        return Bulk(name, seed, tiny, workdir / "bulk")
    if name == "cli_cold":
        from cold import CliCold, child_env

        return CliCold(seed, tiny, ROOT, child_env(ROOT))
    raise SystemExit(f"unknown workload {name!r}")


def check_source() -> None:
    """Refuse to measure an ordercones that is not this checkout's."""
    import importlib.util

    spec = importlib.util.find_spec("ordercones")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or (ROOT / "src") not in origin.parents:
        raise SystemExit(f"ordercones must come from {ROOT / 'src'}, found {origin}")


def outcome_fields(wl, out, gauge) -> dict:
    """What a phase produced: rescaled headline numbers, raw whole-run ones."""
    headline = wl.headline(out, gauge)
    whole = {"ops_per_s": (out.attempted / out.wall_s, "1/s"), **latency_summary(out.latencies)}
    return {
        "attempted": out.attempted,
        "failed": out.failed,
        "notes": out.notes,
        "wall_s": out.wall_s,
        "headline": {k: list(v) for k, v in headline.items()},
        "whole_run": {k: list(v) for k, v in whole.items()},
        "detail": {k: list(v) for k, v in out.detail.items()},
        "gauge": gauge.summary(),
    }


def traced_pass(wl, name: str, workdir: Path, seed: int, gauges):
    """The fixed work once untraced, once traced; returns both outcomes and the trace."""
    from cold import VERBS
    from spans import Tracer, merge_aggregates

    with gauges[0]:
        base = wl.fixed()
    if name == "cli_cold":
        calls_dir = workdir / f"cli-trace-{seed}"
        calls_dir.mkdir(parents=True, exist_ok=True)
        paths = [calls_dir / f"call{j}.json" for j in range(len(VERBS))]
        with gauges[1]:
            traced = wl.fixed(lambda j: [sys.executable, str(HERE / "tracecli.py"), str(paths[j])])
        layers: dict = {}
        span_tables = []
        for j, path in enumerate(paths):
            if path.exists():
                data = json.loads(path.read_text())
                merge_aggregates(layers, data["layers"])
                data["spans"]["request"] = [j] * len(data["spans"]["id"])
                span_tables.append(data["spans"])
        return base, traced, layers, span_tables
    tracer = Tracer()
    tracer.install()
    try:
        with gauges[1]:
            traced = wl.fixed(tracer=tracer)
    finally:
        tracer.uninstall()
    return base, traced, tracer.aggregates(), [tracer.spans()]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    check_source()

    wl = build(args.workload, args.seed, args.tiny, workdir)
    wl.warm_up()
    # The inputs and references are the benchmark's, not the library's:
    # keep full collections from walking them during the timed phase.
    gc.collect()
    gc.freeze()
    record = {"ready_at": time.monotonic(), "inputs_digest": wl.digest.hexdigest()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    if not args.trace:
        gauge = SpeedGauge()
        with gauge:
            out = wl.measure(args.seconds)
        record.update(outcome_fields(wl, out, gauge))
    else:
        gauges = (SpeedGauge(), SpeedGauge())
        base, traced, layers, span_tables = traced_pass(wl, args.workload, workdir, args.seed, gauges)
        record.update(outcome_fields(wl, traced, gauges[1]))
        record["untraced"] = outcome_fields(wl, base, gauges[0])
        # Same work both times: the ratio of rescaled throughputs.
        record["trace_overhead_ratio"] = record["untraced"]["headline"]["ops_per_s"][0] / record["headline"]["ops_per_s"][0]
        record["layers"] = layers
        trace_file = workdir / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(trace_file, "wt", encoding="utf-8") as fh:
            json.dump(span_tables, fh)
        record["trace_file"] = str(trace_file.relative_to(ROOT)) if ROOT in trace_file.parents else str(trace_file)
        # Both passes must be right: the traced one is what the layers describe.
        record["attempted"] += base.attempted
        record["failed"] += base.failed
        record["notes"] = base.notes + record["notes"]
    record["peak_rss_mb"] = wl.peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
