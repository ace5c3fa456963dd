"""ordercones benchmark: run one workload (or all four) and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload poset_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (BENCHMARK.json, perfbench/README.md): poset_stream, m2_stream,
bulk_sprinkle, bulk_prune, bulk_scan, bulk_accept, cli_cold.
With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced run.  The full record of every run (environment, input digest,
failures, extra numbers, span aggregates) is appended as one JSON line to
--out, which perfbench/compare.py reads.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))  # before main() pins the run to one CPU
sys.path.insert(0, str(HERE))

from gauge import REFERENCE_S, SpeedGauge  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS, layer_value  # noqa: E402

SETUP_REPEATS = 3  # set-up is timed in this many fresh processes; the median is reported
PROBE_REPEATS = 3
WORKER_TIMEOUT_S = 170
# One caller, one BLAS thread, one CPU: the workload never runs more
# threads than the CPUs it may use.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float = WORKER_TIMEOUT_S) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{argv[1:3]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def worker(args, workload: str, *flags: str) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(args.workdir),
        *flags,
    ]
    if args.tiny:
        argv.append("--tiny")
    return json.loads(run_child(argv).strip().splitlines()[-1])


def setup_times(args, workload: str) -> tuple[list[float], list[float]]:
    """Set-up of SETUP_REPEATS fresh worker processes: reference-speed and raw seconds.

    Set-up runs from the spawn to the worker's first timed request:
    interpreter start, imports, input generation and warm-up.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        gauge = SpeedGauge()
        with gauge:
            spawned = time.monotonic()
            ready = worker(args, workload, "--setup-only")["ready_at"]
        scaled.append(float(gauge.rescale([spawned], [ready])[0]))
        raw.append(ready - spawned)
    return scaled, raw


# --------------------------------------------------------------------------
# Fresh-process probes for the import layer


def _timed_python(code: str, *flags: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, proc.stdout + proc.stderr


def scipy_import_s(importtime: str) -> float:
    """Cumulative -X importtime of the scipy modules imported from outside scipy."""
    rows = []
    for line in importtime.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(2)), m.group(3).split(".")[0] == "scipy", int(m.group(1))))
    total_us = 0
    # Entries are printed after their children; an entry's parent is the
    # next entry printed at a smaller depth.
    for k, (depth, is_scipy, cumulative) in enumerate(rows):
        if not is_scipy:
            continue
        parent = next((r for r in rows[k + 1 :] if r[0] < depth), None)
        if parent is None or not parent[1]:
            total_us += cumulative
    return total_us / 1e6


def import_probes() -> dict[str, float]:
    code = "import time; t = time.perf_counter(); import ordercones; print(time.perf_counter() - t)"
    ordercones_s = [float(_timed_python(code)[1].split()[-1]) for _ in range(PROBE_REPEATS)]
    scipy_s = [scipy_import_s(_timed_python("import ordercones", "-X", "importtime")[1]) for _ in range(PROBE_REPEATS)]
    startup = [_timed_python("pass")[0] for _ in range(2 * PROBE_REPEATS)]
    return {
        "import.ordercones_s": statistics.median(ordercones_s),
        "import.scipy_s": statistics.median(scipy_s),
        "python.startup_s": statistics.median(startup),
    }


# --------------------------------------------------------------------------
# Environment block


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": NPROC,
        "machine": platform.machine(),
        "blas_threads": dict(THREAD_ENV),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "gauge_reference_s": REFERENCE_S,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# --------------------------------------------------------------------------


def run_workload(args, workload: str) -> dict:
    if args.trace:
        rec = worker(args, workload)
        extra = dict(import_probes())
        extra["trace.overhead_ratio"] = rec["trace_overhead_ratio"]
        extra.update({k: v[0] for k, v in rec["untraced"]["detail"].items() if k.startswith("acceptance.")})
        metrics = {name: {"value": layer_value(name, rec["layers"], extra), "unit": unit} for name, unit in PER_LAYER}
    else:
        setups, raw_setups = setup_times(args, workload)
        rec = worker(args, workload)
        rec["setup_runs_s"], rec["setup_runs_raw_s"] = setups, raw_setups
        values = {k: v[0] for k, v in rec["headline"].items()}
        values.update(setup_s=statistics.median(setups), peak_rss_mb=rec["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    rec.update(
        workload=workload, seed=args.seed, seconds=args.seconds, trace=args.trace, tiny=args.tiny,
        fail_ratio=rec["failed"] / rec["attempted"], env=environment(args.seed), metrics=metrics,
    )
    return rec


def print_table(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  inputs {rec['inputs_digest'][:16]}")
    for name, m in rec["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<48} {rec['fail_ratio']:>14.6g} ({rec['failed']} of {rec['attempted']})")
    for group in ("headline", "whole_run", "detail"):
        for name, (value, unit) in rec[group].items():
            print(f"  {group + ':' + name:<48} {value:>14.6g} {unit}")
    for note in rec["notes"]:
        print(f"  FAILURE {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(HERE / "out" / "results.jsonl"), help="JSON-lines file the full records are appended to")
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "ordercones" / "__init__.py").is_file():
        print(f"no ordercones source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # The whole run shares one CPU, so the speed gauge in this process and
    # in the worker measures the CPU the timed work runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"could not pin to one CPU ({exc}); rescaled times will be noisier", file=sys.stderr)
    args.workdir = HERE / "out"
    args.workdir.mkdir(parents=True, exist_ok=True)
    # Byte-compile first so the first timed process does not pay for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    records = [run_workload(args, w) for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    for rec in records:
        print_table(rec)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
