"""Shared pieces of the workloads: outcomes, percentiles, digests."""
from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

clock = time.monotonic  # one clock for every process of a run, and for the speed gauge

# A run keeps the text of its first few failures for the record.
MAX_FAILURE_NOTES = 5


class CheckFailed(Exception):
    """An answer differed from the benchmark's own reference."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Outcome:
    """What one timed (or fixed-work) phase produced."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ended: float = 0.0
    notes: list[str] = field(default_factory=list)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, where: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            if isinstance(exc, CheckFailed):
                self.notes.append(f"{where}: {exc}")
            else:
                tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
                self.notes.append(f"{where}: raised {tail}")


def tail_percentile(count: int) -> float | None:
    """p99, or with too few samples the highest lower percentile that has
    at least ten samples beyond it.  Never above p99, so a faster run with
    more samples does not switch to a higher percentile."""
    for q in (99.0, 95.0, 90.0, 75.0, 50.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return None


def latency_summary(latencies, tail_q: float | None = None) -> dict[str, tuple[float, str]]:
    """p50 and tail latency in ms.

    The tail is percentile `tail_q` when given (a workload fixes it, so the
    percentile cannot change with the sample count), else the highest of the
    usual ones with ten samples beyond it, else the maximum.
    """
    arr = np.asarray(latencies, dtype=float) * 1e3
    q = tail_q if tail_q is not None else tail_percentile(len(arr))
    tail = float(np.percentile(arr, q)) if q is not None else float(arr.max())
    return {
        "latency_p50_ms": (float(np.percentile(arr, 50.0)), "ms"),
        "latency_p99_ms": (tail, "ms"),
        "latency_tail_percentile": (q if q is not None else 100.0, "%"),
        "latency_samples": (float(len(arr)), "count"),
    }


def rescaled_summary(out: "Outcome", gauge, tail_q: float) -> dict[str, tuple[float, str]]:
    """Throughput and latency at reference speed (see gauge.py).

    Throughput is operations over the sum of their own latencies, so the
    benchmark's answer checks between operations do not count.
    """
    starts = np.asarray(out.starts)
    latencies = gauge.rescale(starts, starts + np.asarray(out.latencies))
    return {"ops_per_s": (len(starts) / float(latencies.sum()), "1/s"), **latency_summary(latencies, tail_q)}


class Digest:
    """sha256 over the generated inputs, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(str(item.dtype).encode())
                self._h.update(str(item.shape).encode())
                self._h.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, bytes):
                self._h.update(item)
            else:
                self._h.update(json.dumps(item, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def eval_expr_json(node: dict, gens: np.ndarray) -> np.ndarray:
    """Evaluate an emitted expression tree without ordercones."""
    if "gen" in node:
        return gens[node["gen"]]
    if "const" in node:
        return np.full(gens.shape[1], float(node["const"]))
    vals = [eval_expr_json(a, gens) for a in node["args"]]
    op = node["op"]
    if op == "sum":
        return np.sum(vals, axis=0)
    if op == "scale":
        return node["factor"] * vals[0]
    if op == "join":
        return np.max(vals, axis=0)
    if op == "meet":
        return np.min(vals, axis=0)
    raise ValueError(f"unknown node {op!r}")
