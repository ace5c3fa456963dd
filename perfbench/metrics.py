"""Workloads and metrics the benchmark reports, as BENCHMARK.json names them."""
import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
# Reported by every untraced run, whatever the workload: (name, unit,
# better, bound), the bound being the share of the base median by which
# the metric may get worse before a change counts as a regression.
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"])
# Reported by every traced run.  A layer the workload never calls reads 0.
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


def layer_value(name: str, layers: dict, extra: dict) -> float:
    """One per-layer metric from span aggregates and the run's other numbers."""
    if name in extra:
        return extra[name]
    if name.startswith("acceptance."):
        return 0.0
    if name == "cli.main.total_s":
        return layers.get("cli.main", {}).get("total_s", 0.0)
    if name == "cli.self_s":
        return layers.get("cli.main", {}).get("self_s", 0.0)
    span, stat = name.rsplit(".", 1)
    return layers.get(span, {}).get(stat, 0)
