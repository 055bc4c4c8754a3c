"""In-memory spans recorded around calls into sympca, and the per-layer
metrics derived from them.

A span has a name, start, end, parent span and op id, plus optional counts
(bytes, flops, matrix size). Spans stay in memory until the run ends. A
span's self time is its duration minus the durations of its children; the
children of one span run one after another, so they never overlap.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# Eigenproblems up to this size are reported apart from larger ones: the
# program switches eigensolver there.
SMALL_EIGEN_DIM = 64

# The replayed steps of pca_auto; pca.other_s is pca_auto's time minus these.
PCA_STEPS = (
    "pca.standardize", "linalg.gram", "linalg.eigen",
    "linalg.transport", "intervals.project",
)

# name -> unit; the order is the order of the report.
LAYER_METRICS = {
    "tableio.parse_interval_s": "s",
    "tableio.write_interval_s": "s",
    "tableio.bytes_read": "bytes",
    "tableio.bytes_written": "bytes",
    "tableio.parse_classic_s": "s",
    "tableio.aggregate_s": "s",
    "tableio.groups": "count",
    "pca.to_json_s": "s",
    "pca.json_bytes": "bytes",
    "pca.standardize_s": "s",
    "pca.auto_s": "s",
    "pca.other_s": "s",
    "linalg.eigen_s_le64": "s",
    "linalg.eigen_s_gt64": "s",
    "linalg.eigen_calls": "count",
    "linalg.eigen_dim_max": "count",
    "linalg.gram_s": "s",
    "linalg.transport_s": "s",
    "linalg.gram_flops": "flop",
    "intervals.project_s": "s",
    "intervals.project_flops": "flop",
    "intervals.construct_s": "s",
    "render.circle_s": "s",
    "render.plane_s": "s",
    "render.svg_bytes": "bytes",
    "cli.command_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}

# Span name -> the metric that sums its duration.
_TIMED = {
    "tableio.parse_interval": "tableio.parse_interval_s",
    "tableio.write_interval": "tableio.write_interval_s",
    "tableio.parse_classic": "tableio.parse_classic_s",
    "tableio.aggregate": "tableio.aggregate_s",
    "pca.to_json": "pca.to_json_s",
    "pca.standardize": "pca.standardize_s",
    "pca.auto": "pca.auto_s",
    "linalg.gram": "linalg.gram_s",
    "linalg.transport": "linalg.transport_s",
    "intervals.project": "intervals.project_s",
    "intervals.construct": "intervals.construct_s",
    "render.circle": "render.circle_s",
    "render.plane": "render.plane_s",
    "cli.command": "cli.command_s",
}

# Span count attribute -> the metric that sums it.
_COUNTED = {
    "bytes_read": "tableio.bytes_read",
    "bytes_written": "tableio.bytes_written",
    "groups": "tableio.groups",
    "json_bytes": "pca.json_bytes",
    "gram_flops": "linalg.gram_flops",
    "project_flops": "intervals.project_flops",
    "svg_bytes": "render.svg_bytes",
}


class Tracer:
    """Records spans; ``op_id`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def op_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals for the spans of one op (the op root is named "op")."""
    out = {name: 0.0 for name in LAYER_METRICS if not name.startswith("trace.")}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    for s in spans:
        name = s["name"]
        if name in _TIMED:
            out[_TIMED[name]] += _duration(s)
        for attr, metric in _COUNTED.items():
            out[metric] += s.get(attr, 0)
        if name == "linalg.eigen":
            key = "linalg.eigen_s_le64" if s["dim"] <= SMALL_EIGEN_DIM else "linalg.eigen_s_gt64"
            out[key] += _duration(s)
            out["linalg.eigen_calls"] += 1
            out["linalg.eigen_dim_max"] = max(out["linalg.eigen_dim_max"], s["dim"])
        elif name == "cli.command":
            out["cli.self_s"] += _duration(s) - sum(map(_duration, children[s["id"]]))
        elif name == "pca.replay":
            out["pca.other_s"] -= sum(
                _duration(c) for c in children[s["id"]] if c["name"] in PCA_STEPS
            )
    out["pca.other_s"] += out["pca.auto_s"]
    root = next(s for s in spans if s["name"] == "op")
    out["trace.coverage"] = sum(map(_duration, children[root["id"]])) / _duration(root)
    return out


def layer_report(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Median over traced ops of each per-layer metric, plus trace overhead."""
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s["op"]].append(s)
    per_op = [op_metrics(spans) for spans in by_op.values()]
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
