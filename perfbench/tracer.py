"""Spans around calls into cedkit's modules, recorded from outside the package.

The tracer replaces public functions at the module attribute through which
their callers look them up (``cedkit.cli.detect_with_fields``,
``SpatialIndex.neighbor_graph``, ...) with wrappers that record a span:
name, start, end, parent span, the operation it belongs to and a few exact
counts taken from the call's arguments or result. Spans stay in memory until
the run ends. Nothing under ``src/`` changes, and untraced runs never install
the wrappers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median

import numpy as np

# Bytes per strict-radius pair that the neighbor graph holds: two int64
# indices plus a float64 xyz offset. A computed figure, not a measured one.
GRAPH_BYTES_PER_PAIR = 40

FORMATS = ("ply", "ply-bin", "pcd")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; ``op`` tags the spans of one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace owner.attr with a recording wrapper.

        counts(args, kwargs, result) returns the span's exact counts; it runs
        after the span has ended, so its cost lands in the parent span only.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        self.op, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.attrs = counts(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
             "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _parse_counts(args, kwargs, cloud):
    return {"fmt": _arg(args, kwargs, 1, "fmt").value, "bytes": len(_arg(args, kwargs, 0, "data"))}


def _graph_counts(args, kwargs, graph):
    return {"pairs": int(graph.pairs.shape[0]), "points": int(graph.n_points)}


def _saliency_counts(args, kwargs, fields):
    return {"n_valid": int(np.count_nonzero(fields[0].valid))}


def _nms_counts(args, kwargs, selected):
    fields = _arg(args, kwargs, 0, "fields")
    thresholds = _arg(args, kwargs, 1, "thresholds")
    valid = np.logical_and.reduce([f.valid for f in fields])
    passes = np.logical_or.reduce([f.values >= t for f, t in zip(fields, thresholds)])
    return {"n_filtered": int(np.count_nonzero(valid & passes)), "n_selected": len(selected)}


def _match_counts(args, kwargs, matched):
    source = _arg(args, kwargs, 0, "source_points")
    target = _arg(args, kwargs, 1, "target_points")
    return {"cells": len(source) * len(target)}


def install(tracer: Tracer) -> None:
    """Wrap every public call the workloads reach, at its lookup site."""
    from cedkit import cli, detector, evaluation, index, scenes

    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(scenes, "generate_scene", "scenes.generate")
    wrap(cli, "parse_cloud", "cloudio.parse", _parse_counts)
    wrap(evaluation, "apply_rigid_transform", "cloud.transform")
    wrap(evaluation, "add_gaussian_noise", "cloud.noise")
    wrap(detector, "build_index", "index.build")
    wrap(index.SpatialIndex, "neighbor_graph", "index.graph", _graph_counts)
    wrap(detector, "saliency_from_graph", "detector.saliency", _saliency_counts)
    wrap(detector, "multimodal_nms", "detector.nms", _nms_counts)
    wrap(cli, "detect_with_fields", "detector.detect")
    wrap(evaluation, "detect", "detector.detect")
    wrap(cli, "export_keypoints_csv", "detector.export")
    wrap(cli, "evaluate_repeatability", "evaluation.repeatability")
    wrap(evaluation, "evaluate_repeatability", "evaluation.repeatability")
    wrap(cli, "ablation_sweep", "evaluation.ablation")
    wrap(evaluation, "count_matches", "evaluation.match", _match_counts)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Spans nest strictly within one thread, so the children of a span never
    overlap and their durations add up.
    """
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return {span.id: span.seconds - child[span.id] for span in spans}


# Per-cycle totals: span name -> metric fed by the span's (self) seconds.
_TIME_METRICS = {
    "index.build": "index.build_s",
    "index.graph": "index.graph_s",
    "detector.saliency": "detector.saliency_s",
    "detector.nms": "detector.nms_s",
    "detector.export": "detector.export_s",
    "cloudio.parse": "cloudio.parse_s",
    "evaluation.match": "evaluation.match_s",
    "cloud.transform": "cloud.transform_s",
    "cloud.noise": "cloud.noise_s",
}
_SELF_METRICS = {
    "cli.main": "cli.self_s",
    "evaluation.repeatability": "evaluation.self_s",
    "evaluation.ablation": "evaluation.self_s",
}


def layer_metrics(
    spans: list[Span], cycle_of_op: dict[int, int], setup_ops: set[int]
) -> dict[str, float]:
    """Per-layer metrics from the spans of traced cycles and set-ups.

    Times and counts are totals per workload cycle, as the median over traced
    cycles; cloudio per-format figures are medians per call; scene generation
    is seconds per set-up.
    """
    own = self_seconds(spans)
    cycles = sorted(set(cycle_of_op.values()))
    per_cycle = {c: defaultdict(float) for c in cycles}
    per_call = defaultdict(list)
    per_setup = defaultdict(float)

    for span in spans:
        if span.op in setup_ops:
            if span.name == "scenes.generate":
                per_setup[span.op] += span.seconds
            continue
        if span.op not in cycle_of_op:
            continue
        totals = per_cycle[cycle_of_op[span.op]]
        if span.name in _TIME_METRICS:
            totals[_TIME_METRICS[span.name]] += span.seconds
        if span.name in _SELF_METRICS:
            totals[_SELF_METRICS[span.name]] += own[span.id]
        if span.name == "index.graph":
            totals["index.pairs"] += span.attrs["pairs"]
            totals["index.points"] += span.attrs["points"]
        elif span.name == "detector.detect":
            totals["detector.detect_calls"] += 1
        elif span.name == "detector.saliency":
            totals["detector.n_valid"] += span.attrs["n_valid"]
        elif span.name == "detector.nms":
            totals["detector.n_filtered"] += span.attrs["n_filtered"]
            totals["detector.n_selected"] += span.attrs["n_selected"]
        elif span.name == "evaluation.match":
            totals["evaluation.match_calls"] += 1
            totals["evaluation.match_cells"] += span.attrs["cells"]
        elif span.name == "cloudio.parse":
            per_call[f"cloudio.parse_s.{span.attrs['fmt']}"].append(span.seconds)
            per_call[f"cloudio.bytes.{span.attrs['fmt']}"].append(span.attrs["bytes"])

    for totals in per_cycle.values():
        pairs, points = totals["index.pairs"], totals.pop("index.points", 0.0)
        totals["index.pairs_per_point"] = pairs / points if points else 0.0
        totals["index.graph_bytes"] = GRAPH_BYTES_PER_PAIR * pairs
        filtered = totals["detector.n_filtered"]
        totals["detector.select_ratio"] = totals["detector.n_selected"] / filtered if filtered else 0.0

    names = set(_TIME_METRICS.values()) | set(_SELF_METRICS.values()) | {
        "index.pairs", "index.pairs_per_point", "index.graph_bytes",
        "detector.detect_calls", "detector.n_valid", "detector.n_filtered",
        "detector.n_selected", "detector.select_ratio",
        "evaluation.match_calls", "evaluation.match_cells",
    }
    metrics = {name: median(per_cycle[c][name] for c in cycles) if cycles else 0.0
               for name in names}
    for fmt in FORMATS:
        for key in (f"cloudio.parse_s.{fmt}", f"cloudio.bytes.{fmt}"):
            metrics[key] = median(per_call[key]) if per_call[key] else 0.0
    metrics["scenes.generate_s"] = median(per_setup.values()) if per_setup else 0.0
    return metrics
