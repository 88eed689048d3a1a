"""In-memory spans around diarscore's public functions, for the traced run.

Tracing happens from outside the package.  For the length of a traced run,
every binding of a traced function in a loaded ``diarscore`` module is
replaced by a wrapper, and the original is put back afterwards.  A call that
one module makes into another (``compute_cpcer`` -> ``edit_distance``)
therefore shows up as a child span.

A span records its name (``<module>.<function>``), start, end, parent span,
job id and the counts its counter takes from the call.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _lines(args, kwargs, result):
    return {"lines": len(args[0])}


def _regions(args, kwargs, result):
    return {"regions": len(result)}


def _cells(args, kwargs, result):
    return {"cells": len(args[0]) * len(args[1])}


def _assignment(args, kwargs, result):
    return {"calls": 1, "n_max": args[0].shape[0]}


def _frames(args, kwargs, result):
    return {"frames": result.values.shape[0]}


# Traced public functions, keyed by the module that defines them, with the
# counter that turns one call into counts.
TRACED = {
    "formats.parse_rttm": _lines,
    "formats.parse_transcript": None,
    "formats.emit_rttm": None,
    "timeline.by_session": None,
    "timeline.build_regions": _regions,
    "timeline.joint_regions": None,
    "timeline.pairwise_overlap": None,
    "assignment.lexsmallest_assignment": _assignment,
    "der.optimal_speaker_map": None,
    "der.compute_der": None,
    "cer.edit_distance": _cells,
    "cer.edit_counts": _cells,
    "cpcer.attach_order_from_rttm": None,
    "cpcer.concat_by_speaker": None,
    "cpcer.compute_cpcer": None,
    "fusion.relabel_to_reference": None,
    "fusion.fuse_channels": None,
    "postproc.parse_matrix": _frames,
    "postproc.binarize_probs": None,
    "postproc.smooth_segments": None,
    "postproc.build_manifest": None,
    "postproc.assemble_transcript": None,
}


class Tracer:
    """Collects spans of the jobs of one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = 0
        # (cells, args) of the largest call of each function that counts cells
        self.largest: dict[str, tuple[int, tuple]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "job": self.job,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counter):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record["counts"] = counter(args, kwargs, result)
                cells = record["counts"].get("cells")
                if cells is not None and cells > self.largest.get(name, (-1,))[0]:
                    self.largest[name] = (cells, args)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


@contextmanager
def patched(tracer: Tracer):
    """Route every traced function through tracer while the block runs."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "diarscore"]
    saved = []
    for qualname, counter in TRACED.items():
        module_name, func_name = qualname.split(".")
        original = getattr(sys.modules[f"diarscore.{module_name}"], func_name)
        wrapper = tracer.wrap(qualname, original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def per_job(spans: list[dict]) -> dict[int, tuple[dict[str, float], dict[str, int]]]:
    """Self time and counts per span name, for each job.

    A span's self time is its duration minus the durations of its direct
    children.  Counts add up over calls, except ``*_max`` counts, which keep
    the largest value.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    jobs: dict[int, tuple[dict[str, float], dict[str, int]]] = {}
    for s in spans:
        self_s, counts = jobs.setdefault(s["job"], ({}, {}))
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + (s["end"] - s["start"]) - child_time[s["id"]]
        for key, value in s["counts"].items():
            full = f"{name}.{key}"
            if key.endswith("_max"):
                counts[full] = max(counts.get(full, 0), value)
            else:
                counts[full] = counts.get(full, 0) + value
    return jobs


def layer_medians(spans: list[dict]) -> dict[str, float]:
    """Median over jobs of each ``<name>.s`` self time and each count.

    A function a job never called counts as 0 for that job.
    """
    jobs = list(per_job(spans).values())
    keys = set()
    for self_s, counts in jobs:
        keys.update(f"{name}.s" for name in self_s)
        keys.update(counts)
    out = {}
    for key in keys:
        values = []
        for self_s, counts in jobs:
            if key.endswith(".s") and key[:-2] in self_s:
                values.append(self_s[key[:-2]])
            else:
                values.append(counts.get(key, 0))
        out[key] = statistics.median(values)
    return out
