"""In-process span recorder for the traced run.

`SpanRecorder.install()` replaces each layer function listed in LAYERS by a
timing wrapper at every rsgraphs module attribute that names it, including
names one module imported from another (`channels.verify_cover_bipartite`,
`channels.two_channel_split`), so spans nest the way the calls do.
`uninstall()` puts the originals back.  The program's files are not touched.

A span holds its name, start, end, parent span, command id, peak-RSS rise
and the counts taken at that boundary (bytes read or written, edges walked
times trials).  Spans stay in memory; `summarize()` turns them into
per-function inclusive time, self time (the span minus its child spans) and
call counts.
"""

import functools
import importlib
import os
import resource
import time

# Layer (module) -> the public functions the traced run wraps.
LAYERS = {
    "codes": ("gv_search", "read_generator"),
    "geometric": ("build_geometric_graph", "decompose_geometric", "max_shell_degree"),
    "codegraph": ("build_code_graph", "enumerate_cover", "two_channel_split"),
    "graphs": ("verify_cover", "verify_cover_bipartite", "read_edge_list", "read_cover",
               "write_edge_list", "write_cover"),
    "channels": ("partition_two", "partition_shifts", "validate_partition", "build_schedule",
                 "simulate", "read_schedule", "write_schedule"),
    "lintest": ("walsh_correlation", "estimate_soundness"),
    "vempala": ("counterexample_partition", "per_part_identity", "conjecture_verdict",
                "vempala_sum"),
    "limits": ("triangle_graph", "triangle_census", "check_min_degree_bound"),
    "cli": ("run",),
}

# Pipeline stage of each wrapped function, for the per-stage self times.
STAGES = {
    "build": ("geometric.build_geometric_graph", "codegraph.build_code_graph",
              "limits.triangle_graph"),
    "cover": ("geometric.decompose_geometric", "codegraph.enumerate_cover"),
    "verify": ("graphs.verify_cover", "graphs.verify_cover_bipartite",
               "channels.validate_partition"),
    "transform": ("codegraph.two_channel_split", "channels.partition_two",
                  "channels.partition_shifts", "channels.build_schedule",
                  "vempala.counterexample_partition"),
    "kernel": ("channels.simulate", "lintest.walsh_correlation", "lintest.estimate_soundness",
               "vempala.per_part_identity", "vempala.conjecture_verdict", "vempala.vempala_sum",
               "limits.triangle_census", "limits.check_min_degree_bound",
               "geometric.max_shell_degree"),
    "io": ("codes.gv_search", "codes.read_generator", "graphs.read_edge_list",
           "graphs.read_cover", "graphs.write_edge_list", "graphs.write_cover",
           "channels.read_schedule", "channels.write_schedule"),
}

READS = {"graphs.read_edge_list", "graphs.read_cover", "channels.read_schedule",
         "codes.read_generator"}
WRITES = {"graphs.write_edge_list", "graphs.write_cover", "channels.write_schedule"}

_KB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SpanRecorder:
    """Wraps the layer functions and records one span per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.command: str | None = None  # id of the command now running
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = {}
            if name == "lintest.estimate_soundness":
                args = (_CountingGraph(args[0]),) + args[1:]
            if name in READS:
                counts["graphs.bytes_read"] = os.path.getsize(args[0])
            span = {"name": name, "parent": rec._stack[-1] if rec._stack else None,
                    "command": rec.command, "counts": counts}
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            rss0 = _maxrss_kb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_rise_mb"] = (_maxrss_kb() - rss0) / _KB_PER_MB
                rec._stack.pop()
            if name in WRITES:
                counts["graphs.bytes_written"] = os.path.getsize(args[1])
            if name == "lintest.estimate_soundness":
                counts["lintest.edge_trials"] = args[0].walked * args[2]
            return result

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"rsgraphs.{m}") for m in LAYERS}
        wrappers = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                original = getattr(modules[mod], fn)
                wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, w)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


class _CountingGraph:
    """Counts the edges estimate_soundness walks; everything else is delegated."""

    def __init__(self, g):
        self._g = g
        self.walked = 0

    def __getattr__(self, attr):
        return getattr(self._g, attr)

    def edges(self):
        for e in self._g.edges():
            self.walked += 1
            yield e


def child_times(spans: list[dict]) -> list[float]:
    """Seconds each span spent in its direct child spans."""
    kids = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]] += s["end"] - s["start"]
    return kids


def summarize(spans: list[dict], lo: int = 0, hi: int | None = None):
    """Totals over spans[lo:hi]: per function (inclusive and self seconds,
    calls, largest peak-RSS rise) and the summed boundary counts."""
    kids = child_times(spans)
    per_fn: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for i in range(lo, len(spans) if hi is None else hi):
        s = spans[i]
        d = per_fn.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "rss_rise_mb": 0.0})
        dur = s["end"] - s["start"]
        d["s"] += dur
        d["self_s"] += dur - kids[i]
        d["calls"] += 1
        d["rss_rise_mb"] = max(d["rss_rise_mb"], s["rss_rise_mb"])
        for key, v in s["counts"].items():
            counts[key] = counts.get(key, 0) + v
    return per_fn, counts


def stage_self_times(per_fn: dict[str, dict]) -> dict[str, float]:
    """Self seconds summed over the functions of each pipeline stage."""
    return {stage: sum(per_fn.get(f, {}).get("self_s", 0.0) for f in fns)
            for stage, fns in STAGES.items()}
