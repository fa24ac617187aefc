"""Per-layer metrics and tracer cross-checks computed from one traced job.

A span is [name, start, end, parent, attrs]; march spans are keyed by their
kind (``fem.march.forward`` ...).  Self time is a span's duration minus the
durations of its direct children.
"""

import statistics
from collections import Counter

from workloads import EXPECTED_SPANS

MARCH_KINDS = ("background", "adjoint", "forward", "dirichlet", "reference")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "mesh.build_disk_mesh.s": "s", "mesh.build_transfer.s": "s",
    "mesh.restrict.calls": "count", "mesh.restrict.s": "s",
    "fem.splu.calls": "count", "fem.splu.s": "s",
    "fem.splu.fill_nnz": "count", "fem.splu.repeated": "count",
    "fem.splu.per_segment": "count",
    "fem.lu_solve.calls": "count", "fem.lu_solve.s": "s",
    "fem.lu_solve.bytes_computed": "B",
    "fem.assemble.calls": "count", "fem.assemble.s": "s",
    "fem.load.calls": "count", "fem.load.s": "s",
    **{f"fem.march.{kind}.{field}": unit for kind in MARCH_KINDS
       for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"),
                           ("splu", "count"))},
    "synth.reference.step_ms": "ms",
    "synth.save.s": "s", "synth.load.s": "s", "synth.io.bytes": "B",
    "scenario.eval_truth.calls": "count", "scenario.eval_truth.s": "s",
    "reconstruction.local_dual.calls": "count",
    "reconstruction.local_dual.s": "s",
    "reconstruction.apply_kernel.calls": "count",
    "reconstruction.apply_kernel.s": "s",
    "reconstruction.kernel_rank.mean": "count",
    "reconstruction.kernel_update.attempts": "count",
    "reconstruction.kernel_update.accepted": "count",
    "reconstruction.kernel_update.accept_ratio": "ratio",
    "reconstruction.inner_iterations.mean": "count",
    "reconstruction.run_segment.self_s": "s",
    "reconstruction.segment_s.p50": "s", "reconstruction.segment_s.max": "s",
    "reconstruction.segment_s.n": "count",
    "reconstruction.checkpoint.s": "s",
    "reconstruction.checkpoint.bytes": "B",
    "reconstruction.resume.s": "s",
    "cli.compute_metrics.s": "s", "cli.heatmap.s": "s",
    "cli.heatmap.bytes": "B",
    "trace.overhead_s": "s", "fail_ratio": "ratio",
}


def _key(span):
    name, attrs = span[0], span[4]
    return f"{name}.{attrs['kind']}" if name == "fem.march" else name


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def select(self, key):
        return [i for i, s in enumerate(self.spans) if _key(s) == key]

    def ancestor(self, i, key):
        i = self.spans[i][3]
        while i >= 0 and _key(self.spans[i]) != key:
            i = self.spans[i][3]
        return i

    def descendants(self, i):
        stack, out = list(self.children[i]), []
        while stack:
            j = stack.pop()
            out.append(j)
            stack.extend(self.children[j])
        return out


def layer_metrics(job) -> dict:
    """Per-layer figures of one traced job (all of LAYER_UNITS but the
    run-level ``trace.overhead_s`` and ``fail_ratio``)."""
    ix = SpanIndex(job["spans"])
    out = {}

    def total(key):
        return sum(ix.dur(i) for i in ix.select(key))

    def attr_sum(key, attr):
        return sum(ix.spans[i][4].get(attr, 0) for i in ix.select(key))

    out["mesh.build_disk_mesh.s"] = total("mesh.build_disk_mesh")
    out["mesh.build_transfer.s"] = total("mesh.build_transfer")
    for key in ("mesh.restrict", "fem.splu", "fem.lu_solve", "fem.assemble",
                "fem.load", "scenario.eval_truth",
                "reconstruction.local_dual", "reconstruction.apply_kernel"):
        out[f"{key}.calls"] = len(ix.select(key))
        out[f"{key}.s"] = total(key)
    splus = ix.select("fem.splu")
    out["fem.splu.fill_nnz"] = \
        attr_sum("fem.splu", "nnz") / max(len(splus), 1)
    out["fem.splu.repeated"] = sum(ix.spans[i][4]["repeated"] for i in splus)
    in_segment = [i for i in splus
                  if ix.ancestor(i, "reconstruction.run_segment") >= 0]
    out["fem.splu.per_segment"] = len(in_segment) / max(job["segments"], 1)
    out["fem.lu_solve.bytes_computed"] = attr_sum("fem.lu_solve", "bytes")

    for kind in MARCH_KINDS:
        key = f"fem.march.{kind}"
        marches = ix.select(key)
        out[f"{key}.calls"] = len(marches)
        out[f"{key}.s"] = total(key)
        out[f"{key}.self_s"] = sum(ix.self_time(i) for i in marches)
        out[f"{key}.splu"] = sum(ix.ancestor(i, key) >= 0 for i in splus)
    steps = attr_sum("fem.march.reference", "steps")
    out["synth.reference.step_ms"] = \
        1e3 * total("fem.march.reference") / max(steps, 1)

    out["synth.save.s"] = total("synth.save")
    out["synth.load.s"] = total("synth.load")
    out["synth.io.bytes"] = attr_sum("synth.save", "bytes") \
        + attr_sum("synth.load", "bytes")

    updates = ix.select("reconstruction.kernel_update")
    accepted = sum(ix.spans[i][4]["accepted"] for i in updates)
    out["reconstruction.kernel_rank.mean"] = job["kernel_rank_mean"]
    out["reconstruction.kernel_update.attempts"] = len(updates)
    out["reconstruction.kernel_update.accepted"] = accepted
    out["reconstruction.kernel_update.accept_ratio"] = \
        accepted / len(updates) if updates else 0.0
    out["reconstruction.inner_iterations.mean"] = job["inner_iterations_mean"]
    segments = ix.select("reconstruction.run_segment")
    seg_s = [ix.dur(i) for i in segments]
    out["reconstruction.run_segment.self_s"] = \
        sum(ix.self_time(i) for i in segments)
    out["reconstruction.segment_s.p50"] = \
        statistics.median(seg_s) if seg_s else 0.0
    out["reconstruction.segment_s.max"] = max(seg_s, default=0.0)
    out["reconstruction.segment_s.n"] = len(seg_s)
    out["reconstruction.checkpoint.s"] = total("reconstruction.checkpoint")
    out["reconstruction.checkpoint.bytes"] = job.get("checkpoint_bytes", 0)
    out["reconstruction.resume.s"] = total("reconstruction.resume")

    out["cli.compute_metrics.s"] = total("cli.compute_metrics")
    out["cli.heatmap.s"] = total("cli.heatmap")
    out["cli.heatmap.bytes"] = attr_sum("cli.heatmap", "bytes")
    return out


def cross_check(job) -> list[tuple[str, bool, str]]:
    """Tracer against program: per-segment march counts must equal the
    program's counters, and every expected span must have fired."""
    ix = SpanIndex(job["spans"])
    checks = []
    by_segment = {}
    for i in ix.select("reconstruction.run_segment"):
        counts = dict.fromkeys(MARCH_KINDS[:4], 0)
        for j in ix.descendants(i):
            if ix.spans[j][0] == "fem.march":
                counts[ix.spans[j][4]["kind"]] += 1
        by_segment[ix.spans[i][4]["index"]] = tuple(counts.values())
    program = {i: tuple(c) for i, c in enumerate(job["counters"])}
    bad = [i for i in program if by_segment.get(i) != program[i]]
    checks.append(("trace: march counts equal program counters per segment",
                   not bad and len(by_segment) == len(program),
                   f"{len(program) - len(bad)}/{len(program)} segments agree"))

    fired = Counter()
    for span in ix.spans:
        fired[(_key(span), None)] += 1
        fired[(_key(span), span[4].get("via"))] += 1
    silent = [f"{name}" + (f" via {via}" if via else "")
              for name, via in EXPECTED_SPANS[job["workload"]]
              if not fired[(name, via)]]
    checks.append(("trace: every expected span fired", not silent,
                   ", ".join(silent) or
                   f"{len(EXPECTED_SPANS[job['workload']])} expected"))
    return checks
