"""Traced in-process replay of the CLI verbs.

The replay runs ``ultratree.cli.main`` itself, with a span named
``<module>.<function>`` around each public call a verb handler makes.  A
span records its parent (the op span, named ``cli.<verb>``) and the op id it
belongs to; spans stay in memory and are written out as JSON when the run
ends.  The wrappers that open the spans stand in for the names the CLI
looks up, and for ``GraphDoc.tree``/``rooted``, for the length of one op
only.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from types import SimpleNamespace

LAYERS = ("cli", "io", "metrics", "representing", "canonical", "graphs", "duality", "transforms", "analysis")

# span name -> per-layer time metric that its self time adds to
TIME_METRIC = {
    "io.read": "io.parse_s",
    "io.load_matrix_text": "io.parse_s",
    "io.load_graph_text": "io.parse_s",
    "io.labeled_tree_to_json": "io.emit_s",
    "io.graph_to_json": "io.emit_s",
    "io.dump_json": "io.emit_s",
    "metrics.classify_metric": "metrics.classify_s",
    "metrics.label_tree_metric": "metrics.label_tree_metric_s",
    "representing.representing_tree": "representing.representing_tree_s",
    "representing.ballean_tree": "representing.ballean_tree_s",
    "canonical.ultrametric_isometric": "canonical.ultrametric_isometric_s",
    "canonical.are_isomorphic": "canonical.are_isomorphic_s",
    "canonical.isometry_search": "canonical.isometry_search_s",
    "graphs.tree": "graphs.tree_build_s",
    "graphs.rooted": "graphs.tree_build_s",
    "duality.EquidistantTree": "duality.pairing_s",
    "duality.MonotoneTree": "duality.pairing_s",
    "duality.weight_to_labeling": "duality.pairing_s",
    "duality.labeling_to_weight": "duality.pairing_s",
    "transforms.reduce_nabla": "transforms.reduce_nabla_s",
    "transforms.bottleneck_spanning_tree": "transforms.spanning_s",
    "transforms.cyclic_weight_counterexample": "transforms.counterexample_s",
    "analysis.analyze": "analysis.analyze_s",
}
TIME_METRICS = tuple(dict.fromkeys(TIME_METRIC.values()))
COUNT_METRICS = ("io.bytes_in", "io.bytes_out", "representing.tree_vertices")

# The metrics of the result line, as listed under per_layer in BENCHMARK.json.
# Times that only some workloads exercise (classify, representing_tree, ...)
# would read 0 elsewhere, so they are printed and kept in the span file but
# left out here; every layer's calls and failures are reported instead.
REPORTED = {
    "cli.startup_s": "s",
    "io.parse_s": "s",
    "io.emit_s": "s",
    "io.bytes_in": "bytes",
    "io.bytes_out": "bytes",
    "representing.tree_vertices": "count",
    "cli.replay_mismatches": "count",
    "trace.overhead_frac": "ratio",
    **{f"{layer}.{k}": "count" for layer in LAYERS for k in ("calls", "failed")},
}


class Tracer:
    """Span recorder; ``crash`` tells which exceptions count as a layer
    failure rather than a refusal the CLI reports with an exit code."""

    def __init__(self, crash):
        self.spans: list[dict] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.crash = crash
        self.op: int | None = None
        self.probe: list = []  # matrices parsed by the current op
        self.pass_no = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "pass": self.pass_no,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            rec["crash"] = self.crash(exc)
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, k: int) -> None:
        self.counts[(self.pass_no, name)] += k

    def probe_matrix(self, space) -> None:
        """Keep a parsed matrix for the classification probe after the op."""
        self.probe.append(space)

    def self_times(self) -> list[float]:
        """Self time of every span in seconds: its duration minus the part
        covered by its children."""
        out = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= (s["end_ns"] - s["start_ns"]) / 1e9
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: the median over passes of each pass's total
        (self time in seconds, or a count), plus calls and failures."""
        passes = sorted({s["pass"] for s in self.spans})
        per_pass: dict[str, list[float]] = {}
        self_t = self.self_times()
        for p in passes:
            totals: dict[str, float] = defaultdict(float)
            for s, t in zip(self.spans, self_t):
                if s["pass"] != p:
                    continue
                layer = s["name"].split(".")[0]
                if s["name"] in TIME_METRIC:
                    totals[TIME_METRIC[s["name"]]] += t
                totals[f"{layer}.calls"] += 1
                totals[f"{layer}.failed"] += bool(s.get("crash"))
            for name in COUNT_METRICS:
                totals[name] = self.counts[(p, name)]
            for name in TIME_METRICS + COUNT_METRICS + tuple(f"{l}.{k}" for l in LAYERS for k in ("calls", "failed")):
                per_pass.setdefault(name, []).append(totals[name])
        return {name: statistics.median(vals) for name, vals in per_pass.items()}


# Names ``ultratree.cli`` looks up when it runs a verb.  Each is wrapped in a
# span named after the module that defines it.
CLI_CALLS = (
    "label_tree_metric", "representing_tree", "ballean", "ballean_tree",
    "are_isomorphic", "isometry_search", "ultrametric_isometric",
    "EquidistantTree", "MonotoneTree", "weight_to_labeling", "labeling_to_weight",
    "reduce_nabla", "bottleneck_spanning_tree", "cyclic_weight_counterexample", "analyze",
)
IO_CALLS = ("load_matrix_text", "load_graph_text", "labeled_tree_to_json", "graph_to_json", "dump_json")


def _traced(tr: Tracer, name: str, fn, after=None):
    def call(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    return call


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Replayer:
    """Runs ops in process through ``ultratree.cli.main`` under a Tracer.

    For the length of each op, the names the CLI looks up (the imported
    public functions, its ``io`` module and ``GraphDoc.tree``/``rooted``)
    are replaced by wrappers that open a span and call the original, so the
    spans follow the CLI's own call sequence and its own error handling."""

    def __init__(self, ut):
        self.ut = ut
        self.parser = ut.cli.build_parser()
        handled = (ut.errors.UltratreeError, ValueError)
        tr = self.tracer = Tracer(lambda exc: not isinstance(exc, handled))
        cli, tio = ut.cli, ut.io

        def hierarchy_size(tree):
            tr.count("representing.tree_vertices", len(tree.rt.vertices))

        after = {
            "load_matrix_text": tr.probe_matrix,
            "representing_tree": hierarchy_size,
            "ballean_tree": hierarchy_size,
            "_read": lambda text: tr.count("io.bytes_in", len(text.encode("utf-8"))),
        }
        io_view = dict(vars(tio))
        for name in IO_CALLS:
            io_view[name] = _traced(tr, _span_name(io_view[name]), io_view[name], after.get(name))
        patches = [(cli, name, _traced(tr, _span_name(getattr(cli, name)), getattr(cli, name), after.get(name)))
                   for name in CLI_CALLS]
        patches += [
            (cli, "tio", SimpleNamespace(**io_view)),
            (cli, "_read", _traced(tr, "io.read", cli._read, after["_read"])),
            (tio.GraphDoc, "tree", _traced(tr, "graphs.tree", tio.GraphDoc.tree)),
            (tio.GraphDoc, "rooted", _traced(tr, "graphs.rooted", tio.GraphDoc.rooted)),
        ]
        self.patches = [(owner, name, getattr(owner, name), wrapper) for owner, name, wrapper in patches]

    @contextmanager
    def installed(self):
        """The wrappers in place of the names the CLI looks up."""
        for owner, name, _, wrapper in self.patches:
            setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original, _ in self.patches:
                setattr(owner, name, original)

    def run(self, op_id: int, argv) -> tuple[int, str, str]:
        """(exit code, stdout, stderr) of one op; stderr names a crash."""
        tr, ut = self.tracer, self.ut
        tr.op, tr.probe = op_id, []
        verb = self.parser.parse_args(list(argv)).verb
        stdout = StringIO()
        try:
            with self.installed(), redirect_stdout(stdout), tr.span(f"cli.{verb}"):
                code = ut.cli.main(list(argv))
        except Exception as exc:  # a crash: the CLI would print a traceback
            return 1, "", f"Traceback (replayed): {type(exc).__name__}: {exc}"[:300]
        finally:
            # classification probe on every parsed matrix, outside the op span
            probes, tr.probe = tr.probe, []
            for space in probes:
                tr.call("metrics.classify_metric", ut.metrics.classify_metric, space.rows)
        out = stdout.getvalue()
        tr.count("io.bytes_out", len(out.encode("utf-8")))
        return code, out, ""
