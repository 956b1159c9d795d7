"""In-memory span tracing of the chancompat layers, installed from outside.

No library source is changed: :meth:`Tracer.install` replaces each traced
function in every module namespace that looks it up (``analysis.solve``,
``feasibility.project_psd``, ...) and :meth:`Tracer.uninstall` restores the
originals. Functions that do not exist (a later refactor removed them) are
skipped, so their metrics read 0.

Two kinds of wrappers exist. A *span* records (name, start, end, parent,
check id) and may contain other spans. A *leaf* is a hot, childless call
(PSD projection, vectorization, partial trace, ...) called up to tens of
thousands of times per check; it adds its count and time to its parent span
and to per-name totals instead of storing one record per call, which keeps
memory bounded. A span's self time is its duration minus the durations of its
child spans and of its leaf calls.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from chancompat import analysis, channels, cli, feasibility, io, linalg

_MODULES = {
    "analysis": analysis,
    "channels": channels,
    "cli": cli,
    "feasibility": feasibility,
    "io": io,
    "linalg": linalg,
}

# Statuses a solver report can end with, mapped to the stop reason counted.
_VERDICT_STOPS = {"feasible": "tolerance", "not-feasible-at-tolerance": "plateau"}


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _project_psd_hook(tr, args, kwargs, result):
    tr.counts["linalg.project_psd.n3_sum"] += int(result.shape[0]) ** 3


def _factor_hook(tr, args, kwargs, result):
    tr.counts["feasibility.factor.cols"] += int(result.dim) ** 2


def _solve_hook(tr, args, kwargs, report):
    config = _arg(args, kwargs, 1, "config")
    max_iter = getattr(config, "max_iter", None) or feasibility.SolverConfig().max_iter
    status = report.status.value
    if status in _VERDICT_STOPS:
        stop = _VERDICT_STOPS[status]
    elif report.iterations >= max_iter:
        stop = "iter_cap"
    else:
        stop = "plateau_inconclusive"
    tr.counts["feasibility.solves"] += 1
    tr.counts["feasibility.iterations"] += report.iterations
    tr.counts[f"feasibility.stop.{stop}"] += 1
    if stop in ("iter_cap", "plateau_inconclusive"):
        tr.counts["feasibility.wasted_iterations"] += report.iterations


def _assemble_hook(tr, args, kwargs, result):
    dim = int(_arg(args, kwargs, 0, "dim"))
    specs = _arg(args, kwargs, 1, "specs")
    tr.counts["analysis.assemble.map_calls"] += dim * dim * len(specs)


def _compat_hook(tr, args, kwargs, report):
    # The seed's forced-support reduction answers without calling the solver
    # and reports 0 iterations; a real solve always reports at least 1.
    if report.solver.iterations == 0:
        tr.counts["feasibility.stop.shortcut"] += 1


def _load_hook(tr, args, kwargs, result):
    tr.counts["io.load.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _emit_hook(tr, args, kwargs, result):
    tr.counts["io.emit.bytes"] += len(json.dumps(result))


# (metric name, leaf?, attribute, modules whose namespace looks it up, hook)
PATCHES = (
    ("linalg.partial_trace", True, "partial_trace", ("analysis", "channels"), None),
    ("linalg.project_psd", True, "project_psd", ("feasibility", "channels"), _project_psd_hook),
    ("linalg.vectorize", True, "vectorize_hermitian", ("feasibility", "analysis"), None),
    ("linalg.vectorize", True, "devectorize_hermitian", ("feasibility", "linalg"), None),
    ("channels.compose_choi", True, "compose_choi", ("channels",), None),
    ("channels.complementary", True, "complementary", ("channels",), None),
    ("channels.validate_channel", False, "validate_channel", ("channels", "io"), None),
    ("feasibility.factor", False, "AffineConstraintSet", ("analysis",), _factor_hook),
    ("feasibility.solve", False, "solve", ("analysis",), _solve_hook),
    ("analysis.assemble", False, "build_constraints", ("analysis",), _assemble_hook),
    ("analysis.check", False, "check_compatibility", ("analysis",), _compat_hook),
    ("analysis.check", False, "check_divisibility", ("analysis",), None),
    ("analysis.check", False, "check_degradable", ("analysis",), None),
    ("analysis.check", False, "check_antidegradable", ("analysis",), None),
    ("analysis.check", False, "check_self_degradable", ("analysis",), None),
    ("analysis.check", False, "check_family_divisibility", ("analysis",), None),
    ("analysis.check", False, "verify_no_catalysis", ("analysis",), None),
    ("analysis.verify", False, "marginal_deviation", ("analysis",), None),
    ("analysis.verify", False, "basis_deviation", ("analysis",), None),
    ("io.load", False, "load_channel", ("io",), _load_hook),
    ("io.emit", True, "channel_to_json", ("io",), _emit_hook),
    ("cli.main", False, "main", ("cli",), None),
)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "check", "child_s", "leaf_s", "leaves")

    def __init__(self, name, start, parent, check):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.check = check
        self.child_s = 0.0
        self.leaf_s = 0.0
        self.leaves = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s - self.leaf_s


class Tracer:
    """Spans and counters of one traced run; install, run checks, uninstall."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._check: int | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(_Span(name, perf_counter(), parent, self._check))
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        span = self.spans[self._stack.pop()]
        span.end = perf_counter()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _leaf(self, name, seconds):
        self.counts[f"{name}.calls"] += 1
        self.leaf_s[name] += seconds
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.leaf_s += seconds
            if parent.leaves is None:
                parent.leaves = defaultdict(lambda: [0, 0.0])
            entry = parent.leaves[name]
            entry[0] += 1
            entry[1] += seconds

    @contextmanager
    def check(self, check_id):
        """Root span of one check; every span opened inside carries its id."""
        self._check = check_id
        self._open("check")
        try:
            yield
        finally:
            self._close()
            self._check = None

    # -- patching ----------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leaf(name, perf_counter() - t0)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counting_basis(self, fn):
        # Timing a generator call measures nothing: the work happens while it
        # is iterated, inside the caller's span. Count the elements instead.
        def wrapper(*args, **kwargs):
            for elem in fn(*args, **kwargs):
                self.counts["linalg.hermitian_basis.elems"] += 1
                yield elem

        return wrapper

    def _patch(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, leaf, attr, lookups, hook in PATCHES:
            for mod_name in lookups:
                module = _MODULES[mod_name]
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                make = self._leaf_wrapper if leaf else self._span_wrapper
                self._patch(module, attr, make(name, fn, hook))
        if hasattr(analysis, "hermitian_basis"):
            self._patch(analysis, "hermitian_basis", self._counting_basis(analysis.hermitian_basis))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: (count, inclusive seconds, self seconds)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            entry = out[span.name]
            entry[0] += 1
            entry[1] += span.duration
            entry[2] += span.self_s
        return out

    def dump(self, path):
        """Write every span as one JSON document; times in ms from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for span in self.spans:
            row = {
                "name": span.name,
                "start_ms": (span.start - t0) * 1e3,
                "end_ms": (span.end - t0) * 1e3,
                "parent": span.parent,
                "check": span.check,
            }
            if span.leaves:
                row["leaves"] = {k: {"calls": c, "ms": s * 1e3} for k, (c, s) in span.leaves.items()}
            rows.append(row)
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)


def layer_metrics(tracer: Tracer, checks: int, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run, normalised per traced check.

    Runs are time-bounded, so raw totals scale with throughput; dividing by
    the number of checks makes them comparable between versions. Ratios and
    shares are reported as such.
    """
    spans = tracer.totals()
    counts = tracer.counts
    n = max(checks, 1)

    def incl_ms(name):
        return spans[name][1] * 1e3 / n if name in spans else 0.0

    def self_ms(name):
        return spans[name][2] * 1e3 / n if name in spans else 0.0

    def leaf_ms(name):
        return tracer.leaf_s[name] * 1e3 / n

    check_ms = incl_ms("check")
    solves = counts["feasibility.solves"]
    iterations = counts["feasibility.iterations"]
    metrics = {
        "linalg.project_psd.calls": counts["linalg.project_psd.calls"] / n,
        "linalg.project_psd.ms": leaf_ms("linalg.project_psd"),
        "linalg.project_psd.n3_sum": counts["linalg.project_psd.n3_sum"] / n,
        "linalg.vectorize.calls": counts["linalg.vectorize.calls"] / n,
        "linalg.vectorize.ms": leaf_ms("linalg.vectorize"),
        "linalg.partial_trace.ms": leaf_ms("linalg.partial_trace"),
        "linalg.hermitian_basis.elems": counts["linalg.hermitian_basis.elems"] / n,
        "channels.compose_choi.calls": counts["channels.compose_choi.calls"] / n,
        "channels.compose_choi.ms": leaf_ms("channels.compose_choi"),
        "channels.validate_channel.ms": incl_ms("channels.validate_channel"),
        "channels.complementary.ms": leaf_ms("channels.complementary"),
        "feasibility.factor.ms": incl_ms("feasibility.factor"),
        "feasibility.factor.cols": counts["feasibility.factor.cols"] / n,
        "feasibility.solve.ms": incl_ms("feasibility.solve"),
        "feasibility.solve.self_ms": self_ms("feasibility.solve"),
        "feasibility.iterations": iterations / n,
        "feasibility.iterations_per_solve": iterations / solves if solves else 0.0,
        "feasibility.wasted_iter_share": (
            counts["feasibility.wasted_iterations"] / iterations if iterations else 0.0
        ),
        "analysis.assemble.self_ms": self_ms("analysis.assemble"),
        "analysis.assemble.map_calls": counts["analysis.assemble.map_calls"] / n,
        "analysis.check.self_ms": self_ms("analysis.check"),
        "analysis.verify.ms": incl_ms("analysis.verify"),
        "io.load.ms": incl_ms("io.load"),
        "io.load.bytes": counts["io.load.bytes"] / n,
        "io.emit.ms": leaf_ms("io.emit"),
        "io.emit.bytes": counts["io.emit.bytes"] / n,
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.report_bytes": counts["cli.report_bytes"] / n,
        "bench.check.ms": check_ms,
        "bench.share.assemble_factor": incl_ms("analysis.assemble") / check_ms if check_ms else 0.0,
        "bench.share.solve": incl_ms("feasibility.solve") / check_ms if check_ms else 0.0,
        "bench.trace_overhead": traced_s / untraced_s if untraced_s else 0.0,
    }
    for stop in ("tolerance", "plateau", "plateau_inconclusive", "iter_cap", "shortcut"):
        metrics[f"feasibility.stop.{stop}"] = counts[f"feasibility.stop.{stop}"] / n
    return metrics
