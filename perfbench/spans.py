"""Outside-in tracing of careerflow: wrap module attributes, record spans.

Nothing in src/ is edited. Each entry of WRAPS names a function by module and
attribute; install() swaps the attribute for a timing wrapper and uninstall()
puts the original back. The attribute is wrapped where the caller looks it
up (pipeline imports iter_publications by name, so pipeline.iter_publications
is the one to wrap). An entry whose attribute no longer exists is reported as
absent, not as a failure.

Calls of "span" entries become spans: name, start, end, parent. Per-record
functions ("agg") and generators ("gen", timed per next()) are aggregated
into a call count and total time instead. Every wrapped call, span or not,
charges its duration to the enclosing call, so self time is a call's duration
minus the time of the wrapped calls inside it. The tracer is single-threaded:
the benchmark never passes --workers, so analyze runs its models on one
thread.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

KERNELS = ("stage_ptype_sums", "window_citation_sums", "ajpr_stage_sums", "ragged_group_counts")

# (trace name, module, attribute, kind)
WRAPS = [
    ("synth.write_synthetic_corpus", "careerflow.cli", "write_synthetic_corpus", "span"),
    ("synth.gen_cohort", "careerflow.synth", "gen_cohort", "span"),
    ("synth.iter_author_batches", "careerflow.synth", "iter_author_batches", "gen"),
    ("synth.serialize", "careerflow.synth", "publication_to_json", "agg"),
    ("synth.serialize", "careerflow.synth", "author_to_json", "agg"),
    ("synth.serialize", "careerflow.synth", "journal_to_json", "agg"),
    ("pipeline.run_ingest", "careerflow.cli", "run_ingest", "span"),
    ("corpus.parse_journals", "careerflow.pipeline", "parse_journals", "span"),
    ("corpus.parse_authors", "careerflow.pipeline", "parse_authors", "span"),
    ("corpus.iter_publications", "careerflow.pipeline", "iter_publications", "gen"),
    ("corpus.parse_publication_line", "careerflow.corpus", "parse_publication_line", "agg"),
    ("columnar.builder_add", "careerflow.columnar", "ColumnsBuilder.add", "agg"),
    ("columnar.finalize", "careerflow.columnar", "ColumnsBuilder.finalize", "span"),
    ("pipeline.gates", "careerflow.pipeline", "gates_from_columns", "span"),
    ("columnar.dump_columns", "careerflow.pipeline", "dump_columns", "span"),
    ("pipeline.run_analyze", "careerflow.cli", "run_analyze", "span"),
    ("pipeline.load_cache", "careerflow.pipeline", "load_cache", "span"),
    ("columnar.load_columns", "careerflow.pipeline", "load_columns", "span"),
    ("portfolio.derive_portfolios", "careerflow.pipeline", "derive_portfolios", "span"),
    ("classes.stage_productivity", "careerflow.portfolio", "stage_productivity", "span"),
    ("classes.assign_cohort_classes", "careerflow.pipeline", "assign_cohort_classes", "span"),
    ("classes.assign_class_codes", "careerflow.classes", "assign_class_codes", "agg"),
    ("portfolio.to_records", "careerflow.portfolio", "PortfolioTable.to_records", "span"),
    ("portfolio.to_json", "careerflow.pipeline", "portfolio_to_json", "agg"),
    ("pipeline.class_dump", "careerflow.pipeline", "class_dump_lines", "gen"),
    ("mobility.transition_matrix_codes", "careerflow.pipeline", "transition_matrix_codes", "agg"),
    ("mobility.matrix_table_rows", "careerflow.pipeline", "matrix_table_rows", "agg"),
    ("mobility.sankey_export", "careerflow.pipeline", "sankey_export", "agg"),
    ("regression.run_model", "careerflow.pipeline", "run_model", "agg"),
    ("regression.build_design", "careerflow.regression", "build_design", "agg"),
    ("regression.fit_logistic", "careerflow.regression", "fit_logistic", "agg"),
    ("regression.collinearity", "careerflow.regression", "collinearity_diagonal", "agg"),
    ("pipeline.tables", "careerflow.pipeline", "models_table", "agg"),
    ("pipeline.tables", "careerflow.pipeline", "collinearity_table", "agg"),
    ("pipeline.tables", "careerflow.pipeline", "grid_rows", "agg"),
    ("pipeline.write_text", "careerflow.pipeline", "_write_text", "agg"),
] + [(f"kernels.{k}", "careerflow._kernels", k, "span") for k in KERNELS]

STAGES = ("stage.synth", "stage.ingest", "stage.analyze_full", "stage.analyze_narrow")


def _kernel_bytes_hook(kernel: str):
    """Counts the bytes of a kernel's array arguments (computed from nbytes, not measured)."""
    def hook(tracer, args, result):
        tracer.add(f"kernels.{kernel}_bytes", sum(a.nbytes for a in args if getattr(a, "ndim", 0) > 0))
    return hook


# Counters taken from wrapped calls' arguments and results.
HOOKS = {
    "synth.write_synthetic_corpus": lambda t, args, res: t.add("synth.publications", res["publications"]),
    "classes.assign_cohort_classes": lambda t, args, res: t.add("classes.too_small_cohorts", len(res[1])),
    "regression.run_model": lambda t, args, res: t.add("regression.models_failed", res.error is not None),
    "regression.fit_logistic": lambda t, args, res: (
        t.add("regression.unconverged", not res.converged),
        t.add("regression.newton_iterations", res.iterations),
    ),
    "pipeline.write_text": lambda t, args, res: t.add("pipeline.output_bytes", len(args[1].encode("utf-8"))),
    **{f"kernels.{k}": _kernel_bytes_hook(k) for k in KERNELS},
}


class _TracedIterator:
    """Times each next() of a wrapped generator as one aggregated call."""

    def __init__(self, tracer: "Tracer", name: str, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer._enter(self._name, False)
        try:
            return next(self._it)
        finally:
            self._tracer._exit(frame, None)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()  # "name:ExceptionClass" -> raised count
        self.hook_failures: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def add(self, name: str, n) -> None:
        self.counters[name] += int(n)

    def _enter(self, name: str, span: bool) -> list:
        parent = self._stack[-1][4] if self._stack else None
        frame = [name, span, time.perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, error: str | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, span, start, child, fid, parent = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if span:
            self.spans.append(
                {"id": fid, "name": name, "parent": parent,
                 "start": start - self.t0, "end": end - self.t0, "self": dur - child}
            )
        if error is not None:
            self.errors[f"{name}:{error}"] += 1

    @contextmanager
    def stage(self, name: str):
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame, None)

    def _wrapper(self, name: str, fn, kind: str):
        hook = HOOKS.get(name)
        if kind == "gen":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIterator(self, name, iter(fn(*args, **kwargs)))
            return gen_wrapper

        span = kind == "span"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, type(exc).__name__)
                raise
            self._exit(frame, None)
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the result changed shape; the timing still counts
                    self.hook_failures[name] += 1
            return result
        return wrapper

    def install(self) -> None:
        for name, module, attr, kind in WRAPS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrapper(name, original, kind))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.totals.items()},
            "counters": dict(self.counters),
            "errors": dict(self.errors),
            "hook_failures": dict(self.hook_failures),
            "absent": self.absent,
        }


# per-layer metric -> unit; values come from layer_metrics()
LAYER_UNITS = {
    "cli.import_s": "s",
    "synth.gen_cohort_s": "s",
    "synth.author_batches_s": "s",
    "synth.serialize_s": "s",
    "synth.self_s": "s",
    "synth.publications": "count",
    "corpus.parse_journals_s": "s",
    "corpus.parse_authors_s": "s",
    "corpus.iter_publications_s": "s",
    "corpus.parse_publication_line_s": "s",
    "corpus.decode_s": "s",
    "corpus.lines": "count",
    "corpus.records": "count",
    "corpus.rejects": "count",
    "corpus.accept_ratio": "ratio",
    "columnar.builder_add_s": "s",
    "columnar.finalize_s": "s",
    "columnar.dump_columns_s": "s",
    "columnar.load_columns_s": "s",
    "columnar.cache_bytes": "B",
    "pipeline.gates_s": "s",
    "pipeline.ingest_self_s": "s",
    "pipeline.load_cache_self_s": "s",
    "pipeline.class_dump_s": "s",
    "pipeline.tables_s": "s",
    "pipeline.write_text_s": "s",
    "pipeline.output_bytes": "B",
    "pipeline.analyze_self_s": "s",
    "portfolio.derive_self_s": "s",
    "portfolio.to_records_s": "s",
    "portfolio.to_json_s": "s",
    "classes.stage_productivity_s": "s",
    "classes.assign_cohort_classes_s": "s",
    "classes.cohorts": "count",
    "classes.too_small_cohorts": "count",
    **{f"kernels.{k}_s": "s" for k in KERNELS},
    **{f"kernels.{k}_bytes": "B_computed" for k in KERNELS},
    "kernels.numba": "flag",
    "mobility.transition_matrix_codes_s": "s",
    "mobility.matrix_table_rows_s": "s",
    "mobility.sankey_export_s": "s",
    "mobility.matrices": "count",
    "regression.run_model_s": "s",
    "regression.build_design_s": "s",
    "regression.fit_logistic_s": "s",
    "regression.collinearity_s": "s",
    "regression.models": "count",
    "regression.models_failed": "count",
    "regression.unconverged": "count",
    "regression.newton_iterations": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_s": "s",
}


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (synth, ingest, full and narrow
    analyze). *facts* holds what the benchmark measured itself: corpus.lines,
    corpus.records, corpus.rejects, columnar.cache_bytes, kernels.numba."""

    def total(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[0]

    c = tracer.counters
    m = {
        "synth.gen_cohort_s": total("synth.gen_cohort"),
        "synth.author_batches_s": total("synth.iter_author_batches"),
        "synth.serialize_s": total("synth.serialize"),
        "synth.self_s": self_time("synth.write_synthetic_corpus"),
        "synth.publications": c["synth.publications"],
        "corpus.parse_journals_s": total("corpus.parse_journals"),
        "corpus.parse_authors_s": total("corpus.parse_authors"),
        "corpus.iter_publications_s": total("corpus.iter_publications"),
        "corpus.parse_publication_line_s": total("corpus.parse_publication_line"),
        "corpus.decode_s": self_time("corpus.iter_publications"),
        "columnar.builder_add_s": total("columnar.builder_add"),
        "columnar.finalize_s": total("columnar.finalize"),
        "columnar.dump_columns_s": total("columnar.dump_columns"),
        "columnar.load_columns_s": total("columnar.load_columns"),
        "pipeline.gates_s": total("pipeline.gates"),
        "pipeline.ingest_self_s": self_time("pipeline.run_ingest"),
        "pipeline.load_cache_self_s": self_time("pipeline.load_cache"),
        "pipeline.class_dump_s": total("pipeline.class_dump"),
        "pipeline.tables_s": total("pipeline.tables"),
        "pipeline.write_text_s": total("pipeline.write_text"),
        "pipeline.output_bytes": c["pipeline.output_bytes"],
        "pipeline.analyze_self_s": self_time("pipeline.run_analyze"),
        "portfolio.derive_self_s": self_time("portfolio.derive_portfolios"),
        "portfolio.to_records_s": total("portfolio.to_records"),
        "portfolio.to_json_s": total("portfolio.to_json"),
        "classes.stage_productivity_s": total("classes.stage_productivity"),
        "classes.assign_cohort_classes_s": total("classes.assign_cohort_classes"),
        "classes.cohorts": calls("classes.assign_class_codes"),
        "classes.too_small_cohorts": c["classes.too_small_cohorts"],
        **{f"kernels.{k}_s": total(f"kernels.{k}") for k in KERNELS},
        **{f"kernels.{k}_bytes": c[f"kernels.{k}_bytes"] for k in KERNELS},
        "mobility.transition_matrix_codes_s": total("mobility.transition_matrix_codes"),
        "mobility.matrix_table_rows_s": total("mobility.matrix_table_rows"),
        "mobility.sankey_export_s": total("mobility.sankey_export"),
        "mobility.matrices": calls("mobility.transition_matrix_codes"),
        "regression.run_model_s": total("regression.run_model"),
        "regression.build_design_s": total("regression.build_design"),
        "regression.fit_logistic_s": total("regression.fit_logistic"),
        "regression.collinearity_s": total("regression.collinearity"),
        "regression.models": calls("regression.run_model"),
        "regression.models_failed": c["regression.models_failed"],
        "regression.unconverged": c["regression.unconverged"],
        "regression.newton_iterations": c["regression.newton_iterations"],
        "trace.unattributed_s": sum(self_time(s) for s in STAGES),
    }
    m.update(facts)
    lines = m.get("corpus.lines", 0)
    m["corpus.accept_ratio"] = m.get("corpus.records", 0) / lines if lines else 0.0
    return m


def model_errors(tracers: list[Tracer]) -> dict[str, int]:
    """Model-fit failures by error class, summed over *tracers*."""
    out: Counter = Counter()
    for t in tracers:
        for key, n in t.errors.items():
            name, cls = key.split(":", 1)
            if name in ("regression.build_design", "regression.fit_logistic", "regression.collinearity"):
                out[cls] += n
    return dict(out)
