"""The benchmark's tracer wraps careerflow functions by module and name, and
reports a name it cannot find as absent instead of failing. This pins the
absent set, so a rename in the package updates the tracer or this list on
purpose."""
import importlib.util
from pathlib import Path

import careerflow

SPANS = Path(careerflow.__file__).resolve().parents[2] / "perfbench" / "spans.py"

ABSENT = [
    "careerflow._kernels.ajpr_stage_sums",
    "careerflow._kernels.ragged_group_counts",
    "careerflow._kernels.stage_ptype_sums",
    "careerflow._kernels.window_citation_sums",
    "careerflow.cli.run_analyze",
    "careerflow.cli.run_ingest",
    "careerflow.cli.write_synthetic_corpus",
    "careerflow.columnar.ColumnsBuilder.finalize",
    "careerflow.pipeline._write_text",
    "careerflow.pipeline.dump_columns",
    "careerflow.pipeline.gates_from_columns",
    "careerflow.pipeline.iter_publications",
    "careerflow.pipeline.load_columns",
    "careerflow.pipeline.parse_authors",
    "careerflow.pipeline.parse_journals",
    "careerflow.pipeline.portfolio_to_json",
    "careerflow.pipeline.run_model",
    "careerflow.portfolio.PortfolioTable.to_records",
    "careerflow.synth.publication_to_json",
]


def test_tracer_finds_every_wrap_target_but_the_known_absent():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert sorted(tracer.absent) == ABSENT
    finally:
        tracer.uninstall()
