"""Command-line surface: synth / ingest / analyze / report.

ingest parses and filters the three input files into a cache under the
output directory; analyze re-reads that cache and writes every derived
output plus a sha-256 manifest, so analysis parameters can be iterated
without re-parsing. CAREERFLOW_OUT provides the default output directory.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
from pathlib import Path

from .corpus import (
    MANIFEST_NAME,
    MAX_REFERENCE_YEAR,
    MIN_YEAR,
    CorpusError,
    SampleFilterConfig,
    StageError,
    write_aside,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Each stage imports only the modules it runs: `--help` and report load no
# numpy, synth no analysis module, ingest and analyze no synth. These names
# are bound on first use by __getattr__, and the handlers call them through
# _CLI, the module itself, so a caller that replaces one of them on this
# module (a tracer, a test) replaces what the stage runs.
_LAZY = {
    "config_from_mapping": "synth",
    "write_synthetic_corpus": "synth",
    "run_ingest": "pipeline",
    "run_analyze": "pipeline",
}
_CLI = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _default_out() -> str | None:
    return os.environ.get("CAREERFLOW_OUT")


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or _default_out()
    if not out:
        raise CorpusError("no output directory: pass --out or set CAREERFLOW_OUT")
    return Path(out)


def _check_reference_year(year: int | None) -> None:
    """A --reference-year outside [MIN_YEAR, MAX_REFERENCE_YEAR] is a usage
    error, raised before a stage reads or writes anything."""
    if year is not None and not MIN_YEAR <= year <= MAX_REFERENCE_YEAR:
        raise CorpusError(
            f"--reference-year must be within [{MIN_YEAR}, {MAX_REFERENCE_YEAR}], got {year}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="careerflow",
        description="Career-trajectory productivity pipeline over publication metadata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    synth.add_argument("--pubs", help="publications output path")
    synth.add_argument("--journals", help="journals output path")
    synth.add_argument("--authors", help="authors output path")
    synth.add_argument("--out", help="output directory (default CAREERFLOW_OUT)")
    synth.add_argument("--seed", type=int, help="random seed (default 0)")
    synth.add_argument("--rho", type=float, help="stage persistence in [0,1] (default 0.5)")
    synth.add_argument("--authors-n", type=int, help="number of authors (default 1000)")
    synth.add_argument("--disciplines-n", type=int, help="number of disciplines (default 1)")
    synth.add_argument("--reference-year", type=int, help="snapshot year (default 2022)")
    synth.add_argument("--config", help="declarative JSON config (flags override it)")

    ingest = sub.add_parser("ingest", help="parse, validate, and filter input files")
    ingest.add_argument("--pubs", required=True)
    ingest.add_argument("--journals", required=True)
    ingest.add_argument("--authors", required=True)
    ingest.add_argument("--out", help="output directory (default CAREERFLOW_OUT)")
    ingest.add_argument("--reference-year", type=int, default=2022)
    ingest.add_argument("--min-pubs", type=int, default=3)
    ingest.add_argument("--min-age", type=int, default=25)
    ingest.add_argument("--max-age", type=int, default=50)

    analyze = sub.add_parser("analyze", help="run the full analysis over an ingest cache")
    analyze.add_argument("--out", help="run directory holding the cache (default CAREERFLOW_OUT)")
    analyze.add_argument("--ptype", action="append", help="restrict to a productivity type (repeatable)")
    analyze.add_argument("--scope", action="append", help="restrict to a discipline scope (repeatable)")

    report = sub.add_parser("report", help="summarize an analyze run")
    report.add_argument("--out", help="run directory (default CAREERFLOW_OUT)")
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    _check_reference_year(args.reference_year)
    merged = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                merged = json.load(fh)
            except (ValueError, RecursionError) as exc:  # invalid JSON or UTF-8, deep nesting
                raise CorpusError(f"config {args.config}: {exc}") from None
        if not isinstance(merged, dict):
            raise CorpusError(f"config {args.config}: not a JSON object")
    flags = {
        "n_authors": args.authors_n,
        "n_disciplines": args.disciplines_n,
        "persistence": args.rho,
        "seed": args.seed,
        "reference_year": args.reference_year,
    }
    merged.update({k: v for k, v in flags.items() if v is not None})
    merged.setdefault("n_authors", 1000)
    config = _CLI.config_from_mapping(merged)

    out = args.out or _default_out()
    base = Path(out) if out else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    pubs_path = Path(args.pubs) if args.pubs else base / "publications.jsonl"
    journals_path = Path(args.journals) if args.journals else base / "journals.jsonl"
    authors_path = Path(args.authors) if args.authors else base / "authors.jsonl"
    # a failed synth leaves any previous corpus as it was
    with write_aside() as open_aside:
        files = [open_aside(path) for path in (pubs_path, journals_path, authors_path)]
        counts = _CLI.write_synthetic_corpus(config, *files)
    print(f"seed: {config.cohort.seed}")
    print(f"rho: {config.cohort.persistence}")
    for name, path in (
        ("publications", pubs_path),
        ("journals", journals_path),
        ("authors", authors_path),
    ):
        print(f"{name}: {counts[name]} -> {path}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    _check_reference_year(args.reference_year)
    out_dir = _out_dir(args)
    config = SampleFilterConfig(
        min_publications=args.min_pubs,
        min_academic_age=args.min_age,
        max_academic_age=args.max_age,
    )
    result = _CLI.run_ingest(
        Path(args.pubs),
        Path(args.journals),
        Path(args.authors),
        out_dir,
        args.reference_year,
        config,
    )
    print(f"cache: {result.cache_path}")
    print(f"publications: {result.n_publications}  rejects: {result.n_rejects}")
    print("gate\tremoved")
    for gate, removed in result.report.removed.items():
        print(f"{gate}\t{removed}")
    print(f"retained\t{result.report.retained}")
    print(f"total\t{result.report.total}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    result = _CLI.run_analyze(out_dir, args.ptype, args.scope)
    print(f"sample: {result.n_sample} authors")
    print(f"outputs: {len(result.manifest)} files under {result.out_dir}")
    print(f"manifest: {result.out_dir / MANIFEST_NAME}")
    return EXIT_OK


def _read_listed(out_dir: Path, rel_path: str, digests: dict[str, str]) -> str:
    """The text of an output the manifest lists; a missing or altered file
    is a StageError, so report never prints what analyze did not write."""
    path = out_dir / rel_path
    data = path.read_bytes() if path.is_file() else None
    if data is None or hashlib.sha256(data).hexdigest() != digests[rel_path]:
        raise StageError("report", f"hash mismatch for {rel_path}")
    return data.decode("utf-8")


def _manifest_digests(manifest_path: Path) -> dict[str, str]:
    """path -> sha256 of each manifest line, in manifest order; a line that
    is not a JSON object with string path and sha256, or whose path is
    absolute or has a `..` part and so may name a file outside the run
    directory, is a StageError."""
    digests: dict[str, str] = {}
    for line_no, line in enumerate(manifest_path.read_bytes().splitlines(), 1):
        if not line:
            continue
        try:
            entry = json.loads(line)
            path, digest = entry["path"], entry["sha256"]
        except (ValueError, KeyError, TypeError):
            path = digest = None
        if not (
            isinstance(path, str)
            and isinstance(digest, str)
            and not path.startswith("/")
            and ".." not in path.split("/")
        ):
            raise StageError("report", f"malformed manifest line {line_no}")
        digests[path] = digest
    return digests


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise CorpusError(f"no manifest at {manifest_path} (run analyze first)")
    digests = _manifest_digests(manifest_path)
    # preview a Sankey file of this manifest, not whatever an earlier run left
    sankey = next((path for path in digests if path.startswith("sankey/")), None)
    # verify everything before printing anything
    gates = _read_listed(out_dir, "gates.tsv", digests) if "gates.tsv" in digests else None
    preview = _read_listed(out_dir, sankey, digests) if sankey is not None else None
    if gates is not None:
        print(gates.rstrip())
    print(f"\n{len(digests)} outputs:")
    for path in digests:
        print(f"  {path}")
    if preview is not None:
        print(f"\n{Path(sankey).name}:")
        print(preview.rstrip())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "ingest": cmd_ingest,
        "analyze": cmd_analyze,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
