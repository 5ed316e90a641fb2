"""Command-line surface: synth / ingest / analyze / report.

ingest parses and filters the three input files into a cache under the
output directory. A re-ingest of unchanged inputs ends in one of three
ways: with the same gates and outputs that check out, it has nothing to do
and returns before it loads numpy; with other gates, or a gate output that
does not check out, it takes the parsed columns from the verified cache
and runs only the sample filter's gates, so the gates can be iterated
without re-parsing; anything else is a full parse. analyze re-reads that
cache and writes every derived output plus a sha-256 manifest, so analysis
parameters can be iterated without re-parsing either. ingest and analyze
hold the run dir's lock while they work there, and report takes it shared
while it reads. CAREERFLOW_OUT provides the default output directory.
run() is the process entry point of the `careerflow` script and of
`python -m careerflow.cli`; callers in a process use main().
"""
from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

from . import MANIFEST_NAME, CorpusError, StageError, Terminated, run_dir_lock

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
# 128 + SIGPIPE: what a shell reports for a tool cut off by `head`
EXIT_BROKEN_PIPE = 141
# 128 + SIGINT: what a shell reports for a tool stopped by Ctrl-C
EXIT_INTERRUPTED = 130
# 128 + SIGTERM: what a shell reports for a tool stopped by kill
EXIT_TERMINATED = 143

# Each handler imports the stage module it runs inside its own body, so
# that `--help` and report load no numpy and no corpus module.


def _default_out() -> str | None:
    return os.environ.get("CAREERFLOW_OUT")


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or _default_out()
    if not out:
        raise CorpusError("no output directory: pass --out or set CAREERFLOW_OUT")
    return Path(out)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help written to a stdout whose reader
    is gone raises BrokenPipeError, which run() turns into exit 141;
    argparse's own print_help swallows it. Subparsers take this class too."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    synth.add_argument("--rho", type=float, help="correlation of the latent stage values in [0,1] (default 0.5)")
    synth.add_argument("--authors-n", type=int, help="number of authors (default 1000)")
    synth.add_argument("--disciplines-n", type=int, help="number of disciplines (default 1)")
    synth.add_argument("--reference-year", type=int, help="snapshot year (default 2022)")
    synth.add_argument("--config", help="declarative JSON config (flags override it)")
    synth.set_defaults(handler=cmd_synth)

    ingest = sub.add_parser("ingest", help="parse, validate, and filter input files")
    ingest.add_argument("--pubs", required=True)
    ingest.add_argument("--journals", required=True)
    ingest.add_argument("--authors", required=True)
    ingest.add_argument("--out", help="output directory (default CAREERFLOW_OUT)")
    # no defaults here: an unset flag takes the config's
    ingest.add_argument("--reference-year", type=int)
    ingest.add_argument("--min-pubs", type=int)
    ingest.add_argument("--min-age", type=int)
    ingest.add_argument("--max-age", type=int)
    ingest.set_defaults(handler=cmd_ingest)

    analyze = sub.add_parser("analyze", help="run the full analysis over an ingest cache")
    analyze.add_argument("--out", help="run directory holding the cache (default CAREERFLOW_OUT)")
    analyze.add_argument("--ptype", action="append", help="restrict to a productivity type (repeatable)")
    analyze.add_argument("--scope", action="append", help="restrict to a discipline scope (repeatable)")
    analyze.set_defaults(handler=cmd_analyze)

    report = sub.add_parser("report", help="summarize an analyze run")
    report.add_argument("--out", help="run directory (default CAREERFLOW_OUT)")
    report.set_defaults(handler=cmd_report)
    return parser


def _sigterm_raises(handler):
    """*handler*, run with SIGTERM raising Terminated, for the stages that
    write: report does not load signal."""

    def run_handler(args: argparse.Namespace) -> int:
        from .corpus import sigterm_raises

        with sigterm_raises():
            return handler(args)

    return run_handler


@_sigterm_raises
def cmd_synth(args: argparse.Namespace) -> int:
    import contextlib
    import json

    from .corpus import AUTHORS_FILE, JOURNALS_FILE, PUBLICATIONS_FILE, write_aside
    from .synth import config_from_mapping, write_synthetic_corpus

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
    config = config_from_mapping(merged)

    out = args.out or _default_out()
    base = Path(out) if out else Path(".")
    given = {PUBLICATIONS_FILE: args.pubs, JOURNALS_FILE: args.journals, AUTHORS_FILE: args.authors}
    paths = {name: Path(path) if path else base / f"{name}.jsonl" for name, path in given.items()}
    # two outputs of one file would be written aside to one temporary file
    if len({path.resolve() for path in paths.values()}) < len(paths):
        raise CorpusError("--pubs, --journals and --authors must name three different files")
    # the directories synth makes, deepest first: a failed synth removes
    # them again, and rmdir removes none that holds a file
    made = [path for path in (base, *base.parents) if not path.exists()]
    base.mkdir(parents=True, exist_ok=True)
    # a failed synth leaves any previous corpus as it was
    try:
        with write_aside() as open_aside:
            files = [open_aside(path) for path in paths.values()]
            counts = write_synthetic_corpus(config, *files)
    except BaseException:
        with contextlib.suppress(OSError):
            for path in made:
                path.rmdir()
        raise
    print(f"seed: {config.cohort.seed}")
    print(f"rho: {config.cohort.persistence}")
    for name, path in paths.items():
        print(f"{name}: {counts[name]} -> {path}")
    return EXIT_OK


@_sigterm_raises
def cmd_ingest(args: argparse.Namespace) -> int:
    from .corpus import (
        AUTHORS_FILE,
        INGEST_OUTPUTS,
        INGEST_REUSE_NAME,
        JOURNALS_FILE,
        MAX_REFERENCE_YEAR,
        MIN_YEAR,
        PUBLICATIONS_FILE,
        REFERENCE_YEAR,
        SampleFilterConfig,
        gates_table,
        ingest_reuse,
        remove_aside_files,
    )

    # a year out of range is refused before anything is read or written
    year = REFERENCE_YEAR if args.reference_year is None else args.reference_year
    if not MIN_YEAR <= year <= MAX_REFERENCE_YEAR:
        raise CorpusError(f"--reference-year must be within [{MIN_YEAR}, {MAX_REFERENCE_YEAR}], got {year}")
    out_dir = _out_dir(args)
    flags = {"min_publications": args.min_pubs, "min_academic_age": args.min_age, "max_academic_age": args.max_age}
    config = SampleFilterConfig(**{k: v for k, v in flags.items() if v is not None})
    paths = {
        PUBLICATIONS_FILE: Path(args.pubs),
        JOURNALS_FILE: Path(args.journals),
        AUTHORS_FILE: Path(args.authors),
    }
    for path in paths.values():
        if not path.exists():
            raise CorpusError(f"input file not found: {path}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # one writer at a time, which may remove what a killed one left
    with run_dir_lock(out_dir):
        remove_aside_files(out_dir, (*INGEST_OUTPUTS, INGEST_REUSE_NAME))
        reuse = ingest_reuse(paths, out_dir, year, config)
        result = reuse.result
        if result is None:
            # numpy from here: the gates, after a parse unless the columns
            # are reused
            from .columnar import run_ingest

            result = run_ingest(paths, out_dir, year, config, reuse)
    print(f"cache: {result.cache_path}")
    print(f"publications: {result.n_publications}  rejects: {result.n_rejects}")
    print(gates_table(result.report), end="")
    return EXIT_OK


@_sigterm_raises
def cmd_analyze(args: argparse.Namespace) -> int:
    from .pipeline import run_analyze

    out_dir = _out_dir(args)
    result = run_analyze(out_dir, args.ptype, args.scope)
    print(f"sample: {result.n_sample} authors")
    print(f"outputs: {len(result.manifest)} files under {result.out_dir}")
    print(f"manifest: {result.out_dir / MANIFEST_NAME}")
    return EXIT_OK


def _read_listed(out_dir: Path, rel_path: str, digests: dict[str, str]) -> str:
    """The text of an output the manifest lists; a missing or altered file
    is a StageError, so report never prints what analyze did not write."""
    import hashlib

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
    import json

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
    # a shared lock: no ingest or analyze renames outputs while report reads
    # them, and no report is refused for another report
    with run_dir_lock(out_dir, shared=True):
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
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # the reader of stdout has gone: run() exits as SIGPIPE would
    except (CorpusError, StageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, StageError) else EXIT_USAGE


def run() -> None:
    """The process entry point: run main() and exit with its code.

    gc.freeze runs after every exit handler registered during main() and
    moves each object still alive to the permanent generation, so the
    interpreter's finalization skips its full collections over what numpy
    and careerflow built at import. Every output is closed and renamed
    before main() returns, and stdio is still flushed. main() leaves the
    collector alone, since a caller may run it many times in one process.

    A write to a stdout whose reader is gone, as under `careerflow report |
    head -1`, ends the process as SIGPIPE would: exit 141, nothing on
    stderr. Each output is in place by then. An interrupt (SIGINT, Ctrl-C)
    exits 130 and a SIGTERM to synth, ingest or analyze 143, each with one
    line on stderr; every file the stage was writing aside is removed by
    then, and every forked worker reaped.
    """
    atexit.register(gc.freeze)
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; give that flush a
        # file it can write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    except Terminated:
        print("error: terminated", file=sys.stderr)
        code = EXIT_TERMINATED
    sys.exit(code)


if __name__ == "__main__":
    run()
