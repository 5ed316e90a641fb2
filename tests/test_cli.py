import contextlib
import dataclasses
import errno
import fcntl
import gc
import hashlib
import importlib.util
import inspect
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np
import pytest

import careerflow
from careerflow import columnar, corpus, pipeline, portfolio
from careerflow.cli import main
from careerflow.columnar import ColumnsBuilder, CorpusColumns, merge_ranges, read_cache, write_cache
from careerflow.corpus import AuthorRecord, parse_authors, parse_journals
from conftest import make_corpus, make_pub
from careerflow.pipeline import MANIFEST_NAME, PARAMETER_FREE, REUSE_NAME

GOLDEN = Path(__file__).parent / "data" / "golden"


def synth_args(out: Path, n=40, disciplines=2, seed=7, rho=0.5):
    return [
        "synth",
        "--out", str(out),
        "--authors-n", str(n),
        "--disciplines-n", str(disciplines),
        "--seed", str(seed),
        "--rho", str(rho),
    ]


def ingest_args(out: Path):
    return [
        "ingest",
        "--pubs", str(out / "publications.jsonl"),
        "--journals", str(out / "journals.jsonl"),
        "--authors", str(out / "authors.jsonl"),
        "--out", str(out),
    ]


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "run"
    assert main(synth_args(out)) == 0
    assert main(ingest_args(out)) == 0
    return out


def test_synth_same_seed_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(synth_args(a, seed=7)) == 0
    assert main(synth_args(b, seed=7)) == 0
    for name in ("publications.jsonl", "journals.jsonl", "authors.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_prints_seed(tmp_path, capsys):
    assert main(synth_args(tmp_path / "x", seed=123)) == 0
    assert "seed: 123" in capsys.readouterr().out


def test_synth_cohort_too_small_rejected(tmp_path):
    assert main(synth_args(tmp_path / "x", n=4, disciplines=1)) == 2


def test_synth_config_file(tmp_path):
    config = {"n_authors": 25, "persistence": 0.2, "citation_rate": 1.0}
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "cfg"
    assert main(["synth", "--out", str(out), "--config", str(path), "--seed", "3"]) == 0
    authors = (out / "authors.jsonl").read_text().splitlines()
    assert len(authors) == 25


def test_synth_careers_before_min_year_exit_2_without_writing(tmp_path, capsys):
    out = tmp_path / "x"
    argv = ["synth", "--out", str(out), "--authors-n", "20", "--reference-year", "1930", "--seed", "1"]
    assert main(argv) == 2
    assert "reference_year - max_academic_age" in capsys.readouterr().err
    assert not (out / "publications.jsonl").exists()


@pytest.mark.parametrize("how", ["flag 0", "flag -1", "config 0"])
def test_synth_fewer_than_one_discipline_exit_2_without_writing(tmp_path, capsys, how):
    out = tmp_path / "x"
    source, count = how.split()
    if source == "flag":
        argv = ["synth", "--out", str(out), "--authors-n", "20", "--disciplines-n", count]
    else:
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"n_authors": 20, "n_disciplines": int(count)}))
        argv = ["synth", "--out", str(out), "--config", str(path)]
    assert main(argv) == 2
    assert f"need n_disciplines >= 1, got {count}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("{bad", ": Expecting property name", id="invalid-json"),
        pytest.param("[1,2]", ": not a JSON object", id="non-object"),
        pytest.param("[" * 100_000, ": maximum recursion depth exceeded", id="deep-nesting"),
        pytest.param('{"n_authors": "x"}', "n_authors must be an integer, got str", id="int-str"),
        pytest.param('{"n_authors": 20.5}', "n_authors must be an integer, got float", id="int-float"),
        pytest.param('{"n_authors": true}', "n_authors must be an integer, got bool", id="int-bool"),
        pytest.param(
            '{"n_authors": 20, "persistence": "0.5"}', "persistence must be a number, got str", id="real-str"
        ),
        pytest.param(
            '{"n_authors": 20, "persistence": false}', "persistence must be a number, got bool", id="real-bool"
        ),
    ],
)
def test_synth_malformed_config_exit_2_without_writing(tmp_path, capsys, text, message):
    path = tmp_path / "synth.json"
    path.write_text(text)
    out = tmp_path / "x"
    assert main(["synth", "--out", str(out), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: " if message.startswith(":") else "error: config key ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_synth_negative_seed_exit_2_without_writing(tmp_path, capsys, how):
    out = tmp_path / "x"
    if how == "flag":
        argv = ["synth", "--out", str(out), "--authors-n", "20", "--seed", "-1"]
    else:
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"n_authors": 20, "seed": -1}))
        argv = ["synth", "--out", str(out), "--config", str(path)]
    assert main(argv) == 2
    assert "need seed >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("pubs_per_year", "Infinity"),
        ("citation_rate", "NaN"),
        ("persistence", "NaN"),
        ("persistence", "Infinity"),
        ("noise_scale", "Infinity"),
        ("percentile_bias", "-Infinity"),
        ("team_size_mean", "Infinity"),
    ],
)
def test_synth_non_finite_real_exit_2_without_writing(tmp_path, capsys, key, value):
    path = tmp_path / "synth.json"
    path.write_text(f'{{"n_authors": 20, "{key}": {value}}}')
    out = tmp_path / "x"
    assert main(["synth", "--out", str(out), "--config", str(path)]) == 2
    shown = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}[value]
    assert f"error: {key} must be finite, got {shown}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_outputs_that_name_one_file_exit_2_without_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "X"
    target.write_text("previous\n")
    args = synth_args(tmp_path) + ["--pubs", str(target), "--authors", "sub/../X"]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: --pubs, --journals and --authors must name three different files\n"
    )
    assert target.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["X", "sub"]


def test_synth_unwritable_output_error_names_the_output_not_its_aside_file(tmp_path, capsys):
    out = tmp_path / "run"
    pubs = tmp_path / "missing" / "p.jsonl"
    assert main(["synth", "--out", str(out), "--pubs", str(pubs), "--authors-n", "20"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{pubs}'\n"
    assert not out.exists()


def test_synth_unwritable_output_keeps_an_existing_out_dir_and_its_files(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    pubs = tmp_path / "missing" / "p.jsonl"
    assert main(["synth", "--out", str(out), "--pubs", str(pubs), "--authors-n", "20"]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("key", ["n_countries", "n_institutions"])
def test_synth_pool_size_past_cap_exit_2_fast_without_writing(tmp_path, capsys, key):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"n_authors": 20, key: 100_000_000_000}))
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["synth", "--out", str(out), "--config", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "n_countries <= 1000" in err and "n_institutions <= 1000000" in err
    assert "100000000000" in err
    assert not out.exists()


def test_ingest_missing_journals_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(synth_args(out)) == 0
    missing = out / "nope.jsonl"
    code = main(
        [
            "ingest",
            "--pubs", str(out / "publications.jsonl"),
            "--journals", str(missing),
            "--authors", str(out / "authors.jsonl"),
            "--out", str(out),
        ]
    )
    assert code == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("year", [3000000000, 10000, 1899, 1500, -1])
@pytest.mark.parametrize("stage", ["ingest", "synth", "synth-config"])
def test_reference_year_out_of_range_exit_2_before_reading_or_writing(tmp_path, capsys, stage, year):
    out = tmp_path / "x"
    if stage == "ingest":
        # inputs that do not exist: the year is refused before they are looked for
        argv = ingest_args(tmp_path / "missing")[:-1] + [str(out), "--reference-year", str(year)]
    elif stage == "synth":
        argv = synth_args(out) + ["--reference-year", str(year)]
    else:
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"reference_year": year}))
        argv = synth_args(out) + ["--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(year) in err and "reference" in err
    assert "not found" not in err
    assert not out.exists()


def test_ingest_prints_gate_table_and_caches(run_dir, capsys):
    # fixture already ran ingest; run again to capture output
    assert main(ingest_args(run_dir)) == 0
    out = capsys.readouterr().out
    for gate in ("country", "discipline", "min_publications", "academic_age", "recent_activity"):
        assert gate in out
    assert (run_dir / "corpus.cache").exists()
    assert (run_dir / "rejects.jsonl").exists()
    # after the cache and count lines, ingest prints the gates.tsv analyze writes
    assert main(["analyze", "--out", str(run_dir)]) == 0
    assert out.split("\n", 2)[2] == (run_dir / "gates.tsv").read_text()


@pytest.mark.parametrize(
    "bad_line,reason",
    [
        (b'\xff\xfe{"x":1}\n', "invalid utf-8"),
        (b"[" * 100_000 + b"\n", "invalid json: nesting too deep"),
    ],
    ids=["non-utf8", "deep-nesting"],
)
def test_ingest_rejects_byte_level_faults(run_dir, capsys, bad_line, reason):
    pubs = run_dir / "publications.jsonl"
    n_lines = len(pubs.read_bytes().splitlines())
    with open(pubs, "ab") as fh:
        fh.write(bad_line)
    capsys.readouterr()
    assert main(ingest_args(run_dir)) == 0
    assert f"publications: {n_lines}  rejects: 1" in capsys.readouterr().out
    rejects = (run_dir / "rejects.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in rejects] == [
        {"line_no": n_lines + 1, "file": "publications", "reason": reason}
    ]


@pytest.mark.parametrize("bad", ["count", "year"])
def test_ingest_rejects_citation_values_past_int32(run_dir, capsys, bad):
    pubs = run_dir / "publications.jsonl"
    lines = pubs.read_text().splitlines()
    pub = dict(json.loads(lines[0]), pub_id="extra")
    if bad == "count":
        pub["citations_by_year"] = {str(pub["year"]): 10**30}
        reason = f"bad citation count for year {pub['year']}"
    else:
        pub["citations_by_year"] = {"99999999999": 1}
        reason = "citation year 99999999999 out of range"
    with open(pubs, "a") as fh:
        fh.write(json.dumps(pub) + "\n")
    capsys.readouterr()
    assert main(ingest_args(run_dir)) == 0
    assert f"publications: {len(lines)}  rejects: 1" in capsys.readouterr().out
    rejects = (run_dir / "rejects.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in rejects] == [
        {"line_no": len(lines) + 1, "file": "publications", "reason": reason}
    ]


def test_ingest_rejects_repeated_ids_and_a_percentile_before_its_discipline(run_dir, capsys):
    """A journal or author line whose id an earlier line took is a reject
    naming the id field; a journal line with a bad percentile for a code that
    also cannot name an output is rejected for the percentile."""
    journals, authors = run_dir / "journals.jsonl", run_dir / "authors.jsonl"
    journal_lines = journals.read_text().splitlines()
    author_lines = authors.read_text().splitlines()
    with open(journals, "a") as fh:
        fh.write(journal_lines[0] + "\n")
        fh.write('{"journal_id":"extra","percentiles":{"all":150}}\n')
    with open(authors, "a") as fh:
        fh.write(author_lines[0] + "\n")
    assert main(ingest_args(run_dir)) == 0
    journal_id = json.loads(journal_lines[0])["journal_id"]
    author_id = json.loads(author_lines[0])["author_id"]
    assert (run_dir / "rejects.jsonl").read_text() == (
        f'{{"line_no":{len(journal_lines) + 1},"file":"journals","reason":"duplicate journal_id {journal_id}"}}\n'
        f'{{"line_no":{len(journal_lines) + 2},"file":"journals","reason":"percentile out of range for all"}}\n'
        f'{{"line_no":{len(author_lines) + 1},"file":"authors","reason":"duplicate author_id {author_id}"}}\n'
    )


@pytest.mark.parametrize(
    "code",
    ["x/../../../esc", "\ud800", "all", "..", "a\\b", "a\x00b", "D\t01", "D\n01", "D\x1b01", "D\x7f01",
     "D\x8501", "D\u202801", "D\u202901", "D" * 201, "\u00e9" * 101],
    ids=["path-escape", "lone-surrogate", "aggregate-scope", "dot-dot", "backslash", "nul",
         "tab", "newline", "escape", "del", "next-line", "line-separator", "paragraph-separator",
         "201-bytes", "202-bytes-of-2-byte-chars"],
)
def test_discipline_that_cannot_name_an_output_is_rejected(run_dir, capsys, code):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    clean_manifest = (run_dir / MANIFEST_NAME).read_bytes()
    pubs, journals = run_dir / "publications.jsonl", run_dir / "journals.jsonl"
    pub_lines = pubs.read_text().splitlines()
    journal_lines = journals.read_text().splitlines()
    pub = dict(json.loads(pub_lines[0]), pub_id="extra", cited_ref_disciplines=[code])
    with open(pubs, "a") as fh:
        fh.write(json.dumps(pub) + "\n")
    with open(journals, "a") as fh:
        fh.write(json.dumps({"journal_id": "extra", "percentiles": {code: 50}}) + "\n")
    capsys.readouterr()
    assert main(ingest_args(run_dir)) == 0
    assert f"publications: {len(pub_lines)}  rejects: 2" in capsys.readouterr().out
    # a reason quotes at most 64 characters of a value
    shown = repr(code) if len(repr(code)) <= 64 else f"{repr(code)[:64]}...[{len(repr(code))} chars]"
    reason = f"bad discipline {shown}"
    rejects = (run_dir / "rejects.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in rejects] == [
        {"line_no": len(journal_lines) + 1, "file": "journals", "reason": reason},
        {"line_no": len(pub_lines) + 1, "file": "publications", "reason": reason},
    ]

    assert main(["analyze", "--out", str(run_dir)]) == 0
    assert (run_dir / MANIFEST_NAME).read_bytes() == clean_manifest
    for line in clean_manifest.decode().splitlines():
        *dirs, name = json.loads(line)["path"].split("/")
        assert dirs in ([], ["matrices"], ["sankey"], ["regression"])
        assert re.fullmatch(r"[A-Za-z0-9_.]+", name) and name not in (".", "..")
    outside = [p for p in run_dir.parent.rglob("*") if run_dir not in (p, *p.parents)]
    assert outside == []


def test_discipline_code_of_the_longest_byte_length_names_its_outputs(run_dir, capsys):
    code = "D" * corpus.MAX_DISCIPLINE_BYTES
    for name in ("publications.jsonl", "journals.jsonl"):
        path = run_dir / name
        path.write_text(path.read_text().replace('"D00"', json.dumps(code)))
    assert main(ingest_args(run_dir)) == 0
    assert "rejects: 0" in capsys.readouterr().out
    assert main(["analyze", "--out", str(run_dir)]) == 0
    manifest = [json.loads(line)["path"] for line in (run_dir / MANIFEST_NAME).read_text().splitlines()]
    assert f"matrices/P1_{code}.tsv" in manifest


def test_min_pubs_override_honored(run_dir, capsys):
    args = ingest_args(run_dir) + ["--min-pubs", "100000"]
    assert main(args) == 0
    report = json.loads((run_dir / "filter_report.json").read_text())
    # nearly everyone trips the raised threshold (a co-authored publication
    # can predate an author's own career and trip the age gate instead)
    assert report["removed"]["min_publications"] >= report["total"] - 3
    assert report["retained"] == 0


def test_analyze_outputs_and_manifest(run_dir):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    manifest = {
        json.loads(line)["path"]: json.loads(line)["sha256"]
        for line in (run_dir / MANIFEST_NAME).read_text().splitlines()
    }
    matrices = [p for p in manifest if p.startswith("matrices/")]
    sankeys = [p for p in manifest if p.startswith("sankey/")]
    regressions = [p for p in manifest if p.startswith("regression/")]
    # 4 ptypes x (all + 2 disciplines) scopes
    assert len(matrices) == 12
    assert len(sankeys) == 12
    assert len(regressions) >= 16
    assert "portfolios.jsonl" in manifest
    assert "classes.jsonl" in manifest


def test_analyze_a_corpus_with_no_institution_and_no_journal(run_dir):
    pubs = run_dir / "publications.jsonl"
    lines = [json.loads(line) for line in pubs.read_text().splitlines()]
    pubs.write_text(
        "".join(json.dumps(dict(obj, affiliation_institutions=[], journal_id=None)) + "\n" for obj in lines)
    )
    assert main(ingest_args(run_dir)) == 0
    assert main(["analyze", "--out", str(run_dir)]) == 0
    records = (run_dir / "portfolios.jsonl").read_text().splitlines()
    assert records
    for line in records:
        assert '"top200":false' in line and '"dominant_institution":null' in line


def test_analyze_ptype_restriction(run_dir):
    assert main(["analyze", "--out", str(run_dir), "--ptype", "P1"]) == 0
    manifest = [
        json.loads(line)["path"]
        for line in (run_dir / MANIFEST_NAME).read_text().splitlines()
    ]
    matrix_files = [p for p in manifest if p.startswith("matrices/")]
    assert all("P1" in p for p in matrix_files)
    assert len(matrix_files) == 3  # all + 2 disciplines


def test_analyze_unknown_scope_fails(run_dir, capsys):
    assert main(["analyze", "--out", str(run_dir), "--scope", "XX"]) == 1
    assert "scopes" in capsys.readouterr().err


def test_analyze_without_cache_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", "--out", str(empty)]) == 1
    assert "cache" in capsys.readouterr().err


def test_classes_dump_has_six_decimal_values(run_dir):
    assert main(["analyze", "--out", str(run_dir), "--ptype", "P1"]) == 0
    line = (run_dir / "classes.jsonl").read_text().splitlines()[0]
    obj = json.loads(line)
    assert {"author_id", "discipline", "stage", "ptype", "value", "class"} <= set(obj)
    raw_value = line.split('"value":')[1].split(",")[0]
    assert len(raw_value.split(".")[1]) == 6


def test_report_command(run_dir, capsys):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "outputs:" in out
    assert "retained" in out


def test_report_refuses_an_output_that_does_not_match_the_manifest(run_dir, capsys):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 0
    untouched = capsys.readouterr().out
    preview = next(line for line in untouched.splitlines() if line.endswith(".txt:"))
    sankey = run_dir / "sankey" / preview[:-1]
    data = bytearray(sankey.read_bytes())
    data[0] ^= 1
    sankey.write_bytes(bytes(data))
    assert main(["report", "--out", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert f"hash mismatch for sankey/{sankey.name}" in captured.err
    assert captured.out == ""
    sankey.unlink()
    assert main(["report", "--out", str(run_dir)]) == 1
    assert f"hash mismatch for sankey/{sankey.name}" in capsys.readouterr().err


def test_report_previews_a_sankey_file_the_manifest_lists(run_dir, capsys):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    # the narrow run removes the full run's Sankey files
    assert main(["analyze", "--out", str(run_dir), "--ptype", "P3", "--scope", "D01"]) == 0
    assert not (run_dir / "sankey" / "P1_D00.txt").exists()
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "\nP3_D01.txt:\n" in out
    assert "P1_D00.txt" not in out
    assert (run_dir / "sankey" / "P3_D01.txt").read_text().rstrip() in out


def test_analyze_removes_outputs_its_manifest_does_not_list(run_dir):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    (run_dir / "regression" / "notes.txt").write_text("left by hand\n")
    assert main(["analyze", "--out", str(run_dir), "--ptype", "P3", "--scope", "D01"]) == 0
    listed = {
        json.loads(line)["path"] for line in (run_dir / MANIFEST_NAME).read_text().splitlines()
    }
    on_disk = {
        path.relative_to(run_dir).as_posix()
        for sub in ("matrices", "sankey", "regression")
        for path in (run_dir / sub).rglob("*")
        if path.is_file()
    }
    assert on_disk == {p for p in listed if "/" in p}
    assert (run_dir / "corpus.cache").exists()  # only analyze's own directories are swept


def cache_layout(data: bytes) -> tuple[int, dict[str, tuple[int, int]], list[int]]:
    """The end of line 2 of a cache, the (start, end) offset of
    each array block by name, and the offsets of its padding bytes. Line 2
    and each block are padded to a multiple of 8 bytes counted from the
    start of line 2."""
    body = data.index(b"\n") + 1
    at = line_end = data.index(b"\n", body) + 1
    blocks: dict[str, tuple[int, int]] = {}
    padding = list(range(at, at + -(at - body) % 8))
    at += len(padding)
    for name, dtype, n in json.loads(data[body:line_end])["arrays"]:
        blocks[name] = (at, at + np.dtype(dtype).itemsize * n)
        at = blocks[name][1]
        pad = -(at - body) % 8
        padding += range(at, at + pad)
        at += pad
    assert at == len(data)
    return line_end, blocks, padding


def test_corrupt_cache_payload_is_a_load_cache_error(run_dir, capsys):
    cache = run_dir / "corpus.cache"
    data = cache.read_bytes()
    body = data.index(b"\n") + 1
    line_end, blocks, padding = cache_layout(data)
    assert padding

    def flipped(at: int) -> bytes:
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]

    def with_sha256(rest: bytes) -> bytes:
        """A cache of this version whose line 1 gives the right sha256 of *rest*."""
        top = {"cache_version": columnar.CACHE_VERSION, "sha256": hashlib.sha256(rest).hexdigest()}
        return json.dumps(top, separators=(",", ":")).encode() + b"\n" + rest

    layout = json.loads(data[body:line_end])
    first_block = min(start for start, _ in blocks.values())

    def with_retained(retained: list) -> bytes:
        """The cache with this retained list in its header, re-hashed."""
        header = dict(layout["header"], retained=retained)
        line = json.dumps(dict(layout, header=header)).encode() + b"\n"
        return with_sha256(line + bytes(-len(line) % 8) + data[first_block:])

    retained = layout["header"]["retained"]
    n_authors = len(layout["author_ids"])
    assert len(retained) >= 2
    arrays_not_a_list = dict(layout, arrays=7)
    start, end = blocks["pub_cits4y"]
    v1_header = {"kind": "header", "cache_version": 1, "reference_year": 2022, "n_publications": 1}
    faults = {
        "line 2 not an object": with_sha256(b"7\n" + data[line_end:]),
        "arrays not a list": with_sha256(json.dumps(arrays_not_a_list).encode() + b"\n" + data[line_end:]),
        "byte in line 2": flipped((body + line_end) // 2),
        "byte in a block": flipped((start + end) // 2),
        "padding byte": flipped(padding[0]),
        "cut inside a block": data[: (start + end) // 2],
        "appended byte": data + b"\0",
        "version 1": (
            json.dumps(v1_header, separators=(",", ":")) + "\n" + '{"kind":"meta","reference_year":2022}\n'
        ).encode(),
        "retained unsorted": with_retained(retained[::-1]),
        "retained index repeated": with_retained([retained[0], *retained]),
        "retained index -1": with_retained([-1, *retained]),
        "retained index n_authors": with_retained([*retained, n_authors]),
        "retained index a string": with_retained([*retained[:-1], str(retained[-1])]),
        "retained not a list": with_retained({"0": 0}),
    }
    # the rewritten header alone is no fault
    cache.write_bytes(with_retained(retained))
    assert main(["analyze", "--out", str(run_dir)]) == 0
    for fault, damaged in faults.items():
        cache.write_bytes(damaged)
        capsys.readouterr()
        assert main(["analyze", "--out", str(run_dir)]) == 1, fault
        captured = capsys.readouterr()
        assert captured.err.startswith("error: stage load-cache: "), (fault, captured.err)
        assert "re-run ingest" in captured.err, (fault, captured.err)
        # each fault but the old version passes the version check
        assert ("cache version" in captured.err) == (fault == "version 1"), (fault, captured.err)
        assert captured.out == "", fault


def test_country_override_through_ingest_and_analyze(tmp_path):
    """An author with publications has their override as their country, at
    the gate and in portfolios.jsonl, even one no publication names; one
    without publications is removed at the country gate, as the reference
    filter removes them."""
    pubs = [
        make_pub(pub_id=f"p{k}", year=year, authors=("a1", "a2"), countries=("C01",), refs=("D00",))
        for k, year in enumerate((1990, 2000, 2020))
    ]
    sample = make_corpus(pubs)
    sample.authors["a1"].country_override = "C99"
    sample.authors["a3"] = AuthorRecord("a3", "unknown", 0.0, "C01")
    src = tmp_path / "inputs"
    src.mkdir()
    for name, lines in zip(("publications", "journals", "authors"), corpus.serialize_corpus(sample)):
        (src / f"{name}.jsonl").write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "run"
    argv = ["--pubs", str(src / "publications.jsonl"), "--journals", str(src / "journals.jsonl")]
    assert main(["ingest", *argv, "--authors", str(src / "authors.jsonl"), "--out", str(out)]) == 0
    assert main(["analyze", "--out", str(out)]) == 0

    _, report = corpus.filter_sample(sample, corpus.SampleFilterConfig())
    assert json.loads((out / "filter_report.json").read_text()) == dataclasses.asdict(report)
    assert report.removed["country"] == 1 and report.retained == 2
    portfolios = [json.loads(line) for line in (out / "portfolios.jsonl").read_text().splitlines()]
    assert {p["author_id"]: p["dominant_country"] for p in portfolios} == {"a1": "C99", "a2": "C01"}


@pytest.mark.parametrize("inputs", ["golden", "empty"])
def test_cache_round_trips_the_builder_columns(tmp_path, capsys, inputs):
    if inputs == "golden":
        src = GOLDEN
    else:
        src = tmp_path / "empty"
        src.mkdir()
        for name in ("publications", "journals", "authors"):
            (src / f"{name}.jsonl").write_bytes(b"")
    rejects: list = []
    with open(src / "journals.jsonl", "rb") as fh:
        journals = parse_journals(fh, rejects)
    with open(src / "authors.jsonl", "rb") as fh:
        authors = parse_authors(fh, rejects)
    builder = ColumnsBuilder(journals, authors, 2022)
    with open(src / "publications.jsonl", "rb") as fh:
        builder.add_lines(fh, rejects)
    assert rejects == []
    expected, rejects = merge_ranges([builder.result(rejects, 0)], authors, 2022)
    assert rejects == []
    assert (expected.n_authors > 0) == (inputs == "golden")
    header = {"n_publications": expected.n_publications, "retained": []}
    with open(tmp_path / "corpus.cache", "wb") as fh:
        write_cache(fh, header, expected)
    with open(tmp_path / "corpus.cache", "rb") as fh:
        loaded_header, loaded, body_sha256 = read_cache(fh)

    assert loaded_header == header
    data = (tmp_path / "corpus.cache").read_bytes()
    assert body_sha256 == hashlib.sha256(data[data.index(b"\n") + 1 :]).hexdigest()
    for field in dataclasses.fields(CorpusColumns):
        want, got = getattr(expected, field.name), getattr(loaded, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.flags.writeable, field.name
            assert np.array_equal(got, want), field.name
        else:
            assert type(got) is type(want) and got == want, field.name

    out = tmp_path / "run"
    argv = ["--pubs", str(src / "publications.jsonl"), "--journals", str(src / "journals.jsonl")]
    assert main(["ingest", *argv, "--authors", str(src / "authors.jsonl"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--out", str(out)]) == (0 if inputs == "golden" else 1)
    if inputs == "empty":
        assert capsys.readouterr().err.startswith("error: stage filter: ")


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"sha256": "00"}',
        '{"path": "gates.tsv"}',
        '["gates.tsv", "00"]',
        '{"path": 1, "sha256": "00"}',
        '{"path": "gates\xff.tsv", "sha256": "00"}',
        '{"path": "sankey/../../secret.txt", "sha256": "DIGEST"}',
        '{"path": "SECRET", "sha256": "DIGEST"}',
    ],
    ids=[
        "not-json",
        "no-path",
        "no-sha256",
        "not-an-object",
        "path-not-a-string",
        "not-utf8",
        "path-with-dot-dot",
        "absolute-path",
    ],
)
def test_report_refuses_a_malformed_manifest_line(run_dir, capsys, line):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    # a file outside the run dir, listed with its digest
    secret = run_dir.parent / "secret.txt"
    secret.write_text("not an output\n")
    line = line.replace("SECRET", str(secret))
    line = line.replace("DIGEST", hashlib.sha256(secret.read_bytes()).hexdigest())
    manifest = run_dir / MANIFEST_NAME
    with open(manifest, "ab") as fh:
        fh.write(line.encode("latin-1") + b"\n")
    line_no = len(manifest.read_bytes().splitlines())
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: stage report: malformed manifest line {line_no}\n"
    assert captured.out == ""


def test_repeated_ptype_writes_what_one_ptype_writes(run_dir):
    def outputs():
        manifest = (run_dir / MANIFEST_NAME).read_text()
        paths = [json.loads(line)["path"] for line in manifest.splitlines()]
        return manifest, {path: (run_dir / path).read_bytes() for path in paths}

    assert main(["analyze", "--out", str(run_dir), "--ptype", "P1", "--scope", "D00"]) == 0
    once = outputs()
    assert "regression/models_top_mid_P1.tsv" in once[1]
    assert main(["analyze", "--out", str(run_dir), "--ptype", "P1", "--ptype", "P1", "--scope", "D00"]) == 0
    assert outputs() == once


def test_model_tables_do_not_depend_on_scope_order(run_dir):
    runs = []
    for scopes in (["D01", "D00"], ["D00", "D01"]):
        argv = ["analyze", "--out", str(run_dir), "--ptype", "P1"]
        assert main(argv + [arg for scope in scopes for arg in ("--scope", scope)]) == 0
        manifest = (run_dir / MANIFEST_NAME).read_text()
        paths = [json.loads(line)["path"] for line in manifest.splitlines()]
        runs.append((manifest, {path: (run_dir / path).read_bytes() for path in paths}))
    assert sum(path.startswith("regression/") for path in runs[0][1]) == 4 * 3
    assert runs[0] == runs[1]


def test_failed_ingest_keeps_the_previous_cache(run_dir, monkeypatch):
    cache = run_dir / "corpus.cache"
    before = cache.read_bytes()

    def broken_write(fh, header, columns):
        fh.write(b'{"cache_version":2')
        raise RuntimeError("interrupted")

    monkeypatch.setattr(columnar, "write_cache", broken_write)
    # without its reuse state, a re-ingest of the same inputs parses and
    # writes again, instead of finding nothing to do
    (run_dir / corpus.INGEST_REUSE_NAME).unlink()
    with pytest.raises(RuntimeError, match="interrupted"):
        main(ingest_args(run_dir))
    assert cache.read_bytes() == before
    assert list(run_dir.glob("*.tmp")) == []


@pytest.mark.parametrize("failing", ["rejects", "filter_report"])
def test_failed_ingest_write_keeps_every_previous_output(run_dir, monkeypatch, capsys, failing):
    outputs = ("corpus.cache", "rejects.jsonl", "filter_report.json")
    with open(run_dir / "publications.jsonl", "ab") as fh:
        fh.write(b"not json\n")
    assert main(ingest_args(run_dir)) == 0
    before = {name: (run_dir / name).read_bytes() for name in outputs}
    assert before["rejects.jsonl"]
    with open(run_dir / "publications.jsonl", "ab") as fh:
        fh.write(b"[]\n")  # the new rejects.jsonl would differ

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    if failing == "rejects":
        monkeypatch.setattr(columnar.Reject, "to_json", disk_full)
    else:
        monkeypatch.setattr(columnar.json, "dump", disk_full)
    assert main(ingest_args(run_dir)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert {name: (run_dir / name).read_bytes() for name in outputs} == before
    assert list(run_dir.glob("*.tmp")) == []


def run_files(run_dir: Path) -> dict[str, bytes]:
    """The manifest and each file it lists, checked against its digest."""
    files = {MANIFEST_NAME: (run_dir / MANIFEST_NAME).read_bytes()}
    for line in files[MANIFEST_NAME].decode().splitlines():
        entry = json.loads(line)
        files[entry["path"]] = (run_dir / entry["path"]).read_bytes()
        assert hashlib.sha256(files[entry["path"]]).hexdigest() == entry["sha256"]
    return files


def previous_run(run_dir: Path) -> dict[str, bytes]:
    """A full analyze, then a re-ingest that retains fewer authors, so every
    output of the next analyze differs. Returns the manifest, each file it
    lists and the reuse state."""
    assert main(["analyze", "--out", str(run_dir)]) == 0
    assert main(ingest_args(run_dir) + ["--min-pubs", "60"]) == 0
    return {**run_files(run_dir), REUSE_NAME: (run_dir / REUSE_NAME).read_bytes()}


def assert_run_unchanged(run_dir: Path, files: dict[str, bytes], capsys) -> None:
    assert {path: (run_dir / path).read_bytes() for path in files} == files
    assert list(run_dir.rglob("*.tmp")) == []
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 0


@pytest.mark.parametrize("failing_open", [3, 40])
def test_failed_analyze_write_keeps_the_previous_run(run_dir, monkeypatch, capsys, failing_open):
    before = previous_run(run_dir)
    real_open = open
    opened = []

    def disk_full_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(file)
            if len(opened) == failing_open:
                raise OSError(28, "No space left on device")
        return real_open(file, mode, *args, **kwargs)

    for module in (pipeline, corpus):
        monkeypatch.setattr(module, "open", disk_full_open, raising=False)
    assert main(["analyze", "--out", str(run_dir)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(opened) == failing_open
    monkeypatch.undo()
    assert_run_unchanged(run_dir, before, capsys)


def test_failed_regression_after_the_jsonl_keeps_the_previous_run(run_dir, monkeypatch, capsys):
    before = previous_run(run_dir)
    aside = []

    def failing_models(table, codes, jobs):
        aside.extend(path.name for path in run_dir.glob("*.tmp"))
        raise RuntimeError("singular design")

    monkeypatch.setattr(pipeline, "run_models", failing_models)
    assert main(["analyze", "--out", str(run_dir)]) == 1
    assert "stage regression: singular design" in capsys.readouterr().err
    # the jsonl outputs were already written, beside their paths
    assert {name.split(".")[1] for name in aside} >= {"portfolios", "classes"}
    assert_run_unchanged(run_dir, before, capsys)


@pytest.mark.parametrize(
    "stage, function",
    [
        ("portfolio", "derive_portfolios"),
        ("classes", "assign_cohort_classes"),
        ("mobility", "scope_matrices"),
    ],
)
def test_failed_analyze_stage_is_a_stage_error_and_keeps_the_previous_run(
    run_dir, monkeypatch, capsys, stage, function
):
    before = previous_run(run_dir)

    def failing(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(pipeline, function, failing)
    capsys.readouterr()
    assert main(["analyze", "--out", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: stage {stage}: "), captured.err
    assert "injected failure" in captured.err
    assert captured.out == ""
    monkeypatch.undo()
    assert_run_unchanged(run_dir, before, capsys)


def test_analyze_replaces_a_symlinked_output_and_leaves_its_target(run_dir, tmp_path):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    outside = tmp_path / "outside.tsv"
    outside.write_text("not an output\n")
    link = run_dir / "matrices" / "P3_all.tsv"
    link.unlink()
    link.symlink_to(outside)
    assert main(["analyze", "--out", str(run_dir), "--ptype", "P3", "--scope", "all"]) == 0
    assert outside.read_text() == "not an output\n"
    assert link.is_file() and not link.is_symlink()
    manifest = (run_dir / MANIFEST_NAME).read_text()
    digest = hashlib.sha256(link.read_bytes()).hexdigest()
    assert json.dumps({"path": "matrices/P3_all.tsv", "sha256": digest}, separators=(",", ":")) in manifest


def test_analyze_refuses_a_symlinked_output_dir_and_leaves_its_target(run_dir, tmp_path, capsys):
    before = previous_run(run_dir)
    sankey = run_dir / "sankey"
    sankey.rename(tmp_path / "sankey")
    outside = tmp_path / "keep"
    outside.mkdir()
    (outside / "notes.txt").write_text("not an output\n")
    sankey.symlink_to(outside, target_is_directory=True)
    capsys.readouterr()
    assert main(["analyze", "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err == "error: stage outputs: sankey is a symbolic link\n"
    assert [path.name for path in outside.iterdir()] == ["notes.txt"]
    assert (outside / "notes.txt").read_text() == "not an output\n"
    sankey.unlink()
    (tmp_path / "sankey").rename(sankey)
    assert_run_unchanged(run_dir, before, capsys)


# ---------------------------------------------------------------------------
# reuse of the parameter-free outputs

NARROW = ["--ptype", "P3", "--scope", "all"]


def analyze_rewrites(run_dir: Path, *flags: str) -> bool:
    """Run analyze; whether it wrote the parameter-free outputs anew (all
    four get a new inode, as a file renamed into place does) rather than
    reusing them (none does)."""

    def inodes():
        return [
            (run_dir / name).lstat().st_ino if os.path.lexists(run_dir / name) else None
            for name in PARAMETER_FREE
        ]

    before = inodes()
    assert main(["analyze", "--out", str(run_dir), *flags]) == 0
    rewritten = {old != new for old, new in zip(before, inodes())}
    assert len(rewritten) == 1, "some parameter-free outputs were reused and some rewritten"
    return rewritten.pop()


def fresh_run_files(run_dir: Path, fresh: Path, *flags: str) -> dict[str, bytes]:
    """The files of an analyze with *flags* in a new run dir *fresh* that
    holds a copy of run_dir's cache."""
    fresh.mkdir()
    shutil.copyfile(run_dir / pipeline.CACHE_NAME, fresh / pipeline.CACHE_NAME)
    assert main(["analyze", "--out", str(fresh), *flags]) == 0
    return run_files(fresh)


def test_full_narrow_full_in_one_run_dir_match_fresh_run_dirs(run_dir, tmp_path, monkeypatch):
    """The narrow and the second full analyze reuse the first one's
    parameter-free outputs, the narrow one without the full derivation, and
    each run's manifest and outputs are those of a fresh run dir."""
    derived = []

    def counted(*args):
        derived.append(args)
        return portfolio.derive_portfolios(*args)

    monkeypatch.setattr(pipeline, "derive_portfolios", counted)
    for k, (flags, rewrites, derives) in enumerate([([], True, 1), (NARROW, False, 0), ([], False, 1)]):
        derived.clear()
        assert analyze_rewrites(run_dir, *flags) == rewrites
        assert len(derived) == derives
        assert run_files(run_dir) == fresh_run_files(run_dir, tmp_path / f"fresh{k}", *flags)


def edit_output(run_dir: Path, how: str) -> None:
    """Damage the reuse state or a parameter-free output in one way."""
    state_path = run_dir / REUSE_NAME
    state = json.loads(state_path.read_bytes())
    if how == "classes-edited":
        data = bytearray((run_dir / "classes.jsonl").read_bytes())
        data[len(data) // 2] ^= 1
        (run_dir / "classes.jsonl").write_bytes(bytes(data))
    elif how == "portfolios-truncated":
        data = (run_dir / "portfolios.jsonl").read_bytes()
        (run_dir / "portfolios.jsonl").write_bytes(data[:-1])
    elif how == "coverage-deleted":
        (run_dir / "coverage.json").unlink()
    elif how == "state-missing":
        state_path.unlink()
    elif how == "state-not-json":
        state_path.write_bytes(b'{"cache_sha256": \xff')
    elif how == "state-too-deep":
        state_path.write_text("[" * 100_000)
    elif how == "state-a-directory":
        state_path.unlink()
        state_path.mkdir()
    elif how == "state-a-list":
        state_path.write_text(json.dumps([state]))
    elif how == "outputs-a-list":
        state_path.write_text(json.dumps(dict(state, outputs=sorted(state["outputs"]))))
    elif how == "digest-a-number":
        state_path.write_text(json.dumps(dict(state, outputs=dict(state["outputs"], **{"gates.tsv": 0}))))
    else:
        assert how == "cache-digest-null"
        state_path.write_text(json.dumps(dict(state, cache_sha256=None)))


@pytest.mark.parametrize(
    "how",
    [
        "classes-edited",
        "portfolios-truncated",
        "coverage-deleted",
        "state-missing",
        "state-not-json",
        "state-too-deep",
        "state-a-directory",
        "state-a-list",
        "outputs-a-list",
        "digest-a-number",
        "cache-digest-null",
    ],
)
def test_damaged_reuse_state_or_output_is_not_reused(run_dir, tmp_path, how):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    edit_output(run_dir, how)
    for k in range(2):  # and the next run, after this one's state
        assert analyze_rewrites(run_dir, *NARROW) == (k == 0 or how == "state-a-directory")
        assert run_files(run_dir) == fresh_run_files(run_dir, tmp_path / f"fresh{k}", *NARROW)


def test_reingest_of_another_corpus_is_not_reused(run_dir, tmp_path):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    assert main(synth_args(run_dir, seed=8)) == 0
    assert main(ingest_args(run_dir)) == 0
    assert analyze_rewrites(run_dir, *NARROW)
    assert run_files(run_dir) == fresh_run_files(run_dir, tmp_path / "fresh", *NARROW)


def test_reingest_of_the_same_corpus_is_reused(run_dir):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    cache = (run_dir / pipeline.CACHE_NAME).read_bytes()
    assert main(ingest_args(run_dir)) == 0
    assert (run_dir / pipeline.CACHE_NAME).read_bytes() == cache
    assert not analyze_rewrites(run_dir, *NARROW)


def test_another_program_digest_is_not_reused(run_dir, tmp_path, monkeypatch):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    digest = corpus.program_digest()
    assert digest == corpus.program_digest()
    # analyze calls the name it imported from corpus
    monkeypatch.setattr(pipeline, "program_digest", lambda: hashlib.sha256(digest.encode()).hexdigest())
    assert analyze_rewrites(run_dir, *NARROW)
    assert run_files(run_dir) == fresh_run_files(run_dir, tmp_path / "fresh", *NARROW)


def test_program_digest_covers_every_source_of_the_package(tmp_path, monkeypatch):
    package = Path(corpus.__file__).parent
    copy = tmp_path / "careerflow"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(corpus, "__file__", str(copy / "corpus.py"))
    digest = corpus.program_digest()
    assert digest == corpus.program_digest()
    with open(copy / "mobility.py", "a") as fh:
        fh.write("\n")
    assert corpus.program_digest() != digest


def test_program_digest_covers_numpy_version_without_importing_it(tmp_path, monkeypatch):
    """The digest reads numpy's version from the sources that hold it, in a
    numpy found where the import system would find it."""
    installed = Path(np.__file__).parent
    digest = corpus.program_digest()
    copy = tmp_path / "numpy"
    copy.mkdir()
    (copy / "__init__.py").write_text("raise ImportError('the digest imported numpy')\n")
    sources = sorted(installed.glob("*version.py"))
    assert any(np.__version__ in path.read_text() for path in sources)
    for path in sources:
        shutil.copyfile(path, copy / path.name)
    spec = importlib.util.spec_from_file_location("numpy", copy / "__init__.py")
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: spec if name == "numpy" else find_spec(name, *args))
    # the same version sources elsewhere give the same digest
    assert corpus.program_digest() == digest
    for path in sources:
        text = path.read_text()
        (copy / path.name).write_text(text.replace(np.__version__, f"{np.__version__}.post1"))
    assert corpus.program_digest() != digest


def test_reuse_replaces_a_symlinked_output_and_leaves_its_target(run_dir, tmp_path):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    link = run_dir / "portfolios.jsonl"
    data = link.read_bytes()
    target = tmp_path / "portfolios.jsonl"
    target.write_bytes(data)
    link.unlink()
    link.symlink_to(target)
    assert analyze_rewrites(run_dir, *NARROW)
    assert not link.is_symlink() and link.read_bytes() == data
    assert target.read_bytes() == data


@pytest.mark.parametrize(
    "stage, function",
    [
        ("portfolio", "stage_productivity"),
        ("classes", "assign_cohort_classes"),
        ("mobility", "scope_matrices"),
    ],
)
def test_failed_narrow_analyze_keeps_the_reuse_state_and_outputs(
    run_dir, monkeypatch, capsys, stage, function
):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    before = {**run_files(run_dir), REUSE_NAME: (run_dir / REUSE_NAME).read_bytes()}

    def failing(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(pipeline, function, failing)
    capsys.readouterr()
    assert main(["analyze", "--out", str(run_dir), *NARROW]) == 1
    assert capsys.readouterr().err == f"error: stage {stage}: injected failure\n"
    monkeypatch.undo()
    assert_run_unchanged(run_dir, before, capsys)
    assert not analyze_rewrites(run_dir, *NARROW)


def test_unknown_scope_fails_before_any_derivation(run_dir, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise RuntimeError("derived")

    for function in ("derive_portfolios", "stage_productivity"):
        monkeypatch.setattr(pipeline, function, failing)
    assert main(["analyze", "--out", str(run_dir), "--scope", "D00", "--scope", "XX", "--scope", "YY"]) == 1
    assert capsys.readouterr().err == "error: stage scopes: not in the sample: XX, YY\n"


def test_pipeline_annotations_resolve():
    for module in (columnar, pipeline):
        for obj in vars(module).values():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                typing.get_type_hints(obj)  # NameError on an annotation never imported


STAGE_PROBE = """
import json, sys
from careerflow.cli import main

try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
modules = sorted(sys.modules)
print(json.dumps({"exit": code, "modules": modules}))
"""


def cli_process(argv: list[str], stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """One fresh interpreter, without CAREERFLOW_OUT in its environment."""
    src = str(Path(careerflow.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        stdout=stdout,
        stderr=subprocess.PIPE,
    )


def stage_modules(argv: list[str]) -> set[str]:
    """The modules one CLI call loads, run in a fresh interpreter (this test
    process has imported everything already)."""
    proc = cli_process(["-c", STAGE_PROBE, *argv])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0, (argv, proc.stderr)
    return set(result["modules"])


def entry_point_modules(argv: list[str]) -> set[str]:
    """The modules `python -m careerflow.cli` loads for one call, read from
    the interpreter's own import log."""
    proc = cli_process(["-X", "importtime", "-m", "careerflow.cli", *argv])
    assert proc.returncode == 0, proc.stderr
    log = [line.split("|")[-1] for line in proc.stderr.decode().splitlines() if line.startswith("import time:")]
    return {name.strip() for name in log[1:]}  # the first line is the log's header


def test_each_stage_imports_only_its_modules(tmp_path):
    out = tmp_path / "run"
    stages = {
        "help": ["--help"],
        "synth": synth_args(out),
        "ingest": ingest_args(out),
        # unchanged inputs and flags: nothing is left to do
        "ingest-again": ingest_args(out),
        # the probe corpus has both fitted and rank-deficient models
        "analyze": ["analyze", "--out", str(out)],
        "report": ["report", "--out", str(out)],
        "analyze-narrow": ["analyze", "--out", str(out), "--ptype", "P3", "--scope", "all"],
    }
    loaded = {}
    for stage, argv in stages.items():
        loaded[stage] = stage_modules(argv)
        if stage == "analyze":
            models = "".join(p.read_text() for p in (out / "regression").glob("models_*.tsv"))
            assert "rank deficient" in models
            assert any(row.split("\t")[12] for row in models.splitlines()[1:] if "p_value" not in row)

    # nor does the process entry point load them, through `python -m`
    for stage in ("help", "report"):
        loaded[f"{stage} (python -m)"] = entry_point_modules(stages[stage])
    for stage in ("help", "report", "help (python -m)", "report (python -m)"):
        assert not loaded[stage] & {"numpy", "careerflow.corpus", "dataclasses", "pickle", "signal"}, stage
    assert "hashlib" not in loaded["help"]
    assert not loaded["help (python -m)"] & {"hashlib", "json"}  # the probe itself loads json
    # so the package, not corpus, defines the errors main() reports
    assert careerflow.CorpusError is corpus.CorpusError
    assert careerflow.StageError is corpus.StageError
    assert not loaded["synth"] & {
        "careerflow.columnar", "careerflow.pipeline", "careerflow.regression", "careerflow.mobility"
    }
    # a re-ingest with nothing to do checks its outputs without numpy, which
    # the first ingest, a full parse, loads
    assert "careerflow.columnar" in loaded["ingest"]
    assert not loaded["ingest-again"] & {"numpy", "careerflow.columnar"}
    # ingest loads none of the analysis layer
    assert not loaded["ingest"] & {
        "careerflow.pipeline", "careerflow.classes", "careerflow.portfolio", "careerflow.mobility",
        "careerflow.regression",
    }
    for stage in ("ingest", "analyze", "analyze-narrow"):
        assert "careerflow.synth" not in loaded[stage], stage
    for stage in ("analyze", "analyze-narrow"):
        # np.unique imports numpy.ma in numpy 2.4
        assert "numpy.ma" not in loaded[stage], stage
    for stage, modules in loaded.items():
        assert not any(m.split(".")[0] == "scipy" for m in modules), stage


# the two ways a user starts the CLI as its own process
ENTRY_POINTS = {
    "python -m": ["-m", "careerflow.cli"],
    "run()": ["-c", "from careerflow.cli import run; run()"],
}
# an exit handler registered before run() runs after run()'s own
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count() > 0}", file=sys.stderr))
"""
PROBED_ENTRY_POINTS = {
    "python -m": FREEZE_PROBE + "import runpy; runpy.run_module('careerflow.cli', run_name='__main__', alter_sys=True)",
    "run()": FREEZE_PROBE + "from careerflow.cli import run; run()",
}


@pytest.mark.parametrize("how", sorted(ENTRY_POINTS))
def test_process_entry_point_exit_codes_and_output(how, run_dir, tmp_path, capsys):
    start = ENTRY_POINTS[how]
    assert main(["analyze", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 0
    printed = capsys.readouterr().out

    proc = cli_process([*start, "--help"])
    assert proc.returncode == 0, proc.stderr
    assert b"analyze" in proc.stdout

    # stdout to a file is flushed at exit, byte for byte
    report = tmp_path / "report.txt"
    with open(report, "wb") as fh:
        proc = cli_process([*start, "report", "--out", str(run_dir)], stdout=fh)
    assert proc.returncode == 0, proc.stderr
    assert report.read_bytes() == printed.encode()

    proc = cli_process([*start, "analyze"])
    assert proc.returncode == 2
    assert b"CAREERFLOW_OUT" in proc.stderr

    cache = run_dir / "corpus.cache"
    data = cache.read_bytes()
    at = len(data) // 2
    cache.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :])
    proc = cli_process([*start, "analyze", "--out", str(run_dir)])
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: stage load-cache: ")
    assert proc.stdout == b""


@pytest.mark.parametrize("how", sorted(PROBED_ENTRY_POINTS))
def test_process_entry_point_freezes_the_heap_at_exit(how, run_dir):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    proc = cli_process(["-c", PROBED_ENTRY_POINTS[how], "report", "--out", str(run_dir)])
    assert proc.returncode == 0, proc.stderr
    assert b"outputs:" in proc.stdout
    assert proc.stderr.decode().splitlines()[-1] == "frozen at exit: True"


@pytest.mark.parametrize("how", sorted(ENTRY_POINTS))
def test_closed_stdout_exits_as_sigpipe_would(how, run_dir):
    """A stdout whose reader is gone, as under `careerflow report | head -1`:
    exit 141 (128 + SIGPIPE) with nothing on stderr, whether the write fails
    in main() (unbuffered) or at the final flush, for help too, and every
    output analyze wrote is in place."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        for flags in ([], ["-u"]):
            for argv in (["analyze", "--out", str(run_dir)], ["report", "--out", str(run_dir)],
                         ["--help"], ["synth", "--help"]):
                proc = cli_process([*flags, *ENTRY_POINTS[how], *argv], stdout=write_fd)
                assert (proc.returncode, proc.stderr) == (141, b""), (flags, argv)
    finally:
        os.close(write_fd)
    assert main(["report", "--out", str(run_dir)]) == 0  # the manifest verifies


# the stage is interrupted while its three files are open aside
INTERRUPT_PROBE = """
from careerflow import cli, synth

def interrupted(config, *files):
    for fh in files:
        fh.write("partial\\n")
    raise KeyboardInterrupt

synth.write_synthetic_corpus = interrupted
cli.run()
"""


def test_interrupt_exits_130_with_one_line_and_no_file(tmp_path):
    out = tmp_path / "x"
    proc = cli_process(["-c", INTERRUPT_PROBE, "synth", "--out", str(out), "--authors-n", "20"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, b"", b"error: interrupted\n")
    assert not out.exists()


# analyze on a small corpus renames its outputs within tens of milliseconds
# of opening them, so this holds it, past its last line of classes.jsonl and
# with portfolios.jsonl written aside, until a signal comes
HOLD_PROBE = """
import runpy, time
from careerflow import pipeline

real = pipeline.class_dump_lines

def held(*args):
    yield from real(*args)
    # short sleeps: a signal that comes just before one starts is handled
    # when it ends
    for _ in range(6000):
        time.sleep(0.01)

pipeline.class_dump_lines = held
runpy.run_module("careerflow.cli", run_name="__main__", alter_sys=True)
"""


def terminated_while_writing(argv: list[str], aside: Path) -> tuple[int, bytes]:
    """Start the CLI with *argv* in a new session, wait until the file it
    writes aside for *aside* is not empty, and send it SIGTERM. Returns its
    exit code and stderr, once no process of the session is left."""
    src = str(Path(careerflow.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, *argv],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        tmp = aside.with_name(f".{aside.name}.{proc.pid}.tmp")
        while not (tmp.exists() and os.stat(tmp).st_size):
            assert proc.poll() is None, proc.stderr.read()
            time.sleep(0.005)
        os.kill(proc.pid, signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    return proc.returncode, err


def test_sigterm_to_synth_exits_143_and_leaves_no_file_or_worker(tmp_path):
    """The corpus is large enough that synth forks a worker on a machine
    with two or more CPUs, and is still writing when the signal comes."""
    out = tmp_path / "x"
    argv = ["-m", "careerflow.cli", "synth", "--out", str(out), "--authors-n", "20000"]
    code, err = terminated_while_writing(argv, out / "publications.jsonl")
    assert (code, err) == (143, b"error: terminated\n")
    assert not out.exists()


def test_sigterm_to_analyze_exits_143_and_leaves_no_file(run_dir):
    before = {path: path.read_bytes() for path in run_dir.iterdir()}
    code, err = terminated_while_writing(
        ["-c", HOLD_PROBE, "analyze", "--out", str(run_dir)], run_dir / "portfolios.jsonl"
    )
    assert (code, err) == (143, b"error: terminated\n")
    assert not list(run_dir.rglob("*.tmp"))
    assert {path: path.read_bytes() for path in run_dir.iterdir() if path.is_file()} == before


def test_writing_stages_restore_the_sigterm_handler(tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "run"
    for argv in (synth_args(out), ingest_args(out), ["analyze", "--out", str(out)]):
        assert main(argv) == 0
        assert signal.getsignal(signal.SIGTERM) is before, argv[0]


def run_dir_files(run_dir: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in run_dir.rglob("*") if path.is_file()}


def test_ingest_and_analyze_refuse_a_run_dir_another_process_holds(run_dir, capsys):
    """Each exits 2 with one line, before it reads or writes: every file
    keeps its bytes, a file another writer is writing aside included.
    Once the lock is released, both run."""
    assert main(["analyze", "--out", str(run_dir)]) == 0
    (run_dir / f".corpus.cache.{os.getpid() + 1}.tmp").write_text("another writer's\n")
    before = run_dir_files(run_dir)
    capsys.readouterr()
    with open(run_dir / ".careerflow.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        for argv in (ingest_args(run_dir), ["analyze", "--out", str(run_dir)]):
            assert main(argv) == 2, argv[0]
            assert capsys.readouterr() == ("", f"error: another careerflow process is writing {run_dir}\n")
    assert run_dir_files(run_dir) == before
    assert main(ingest_args(run_dir)) == 0
    assert main(["analyze", "--out", str(run_dir)]) == 0


def test_report_waits_for_no_writer_and_reads_under_a_shared_lock(run_dir, capsys):
    """report exits 2 with the writers' message, before it prints anything,
    while a writer holds the run dir; beside another reader it reports."""
    assert main(["analyze", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 0
    printed = capsys.readouterr().out
    with open(run_dir / ".careerflow.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(["report", "--out", str(run_dir)]) == 2
        assert capsys.readouterr() == ("", f"error: another careerflow process is writing {run_dir}\n")
        fcntl.flock(lock, fcntl.LOCK_SH | fcntl.LOCK_NB)
        assert main(["report", "--out", str(run_dir)]) == 0
        assert capsys.readouterr().out == printed
        # and a writer is refused while report reads
        assert main(["analyze", "--out", str(run_dir)]) == 2


def test_report_reads_a_run_dir_without_a_lock_file_or_on_read_only_storage(run_dir, tmp_path, capsys, monkeypatch):
    assert main(["analyze", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 0
    printed = capsys.readouterr().out
    (run_dir / ".careerflow.lock").unlink()
    assert main(["report", "--out", str(run_dir)]) == 0
    assert capsys.readouterr().out == printed
    assert not (run_dir / ".careerflow.lock").exists()
    # storage mounted read-only refuses every open for writing, with EROFS
    real_open = os.open

    def read_only(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", read_only)
    assert main(["report", "--out", str(run_dir)]) == 0
    assert capsys.readouterr().out == printed


def test_a_lock_file_that_cannot_be_opened_is_a_usage_error_that_names_it(run_dir, capsys):
    lock = run_dir / ".careerflow.lock"
    lock.unlink(missing_ok=True)
    lock.mkdir()
    for argv in (ingest_args(run_dir), ["analyze", "--out", str(run_dir)]):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == f"error: cannot open lock file {lock}: Is a directory\n"


def test_ingest_and_analyze_remove_what_killed_writers_left(run_dir):
    """A killed ingest or analyze leaves its aside files; the next run of
    the stage removes each one it could have written, whatever the pid,
    and leaves synth's and every other file alone."""
    pid = os.getpid() + 1
    ingest_debris = [
        f".{name}.{pid}.tmp"
        for name in ("rejects.jsonl", "filter_report.json", "corpus.cache", ".ingest-reuse.json")
    ]
    analyze_debris = [
        f".{name}.{pid}.tmp" for name in (MANIFEST_NAME, *PARAMETER_FREE, REUSE_NAME)
    ] + [f"{sub}/.{name}.{pid}.tmp" for sub, name in (
        ("matrices", "P1_all.tsv"), ("sankey", "P1_all.txt"), ("regression", "models_top_mid_P1.tsv")
    )]
    kept = [f".publications.jsonl.{pid}.tmp", f".corpus.cache.{pid}.tmp.bak", "notes.txt"]
    for rel_path in ingest_debris + analyze_debris + kept:
        (run_dir / rel_path).parent.mkdir(exist_ok=True)
        (run_dir / rel_path).write_text("left\n")
    assert main(ingest_args(run_dir)) == 0
    assert not any((run_dir / rel_path).exists() for rel_path in ingest_debris)
    assert all((run_dir / rel_path).exists() for rel_path in analyze_debris)
    assert main(["analyze", "--out", str(run_dir)]) == 0
    assert not any((run_dir / rel_path).exists() for rel_path in analyze_debris)
    assert all((run_dir / rel_path).read_text() == "left\n" for rel_path in kept)


def test_main_leaves_the_collector_alone(run_dir):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["analyze", "--out", str(run_dir)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_console_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(careerflow.__file__).resolve().parents[2] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"careerflow": "careerflow.cli:run"}


def test_env_var_default_out(run_dir, monkeypatch, capsys):
    monkeypatch.setenv("CAREERFLOW_OUT", str(run_dir))
    assert main(["analyze"]) == 0
    assert "manifest" in capsys.readouterr().out


def test_missing_out_dir_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("CAREERFLOW_OUT", raising=False)
    assert main(["analyze"]) == 2
    assert "CAREERFLOW_OUT" in capsys.readouterr().err
