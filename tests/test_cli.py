import dataclasses
import hashlib
import inspect
import json
import re
import subprocess
import sys
import time
import typing
from pathlib import Path

import numpy as np
import pytest

import careerflow
from careerflow import corpus, pipeline
from careerflow.cli import main
from careerflow.columnar import ColumnsBuilder, CorpusColumns, merge_ranges, read_cache, write_cache
from careerflow.corpus import parse_authors, parse_journals
from careerflow.pipeline import MANIFEST_NAME

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


@pytest.mark.parametrize(
    "code",
    ["x/../../../esc", "\ud800", "all", "..", "a\\b", "a\x00b", "D\t01", "D\n01", "D\x1b01", "D\x7f01",
     "D\x8501", "D\u202801", "D\u202901"],
    ids=["path-escape", "lone-surrogate", "aggregate-scope", "dot-dot", "backslash", "nul",
         "tab", "newline", "escape", "del", "next-line", "line-separator", "paragraph-separator"],
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
    reason = f"bad discipline {code!r}"
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
    """The end of line 2 of a version-2 cache, the (start, end) offset of
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
        """A version-2 cache whose line 1 gives the right sha256 of *rest*."""
        top = {"cache_version": 2, "sha256": hashlib.sha256(rest).hexdigest()}
        return json.dumps(top, separators=(",", ":")).encode() + b"\n" + rest

    arrays_not_a_list = dict(json.loads(data[body:line_end]), arrays=7)
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
    }
    for fault, damaged in faults.items():
        cache.write_bytes(damaged)
        capsys.readouterr()
        assert main(["analyze", "--out", str(run_dir)]) == 1, fault
        captured = capsys.readouterr()
        assert captured.err.startswith("error: stage load-cache: "), (fault, captured.err)
        assert "re-run ingest" in captured.err, (fault, captured.err)
        assert captured.out == "", fault


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
        loaded_header, loaded = read_cache(fh)

    assert loaded_header == header
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


def test_failed_ingest_keeps_the_previous_cache(run_dir, monkeypatch):
    cache = run_dir / "corpus.cache"
    before = cache.read_bytes()

    def broken_write(fh, header, columns):
        fh.write(b'{"cache_version":2')
        raise RuntimeError("interrupted")

    monkeypatch.setattr(pipeline, "write_cache", broken_write)
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
        monkeypatch.setattr(pipeline.Reject, "to_json", disk_full)
    else:
        monkeypatch.setattr(pipeline.json, "dump", disk_full)
    assert main(ingest_args(run_dir)) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert {name: (run_dir / name).read_bytes() for name in outputs} == before
    assert list(run_dir.glob("*.tmp")) == []


def previous_run(run_dir: Path) -> dict[str, bytes]:
    """A full analyze, then a re-ingest that retains fewer authors, so every
    output of the next analyze differs. Returns the manifest and each file
    it lists."""
    assert main(["analyze", "--out", str(run_dir)]) == 0
    assert main(ingest_args(run_dir) + ["--min-pubs", "60"]) == 0
    files = {MANIFEST_NAME: (run_dir / MANIFEST_NAME).read_bytes()}
    for line in files[MANIFEST_NAME].decode().splitlines():
        entry = json.loads(line)
        files[entry["path"]] = (run_dir / entry["path"]).read_bytes()
        assert hashlib.sha256(files[entry["path"]]).hexdigest() == entry["sha256"]
    return files


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


def test_pipeline_annotations_resolve():
    for obj in vars(pipeline).values():
        if inspect.isfunction(obj) and obj.__module__ == pipeline.__name__:
            typing.get_type_hints(obj)  # NameError on an annotation never imported


STAGE_PROBE = """
import json, sys
from careerflow.cli import main

try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
modules = sorted(sys.modules)
import careerflow
careerflow.gen_corpus  # the package still exports the synth names
print(json.dumps({"exit": code, "modules": modules}))
"""


def stage_modules(argv: list[str]) -> set[str]:
    """The modules one CLI call loads, run in a fresh interpreter (this test
    process has imported everything already)."""
    src = str(Path(careerflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", STAGE_PROBE, *argv],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0, (argv, proc.stderr)
    return set(result["modules"])


def test_each_stage_imports_only_its_modules(tmp_path):
    out = tmp_path / "run"
    stages = {
        "help": ["--help"],
        "synth": synth_args(out),
        "ingest": ingest_args(out),
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

    for stage in ("help", "report"):
        assert "numpy" not in loaded[stage], stage
    assert not loaded["synth"] & {"careerflow.pipeline", "careerflow.regression", "careerflow.mobility"}
    for stage in ("ingest", "analyze", "analyze-narrow"):
        assert "careerflow.synth" not in loaded[stage], stage
    for stage in ("analyze", "analyze-narrow"):
        # np.unique imports numpy.ma in numpy 2.4
        assert "numpy.ma" not in loaded[stage], stage
    for stage, modules in loaded.items():
        assert not any(m.split(".")[0] == "scipy" for m in modules), stage


def test_env_var_default_out(run_dir, monkeypatch, capsys):
    monkeypatch.setenv("CAREERFLOW_OUT", str(run_dir))
    assert main(["analyze"]) == 0
    assert "manifest" in capsys.readouterr().out


def test_missing_out_dir_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("CAREERFLOW_OUT", raising=False)
    assert main(["analyze"]) == 2
    assert "CAREERFLOW_OUT" in capsys.readouterr().err
