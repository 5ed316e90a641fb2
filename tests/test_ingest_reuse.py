"""Ingest reuses its parsed columns when its inputs, the reference year and
the program are unchanged: a re-ingest with the same gates whose outputs
check out does nothing, any other re-ingest or re-filter runs only the
gates, and every output byte and its stdout are those of a fresh run dir."""
import contextlib
import hashlib
import io
import json
import os
import shutil
import threading
from pathlib import Path

import pytest

from careerflow import columnar, corpus
from careerflow.cli import main
from careerflow.corpus import CACHE_NAME, FILTER_REPORT_NAME, INGEST_OUTPUTS, INGEST_REUSE_NAME, REJECTS_NAME

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = {"publications": "--pubs", "journals": "--journals", "authors": "--authors"}
# lines that each make one reject, appended to the golden inputs
BAD_LINES = {
    "publications": [b"not json", b"[]", b'{"pub_id": "p0000000n0000"}'],
    "journals": [b"{}"],
    "authors": [b'{"author_id": 5}'],
}
# re-filters that retain other authors than the default gates
GATE_FLAGS = [[], ["--min-pubs", "60"], ["--min-age", "20", "--max-age", "30"]]


def make_inputs(directory: Path, dirty: bool) -> Path:
    directory.mkdir()
    for name in INPUTS:
        data = (GOLDEN / f"{name}.jsonl").read_bytes()
        if dirty:
            data += b"".join(line + b"\n" for line in BAD_LINES[name])
        (directory / f"{name}.jsonl").write_bytes(data)
    return directory


def ingest(inputs: Path, out: Path, *flags: str, pubs: Path | None = None) -> str:
    """Run ingest; its stdout, with the run dir written as RUN."""
    argv = ["ingest", "--out", str(out), *flags]
    for name, flag in INPUTS.items():
        argv += [flag, str(pubs if pubs and name == "publications" else inputs / f"{name}.jsonl")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue().replace(str(out), "RUN")


def outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in INGEST_OUTPUTS}


def assert_fresh(inputs: Path, out: Path, stdout: str, fresh: Path, *flags: str) -> None:
    """*out* holds the outputs, and *stdout* is the stdout, of an ingest
    with *flags* into the new run dir *fresh*."""
    assert ingest(inputs, fresh, *flags) == stdout
    assert outputs(out) == outputs(fresh)


@pytest.fixture
def parses(monkeypatch) -> list:
    """One entry per full parse that ingest runs."""
    calls = []
    real = columnar.parse_journals

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(columnar, "parse_journals", counted)
    return calls


@contextlib.contextmanager
def no_parse():
    def parsed(*args, **kwargs):
        raise AssertionError("ingest parsed its inputs")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("ingest_range", "run_shares", "parse_journals"):
            mp.setattr(columnar, name, parsed)
        yield


def run_files(run: Path) -> dict[str, tuple[int, int, int]]:
    """Each file in *run* by name: its size, inode and st_mtime_ns."""
    with os.scandir(run) as entries:
        stats = {entry.name: entry.stat(follow_symlinks=False) for entry in entries}
    return {name: (st.st_size, st.st_ino, st.st_mtime_ns) for name, st in stats.items()}


@contextlib.contextmanager
def nothing_to_do():
    """Fail an ingest that reaches its numpy part: the gates, a parse or a
    write."""

    def reached(*args, **kwargs):
        raise AssertionError("ingest ran its gates")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(columnar, "run_ingest", reached)
        yield


@pytest.mark.parametrize("flags", GATE_FLAGS, ids=["same-gates", "min-pubs", "ages"])
@pytest.mark.parametrize("dirty", [False, True], ids=["golden", "with-rejects"])
def test_reingest_runs_only_the_gates_and_equals_a_fresh_run_dir(tmp_path, dirty, flags):
    inputs = make_inputs(tmp_path / "in", dirty)
    run = tmp_path / "run"
    first = ingest(inputs, run)
    assert bool((run / REJECTS_NAME).read_bytes()) == dirty
    before = run_files(run)
    # the same gates leave nothing to do: no file is written
    with no_parse(), nothing_to_do() if flags == [] else contextlib.nullcontext():
        stdout = ingest(inputs, run, *flags)
    assert (stdout == first) == (flags == [])
    assert (run_files(run) == before) == (flags == [])
    assert run_files(run)[REJECTS_NAME] == before[REJECTS_NAME]
    assert_fresh(inputs, run, stdout, tmp_path / "fresh", *flags)
    # the state keys on each input's size and sha256
    state = json.loads((run / INGEST_REUSE_NAME).read_bytes())
    for name in INPUTS:
        data = (inputs / f"{name}.jsonl").read_bytes()
        assert state["inputs"][name] == {"size": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    # and back to the first gates, still without a parse
    with no_parse():
        assert ingest(inputs, run) == first


def break_reuse(inputs: Path, run: Path, how: str, outside: Path, monkeypatch) -> list[str]:
    """Change one thing that the columns or their verification depend on;
    the ingest flags to run next."""
    kind, _, change = how.partition("-")
    if change == "byte":
        # the middle line stops being a JSON object: same size, one more reject
        path = inputs / f"{kind}.jsonl"
        data = bytearray(path.read_bytes())
        lines = data.splitlines(keepends=True)
        at = sum(map(len, lines[: len(lines) // 2]))
        assert data[at : at + 1] == b"{"
        data[at : at + 1] = b"["
        path.write_bytes(bytes(data))
    elif how == "reference-year":
        return ["--reference-year", "2021"]
    elif how == "program":
        digest = corpus.program_digest()
        monkeypatch.setattr(corpus, "program_digest", lambda: hashlib.sha256(digest.encode()).hexdigest())
    elif kind in ("rejects", "cache"):
        path = run / (REJECTS_NAME if kind == "rejects" else CACHE_NAME)
        data = path.read_bytes()
        if change == "edited":
            path.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
        elif change == "truncated":
            path.write_bytes(data[:-1])
        elif change == "symlinked":
            (outside / path.name).write_bytes(data)
            path.unlink()
            path.symlink_to(outside / path.name)
        else:
            assert change == "deleted"
            path.unlink()
    elif how == "state-not-json":
        (run / INGEST_REUSE_NAME).write_bytes(b'{"inputs": \xff')
    else:
        assert how == "state-a-directory"
        (run / INGEST_REUSE_NAME).unlink()
        (run / INGEST_REUSE_NAME).mkdir()
    return []


@pytest.mark.parametrize(
    "how",
    [
        "publications-byte",
        "journals-byte",
        "authors-byte",
        "reference-year",
        "program",
        *(
            f"{kind}-{change}"
            for kind in ("rejects", "cache")
            for change in ("edited", "truncated", "deleted", "symlinked")
        ),
        "state-not-json",
        "state-a-directory",
    ],
)
def test_anything_else_falls_back_to_a_full_parse(tmp_path, monkeypatch, parses, how):
    inputs = make_inputs(tmp_path / "in", dirty=True)
    run = tmp_path / "run"
    outside = tmp_path / "outside"
    outside.mkdir()
    ingest(inputs, run)
    flags = break_reuse(inputs, run, how, outside, monkeypatch)
    parses.clear()
    stdout = ingest(inputs, run, *flags)
    assert len(parses) == 1
    assert_fresh(inputs, run, stdout, tmp_path / "fresh", *flags)
    assert not any(os.path.islink(run / name) for name in INGEST_OUTPUTS)
    # the full parse wrote the state, so the next ingest reuses it, except
    # where a directory holds the state's name
    parses.clear()
    assert ingest(inputs, run, *flags) == stdout
    assert len(parses) == (how == "state-a-directory")


def forge_cache_filter(run: Path) -> None:
    """Give the cache header another filter, with the report it has, and
    record the new cache digest in the reuse state, as an ingest under that
    filter that retained the same authors would have."""
    data = (run / CACHE_NAME).read_bytes()
    top_end = data.index(b"\n") + 1
    layout_end = data.index(b"\n", top_end) + 1
    layout = json.loads(data[top_end:layout_end])
    layout["header"]["filter"]["active_window_years"] += 1
    line = json.dumps(layout, separators=(",", ":")).encode() + b"\n"
    blocks = top_end + (layout_end - top_end + 7) // 8 * 8
    body = line + bytes(-len(line) % 8) + data[blocks:]
    sha256 = hashlib.sha256(body).hexdigest()
    top = json.dumps({"cache_version": corpus.CACHE_VERSION, "sha256": sha256}, separators=(",", ":"))
    (run / CACHE_NAME).write_bytes(top.encode() + b"\n" + body)
    state = json.loads((run / INGEST_REUSE_NAME).read_bytes())
    state["outputs"][CACHE_NAME] = sha256
    (run / INGEST_REUSE_NAME).write_text(json.dumps(state))


def change_gates_input(run: Path, how: str, outside: Path) -> list[str]:
    """Change what the gates' outputs are checked against, but not the
    columns; the ingest flags to run next."""
    path = run / FILTER_REPORT_NAME
    data = path.read_bytes()
    if how == "report-edited":
        path.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
    elif how == "report-deleted":
        path.unlink()
    elif how == "report-symlinked":
        # to a file with the very bytes ingest would write
        (outside / path.name).write_bytes(data)
        path.unlink()
        path.symlink_to(outside / path.name)
    elif how == "report-a-fifo":
        path.unlink()
        os.mkfifo(path)
    elif how == "min-pubs":
        return ["--min-pubs", "60"]
    else:
        assert how == "cache-filter"
        forge_cache_filter(run)
    return []


@pytest.mark.parametrize(
    "how", ["report-edited", "report-deleted", "report-symlinked", "report-a-fifo", "min-pubs", "cache-filter"]
)
def test_other_gate_outputs_run_only_the_gates(tmp_path, monkeypatch, how):
    inputs = make_inputs(tmp_path / "in", dirty=True)
    run = tmp_path / "run"
    outside = tmp_path / "outside"
    outside.mkdir()
    ingest(inputs, run)
    flags = change_gates_input(run, how, outside)
    before = run_files(run)
    gates = []
    real = columnar.gates_from_columns
    monkeypatch.setattr(columnar, "gates_from_columns", lambda *args: gates.append(args) or real(*args))
    with no_parse():
        stdout = ingest(inputs, run, *flags)
    assert len(gates) == 1
    after = run_files(run)
    # the gates' outputs are written anew, and rejects.jsonl stays in place
    assert after[CACHE_NAME][1] != before[CACHE_NAME][1]
    assert after[FILTER_REPORT_NAME][1] != before.get(FILTER_REPORT_NAME, (0, 0, 0))[1]
    assert after[REJECTS_NAME] == before[REJECTS_NAME]
    assert_fresh(inputs, run, stdout, tmp_path / "fresh", *flags)
    assert not any(os.path.islink(run / name) for name in INGEST_OUTPUTS)
    # and the state they wrote lets the next such ingest do nothing
    before = run_files(run)
    with nothing_to_do():
        assert ingest(inputs, run, *flags) == stdout
    assert run_files(run) == before


def test_a_symlinked_output_keeps_its_target(tmp_path):
    inputs = make_inputs(tmp_path / "in", dirty=True)
    run = tmp_path / "run"
    ingest(inputs, run)
    target = tmp_path / "rejects.jsonl"
    target.write_bytes(b"not ingest's\n")
    (run / REJECTS_NAME).unlink()
    (run / REJECTS_NAME).symlink_to(target)
    ingest(inputs, run)
    assert target.read_bytes() == b"not ingest's\n"
    assert not (run / REJECTS_NAME).is_symlink()


def fifo_ingest(inputs: Path, run: Path, fifo: Path) -> str:
    """Ingest with *fifo* as --pubs, fed the publications file by a thread."""
    os.mkfifo(fifo)
    data = (inputs / "publications.jsonl").read_bytes()
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return ingest(inputs, run, pubs=fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_a_pipe_input_is_never_hashed_or_reused(tmp_path, parses):
    inputs = make_inputs(tmp_path / "in", dirty=True)
    fresh = tmp_path / "fresh"
    stdout = fifo_ingest(inputs, fresh, tmp_path / "pipe1")
    assert not (fresh / INGEST_REUSE_NAME).exists()
    # a run dir whose state names these very publications parses the pipe
    run = tmp_path / "run"
    ingest(inputs, run)
    state = (run / INGEST_REUSE_NAME).read_bytes()
    parses.clear()
    assert fifo_ingest(inputs, run, tmp_path / "pipe2") == stdout
    assert len(parses) == 1
    assert outputs(run) == outputs(fresh)
    assert (run / INGEST_REUSE_NAME).read_bytes() == state


def test_an_input_replaced_during_ingest_writes_no_state(tmp_path, monkeypatch, parses):
    """The state names the inputs that ingest hashed; an input that another
    process replaces while ingest reads it may not be what it parsed."""
    inputs = make_inputs(tmp_path / "in", dirty=False)
    real = columnar.merge_ranges

    def replacing(*args):
        journals = inputs / "journals.jsonl"
        shutil.copyfile(journals, tmp_path / "journals.jsonl")
        os.replace(tmp_path / "journals.jsonl", journals)
        return real(*args)

    monkeypatch.setattr(columnar, "merge_ranges", replacing)
    run = tmp_path / "run"
    ingest(inputs, run)
    assert not (run / INGEST_REUSE_NAME).exists()
    monkeypatch.setattr(columnar, "merge_ranges", real)
    parses.clear()
    ingest(inputs, run)
    assert len(parses) == 1
    assert (run / INGEST_REUSE_NAME).exists()


def test_analyze_without_a_cache_says_so_with_or_without_a_run_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    for run in (empty, tmp_path / "missing"):
        assert main(["analyze", "--out", str(run)]) == 1
        err = f"error: stage load-cache: cache not found: {run / CACHE_NAME} (run ingest first)\n"
        assert capsys.readouterr().err == err
