"""Synth writes contiguous author ranges in forked workers, byte-identical.

Every author draws from their own stream, so the lines of a range do not
depend on which process writes them. These tests make synth see 1, 2 or 3
CPUs and compare every output with the one-process run, through the CLI, a
StringIO writer and gen_corpus, and check that a failed range is a stage
error that leaves no worker behind.
"""
import contextlib
import io
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from careerflow import synth
from careerflow.cli import main
from careerflow.corpus import serialize_corpus
from careerflow.synth import (
    CohortConfig,
    CorpusConfig,
    author_ranges,
    gen_cohort,
    gen_corpus,
    write_synthetic_corpus,
)

FILES = ("publications", "journals", "authors")
SYNTH_ARGS = ["--authors-n", "40", "--disciplines-n", "4", "--rho", "0.6", "--seed", "7"]
SRC = Path(synth.__file__).resolve().parents[1]


@contextlib.contextmanager
def cpus(n: int, min_range_authors: int = 1):
    """Make synth see *n* CPUs and cut ranges of *min_range_authors* or more."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(synth, "MIN_RANGE_AUTHORS", min_range_authors)
        yield


def cli_synth(out: Path, args: list[str] = SYNTH_ARGS) -> dict[str, bytes]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(out), *args]) == 0
    return {name: (out / f"{name}.jsonl").read_bytes() for name in FILES}


def string_synth(config: CorpusConfig) -> tuple[list[str], dict[str, int]]:
    files = [io.StringIO() for _ in FILES]
    counts = write_synthetic_corpus(config, *files)
    return [fh.getvalue() for fh in files], counts


def config(n_authors: int = 40, **corpus_kw) -> CorpusConfig:
    cohort = CohortConfig(n_authors=n_authors, n_disciplines=4, persistence=0.6, seed=7)
    return CorpusConfig(cohort=cohort, **corpus_kw)


@pytest.fixture(scope="module")
def one_process(tmp_path_factory):
    with cpus(1):
        return cli_synth(tmp_path_factory.mktemp("one"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cli_synth_is_byte_identical_for_any_cpu_count(one_process, tmp_path, n):
    with cpus(n):
        assert len(author_ranges(config(), gen_cohort(config().cohort).values)) == n
        assert cli_synth(tmp_path) == one_process


@pytest.mark.parametrize("n", [2, 3])
def test_string_writer_and_gen_corpus_are_byte_identical_for_any_cpu_count(n):
    """The StringIO outputs, and the corpus gen_corpus parses from them."""
    cfg = config(hyperauthor_prob=0.2)
    with cpus(1):
        texts, counts = string_synth(cfg)
        corpus = serialize_corpus(gen_corpus(cfg))
    with cpus(n):
        assert string_synth(cfg) == (texts, counts)
        assert serialize_corpus(gen_corpus(cfg)) == corpus
    assert counts["publications"] == texts[0].count("\n")


def test_a_corpus_below_the_range_minimum_is_written_without_a_fork(one_process, tmp_path):
    def no_fork():
        raise AssertionError("synth forked a worker")

    with cpus(3, synth.MIN_RANGE_AUTHORS), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        assert 40 < 2 * synth.MIN_RANGE_AUTHORS
        assert cli_synth(tmp_path) == one_process


def test_ranges_are_contiguous_and_never_empty():
    # one author costs more than a third of the corpus, so two cuts fall on it
    values = np.ones((20, 3))
    values[4] = 1e4
    cfg = config(n_authors=20)
    with cpus(3):
        assert author_ranges(cfg, values) == [(0, 4), (4, 20)]
    with cpus(40):
        ranges = author_ranges(cfg, gen_cohort(cfg.cohort).values)
    assert 1 < len(ranges) <= 20 and ranges[0][0] == 0 and ranges[-1][1] == 20
    assert all(start < stop for start, stop in ranges)
    assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))


def test_more_cpus_than_authors_gives_the_same_corpus(tmp_path):
    """With 40 CPUs for 20 authors, many cuts coincide and are merged."""
    args = ["--authors-n", "20", "--disciplines-n", "4", "--seed", "2"]
    with cpus(1):
        expected = cli_synth(tmp_path / "one", args)
    with cpus(40):
        assert cli_synth(tmp_path / "many", args) == expected


SUBPROCESS_SYNTH = """
import os, sys
import numpy as np
from careerflow import synth
from careerflow.cli import main
os.sched_getaffinity = lambda pid: set(range(3))
synth.MIN_RANGE_AUTHORS = 1
# start the BLAS thread pool, if there is one, before synth forks
a = np.random.default_rng(0).random((300, 300))
a @ a
sys.exit(main(["synth", "--out", sys.argv[1], *sys.argv[2:]]))
"""


def test_a_live_blas_thread_pool_at_the_fork_changes_nothing(one_process, tmp_path):
    """Synth's workers call no BLAS or LAPACK routine, so a BLAS pool of
    several threads in the parent at the fork leaves the outputs alone."""
    outputs = []
    for name, threads in (("pool", None), ("pinned", "1")):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(SRC)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SYNTH, str(out), *SYNTH_ARGS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({f: (out / f"{f}.jsonl").read_bytes() for f in FILES})
    assert outputs[0] == outputs[1] == one_process


@pytest.mark.parametrize("failure", ["worker-raises", "worker-dies", "parent-raises"])
def test_failed_range_is_a_stage_error_and_reaps_every_worker(tmp_path, capsys, failure):
    """It also leaves the previous corpus as it was, and no temporary file."""
    previous = cli_synth(tmp_path)
    parent = os.getpid()
    real = synth.iter_author_batches

    def failing(generator, start, stop):
        in_worker = os.getpid() != parent
        if failure == "worker-dies" and in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
        if failure == ("worker-raises" if in_worker else "parent-raises"):
            raise RuntimeError("range failed")
        yield from real(generator, start, stop)

    argv = ["synth", "--out", str(tmp_path), *SYNTH_ARGS]
    with cpus(3), pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "iter_author_batches", failing)
        if failure == "parent-raises":
            with pytest.raises(RuntimeError, match="range failed"):
                main(argv)
        else:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: stage synth: worker for authors ")
            if failure == "worker-raises":
                assert "(exit 0): RuntimeError: range failed" in err
            else:
                assert f"(exit {-signal.SIGKILL}): no result" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {name: (tmp_path / f"{name}.jsonl").read_bytes() for name in FILES} == previous
    assert sorted(path.name for path in tmp_path.iterdir()) == [f"{name}.jsonl" for name in sorted(FILES)]


def test_files_in_three_directories_are_each_written_aside_in_their_own(one_process, tmp_path, capsys):
    paths = {name: tmp_path / name / f"{name}.jsonl" for name in FILES}
    for path in paths.values():
        path.parent.mkdir()
    argv = ["synth", "--out", str(tmp_path), *SYNTH_ARGS]
    for flag, name in zip(("--pubs", "--journals", "--authors"), FILES):
        argv += [flag, str(paths[name])]
    renames = []
    real_replace = os.replace

    def replace(src, dst):
        renames.append((Path(src).parent, Path(dst)))
        real_replace(src, dst)

    with contextlib.redirect_stdout(io.StringIO()), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", replace)
        assert main(argv) == 0
    assert renames == [(path.parent, path) for path in paths.values()]
    assert {name: path.read_bytes() for name, path in paths.items()} == one_process

    def failing(generator, start, stop):
        raise RuntimeError("range failed")

    with cpus(3), pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "iter_author_batches", failing)
        with pytest.raises(RuntimeError, match="range failed"):
            main(argv)
    assert {name: path.read_bytes() for name, path in paths.items()} == one_process
    for path in paths.values():
        assert list(path.parent.iterdir()) == [path]


def test_a_range_is_written_without_a_blas_or_lapack_call():
    """A forked worker runs _write_authors; a BLAS pool's threads do not
    survive a fork, so it must call no linear-algebra routine."""
    linalg_dir = os.path.dirname(np.linalg.__file__)
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "outer", "kron"}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(linalg_dir):
            calls.append(frame.f_code.co_name)
        elif event == "c_call" and getattr(arg, "__name__", "") in blas:
            calls.append(repr(arg))

    cfg = config(hyperauthor_prob=0.2)
    generator = synth._AuthorGenerator(cfg, gen_cohort(cfg.cohort))
    pubs, authors = io.StringIO(), io.StringIO()
    sys.setprofile(profile)
    try:
        n_pubs = synth._write_authors(generator, 0, 40, pubs, authors)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert n_pubs == pubs.getvalue().count("\n") > 0 and authors.getvalue().count("\n") == 40
