"""Synth writes contiguous author ranges in forked workers, byte-identical.

Every author draws from their own stream, so the lines of a range do not
depend on which process writes them. These tests make synth see 1, 2 or 3
CPUs and compare every output with the one-process run, through the CLI, a
StringIO writer and gen_corpus, and check that a failed range is a stage
error that leaves no worker behind, and that a killed synth leaves none
either.
"""
import contextlib
import hashlib
import io
import json
import os
import select
import signal
import subprocess
import sys
import time
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
from test_synth import EDGE_CONFIGS

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


# sha256 of the publications, journals and authors text for the round-trip
# config of test_synth (12 authors, 2 disciplines, seed 44), each of its
# EDGE_CONFIGS, and the two benchmark corpora; a change to the generator that
# moves any draw or any byte of a line changes them
PINNED_DIGESTS = {
    "12x2": (
        "2a44910f62e85cbcb5192935bb370ce781135c98a8c80f10b4cf898889d7891a",
        "59f559efdc86b6e2a79a2719201e72667aaf8092943937971ef94d31172c8c6f",
        "6f2fbd800da7955d5740f8da0fd5e20d6fbbc22a153522cd7ced0832d06a1048",
    ),
    "partner-redraw": (
        "3b9c80e9363cdfbad60a7a6884d95cd00fc48f7a3d282f0ae7bb4d6503ed5d56",
        "49062621951662e163c0d3322057f67befe04e14dda1785d5de72e8bec45cd07",
        "3957192706c007f88a1fd25a3b0f890580236ca6bd6fb653776e9345770655fd",
    ),
    "one-country-one-institution": (
        "96d0bfcf85e0c226573d8deda4ec77f51f0086791c5b4ce624e940ed80bf6d60",
        "59f559efdc86b6e2a79a2719201e72667aaf8092943937971ef94d31172c8c6f",
        "ba59cb3f904cb56c5b2d05a2cde09b95a8c158691ed153078eb1b54cf00406fe",
    ),
    "one-discipline": (
        "0a661ea9e6aa4e4983b309dd2985573263a5973c0d11ae79d0e42ee2a195224e",
        "49062621951662e163c0d3322057f67befe04e14dda1785d5de72e8bec45cd07",
        "6f2fbd800da7955d5740f8da0fd5e20d6fbbc22a153522cd7ced0832d06a1048",
    ),
    "no-gap-window": (
        "ddfc01cccc652fa2539d5980ec45a32450f6ea9331731fafaadb5b45cae283fb",
        "59f559efdc86b6e2a79a2719201e72667aaf8092943937971ef94d31172c8c6f",
        "6f2fbd800da7955d5740f8da0fd5e20d6fbbc22a153522cd7ced0832d06a1048",
    ),
    "three-digit-countries": (
        "032f2c5dadeb6c194ce892f4712618a79a38c548da94fa0324aaa5c31fd692dc",
        "59f559efdc86b6e2a79a2719201e72667aaf8092943937971ef94d31172c8c6f",
        "6f2fbd800da7955d5740f8da0fd5e20d6fbbc22a153522cd7ced0832d06a1048",
    ),
    "no-extra-refs-small-teams": (
        "ebfcbf06d9fbaf9094a778047fa9dfc4013270082915a9bd1b7646a6e6e7b0fe",
        "59f559efdc86b6e2a79a2719201e72667aaf8092943937971ef94d31172c8c6f",
        "6f2fbd800da7955d5740f8da0fd5e20d6fbbc22a153522cd7ced0832d06a1048",
    ),
    "800x8": (
        "392785940673b28cb0aafb45556b09e91198ae5fa346a08a06674bc604f04a21",
        "7f90728231095c650177d25ff2ec2ba6a37a9036eceafa6d5c8611e2bd6a2ada",
        "608847b476d30f490a04cdb4a8ed14a360ecf763c39e07c1e3bed33365eb94f5",
    ),
    "1200x16": (
        "affcf8b2a11769aaed054350a3d4ff843024016fe1ee5277f7805f9475810f52",
        "cc2a2316a11bd6931672f7f94521bd8b3570dde3308d0873d520080a905e2e23",
        "0862f7f0bbb6e4b355ab5407bab9a7b4f5fd09a4981934e589c50b926b872139",
    ),
}


def pinned_config(name: str) -> CorpusConfig:
    if name in ("800x8", "1200x16"):
        n_authors, n_disciplines = map(int, name.split("x"))
        cohort = CohortConfig(n_authors=n_authors, n_disciplines=n_disciplines, persistence=0.6, seed=1)
        return CorpusConfig(cohort=cohort)
    cohort_kw, corpus_kw = EDGE_CONFIGS.get(name, ({}, {}))
    cohort = CohortConfig(**{"n_authors": 12, "n_disciplines": 2, "seed": 44, **cohort_kw})
    return CorpusConfig(cohort=cohort, **corpus_kw)


@pytest.mark.parametrize("shares", [1, 3])
@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_synth_output_bytes_are_pinned(name, shares):
    """The random stream and the line format together: every output of
    these configs hashes to its pinned digest, from one share or three."""
    with cpus(shares):
        texts, _ = string_synth(pinned_config(name))
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts) == PINNED_DIGESTS[name]


# sha256 of the name and arguments of every call each author's generator
# receives, for the same configs: every array's dtype, shape and bytes, so a
# Poisson mean that moves in its last bit changes them even where the draw
# it feeds does not
PINNED_DRAW_DIGESTS = {
    "12x2": "1241c0dcbbb335a3cc496710af33fa152ae5e4495c5620b2e2fa193b47abb07d",
    "partner-redraw": "553c8fa41879dc9160805ed175356937480381752d167342979f22de071eebe7",
    "one-country-one-institution": "d0e1c380a0ba1b9fe631ac1162189c8673f726eb15c08eedc86652c0638f9f0c",
    "one-discipline": "1e9da821f8fc3784bf16e308e2182fa4153624444dd6ad3d141ecc4fa73d4b39",
    "no-gap-window": "36c14ecad9b7f4440076b84c69c1afaa57b3fe2b10e53e5f609535899de8379b",
    "three-digit-countries": "1e0c109b695e9421659d56630dfcf7f38f7244bba2ec3a94b9bbe91f3b4cb08e",
    "no-extra-refs-small-teams": "9ec306090dd405e35393a0b787d7c2664cfa3ecc5f56242ee7aa68d3caaa14b1",
    "800x8": "51c38c6e4d01a952826e372fc6dc37b65656e3f714be1804f47a58b18f27c0d7",
    "1200x16": "dce8df8cf44dd4a3d2f2c505d4d99f2effc87795d011dbdae5f28846b26c8f36",
}


class _HashingGenerator:
    """A numpy Generator that hashes each call's name and arguments into
    *digest* before it makes the call."""

    def __init__(self, rng: np.random.Generator, digest):
        self._rng, self._digest = rng, digest

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            for value in (name, *args, *(part for item in sorted(kwargs.items()) for part in item)):
                if isinstance(value, np.ndarray):
                    self._digest.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
                else:
                    # numpy takes a numpy int and the int it equals alike as a size
                    value = int(value) if isinstance(value, np.integer) else value
                    self._digest.update(f"{type(value).__name__}:{value!r}".encode())
            return method(*args, **kwargs)

        return call


@pytest.mark.parametrize("name", PINNED_DRAW_DIGESTS)
def test_synth_draw_arguments_are_pinned(name):
    """Every draw keeps its order, kind, dtype, shape and size, and every
    float argument its bits: the Poisson means, the percentile loc and the
    citation means are computed in numpy's order of operations."""
    cfg = pinned_config(name)
    generator = synth._AuthorGenerator(cfg, gen_cohort(cfg.cohort))
    digest = hashlib.sha256()
    real = synth._author_rng
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_author_rng", lambda seed, i: _HashingGenerator(real(seed, i), digest))
        for i in range(cfg.cohort.n_authors):
            generator.generate(i)
    assert digest.hexdigest() == PINNED_DRAW_DIGESTS[name]


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


KILLED_PARENT_PROBE = """
import os, sys, time
from careerflow import synth
from careerflow.cli import main
os.sched_getaffinity = lambda pid: set(range(2))
synth.MIN_RANGE_AUTHORS = 1
parent = os.getpid()
real = synth._write_authors

def held(generator, start, stop, *files):
    if os.getpid() != parent:
        os.write(int(sys.argv[2]), b"%d\\n" % os.getpid())
        time.sleep(60)
    return real(generator, start, stop, *files)

synth._write_authors = held
sys.exit(main(["synth", "--out", sys.argv[1], *sys.argv[3:]]))
"""


def ends_within(fd: int, seconds: float) -> bool:
    """Whether the pipe read end *fd* comes to EOF within *seconds*."""
    deadline = time.monotonic() + seconds
    while select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
        if not os.read(fd, 4096):
            return True
    return False


def test_a_killed_synth_leaves_no_worker(tmp_path):
    """A SIGKILL to synth, which runs no cleanup, ends its forked worker
    too. Both hold the write end of one pipe, so its read end comes to EOF
    once neither is alive: a zombie holds no file, though signal 0 would
    still find it."""
    read_fd, write_fd = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-c", KILLED_PARENT_PROBE, str(tmp_path), str(write_fd), *SYNTH_ARGS],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        pass_fds=[write_fd],
        stderr=subprocess.PIPE,
    )
    os.close(write_fd)
    try:
        # the worker writes its pid in one write, as its share starts
        line = os.read(read_fd, 64) if select.select([read_fd], [], [], 60)[0] else b""
        assert line.endswith(b"\n"), proc.stderr.read() if proc.poll() is not None else line
        proc.kill()
        proc.wait()
        if not ends_within(read_fd, 2):
            # the worker still holds the pipe, so its pid is still its own
            os.kill(int(line), signal.SIGKILL)
            pytest.fail(f"worker {int(line)} outlived synth by 2 s")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        os.close(read_fd)


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
        assert main(argv) == 1
    err = capsys.readouterr().err
    if failure == "parent-raises":
        assert err == "error: stage synth: range failed\n"
    else:
        assert err.startswith("error: stage synth: worker for authors ")
        if failure == "worker-raises":
            assert "(exit 0): RuntimeError: range failed" in err
        else:
            assert f"(exit {-signal.SIGKILL}): no result" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {name: (tmp_path / f"{name}.jsonl").read_bytes() for name in FILES} == previous
    assert sorted(path.name for path in tmp_path.iterdir()) == [f"{name}.jsonl" for name in sorted(FILES)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("overflow", [{"noise_scale": 1000}, {"pubs_per_year": 1e300}], ids=str)
def test_generation_that_overflows_numpy_is_a_stage_error(tmp_path, capsys, n, overflow):
    """Stage values that overflow, or draws numpy refuses in every share,
    are synth's error, whichever process raises it, and no output or
    temporary file is left."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_authors": 200, **overflow}))
    out = tmp_path / "run"
    with cpus(n, synth.MIN_RANGE_AUTHORS):
        assert main(["synth", "--out", str(out), "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: stage synth: ")
    assert not out.exists()


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
        assert main(argv) == 1
    assert capsys.readouterr().err == "error: stage synth: range failed\n"
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


def test_stage_values_that_overflow_are_one_error_without_a_warning(tmp_path):
    """In a process that leaves warnings at Python's defaults, an overflow of
    the stage values is reported once, as synth's error, with no numpy
    warning before it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_authors": 10, "noise_scale": 1000}))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "careerflow.cli", "synth", "--out", str(out), "--config", str(path)],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, b"error: stage synth: overflow encountered in exp\n")
    assert not out.exists()
