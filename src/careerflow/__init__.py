"""careerflow: lifetime productivity classes, mobility, and models from
publication metadata, with a seeded synthetic oracle."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator
from pathlib import Path

__version__ = "0.1.0"

# Every CLI process needs these names: main() reports the two errors, run()
# the termination, and report reads the manifest under the run dir's lock.
# They are defined here, which every import of a submodule runs first, so
# that importing them loads nothing more; corpus takes the errors from here.
MANIFEST_NAME = "manifest.txt"
LOCK_NAME = ".careerflow.lock"


class CorpusError(ValueError):
    """Fatal input problem (unreadable stream, unusable configuration)."""


class StageError(RuntimeError):
    """Pipeline failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage}: {message}")


class Terminated(BaseException):
    """SIGTERM, raised by corpus.sigterm_raises. Like KeyboardInterrupt it is
    no Exception, so no stage reports it as its error."""


@contextlib.contextmanager
def stage_errors(stage: str) -> Iterator[None]:
    """Raise any Exception of the block as a StageError of *stage*; a
    StageError passes as it is."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc


@contextlib.contextmanager
def run_dir_lock(run_dir: Path, shared: bool = False) -> Iterator[None]:
    """Hold a flock on *run_dir*'s LOCK_NAME file for the block: an
    exclusive one for a stage that writes there, ingest or analyze, so that
    it may remove what killed writers left (corpus.remove_aside_files), and
    a *shared* one for report, which reads. A run dir that a writer holds is
    a CorpusError, and so is any other failure to lock it, except that a
    reader whose lock file cannot be opened (none was ever made, or the
    storage is read-only) reads without it. The lock goes with the open
    file, so it is released when the block ends or the process dies."""
    # imported here: synth, which takes no lock, runs where fcntl is missing
    import fcntl

    path = run_dir / LOCK_NAME
    flags = os.O_RDONLY if shared else os.O_RDWR | os.O_CREAT
    try:
        fd = os.open(path, flags | os.O_NOFOLLOW, 0o644)
    except OSError as exc:
        if not shared:
            raise CorpusError(f"cannot open lock file {path}: {exc.strerror}") from None
        fd = None
    if fd is None:
        yield
        return
    try:
        try:
            fcntl.flock(fd, (fcntl.LOCK_SH if shared else fcntl.LOCK_EX) | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CorpusError(f"another careerflow process is writing {run_dir}") from None
        except OSError as exc:
            raise CorpusError(f"cannot lock {path}: {exc.strerror}") from None
        yield
    finally:
        os.close(fd)
