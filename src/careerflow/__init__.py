"""careerflow: lifetime productivity classes, mobility, and models from
publication metadata, with a seeded synthetic oracle."""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

__version__ = "0.1.0"

# Every CLI process needs these four names: main() reports the two errors,
# run() the termination, and report reads the manifest. They are defined
# here, which every import of a submodule runs first, so that importing them
# loads nothing more; corpus takes the errors from here.
MANIFEST_NAME = "manifest.txt"


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

