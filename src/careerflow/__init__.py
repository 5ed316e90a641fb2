"""careerflow: lifetime productivity classes, mobility, and models from
publication metadata, with a seeded synthetic oracle."""

from __future__ import annotations

import contextlib
import importlib
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


__all__ = [
    "Corpus",
    "CorpusError",
    "FilterReport",
    "SampleFilterConfig",
    "StageError",
    "filter_sample",
    "parse_corpus",
    "CohortConfig",
    "CorpusConfig",
    "calibrate_persistence",
    "gen_cohort",
    "gen_corpus",
    "__version__",
]

# The other names are bound on first use, each from its module: synth loads
# numpy, and corpus the dataclass machinery and the fork helpers, none of
# which `--help` and report run.
_LAZY = {
    **dict.fromkeys(("Corpus", "FilterReport", "SampleFilterConfig", "filter_sample", "parse_corpus"), "corpus"),
    **dict.fromkeys(("CohortConfig", "CorpusConfig", "calibrate_persistence", "gen_cohort", "gen_corpus"), "synth"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
