"""careerflow: lifetime productivity classes, mobility, and models from
publication metadata, with a seeded synthetic oracle."""

from .corpus import (
    Corpus,
    CorpusError,
    FilterReport,
    SampleFilterConfig,
    filter_sample,
    parse_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusError",
    "FilterReport",
    "SampleFilterConfig",
    "filter_sample",
    "parse_corpus",
    "CohortConfig",
    "CorpusConfig",
    "calibrate_persistence",
    "gen_cohort",
    "gen_corpus",
    "__version__",
]

# The synth names load numpy, so they are bound on first use: every CLI
# process imports this package, and `--help` and report need no numpy.
_SYNTH = ("CohortConfig", "CorpusConfig", "calibrate_persistence", "gen_cohort", "gen_corpus")


def __getattr__(name: str):
    if name not in _SYNTH:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import synth

    return getattr(synth, name)
