"""Pinned analysis contract: fixed input files give fixed output bytes.

The inputs under data/golden were written once by
``careerflow synth --out tests/data/golden --authors-n 60 --disciplines-n 2
--rho 0.6 --seed 3`` and are never regenerated, so a change to the synthetic
generator cannot move them. ``manifest.txt`` and ``corpus.cache.sha256`` are
what ingest and analyze made of them; a change that alters either one
changes the behaviour contract and has to say so.
"""
import hashlib
from pathlib import Path

from careerflow.cli import main
from careerflow.pipeline import CACHE_NAME, MANIFEST_NAME

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_golden_inputs_reproduce_manifest_and_cache(tmp_path):
    out = tmp_path / "run"
    assert main([
        "ingest",
        "--pubs", str(GOLDEN / "publications.jsonl"),
        "--journals", str(GOLDEN / "journals.jsonl"),
        "--authors", str(GOLDEN / "authors.jsonl"),
        "--out", str(out),
    ]) == 0
    assert (out / "rejects.jsonl").read_bytes() == b""
    cache_digest = hashlib.sha256((out / CACHE_NAME).read_bytes()).hexdigest()
    assert cache_digest == (GOLDEN / "corpus.cache.sha256").read_text().strip()

    assert main(["analyze", "--out", str(out)]) == 0
    manifest = (out / MANIFEST_NAME).read_bytes()
    assert manifest == (GOLDEN / MANIFEST_NAME).read_bytes()
    assert len(manifest.splitlines()) == 76
