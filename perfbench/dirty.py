"""Seeded schema-level fault injector for publications.jsonl, with its oracle.

Each fault makes exactly one line fail validation and touches no other line,
so the expected rejects are known exactly: the set of faulted
("publications", line_no) pairs. Faults go only into the publications file,
so no journal or author reject can cascade into further publication rejects.
Byte-level faults (non-UTF-8 bytes, deeply nested arrays) abort ingest at the
parent commit and are left out until ingest turns them into rejects.
"""
from __future__ import annotations

import bisect
import json
import random
from pathlib import Path

FAULT_KINDS = (
    "invalid_json",
    "non_object",
    "bad_year",
    "bad_doc_type",
    "unknown_author",
    "unknown_journal",
    "bad_citation_year",
    "bad_citation_count",
    "duplicate_pub_id",
)
FAULT_SHARE = 0.10
REFERENCE_YEAR = 2022  # the ingest default the benchmark runs with


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fault_line(kind: str, line: str, rng: random.Random, serial: int, dup_id: str | None) -> str:
    if kind == "invalid_json":
        # any proper prefix of a json object is invalid json
        return line[: max(1, len(line) // 2)]
    obj = json.loads(line)
    if kind == "non_object":
        return _dump([obj["pub_id"], obj["year"]])
    if kind == "bad_year":
        obj["year"] = rng.choice((rng.randint(1800, 1899), rng.randint(REFERENCE_YEAR + 1, 2100)))
    elif kind == "bad_doc_type":
        obj["doc_type"] = "preprint"
    elif kind == "unknown_author":
        authors = list(obj["author_ids"])
        authors[rng.randrange(len(authors))] = f"zz{serial:07d}"
        obj["author_ids"] = authors
    elif kind == "unknown_journal":
        obj["journal_id"] = f"missing-j{serial}"
    elif kind == "bad_citation_year":
        cites = dict(obj["citations_by_year"])
        if rng.random() < 0.5:
            cites["y" + str(obj["year"])] = 1
        else:
            cites[str(obj["year"] - 1 - rng.randrange(5))] = 1
        obj["citations_by_year"] = cites
    elif kind == "bad_citation_count":
        cites = dict(obj["citations_by_year"])
        cites[str(obj["year"])] = -1 - rng.randrange(3)
        obj["citations_by_year"] = cites
    elif kind == "duplicate_pub_id":
        obj["pub_id"] = dup_id
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return _dump(obj)


def inject(src: Path, dst: Path, seed: int) -> dict[int, str]:
    """Copy *src* to *dst* with about FAULT_SHARE of its lines faulted.

    Returns {line_no: fault kind}; line numbers are 1-based like the ones in
    rejects.jsonl. A duplicate copies the pub_id of an unfaulted line from the
    first half of the lines before it, so duplicates sit far apart.
    """
    rng = random.Random(seed)
    lines = src.read_text(encoding="utf-8").splitlines()
    faults: dict[int, str] = {}
    clean: list[int] = []  # unfaulted line indices, ascending
    out: list[str] = []
    for i, line in enumerate(lines):
        if rng.random() >= FAULT_SHARE:
            clean.append(i)
            out.append(line)
            continue
        kind = rng.choice(FAULT_KINDS)
        dup_id = None
        if kind == "duplicate_pub_id":
            n_far = bisect.bisect_left(clean, i // 2)
            if n_far == 0:
                kind = "bad_doc_type"
            else:
                dup_id = json.loads(lines[clean[rng.randrange(n_far)]])["pub_id"]
        out.append(_fault_line(kind, line, rng, i, dup_id))
        faults[i + 1] = kind
    dst.write_text("\n".join(out) + "\n", encoding="utf-8")
    return faults


def check_rejects(rejects_path: Path, faults: dict[int, str]) -> list[str]:
    """Problems with an ingest's rejects.jsonl against the injected faults."""
    got = set()
    for line in rejects_path.read_text(encoding="utf-8").splitlines():
        if line:
            obj = json.loads(line)
            got.add((obj["file"], obj["line_no"]))
    want = {("publications", n) for n in faults}
    problems = []
    missing = sorted(want - got)
    extra = sorted(got - want)
    if missing:
        kinds = sorted({faults[n] for _, n in missing})
        problems.append(f"{len(missing)} faulted lines not rejected (kinds {kinds}), e.g. {missing[:3]}")
    if extra:
        problems.append(f"{len(extra)} unexpected rejects, e.g. {extra[:3]}")
    return problems
