"""careerflow pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Workloads (see perfbench/README.md for why each exists):

  pipeline-e2e  passes of synth -> ingest -> full analyze -> report -> narrow analyze
  ingest-dirty  synth plus seeded schema faults, then repeated ingest + analyze

With --trace 0 every stage is a real `python -m careerflow.cli` subprocess,
one at a time (a closed loop with one client); each child's wall time, CPU
and peak RSS come from its own rusage (os.wait4). With --trace 1 the same
stages run in-process through careerflow.cli.main with module attributes
wrapped (perfbench/spans.py), alternating with untraced passes to measure the
tracing overhead. Every output is checked; the last stdout line is the JSON
result, and the exit code is 1 when a check or an invocation failed.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata, util
from pathlib import Path
from statistics import mean, median

import dirty
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Every child gets the same fixed BLAS thread count (at most nproc); no stage
# is given --workers, so each stage is one single-threaded process.
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3

# Speed reference. On a shared 2-vCPU virtual machine the CPU speed was
# measured to drift by 20-30% over tens of seconds, and every stage drifts
# with it. A fresh `import scipy.stats` (a dependency, not careerflow code)
# slows down the same way, so each run times it at the start, after set-up
# and after every loop iteration, and scales each sample by REFERENCE_S over
# the mean of the reference times just before and after it. Times then read
# as seconds on a host where that import takes REFERENCE_S; the raw values are
# printed beside them.
REFERENCE_ARGV = ["-c", "import scipy.stats"]
REFERENCE_S = 1.5
NARROW = ["--ptype", "P3", "--scope", "all"]

# Corpus sizes are fixed per workload; the seed varies the content only. A
# full analyze fits 16 models per discipline; at 100 and 75 authors per
# discipline most fits converge, while 25 per discipline fails most of them.
WORKLOADS = {
    "pipeline-e2e": {"authors": 800, "disciplines": 8},
    "ingest-dirty": {"authors": 1200, "disciplines": 16},
}
RHO = 0.6

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "synth_pubs_per_s": "pubs/s",
    "ingest_pubs_per_s": "lines/s",
    "analyze_full_s": "s",
    "analyze_narrow_s": "s",
    "synth_peak_rss_mb": "MB",
    "ingest_peak_rss_mb": "MB",
    "analyze_peak_rss_mb": "MB",
    "cpu_s": "s",
}


class CheckFailed(Exception):
    """An invocation exited nonzero or its output failed a check."""


@dataclass
class Sample:
    stage: str
    wall: float
    cpu: float
    rss_mb: float
    items: int = 0  # publications written (synth) or lines read (ingest)
    end: float = 0.0  # perf_counter() when it finished


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def manifest_entries(run_dir: Path) -> dict[str, str]:
    text = (run_dir / "manifest.txt").read_text(encoding="utf-8")
    entries = [json.loads(line) for line in text.splitlines() if line]
    return {e["path"]: e["sha256"] for e in entries}


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:  # no git binary
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        **versions,
        "numba": util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha,
        "source_sha256": source_digest(SRC / "careerflow"),
        "benchmark_sha256": source_digest(Path(__file__).resolve().parent),
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("CAREERFLOW_OUT", "CAREERFLOW_NO_NUMBA", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env.update({name: str(BLAS_THREADS) for name in BLAS_VARS})
    return env


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    beyond = 10
    if n <= beyond:
        return f"n={n}: no percentile has {beyond} samples beyond it"
    rank = n - beyond  # samples at or below the reported one
    pct = 100.0 * rank / n
    return f"n={n}: p{pct:.0f}={sorted(values)[rank - 1]:.4f}"


@dataclass
class Bench:
    workload: str
    seed: int
    seconds: float
    env: dict = field(default_factory=child_env)
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)  # stage -> [Sample]
    references: list = field(default_factory=list)  # reference import Samples

    def __post_init__(self):
        self.cfg = WORKLOADS[self.workload]
        self.dir = WORK / self.workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.logs = self.dir / "logs"
        self.logs.mkdir(parents=True)

    # -- subprocess stages ---------------------------------------------------

    def cli(self, stage: str, argv: list[str], items: int = 0) -> tuple[Sample, str]:
        """Run one careerflow CLI invocation; its own rusage gives CPU and RSS."""
        return self.child(stage, ["-m", "careerflow.cli", *argv], items)

    def reference(self) -> None:
        self.references.append(self.child("reference", REFERENCE_ARGV)[0])

    def child(self, stage: str, argv: list[str], items: int = 0) -> tuple[Sample, str]:
        self.attempted += 1
        log = self.logs / f"{self.attempted:04d}-{stage}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        text = log.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            self.failed += 1
            raise CheckFailed(f"{stage} exited {proc.returncode}: {text[-400:]}")
        sample = Sample(stage, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, items,
                        start + wall)
        return sample, text

    def record(self, sample: Sample) -> Sample:
        self.samples.setdefault(sample.stage, []).append(sample)
        return sample

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            raise CheckFailed(message)

    def synth_args(self, out: Path) -> list[str]:
        return ["synth", "--out", str(out), "--authors-n", str(self.cfg["authors"]),
                "--disciplines-n", str(self.cfg["disciplines"]), "--rho", str(RHO),
                "--seed", str(self.seed)]

    def synth(self, out: Path) -> Sample:
        sample, text = self.cli("synth", self.synth_args(out))
        pubs = count_lines(out / "publications.jsonl")
        self.check(f"publications: {pubs} ->" in text, f"synth reported a count other than {pubs}")
        sample.items = pubs
        return sample

    def ingest(self, inputs: Path, out: Path, pubs_file: str = "publications.jsonl",
               faults: dict | None = None) -> Sample:
        lines = count_lines(inputs / pubs_file)
        sample, text = self.cli("ingest", [
            "ingest", "--pubs", str(inputs / pubs_file), "--journals", str(inputs / "journals.jsonl"),
            "--authors", str(inputs / "authors.jsonl"), "--out", str(out)], lines)
        faults = faults or {}
        want = f"publications: {lines - len(faults)}  rejects: {len(faults)}"
        self.check(want in text, f"ingest: expected '{want}'")
        problems = dirty.check_rejects(out / "rejects.jsonl", faults)
        self.check(not problems, "ingest rejects: " + "; ".join(problems))
        return sample

    def analyze(self, run_dir: Path, narrow: bool = False) -> tuple[Sample, dict[str, str]]:
        stage = "analyze_narrow" if narrow else "analyze_full"
        sample, _ = self.cli(stage, ["analyze", "--out", str(run_dir), *(NARROW if narrow else [])])
        entries = manifest_entries(run_dir)
        for rel, digest in entries.items():
            self.check(sha256_file(run_dir / rel) == digest, f"{stage}: {rel} does not match its manifest digest")
        return sample, entries

    def report(self, run_dir: Path, n_outputs: int) -> Sample:
        sample, text = self.cli("report", ["report", "--out", str(run_dir)])
        self.check(f"\n{n_outputs} outputs:" in text, "report does not list the manifest's outputs")
        return sample

    def check_narrow(self, narrow: dict[str, str], full: dict[str, str]) -> None:
        differ = [p for p, d in narrow.items() if full.get(p) != d]
        self.check(not differ, f"narrow outputs differ from the full run's: {differ[:3]}")

    def check_same(self, what: str, digests: list[str]) -> None:
        self.check(len(set(digests)) == 1, f"{what} differs between repeats of one input")


def manifest_digest(run_dir: Path) -> str:
    return sha256_file(run_dir / "manifest.txt")


def check_digest_history(b: Bench, key: str, digest: str) -> None:
    """The manifest digest of one (program, benchmark, workload, seed) never changes."""
    path = WORK / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    b.check(history.get(key, digest) == digest, f"manifest digest for {key} changed between runs")
    history[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(tmp, path)


# -- workloads (untraced) ----------------------------------------------------


def run_pipeline_e2e(b: Bench) -> dict:
    b.reference()
    setups = []
    for _ in range(SETUP_REPEATS):
        sample, text = b.cli("setup", ["--help"])
        b.check("synth" in text and "analyze" in text, "careerflow --help lists no subcommands")
        setups.append([sample])
    b.reference()
    iterations, digests = [], []
    deadline = time.perf_counter() + b.seconds
    k = 0
    while True:
        run_dir = b.dir / f"pass{k}"
        synth = b.record(b.synth(run_dir))
        ingest = b.record(b.ingest(run_dir, run_dir))
        full, full_entries = b.analyze(run_dir)
        b.record(full)
        report = b.record(b.report(run_dir, len(full_entries)))
        digests.append(manifest_digest(run_dir))
        narrow, narrow_entries = b.analyze(run_dir, narrow=True)
        b.record(narrow)
        b.check_narrow(narrow_entries, full_entries)
        iterations.append([synth, ingest, full, report, narrow])
        shutil.rmtree(run_dir)
        b.reference()
        k += 1
        if time.perf_counter() >= deadline:
            break
    b.check_same("full-analyze manifest", digests)
    return {"setup": setups, "iterations": iterations, "digest": digests[0]}


def analyze_pair(b: Bench, run_dir: Path) -> tuple[list[Sample], str, dict]:
    """One full then one narrow analyze on the same cache, both checked."""
    full, full_entries = b.analyze(run_dir)
    b.record(full)
    digest = manifest_digest(run_dir)
    narrow, narrow_entries = b.analyze(run_dir, narrow=True)
    b.record(narrow)
    b.check_narrow(narrow_entries, full_entries)
    return [full, narrow], digest, narrow_entries


def run_ingest_dirty(b: Bench) -> dict:
    b.reference()
    setups, dirty_digests = [], []
    for k in range(SETUP_REPEATS):
        inputs = b.dir / f"setup{k}"
        synth = b.record(b.synth(inputs))
        start = time.perf_counter()
        faults = dirty.inject(inputs / "publications.jsonl", inputs / "dirty.jsonl", b.seed)
        end = time.perf_counter()
        setups.append([synth, Sample("inject", end - start, end - start, 0.0, end=end)])
        dirty_digests.append(sha256_file(inputs / "dirty.jsonl"))
    b.check_same("faulted publications file", dirty_digests)
    b.reference()
    run_dir = b.dir / "run"
    iterations, caches, digests = [], [], []
    deadline = time.perf_counter() + b.seconds
    while True:
        # two ingests of the faulted corpus, then the analysis of what survived
        ingests = []
        for _ in range(2):
            ingests.append(b.record(b.ingest(inputs, run_dir, "dirty.jsonl", faults)))
            caches.append(sha256_file(run_dir / "corpus.cache"))
        pair, digest, narrow_entries = analyze_pair(b, run_dir)
        iterations.append(ingests + pair)
        digests.append(digest)
        b.reference()
        if time.perf_counter() >= deadline:
            break
    b.check_same("ingest cache", caches)
    b.check_same("full-analyze manifest", digests)
    # the report reads the narrow run's manifest, the last one written
    b.record(b.report(run_dir, len(narrow_entries)))
    kinds: dict[str, int] = {}
    for kind in faults.values():
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"faults injected: {len(faults)} of {count_lines(inputs / 'publications.jsonl')} lines {kinds}")
    return {"setup": setups, "iterations": iterations, "digest": digests[0]}


def speed_scale(references: list[Sample], t: float) -> float:
    """REFERENCE_S over the mean of the reference times just before and after t."""
    before = [r.wall for r in references if r.end <= t][-1:]
    after = [r.wall for r in references if r.end >= t][:1]
    return REFERENCE_S / mean(before + after)


def end_to_end(b: Bench, out: dict) -> tuple[dict, dict]:
    s = b.samples

    def timings(scale) -> dict:
        def med(stage):
            return median([x.wall * scale(x) for x in s[stage]])

        return {
            "setup_s": median([sum(x.wall * scale(x) for x in group) for group in out["setup"]]),
            "pipeline_s": sum(med(stage) for stage in ("synth", "ingest", "analyze_full", "report")),
            "synth_pubs_per_s": median([x.items / (x.wall * scale(x)) for x in s["synth"]]),
            "ingest_pubs_per_s": median([x.items / (x.wall * scale(x)) for x in s["ingest"]]),
            "analyze_full_s": med("analyze_full"),
            "analyze_narrow_s": med("analyze_narrow"),
            "cpu_s": median([sum(x.cpu * scale(x) for x in it) for it in out["iterations"]]),
        }

    metrics = timings(lambda x: speed_scale(b.references, x.end))
    metrics.update({
        "synth_peak_rss_mb": median([x.rss_mb for x in s["synth"]]),
        "ingest_peak_rss_mb": median([x.rss_mb for x in s["ingest"]]),
        "analyze_peak_rss_mb": median([x.rss_mb for x in s["analyze_full"]]),
    })
    refs = [r.wall for r in b.references]
    tails = {
        "reference import": f"median {median(refs):.4f} s, n={len(refs)}",
        "raw (unscaled)": ", ".join(f"{k}={v:.4g}" for k, v in timings(lambda x: 1.0).items()),
    }
    tails.update({f"tail {stage} (raw)": tail_percentile([x.wall for x in v]) for stage, v in s.items()})
    return metrics, tails


# -- traced run (in-process) -------------------------------------------------


def import_careerflow():
    sys.path.insert(0, str(SRC))
    import careerflow.cli as cli

    here = Path(cli.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise CheckFailed(f"careerflow imported from {here}, not from {SRC}")
    return cli


def traced_pass(b: Bench, cli, run_dir: Path, tracer: spans.Tracer | None) -> dict:
    """synth -> [faults] -> ingest -> full analyze -> narrow analyze, in-process."""
    walls: dict[str, float] = {}

    def stage(name: str, argv: list[str]) -> str:
        b.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.stage(f"stage.{name}"):
                        rc = cli.main(argv)
        except Exception as exc:  # an uncaught error in the program is a failed operation
            b.failed += 1
            raise CheckFailed(f"{name} raised {type(exc).__name__}: {exc}") from exc
        walls[name] = time.perf_counter() - start
        if rc != 0:
            b.failed += 1
            raise CheckFailed(f"{name} returned {rc}")
        return buf.getvalue()

    if tracer is not None:
        tracer.install()
    try:
        stage("synth", b.synth_args(run_dir))
        pubs_file, faults = "publications.jsonl", {}
        if b.workload == "ingest-dirty":
            pubs_file = "dirty.jsonl"
            faults = dirty.inject(run_dir / "publications.jsonl", run_dir / pubs_file, b.seed)
        lines = count_lines(run_dir / pubs_file)
        text = stage("ingest", ["ingest", "--pubs", str(run_dir / pubs_file),
                                "--journals", str(run_dir / "journals.jsonl"),
                                "--authors", str(run_dir / "authors.jsonl"), "--out", str(run_dir)])
        stage("analyze_full", ["analyze", "--out", str(run_dir)])
        full_manifest = (run_dir / "manifest.txt").read_bytes()
        full_entries = manifest_entries(run_dir)
        stage("analyze_narrow", ["analyze", "--out", str(run_dir), *NARROW])
    finally:
        if tracer is not None:
            tracer.uninstall()
    want = f"publications: {lines - len(faults)}  rejects: {len(faults)}"
    b.check(want in text, f"traced ingest: expected '{want}'")
    problems = dirty.check_rejects(run_dir / "rejects.jsonl", faults)
    b.check(not problems, "traced ingest rejects: " + "; ".join(problems))
    narrow_entries = manifest_entries(run_dir)
    b.check_narrow(narrow_entries, full_entries)
    for rel, digest in narrow_entries.items():
        b.check(sha256_file(run_dir / rel) == digest, f"traced analyze: {rel} does not match its manifest")
    return {
        "walls": walls,
        "full_manifest": full_manifest,
        "narrow_manifest": (run_dir / "manifest.txt").read_bytes(),
        "cache": sha256_file(run_dir / "corpus.cache"),
        "facts": {
            "corpus.lines": lines,
            "corpus.records": lines - len(faults),
            "corpus.rejects": len(faults),
            "columnar.cache_bytes": (run_dir / "corpus.cache").stat().st_size,
        },
    }


def run_traced(b: Bench) -> tuple[dict, dict]:
    imports = [b.child("import", ["-c", "import careerflow.cli"])[0].wall for _ in range(SETUP_REPEATS)]
    cli = import_careerflow()
    numba = int(bool(getattr(sys.modules.get("careerflow._kernels"), "USING_NUMBA", False)))

    tracers, per_pass, overheads = [], [], []
    deadline = time.perf_counter() + b.seconds
    k = 0
    while True:
        results = {}
        # alternate which side runs first so drift does not bias the overhead
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            tracer = spans.Tracer() if traced else None
            run_dir = b.dir / f"{'T' if traced else 'U'}{k}"
            results[traced] = traced_pass(b, cli, run_dir, tracer)
            shutil.rmtree(run_dir)
            if traced:
                tracers.append(tracer)
        u, t = results[False], results[True]
        for key in ("full_manifest", "narrow_manifest", "cache"):
            b.check(u[key] == t[key], f"traced run's {key} differs from the untraced run's")
        overheads.append(sum(t["walls"].values()) / sum(u["walls"].values()) - 1.0)
        facts = dict(t["facts"], **{
            "cli.import_s": median(imports),
            "kernels.numba": numba,
        })
        per_pass.append(spans.layer_metrics(tracers[-1], facts))
        k += 1
        if time.perf_counter() >= deadline:
            break

    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["trace.overhead_share"] = median(overheads)
    (b.dir / "spans.json").write_text(json.dumps([t.dump() for t in tracers]))
    absent = sorted(set(tracers[0].absent))
    print(f"traced passes: {len(tracers)}; absent functions: {absent or 'none'}")
    print(f"model failures by error class: {spans.model_errors(tracers[:1])}")
    return metrics, {"absent": absent}


# -- entry point -------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="careerflow pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "careerflow" / "cli.py").is_file():
        print(f"error: no careerflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for name in BLAS_VARS:
        os.environ[name] = str(BLAS_THREADS)
    b = Bench(args.workload, args.seed, args.seconds)
    env = environment()
    # byte-compile once, untimed, so the first timed import does not pay for it
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "careerflow")], env=b.env)
    if build.returncode != 0:
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2

    correct, metrics, extra = True, {}, {}
    try:
        if args.trace:
            values, extra = run_traced(b)
            units = spans.LAYER_UNITS
        else:
            runner = {"pipeline-e2e": run_pipeline_e2e, "ingest-dirty": run_ingest_dirty}[args.workload]
            out = runner(b)
            key = f"{env['source_sha256'][:16]}:{env['benchmark_sha256'][:16]}:{args.workload}:{args.seed}"
            check_digest_history(b, key, out["digest"])
            values, extra = end_to_end(b, out)
            units = END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        # a missing or malformed output is a failed check, not a crash
        correct = False
        if not isinstance(exc, CheckFailed):
            b.failed += 1
        print(f"CHECK FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{b.attempted} operations, {b.failed} failed")
    printed = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    printed["failed_share"] = (b.failed / max(b.attempted, 1), "share")
    if "analyze_full_s" in printed:
        printed["analyze_s"] = printed["analyze_full_s"]  # the same full-analyze samples
    for name, (value, unit) in printed.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    result = {"correct": correct, "attempted": max(b.attempted, 1), "failed": b.failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, environment=env, extra=extra,
                        samples={k: [vars(x) for x in v] for k, v in b.samples.items()}), indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
