"""The reproduction's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload batch-cold --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout (the program is imported from
its ``src/``).  Each job is one complete CLI command in a fresh process
with fresh temporary cache and checkpoint directories under
``.perfbench_work/``; jobs repeat, closed loop, while at least half of
the next one would fall inside ``--seconds`` of measuring (at least one
job).  Set-up is timed in a set-up-only process before the jobs (the
warm-up), in every job and in further set-up-only processes, and
reported as the median.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace
1`` the untraced jobs are followed by one traced job, and the metrics
are the per-layer ones of the traced job.  The line before it gives the
details: environment, reference status, failed checks, absent targets.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
JOB = HERE / "job.py"
REFERENCES = HERE / "references.json"

DEADLINE_S = 170.0
"""A run ends within this many seconds of starting (the limit is 180)."""

SETUP_SAMPLES = 3
"""Set-up timings per run: one set-up-only process before the jobs (the
warm-up), one per job, topped up with set-up-only processes; the median
is reported."""

MAX_JOBS = 8

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}


class JobFailed(RuntimeError):
    pass


class Runner:
    """Launches jobs of one workload and keeps their records."""

    def __init__(self, args: argparse.Namespace, workers: int, work: Path) -> None:
        self.args = args
        self.workers = workers
        self.work = work
        self.started = time.monotonic()
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def job_dir(self) -> Path:
        self.count += 1
        return self.work / f"job-{self.count}"

    def launch(self, work: Path, *flags: str) -> Dict[str, object]:
        """One job process; returns its record with ``setup_s`` added."""
        work.mkdir(parents=True, exist_ok=True)
        out = work / "record.json"
        argv = [
            sys.executable, str(JOB), "--root", str(ROOT),
            "--workload", self.args.workload, "--size", self.args.size,
            "--seed", str(self.args.seed), "--workers", str(self.workers),
            "--work", str(work), "--out", str(out), *flags,
        ]
        log_path = work.with_suffix(".log")
        with open(log_path, "wb") as log:
            launched = time.monotonic()
            process = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                       cwd=ROOT, env=self.env, start_new_session=True)
            try:
                code = process.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise JobFailed(f"job {work.name} ran past the {DEADLINE_S:.0f} s deadline")
            finally:
                _reap_group(process.pid)
        if code != 0 or not out.exists():
            tail = log_path.read_text(errors="replace")[-2000:]
            raise JobFailed(f"job {work.name} exited {code}:\n{tail}")
        record = json.loads(out.read_text())
        record["setup_s"] = record["ready_mono"] - launched
        record["elapsed_s"] = time.monotonic() - launched
        return record


def _reap_group(pgid: int) -> None:
    """Stop any process the job left behind in its session."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cache_listing(cache: Path) -> Dict[str, List[int]]:
    return {
        str(path.relative_to(cache)): [path.stat().st_size, path.stat().st_mtime_ns]
        for path in sorted(cache.rglob("*.pkl"))
    }


class Checker:
    """Scores each job's outputs against the committed references, or,
    for a seed without one, against the first job of this run."""

    def __init__(self, workload: str, size: workloads.Size, reference: Optional[dict]) -> None:
        self.workload = workload
        self.kind = workloads.WORKLOADS[workload]
        self.size = size
        self.reference = reference
        self.anchor: Optional[Dict[str, object]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def expected_digests(self) -> Dict[str, str]:
        ref = self.reference or {}
        if self.kind == "batch":
            return dict(ref.get("batch", {}))
        if self.kind == "stream":
            out = {k: v for k, v in ref.get("batch", {}).items()
                   if k in workloads.STREAM_MATCHES_BATCH}
            out.update(ref.get("stream", {}))
            return out
        return {}

    def score(self, record: Dict[str, object], label: str) -> None:
        if self.kind == "service":
            self._score_mesh(record, label)
        else:
            self._score_reports(record, label)
        if self.anchor is None and "error" not in record and record.get("rc") == 0:
            self.anchor = record

    def _fail_all(self, ops: int, label: str, why: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.problems.append(f"{label}: {why}")

    def _score_reports(self, record: Dict[str, object], label: str) -> None:
        expected = workloads.expected_reports(self.workload)
        if "error" in record or record.get("rc") != 0:
            self._fail_all(len(expected), label,
                           str(record.get("error") or f"exit code {record.get('rc')}"))
            return
        reports = record["reports"]
        wanted = self.expected_digests()
        if not wanted and self.anchor is not None:
            wanted = self.anchor["reports"]
        for name in expected:
            self.attempted += 1
            if name not in reports:
                self.failed += 1
                self.problems.append(f"{label}: report {name} missing")
            elif name in wanted and reports[name] != wanted[name]:
                self.failed += 1
                self.problems.append(f"{label}: report {name} differs from its reference")
        self._check_samples(record, label)

    def _score_mesh(self, record: Dict[str, object], label: str) -> None:
        units = self.size.mesh_units
        if "error" in record or record.get("rc") != 0:
            self._fail_all(units, label,
                           str(record.get("error") or f"exit code {record.get('rc')}"))
            return
        mesh = record["mesh"]
        wanted = (self.reference or {}).get("mesh")
        if wanted is None and self.anchor is not None:
            wanted = self.anchor["mesh"]["digest"]
        why = None
        if mesh["outcome"] != f"{workloads.MESH_CAMPAIGN}: done":
            why = f"campaign outcome {mesh['outcome']!r}, not done"
        elif mesh["samples"] != self.size.mesh_samples or mesh["coverage"] != 1.0:
            why = (f"{mesh['samples']} samples at coverage {mesh['coverage']}, "
                   f"expected {self.size.mesh_samples} at 1.0")
        elif wanted is not None and mesh["digest"] != wanted:
            why = "mesh results differ from their reference"
        if why is not None:
            # Aggregate results cannot name the unit at fault.
            self._fail_all(units, label, why)
            return
        self.attempted += units
        self.failed += mesh["missing"]

    def _check_samples(self, record: Dict[str, object], label: str) -> None:
        want = (self.reference or {}).get(f"{self.kind}_samples")
        if want is None and self.anchor is not None:
            want = self.anchor.get("samples")
        if want is not None and record.get("samples") != want:
            self.problems.append(
                f"{label}: {record.get('samples')} input samples, expected {want}")


def _load_references(path: Path, size: str, seed: int) -> Optional[dict]:
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    return table.get(size, {}).get(str(seed))


def _record_references(path: Path, size: str, seed: int, kind: str,
                       records: List[Dict[str, object]]) -> None:
    """Store this run's outputs as the references of ``seed``."""
    table = json.loads(path.read_text()) if path.exists() else {}
    entry = table.setdefault(size, {}).setdefault(str(seed), {})
    first = records[0]
    if kind == "batch":
        entry["batch"] = first["reports"]
        entry["batch_samples"] = first["samples"]
    elif kind == "stream":
        entry["stream"] = {"fig6": first["reports"]["fig6"]}
        entry["stream_samples"] = first["samples"]
    else:
        entry["mesh"] = first["mesh"]["digest"]
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def measure(args: argparse.Namespace, runner: Runner, checker: Checker) -> dict:
    """The untimed warm-up and the untraced jobs; returns the detail fields
    and the metrics."""
    kind = workloads.WORKLOADS[args.workload]
    detail: Dict[str, object] = {}
    # The first set-up is also the warm-up: it loads the imports into the
    # page cache before any job is timed.
    setups = [runner.launch(runner.job_dir(), "--setup-only")["setup_s"]]

    records: List[Dict[str, object]] = []
    measuring = time.monotonic()
    while True:
        work = runner.job_dir()
        before = _cache_listing(work / "cache") if kind == "batch" else {}
        record = runner.launch(work)
        label = f"job {len(records) + 1}"
        checker.score(record, label)
        if kind == "batch":
            _check_cache(before, _cache_listing(work / "cache"), record, label, checker)
        records.append(record)
        # Start another job only if at least half of it would fall inside
        # the measuring window, so a run measures --seconds give or take
        # half a job, however fast the host is.
        spent = time.monotonic() - measuring
        typical = _median([r["elapsed_s"] for r in records])
        if (spent + typical / 2 > args.seconds or len(records) >= MAX_JOBS
                or typical * 1.5 > runner.remaining()):
            break

    setups.extend(r["setup_s"] for r in records)
    while not args.trace and len(setups) < SETUP_SAMPLES and runner.remaining() > 30:
        setups.append(runner.launch(runner.job_dir(), "--setup-only")["setup_s"])
    good = [r for r in records if "wall_s" in r and "samples" in r]
    if not good:
        raise JobFailed("no job produced timings: " + "; ".join(checker.problems))
    detail["records"] = records
    detail["metrics"] = {
        "setup_s": _median(setups),
        "wall_s": _median([r["wall_s"] for r in good]),
        "samples_per_s": _median([r["samples"] / r["wall_s"] for r in good]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
    }
    detail["setup_samples"] = len(setups)
    return detail


def _check_cache(before: dict, after: dict, record: dict, label: str,
                 checker: Checker) -> None:
    """A batch job must start from an empty cache, miss and store.

    The cache directory listing is the check; the program's cache
    counters, when its metrics registry still has them, must agree."""
    counters = record.get("cache_counters", {})
    if before or len(after) < 2 or counters.get("cache.miss", 1) < 1:
        checker.problems.append(f"{label}: cold run did not miss and store "
                                f"(entries {len(before)} -> {len(after)})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                        help="tiny is the self-test's size")
    parser.add_argument("--references", default=str(REFERENCES),
                        help="reference digests (JSON)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the seed's references")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    nproc = _nproc()
    workers = min(workloads.WORKERS, nproc)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args, workers, work)
    size = workloads.SIZES[args.size]
    reference = _load_references(Path(args.references), args.size, args.seed)
    checker = Checker(args.workload, size, reference)
    try:
        detail = measure(args, runner, checker)
        metrics = detail["metrics"]
        absent: Dict[str, str] = {}
        if args.trace:
            traced = runner.launch(runner.job_dir(), "--trace")
            checker.score(traced, "traced job")
            spans = ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.json"
            shutil.move(str(Path(traced["spans_path"])), str(spans))
            detail["spans"] = str(spans.relative_to(ROOT))
            layers = dict(traced.get("layers", {}))
            if not layers:
                raise JobFailed(f"traced job failed: {traced.get('error')}")
            layers["trace.overhead_frac"] = (
                traced["wall_s"] - metrics["wall_s"]) / metrics["wall_s"]
            layers["ops.failed_frac"] = checker.failed / max(1, checker.attempted)
            metrics = layers
            absent = traced.get("absent", {})
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            units = E2E_UNITS
        if args.record and not checker.problems and checker.failed == 0:
            _record_references(Path(args.references), args.size, args.seed,
                               workloads.WORKLOADS[args.workload], detail["records"])
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    versions = detail["records"][0].get("versions", {})
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "jobs": len(detail["records"]),
        "job_wall_s": [r.get("wall_s") for r in detail["records"]],
        "setup_samples": detail["setup_samples"],
        "env": {"nproc": nproc, "workers": workers, **versions},
        "reference": "committed" if reference else
                     "missing: outputs checked for agreement within this run only",
        "problems": checker.problems,
        "absent": absent,
        "spans": detail.get("spans"),
    }))
    print(json.dumps({
        "correct": not checker.problems and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
