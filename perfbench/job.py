"""One job of a workload, in a fresh process (launched by ``run.py``).

Set-up is everything up to "inputs ready": the imports, then
``scenario_platform(scenario, seed, jobs, cache)`` (the CLI reuses that
platform from its memo) or, for the service, loading its config.  The
job then times ``repro.__main__.main(argv)``, checks what it can see of
its outputs, and writes one JSON record to ``--out``::

    python3 perfbench/job.py --root . --workload stream --size full \\
        --seed 0 --workers 2 --work .perfbench_work/x --out x.json

``--setup-only`` stops after set-up; ``--trace`` wraps the layers
(``tracing.py``) and adds the per-layer metrics to the record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Optional

import workloads

REPORT_HEADER = re.compile(r"^== (\S+): .* ==$")


def split_reports(text: str) -> Dict[str, str]:
    """The CLI's stdout as ``{experiment id: sha256 of its report}``."""
    reports: Dict[str, list] = {}
    current: Optional[list] = None
    for line in text.splitlines():
        match = REPORT_HEADER.match(line)
        if match:
            current = reports.setdefault(match.group(1), [])
        if current is not None:
            current.append(line)
    return {
        name: hashlib.sha256("\n".join(lines).strip().encode()).hexdigest()
        for name, lines in reports.items()
    }


def _counters() -> Dict[str, float]:
    try:
        from repro.obs.metrics import get_registry

        return dict(get_registry().snapshot()["counters"])
    except (ImportError, AttributeError, KeyError):
        return {}


def _batch_samples(scenario: str, seed: int) -> int:
    """End-to-end RTT samples of the three datasets the batch run used
    (memo hits of the public scenario builders, after the timed run)."""
    from repro.harness.scenarios import scenario_longterm, scenario_ping, scenario_traces

    longterm = scenario_longterm(scenario, seed)
    pings = scenario_ping(scenario, seed)
    traces = scenario_traces(scenario, seed)
    return int(
        sum(len(t) for t in longterm.timelines.values())
        + sum(len(t) for t in pings.timelines.values())
        + sum(e.rtt_ms.size for e in traces.entries.values())
    )


def _mesh_outcome(work: Path) -> Dict[str, object]:
    path = work / "checkpoints" / f"results-{workloads.MESH_CAMPAIGN}.json"
    body = path.read_bytes()
    results = json.loads(body)
    completeness = results.get("completeness", {})
    return {
        "digest": hashlib.sha256(body).hexdigest(),
        "samples": int(results["samples"]),
        "coverage": float(completeness.get("coverage", 0.0)),
        "missing": len(completeness.get("missing", [])),
    }


def run(args: argparse.Namespace) -> Dict[str, object]:
    root = Path(args.root).resolve()
    source = root / "src"
    sys.path.insert(0, str(source))
    import repro

    if source not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.__file__}, not {source}")

    size = workloads.SIZES[args.size]
    kind = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    argv = workloads.command(args.workload, size, args.seed, args.workers, work)

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    from repro.__main__ import main as cli_main

    if kind == "service":
        from repro.service import service_config_from_dict

        service_config_from_dict(json.loads(Path(argv[3]).read_text()))
    else:
        from repro.harness.scenarios import scenario_platform

        cache = None
        if kind == "batch":
            from repro.harness.engine import ArtifactCache

            cache = ArtifactCache(work / "cache")
        scenario_platform(size.scenario, args.seed, jobs=args.workers, cache=cache)
    record: Dict[str, object] = {"ready_mono": time.monotonic()}
    if args.setup_only:
        return record
    import numpy

    record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}

    stdout = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            record["rc"] = cli_main(argv)
    except Exception:
        record["error"] = traceback.format_exc()
    record["wall_s"] = time.perf_counter() - started
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    record["peak_rss_mb"] = (self_usage.ru_maxrss + child_usage.ru_maxrss) / 1024.0
    record["reports"] = split_reports(stdout.getvalue())
    counters = _counters()
    record["cache_counters"] = {
        key: counters[key] for key in ("cache.hit", "cache.miss") if key in counters
    }
    if record.get("rc") == 0:
        if kind == "batch":
            record["samples"] = _batch_samples(size.scenario, args.seed)
        elif kind == "stream":
            record["samples"] = int(counters.get("stream.records", 0))
        else:
            record["mesh"] = _mesh_outcome(work)
            record["mesh"]["outcome"] = stdout.getvalue().strip()
            record["samples"] = record["mesh"]["samples"]
    if recorder is not None:
        record["layers"] = tracing.layer_metrics(recorder, counters)
        record["absent"] = tracing.absent_metrics(recorder)
        record["spans_path"] = str(work / "spans.json")
        recorder.dump(record["spans_path"])
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    record = run(args)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
