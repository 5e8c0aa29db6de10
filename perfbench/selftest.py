"""Self-test of the benchmark at tiny size (small scenario, one-cycle
65,536-pair mesh); finishes in about a minute::

    python3 perfbench/selftest.py

It checks, for every workload of ``BENCHMARK.json``:

- untraced and traced runs exit 0 and end with the result line, which
  emits every named metric with its unit and a finite value, and passes
  its output checks;
- a deliberately altered reference digest shows up as failed operations,
  not as a crash or a pass;
- in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.

Exits 0 when every check holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
SEED = 0


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT,
         script: Optional[Path] = None) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script or HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> Optional[dict]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def check_metrics(spec: dict, workload: str, trace: int, references: Path,
                  errors: List[str]) -> None:
    label = f"{workload} --trace {trace}"
    proc = _run(workload, trace, "--references", str(references))
    result = _result(proc)
    if result is None:
        errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: outputs failed their checks: {proc.stdout[-1500:]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{label}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for entry in wanted:
        got = metrics.get(entry["name"])
        if got is None:
            continue
        if got.get("unit") != entry["unit"]:
            errors.append(f"{label}: {entry['name']} unit {got.get('unit')!r}, "
                          f"expected {entry['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{label}: {entry['name']} value {got.get('value')!r}")


def check_altered_reference(workload: str, references: Path, errors: List[str]) -> None:
    table = json.loads(references.read_text())
    entry = table["tiny"][str(SEED)]
    if workload == "service-mesh":
        entry["mesh"] = "0" * 64
    elif workload == "stream":
        entry["stream"]["fig6"] = "0" * 64
    else:
        entry["batch"]["table1"] = "0" * 64
    altered = WORK / f"altered-{workload}.json"
    altered.write_text(json.dumps(table))
    proc = _run(workload, 0, "--references", str(altered))
    result = _result(proc)
    if result is None:
        errors.append(f"altered reference, {workload}: crashed "
                      f"(exit {proc.returncode})\n{proc.stderr[-1500:]}")
    elif result["correct"] or result["failed"] < 1:
        errors.append(f"altered reference, {workload}: passed ({result})")


def check_bare_directory(errors: List[str]) -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("stream", 0, cwd=bare, script=bare / HERE.name / "run.py")
    if proc.returncode == 0 or _result(proc) is not None:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    references = WORK / "references.json"
    errors: List[str] = []
    try:
        for entry in spec["workloads"]:
            workload = entry["name"]
            proc = _run(workload, 0, "--references", str(references), "--record")
            if _result(proc) is None:
                errors.append(f"{workload}: recording references failed\n"
                              f"{proc.stderr[-1500:]}")
                continue
            for trace in (0, 1):
                check_metrics(spec, workload, trace, references, errors)
            check_altered_reference(workload, references, errors)
        check_bare_directory(errors)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
