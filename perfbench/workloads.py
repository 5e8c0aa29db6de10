"""The benchmark's workloads: what each one runs, at which size.

Every workload is a closed loop: one job is one complete command run
through the CLI entry point ``repro.__main__.main(argv)`` in a fresh
process, and the next job starts only after it ends.  Sizes: ``full`` is
the benchmark; ``tiny`` is the self-test's (small scenario, a one-cycle
65,536-pair mesh), which finishes in seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

WORKERS = 2
"""``--jobs`` / ``shards`` of every workload, capped at ``nproc``."""

BATCH_EXPERIMENTS: Tuple[str, ...] = (
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "congestion-norm", "localization", "link-classification", "fig9",
    "fig10a", "fig10b", "ext-loss", "ext-sharedinfra",
)
"""Every experiment except ``fig7``, which rebuilds datasets for minutes."""

STREAM_EXPERIMENTS: Tuple[str, ...] = ("fig3", "fig6", "congestion-norm", "localization")
"""What ``reproduce --stream`` serves (its default experiment list)."""

STREAM_MATCHES_BATCH: Tuple[str, ...] = ("fig3", "congestion-norm", "localization")
"""Stream reports that must equal batch byte for byte.  ``fig6`` is
exempt: its P-squared percentile estimates differ from batch within the
tolerance documented in ``repro/stream/operators.py``."""


@dataclass(frozen=True)
class Size:
    scenario: str
    mesh_pairs: int
    mesh_cycles: int
    rounds: int = 8
    block_pairs: int = 1024

    @property
    def mesh_units(self) -> int:
        return -(-self.mesh_pairs // self.block_pairs) * self.mesh_cycles

    @property
    def mesh_samples(self) -> int:
        return self.mesh_pairs * self.rounds * self.mesh_cycles


SIZES: Dict[str, Size] = {
    "full": Size(scenario="default", mesh_pairs=1_000_000, mesh_cycles=8),
    "tiny": Size(scenario="small", mesh_pairs=65_536, mesh_cycles=1),
}

WORKLOADS: Dict[str, str] = {
    "batch-cold": "batch",
    "stream": "stream",
    "service-mesh": "service",
}
"""Workload name -> kind."""

MESH_CAMPAIGN = "mesh"


def expected_reports(workload: str) -> Tuple[str, ...]:
    kind = WORKLOADS[workload]
    if kind == "batch":
        return BATCH_EXPERIMENTS
    if kind == "stream":
        return STREAM_EXPERIMENTS
    return ()


def service_config(size: Size, seed: int, workers: int,
                   checkpoint_dir: Path) -> Dict[str, object]:
    """The ``service run`` config: one mesh campaign, cycles back to back.

    ``cadence_s`` is compressed (not ``time_scale``, which multiplies the
    cadence) so the next cycle is due as soon as one ends: the run
    measures capacity, not the schedule.
    """
    return {
        "scenario": size.scenario,
        "seed": seed,
        "checkpoint_dir": str(checkpoint_dir),
        "time_scale": 1.0,
        "campaigns": [{
            "name": MESH_CAMPAIGN,
            "kind": "mesh",
            "cadence_s": 0.001,
            "rounds_per_cycle": size.rounds,
            "cycles": size.mesh_cycles,
            "shards": workers,
            "queue_units": 4,
            "checkpoint_every": 256,
            "mesh": {
                "pairs": size.mesh_pairs,
                "block_pairs": size.block_pairs,
                "rounds_per_cycle": size.rounds,
                "seed": seed,
            },
        }],
    }


def command(workload: str, size: Size, seed: int, workers: int, work: Path) -> List[str]:
    """The CLI argv of one job; ``work`` holds its caches and checkpoints."""
    kind = WORKLOADS[workload]
    if kind == "batch":
        return ["reproduce", "--scenario", size.scenario, "--seed", str(seed),
                "--jobs", str(workers), "--cache-dir", str(work / "cache"),
                "--experiments", ",".join(BATCH_EXPERIMENTS)]
    if kind == "stream":
        return ["reproduce", "--stream", "--scenario", size.scenario,
                "--seed", str(seed), "--jobs", str(workers),
                "--checkpoint-dir", str(work / "checkpoints")]
    config = work / "service.json"
    config.write_text(json.dumps(
        service_config(size, seed, workers, work / "checkpoints"), indent=2) + "\n")
    return ["service", "run", "--config", str(config), "--port", "0",
            "--checkpoint-dir", str(work / "checkpoints")]
