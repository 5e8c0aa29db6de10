"""One named campaign as a durable, resumable unit of work.

A campaign is a *driver* (how to build cycle ``c``'s source and how to
summarize the operator at the end) plus a :class:`Campaign` runtime
that owns the incremental operator across cycles, gates every unit on
pause/drain, checkpoints at unit boundaries, and writes the final
results as canonical JSON.

Determinism contract: cycle ``c`` of any campaign feeds the operator
exactly the grid rounds ``[c*W, (c+1)*W)`` -- the platform drivers cut
them out of the full per-pair timelines with
:class:`~repro.stream.source.WindowedSource` (identical RNG draws to
the batch pipeline), the mesh driver generates them from a stateless
counter hash.  The incremental operators carry their cross-cycle state
internally, so the concatenation of all cycles is bit-identical to one
uninterrupted feed -- and so is any kill/restart replay from a
checkpoint, which is the service's durability story.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.datasets.longterm import LongTermConfig
from repro.datasets.shortterm import ShortTermConfig
from repro.faults.completeness import DataCompleteness, MissingUnit
from repro.faults.plane import SupervisionPolicy
from repro.measurement.platform import MeasurementPlatform
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.service.checkpoint import CampaignCheckpointStore, campaign_fingerprint
from repro.service.config import CampaignConfig
from repro.stream.mesh import (
    MeshConfig,
    MeshStatsOperator,
    SyntheticMeshSource,
    mesh_results,
)
from repro.stream.operators import CongestionWindowOperator, PathStatsOperator
from repro.stream.source import (
    LongTermTraceSource,
    PingSource,
    ShardedSource,
    StreamUnit,
    WindowedSource,
)

__all__ = ["Campaign", "driver_for", "MeshDriver", "TraceDriver", "PingDriver"]

_LOG = get_logger("repro.service.campaign")


class MeshDriver:
    """Cycles over the synthetic mesh (unbounded grid, O(1) state)."""

    kind = "mesh"

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.mesh = config.mesh if config.mesh is not None else MeshConfig()
        self.total_cycles: Optional[int] = config.cycles

    def fingerprint_parts(self) -> tuple:
        return (self.config,)

    def source_for_cycle(self, cycle: int) -> SyntheticMeshSource:
        return SyntheticMeshSource(self.mesh, cycle=cycle)

    def make_operator(self) -> MeshStatsOperator:
        return MeshStatsOperator()

    def results(
        self, operator: MeshStatsOperator, cycles_done: int
    ) -> Dict[str, object]:
        return mesh_results(operator, cycles_done)


class TraceDriver:
    """Cycles over the long-term traceroute mesh (the 3-hour campaign)."""

    kind = "trace"

    def __init__(
        self,
        config: CampaignConfig,
        platform: MeasurementPlatform,
        dataset_config: Optional[LongTermConfig] = None,
    ) -> None:
        self.config = config
        self.platform = platform
        self.dataset_config = dataset_config or LongTermConfig()
        self.source = LongTermTraceSource(platform, self.dataset_config)
        self.grid = self.source.grid
        window = config.rounds_per_cycle
        horizon = -(-self.grid.rounds // window)
        self.total_cycles: Optional[int] = (
            min(horizon, config.cycles) if config.cycles is not None else horizon
        )

    def fingerprint_parts(self) -> tuple:
        return (self.config, self.platform.config, self.dataset_config)

    def source_for_cycle(self, cycle: int) -> WindowedSource:
        window = self.config.rounds_per_cycle
        low = cycle * window
        return WindowedSource(self.source, low, min(low + window, self.grid.rounds))

    def make_operator(self) -> PathStatsOperator:
        return PathStatsOperator(period_hours=self.grid.period_hours)

    def results(
        self, operator: PathStatsOperator, cycles_done: int
    ) -> Dict[str, object]:
        summaries = operator.finalize()
        by_version: Dict[int, Dict[str, float]] = {}
        for key, summary in summaries.items():
            entry = by_version.setdefault(
                key[2],
                {"pairs": 0, "changes": 0, "unique_paths": 0, "stable_pairs": 0},
            )
            entry["pairs"] += 1
            entry["changes"] += summary.changes
            entry["unique_paths"] += summary.unique_paths
            if (
                summary.popular_prevalence is not None
                and summary.popular_prevalence >= 0.99
            ):
                entry["stable_pairs"] += 1
        return {
            "cycles": int(cycles_done),
            "rounds": int(min(cycles_done * self.config.rounds_per_cycle,
                              self.grid.rounds)),
            "versions": {
                str(version): by_version[version] for version in sorted(by_version)
            },
        }


class PingDriver:
    """Cycles over the short-term ping campaign (the 15-minute cadence)."""

    kind = "ping"

    def __init__(
        self,
        config: CampaignConfig,
        platform: MeasurementPlatform,
        dataset_config: Optional[ShortTermConfig] = None,
    ) -> None:
        self.config = config
        self.platform = platform
        self.dataset_config = dataset_config or ShortTermConfig()
        self.source = PingSource(platform, self.dataset_config)
        self.grid = self.source.grid
        window = config.rounds_per_cycle
        horizon = -(-self.grid.rounds // window)
        self.total_cycles: Optional[int] = (
            min(horizon, config.cycles) if config.cycles is not None else horizon
        )

    def fingerprint_parts(self) -> tuple:
        return (self.config, self.platform.config, self.dataset_config)

    def source_for_cycle(self, cycle: int) -> WindowedSource:
        window = self.config.rounds_per_cycle
        low = cycle * window
        return WindowedSource(self.source, low, min(low + window, self.grid.rounds))

    def make_operator(self) -> CongestionWindowOperator:
        # Whole-campaign window: verdicts match the batch detector's.
        return CongestionWindowOperator(
            period_hours=self.grid.period_hours, window_rounds=self.grid.rounds
        )

    def results(
        self, operator: CongestionWindowOperator, cycles_done: int
    ) -> Dict[str, object]:
        verdicts = operator.verdicts()
        versions: Dict[str, object] = {}
        for version in (4, 6):
            stats = operator.population_stats(verdicts, version)
            if stats.pairs:
                versions[str(version)] = {
                    "pairs": stats.pairs,
                    "spread_exceeds": stats.spread_exceeds,
                    "congested": stats.congested,
                }
        return {
            "cycles": int(cycles_done),
            "rounds": int(min(cycles_done * self.config.rounds_per_cycle,
                              self.grid.rounds)),
            "versions": versions,
        }


def driver_for(
    config: CampaignConfig,
    platform: Optional[MeasurementPlatform] = None,
    longterm_config: Optional[LongTermConfig] = None,
    shortterm_config: Optional[ShortTermConfig] = None,
):
    """The driver matching a campaign config's kind.

    ``longterm_config``/``shortterm_config`` shape the platform
    campaigns' measurement grids (the supervisor passes the scenario's;
    defaults are paper scale and need a platform window to match).
    """
    if config.kind == "mesh":
        return MeshDriver(config)
    if platform is None:
        raise ValueError(
            f"campaign {config.name!r} (kind {config.kind!r}) needs a platform"
        )
    if config.kind == "trace":
        return TraceDriver(config, platform, longterm_config)
    if config.kind == "ping":
        return PingDriver(config, platform, shortterm_config)
    raise ValueError(f"unknown campaign kind {config.kind!r}")


class Campaign:
    """The durable runtime of one named campaign.

    Threading model: ``run_cycle`` executes on a supervisor executor
    thread; ``pause``/``resume``/``request_drain`` are called from HTTP
    handler threads and the signal path, and only touch
    :class:`threading.Event` flags that the cycle loop polls at unit
    boundaries.  The campaign never blocks mid-unit: pause stalls the
    consumer (bounded shard queues then stall the producers -- the
    backpressure made visible in ``/metrics``), drain checkpoints at
    the boundary and returns.
    """

    def __init__(
        self,
        config: CampaignConfig,
        driver,
        checkpoint_dir: Path,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> None:
        self.config = config
        self.driver = driver
        self.supervision = supervision
        self.completeness = DataCompleteness()
        self.fingerprint = campaign_fingerprint(*driver.fingerprint_parts())
        self.store = CampaignCheckpointStore(
            checkpoint_dir, config.name, self.fingerprint
        )
        self.operator = driver.make_operator()
        self.cycle = 0
        self.units_done = 0
        self.results: Optional[Dict[str, object]] = None
        self.state = "idle"
        self._pause = threading.Event()
        self._pause.set()  # set = running allowed
        self._drain = threading.Event()

    # ------------------------------------------------------------------
    # Control surface (HTTP handler / signal threads)
    # ------------------------------------------------------------------

    @property
    def paused(self) -> bool:
        """Whether the pause gate is closed."""
        return not self._pause.is_set()

    @property
    def done(self) -> bool:
        """Whether the campaign has produced its final results."""
        return self.results is not None

    def pause(self) -> None:
        """Close the unit gate; the running cycle stalls at the next unit."""
        self._pause.clear()
        self._set_board(state="paused" if self.state != "done" else "done")
        _LOG.info("service.campaign.paused", campaign=self.config.name)

    def resume(self) -> None:
        """Reopen the unit gate."""
        self._pause.set()
        if self.state == "paused":
            self._set_board(state="idle")
        _LOG.info("service.campaign.resumed", campaign=self.config.name)

    def request_drain(self) -> None:
        """Ask the cycle loop to checkpoint and stop at the next boundary."""
        self._drain.set()

    def mark_degraded(self, reason: str) -> None:
        """Park the campaign: crash-looping or hung, but not fatal.

        A degraded campaign stops being scheduled; its state (and the
        reason) is visible via ``GET /campaigns`` and ``top``, and the
        rest of the service keeps running.
        """
        obs_metrics.counter("campaign.degraded").inc()
        obs_metrics.counter(
            f"campaign.degraded{{campaign={self.config.name}}}"
        ).inc()
        self._set_board(state="degraded", reason=reason)
        _LOG.warning(
            "service.campaign.degraded",
            campaign=self.config.name,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def restore(self) -> bool:
        """Adopt the last checkpoint if one matches; ``True`` if resumed."""
        payload = self.store.load()
        if payload is None:
            self._set_board(state="idle", cycle=0, units_done=0)
            return False
        self.cycle = int(payload["cycle"])
        self.units_done = int(payload["units_done"])
        self.operator = payload["operator"]
        self.completeness.adopt(payload.get("completeness"))
        results = payload.get("results")
        if results is not None:
            self.results = results
            self.state = "done"
        self._set_board(
            state="done" if self.done else "idle",
            cycle=self.cycle,
            units_done=self.units_done,
        )
        _LOG.info(
            "service.campaign.resumed_from_checkpoint",
            campaign=self.config.name,
            cycle=self.cycle,
            units_done=self.units_done,
            done=self.done,
        )
        return True

    @property
    def results_path(self) -> Path:
        """Where the finished campaign's canonical JSON results land."""
        return self.store.directory / f"results-{self.config.name}.json"

    def _write_results(self) -> None:
        self.store.directory.mkdir(parents=True, exist_ok=True)
        body = json.dumps(self.results, sort_keys=True, indent=2) + "\n"
        self.results_path.write_text(body)

    # ------------------------------------------------------------------
    # The cycle loop (executor thread)
    # ------------------------------------------------------------------

    def _set_board(self, **fields: object) -> None:
        if "state" in fields:
            self.state = str(fields["state"])
        obs_live.get_status().set_campaign(
            self.config.name, fingerprint=self.fingerprint, **fields
        )

    def _wait_gate(self) -> bool:
        """Block while paused; ``False`` when drain should win instead."""
        while not self._pause.is_set():
            if self._drain.is_set():
                return False
            self._pause.wait(0.05)
        return not self._drain.is_set()

    def _feed(self, unit: StreamUnit) -> None:
        self.operator.start_unit(unit.key, unit.meta)
        if unit.columns is not None and hasattr(self.operator, "observe_columns"):
            if len(unit.columns):
                self.operator.observe_columns(unit.columns)
        else:
            for record in unit.iter_records():
                self.operator.observe(record)

    def _units(self, source) -> Iterator[object]:
        # The offset view maps this cycle's unit indices into the
        # campaign-wide range (cycle sources all have the same length).
        return ShardedSource(
            source,
            self.config.shards,
            self.config.queue_units,
            supervision=self.supervision,
            completeness=self.completeness.offset_view(
                self.cycle * len(source)
            ),
        ).iter_from(self.units_done)

    def _coverage_fields(self) -> Dict[str, object]:
        """Board fields surfacing an incomplete campaign's coverage."""
        if self.completeness.complete:
            return {}
        return {
            "coverage": round(self.completeness.coverage(), 6),
            "units_missing": self.completeness.missing_count,
        }

    def run_cycle(self) -> str:
        """Ingest one cycle; returns ``completed|finished|drained|skipped``.

        Resumes from ``self.units_done`` within the cycle (non-zero only
        right after a mid-cycle restore), checkpoints every
        ``checkpoint_every`` units and always at the drain boundary.
        """
        if self.done:
            return "skipped"
        name = self.config.name
        source = self.driver.source_for_cycle(self.cycle)
        total_units = len(source)
        units_counter = obs_metrics.counter(f"service.units{{campaign={name}}}")
        records_counter = obs_metrics.counter(f"service.records{{campaign={name}}}")
        missing_counter = obs_metrics.counter(
            f"service.units_missing{{campaign={name}}}"
        )
        self._set_board(
            state="running",
            cycle=self.cycle,
            units_done=self.units_done,
            units_total=total_units,
        )
        iterator = self._units(source)
        try:
            while True:
                if not self._wait_gate():
                    self.store.save(
                        self.cycle, self.units_done, self.operator,
                        completeness=self.completeness.state(),
                    )
                    self._set_board(
                        state="drained", units_done=self.units_done,
                        **self._coverage_fields(),
                    )
                    _LOG.info(
                        "service.campaign.drained",
                        campaign=name,
                        cycle=self.cycle,
                        units_done=self.units_done,
                    )
                    return "drained"
                try:
                    unit = next(iterator)
                except StopIteration:
                    break
                if isinstance(unit, MissingUnit):
                    # A quarantined shard's slot: accounted by the
                    # completeness accountant, counted here, and the
                    # unit offset still advances so checkpoint/resume
                    # indices stay aligned with unit indices.
                    missing_counter.inc()
                else:
                    self._feed(unit)
                    self.completeness.deliver(
                        self.cycle * total_units + self.units_done
                    )
                    units_counter.inc()
                    records_counter.inc(unit.record_count)
                self.units_done += 1
                if (
                    self.units_done % self.config.checkpoint_every == 0
                    and self.units_done < total_units
                ):
                    self.store.save(
                        self.cycle, self.units_done, self.operator,
                        completeness=self.completeness.state(),
                    )
                    self._set_board(
                        units_done=self.units_done, **self._coverage_fields()
                    )
        finally:
            iterator.close()  # drains shard workers deterministically

        self.cycle += 1
        self.units_done = 0
        obs_metrics.counter(f"service.cycles{{campaign={name}}}").inc()
        total = self.driver.total_cycles
        if total is not None and self.cycle >= total:
            self.results = self.driver.results(self.operator, self.cycle)
            # Every finished campaign reports its coverage -- 1.0 with
            # an empty missing list on a clean (or fully recovered) run,
            # so a healed faulty run's results are byte-identical to the
            # fault-free run's, and the deficit is exact otherwise.
            self.results["completeness"] = self.completeness.report()
            self.store.save(
                self.cycle, 0, self.operator, results=self.results,
                completeness=self.completeness.state(),
            )
            self._write_results()
            self._set_board(
                state="done", cycle=self.cycle, units_done=0,
                **self._coverage_fields(),
            )
            _LOG.info(
                "service.campaign.finished", campaign=name, cycles=self.cycle
            )
            return "finished"
        self.store.save(
            self.cycle, 0, self.operator,
            completeness=self.completeness.state(),
        )
        self._set_board(
            state="idle", cycle=self.cycle, units_done=0,
            **self._coverage_fields(),
        )
        return "completed"
