"""Pull-based record sources for the streaming engine.

A *stream unit* is one (src, dst, version) pair's campaign: its records
in round order plus any static per-pair context (the localization
window's hop metadata).  Sources yield units one at a time -- each unit
is built on demand with the exact batch builders from
:mod:`repro.datasets` (same named RNG streams, same epoch walk), so a
record stream replayed through the operators carries bit-identical
sample values -- but only ever holds *one* pair's timeline in memory,
never the whole-campaign dict the batch datasets materialize.

Sources:

- :class:`LongTermTraceSource` / :class:`PingSource` /
  :class:`SegmentTraceSource` -- units sampled live from a
  :class:`~repro.measurement.platform.MeasurementPlatform`.
- :class:`LongTermFileSource` -- units replayed from a persisted NPZ
  archive via :func:`repro.datasets.io.iter_longterm`.
- :class:`ShardedSource` -- fans a platform source's units across
  forked worker processes (the :func:`repro.datasets.parallel.fork_map`
  model: fork inheritance in, pickled results + metric deltas out) with
  a **bounded** queue per shard, so a slow consumer blocks the producers
  instead of letting them buffer unboundedly.  One worker function and
  one merge loop serve both failure policies: *fail-fast* (the first
  worker error, failed unit or dead worker raises :class:`ShardError`)
  and *supervised* (restart with backoff, quarantine, and
  :class:`~repro.faults.completeness.MissingUnit` markers).  It forks
  when there is more than one shard or a supervision policy, and the
  platform has ``fork``; otherwise one in-process loop builds the units
  under the same policies.

Because every unit draws from its own named RNG stream, sharding and
resume order never influence any random draw: a sharded stream, a serial
stream, and the batch pipeline all see the same sample values.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from queue import Empty as _QueueEmpty
from queue import Full as _QueueFull
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datasets.columnar import CampaignKernels
from repro.faults.completeness import (
    CompletenessView,
    DataCompleteness,
    MissingUnit,
)
from repro.faults.plane import (
    InjectedFault,
    SupervisionPolicy,
    backoff_delay,
    get_plane,
)
from repro.datasets.longterm import LongTermConfig, _build_timeline
from repro.datasets.shortterm import (
    SegmentSeries,
    ShortTermConfig,
    _build_ping_timeline,
    _build_trace_entry,
)
from repro.datasets.timeline import PingTimeline, TraceTimeline
from repro.measurement.platform import MeasurementPlatform
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.stream.columns import PingColumns, SegmentColumns, TraceColumns
from repro.stream.operators import SegmentMeta
from repro.stream.records import PingRecord, SegmentRecord, TracerouteRecord, UnitKey
from repro.topology.cdn import Server

__all__ = [
    "StreamUnit",
    "trace_unit",
    "ping_unit",
    "segment_unit",
    "LongTermTraceSource",
    "PingSource",
    "SegmentTraceSource",
    "LongTermFileSource",
    "WindowedSource",
    "ShardedSource",
    "ShardError",
    "MissingUnit",
]


@dataclass
class StreamUnit:
    """One pair-campaign's payload, in round order.

    The payload is either ``records`` (per-round objects, the original
    wire shape) or ``columns`` (the same rounds as parallel arrays, which
    the vectorized operators consume wholesale) -- never both.  ``meta``
    carries the static per-pair context an operator needs before the
    first record (only localization units have any); a unit with no
    payload and no meta is a placeholder for a pair the builders skipped
    (kept so unit indices stay aligned with the task list across
    checkpoint/resume).
    """

    key: UnitKey
    kind: str  # "trace" | "ping" | "segment"
    records: Tuple[object, ...]
    meta: Optional[SegmentMeta] = None
    columns: Optional[object] = None

    @property
    def record_count(self) -> int:
        """Rounds carried by this unit, whatever the payload shape."""
        if self.columns is not None:
            return len(self.columns)
        return len(self.records)

    def iter_records(self) -> Iterator[object]:
        """Per-round records, whatever the payload shape.

        Columnar units materialize records lazily; they are identical to
        the ones the object path would have carried.
        """
        if self.columns is not None:
            yield from self.columns.records()
        else:
            yield from self.records


def trace_unit(timeline: TraceTimeline, columnar: bool = False) -> StreamUnit:
    """Decompose one long-term timeline into a record unit."""
    key = (timeline.src_server_id, timeline.dst_server_id, int(timeline.version))
    if columnar:
        return StreamUnit(
            key=key, kind="trace", records=(),
            columns=TraceColumns.from_timeline(timeline),
        )
    times = timeline.times_hours.tolist()
    rtts = timeline.rtt_ms.tolist()
    outcomes = timeline.outcome.tolist()
    path_ids = timeline.path_id.tolist()
    paths = timeline.paths
    records = tuple(
        TracerouteRecord(
            src=key[0],
            dst=key[1],
            version=key[2],
            round_index=index,
            time_hours=times[index],
            rtt_ms=rtts[index],
            outcome=outcomes[index],
            as_path=paths[path_ids[index]] if path_ids[index] >= 0 else None,
        )
        for index in range(len(times))
    )
    return StreamUnit(key=key, kind="trace", records=records)


def ping_unit(timeline: PingTimeline, columnar: bool = False) -> StreamUnit:
    """Decompose one ping timeline into a record unit."""
    key = (timeline.src_server_id, timeline.dst_server_id, int(timeline.version))
    if columnar:
        return StreamUnit(
            key=key, kind="ping", records=(),
            columns=PingColumns.from_timeline(timeline),
        )
    times = timeline.times_hours.tolist()
    rtts = timeline.rtt_ms.tolist()
    records = tuple(
        PingRecord(
            src=key[0],
            dst=key[1],
            version=key[2],
            round_index=index,
            time_hours=times[index],
            rtt_ms=rtts[index],
        )
        for index in range(len(times))
    )
    return StreamUnit(key=key, kind="ping", records=records)


def segment_unit(
    key: UnitKey, entry: Optional[SegmentSeries], columnar: bool = False
) -> StreamUnit:
    """Decompose one per-hop series into a record unit (or a placeholder)."""
    if entry is None:
        return StreamUnit(key=key, kind="segment", records=())
    if columnar:
        meta = SegmentMeta(
            hop_addresses=entry.hop_addresses,
            segment_keys=entry.segment_keys,
            static_path=entry.static_path,
        )
        return StreamUnit(
            key=key, kind="segment", records=(), meta=meta,
            columns=SegmentColumns.from_entry(key, entry),
        )
    times = entry.times_hours.tolist()
    columns = entry.hop_rtt_ms.T.tolist()
    records = tuple(
        SegmentRecord(
            src=key[0],
            dst=key[1],
            version=key[2],
            round_index=index,
            time_hours=times[index],
            hop_rtt_ms=tuple(columns[index]),
        )
        for index in range(len(times))
    )
    meta = SegmentMeta(
        hop_addresses=entry.hop_addresses,
        segment_keys=entry.segment_keys,
        static_path=entry.static_path,
    )
    return StreamUnit(key=key, kind="segment", records=records, meta=meta)


def _version_tasks(
    pairs: Sequence[Tuple[Server, Server]], versions
) -> List[Tuple[Server, Server, object]]:
    """The batch builders' (src, dst, version) task list, in their order."""
    return [
        (src, dst, version)
        for src, dst in pairs
        for version in versions
        if src.address(version) is not None and dst.address(version) is not None
    ]


class _PlatformSource:
    """Shared plumbing of the live platform-backed sources."""

    kind = "unit"

    def __init__(
        self,
        platform: MeasurementPlatform,
        trim_realizations: bool,
        columnar: bool = True,
    ) -> None:
        self.platform = platform
        self.trim_realizations = trim_realizations
        self.columnar = columnar
        self.kernels: Optional[CampaignKernels] = None
        self.tasks: List[Tuple[Server, Server, object]] = []

    def __len__(self) -> int:
        return len(self.tasks)

    def _build(self, src: Server, dst: Server, version) -> StreamUnit:
        raise NotImplementedError

    def key_hint(self, index: int) -> Tuple[int, int, int]:
        """The unit's logical key without building it (deficit reports)."""
        src, dst, version = self.tasks[index]
        return (src.server_id, dst.server_id, int(version))

    def unit_at(self, index: int) -> StreamUnit:
        """Build the unit of one task (random access, for shards/resume)."""
        src, dst, version = self.tasks[index]
        unit = self._build(src, dst, version)
        if self.trim_realizations:
            # Bounded-memory invariant: a unit leaves no realization
            # cache behind.  The next unit of the same pair rebuilds its
            # (cheap, deterministic) realizations.
            self.platform.drop_realizations(src.server_id, dst.server_id)
            if self.kernels is not None:
                self.kernels.drop_pair(src.server_id, dst.server_id)
        obs_metrics.counter("stream.units").inc()
        return unit

    def __iter__(self) -> Iterator[StreamUnit]:
        for index in range(len(self.tasks)):
            yield self.unit_at(index)


class LongTermTraceSource(_PlatformSource):
    """Long-term traceroute units sampled live from the platform."""

    kind = "trace"

    def __init__(
        self,
        platform: MeasurementPlatform,
        config: Optional[LongTermConfig] = None,
        pairs: Optional[Sequence[Tuple[Server, Server]]] = None,
        trim_realizations: bool = True,
        columnar: bool = True,
    ) -> None:
        super().__init__(platform, trim_realizations, columnar)
        self.config = config or LongTermConfig()
        self.grid = self.config.grid()
        if self.grid.end_hour > platform.config.duration_hours + 1e-9:
            raise ValueError(
                f"campaign covers {self.grid.end_hour:.0f}h but the platform "
                f"simulates only {platform.config.duration_hours:.0f}h"
            )
        if pairs is None:
            pairs = platform.server_pairs(dual_stack_only=self.config.dual_stack_only)
        self.tasks = _version_tasks(list(pairs), self.config.versions)
        if self.columnar:
            self.kernels = CampaignKernels(platform, self.grid)

    def _build(self, src: Server, dst: Server, version) -> StreamUnit:
        if self.kernels is not None:
            timeline = self.kernels.build_trace_timeline(src, dst, version)
            return trace_unit(timeline, columnar=True)
        timeline = _build_timeline(self.platform, src, dst, version, self.grid)
        return trace_unit(timeline)


class PingSource(_PlatformSource):
    """Short-term ping units sampled live from the platform."""

    kind = "ping"

    def __init__(
        self,
        platform: MeasurementPlatform,
        config: Optional[ShortTermConfig] = None,
        pairs: Optional[Sequence[Tuple[Server, Server]]] = None,
        trim_realizations: bool = True,
        columnar: bool = True,
    ) -> None:
        super().__init__(platform, trim_realizations, columnar)
        self.config = config or ShortTermConfig()
        self.grid = self.config.ping_grid()
        if self.grid.end_hour > platform.config.duration_hours + 1e-9:
            raise ValueError(
                f"campaign covers {self.grid.end_hour:.0f}h but the platform "
                f"simulates only {platform.config.duration_hours:.0f}h"
            )
        if pairs is None:
            pairs = platform.server_pairs(dual_stack_only=False)
        self.tasks = _version_tasks(list(pairs), self.config.versions)
        self._times = self.grid.times()
        if self.columnar:
            self.kernels = CampaignKernels(platform, self.grid)

    def _build(self, src: Server, dst: Server, version) -> StreamUnit:
        if self.kernels is not None:
            timeline = self.kernels.build_ping_timeline(
                src, dst, version, self.config.congestion_coupled_loss
            )
            return ping_unit(timeline, columnar=True)
        timeline = _build_ping_timeline(
            self.platform, src, dst, version, self._times, self.config
        )
        return ping_unit(timeline)


class SegmentTraceSource(_PlatformSource):
    """Per-hop traceroute units for the pairs flagged by the ping analysis."""

    kind = "segment"

    def __init__(
        self,
        platform: MeasurementPlatform,
        pairs: Sequence[Tuple[Server, Server]],
        config: Optional[ShortTermConfig] = None,
        trim_realizations: bool = True,
        columnar: bool = True,
    ) -> None:
        super().__init__(platform, trim_realizations, columnar)
        self.config = config or ShortTermConfig()
        self.grid = self.config.trace_grid()
        if self.grid.end_hour > platform.config.duration_hours + 1e-9:
            raise ValueError(
                f"campaign covers {self.grid.end_hour:.0f}h but the platform "
                f"simulates only {platform.config.duration_hours:.0f}h"
            )
        self.tasks = _version_tasks(list(pairs), self.config.versions)
        self._times = self.grid.times()

    def _build(self, src: Server, dst: Server, version) -> StreamUnit:
        # The per-hop builder only runs for the (few) flagged pairs, so
        # it stays on the object path; only the payload shape changes.
        entry = _build_trace_entry(
            self.platform, src, dst, version, self._times, self.grid
        )
        return segment_unit(
            (src.server_id, dst.server_id, int(version)), entry, self.columnar
        )


class LongTermFileSource:
    """Long-term units replayed one at a time from a persisted NPZ archive."""

    kind = "trace"

    def __init__(self, path, columnar: bool = False) -> None:
        self.path = path
        self.columnar = columnar

    def __iter__(self) -> Iterator[StreamUnit]:
        from repro.datasets.io import iter_longterm

        for timeline in iter_longterm(self.path):
            obs_metrics.counter("stream.units").inc()
            yield trace_unit(timeline, columnar=self.columnar)


class WindowedSource:
    """Restrict a platform source's units to grid rounds ``[low, high)``.

    The campaign service feeds operators one *cycle* (a contiguous slice
    of the measurement grid) at a time.  Every per-(pair, epoch) RNG
    stream is position-fixed in the full grid, so the wrapped source
    still builds each pair's whole-campaign timeline -- identical draws
    to the batch pipeline -- and the window is cut out afterwards.  The
    concatenation of a campaign's windows therefore feeds an operator
    exactly the full timeline, bit for bit, however the grid is cut into
    cycles (the incremental operators carry their cross-boundary state
    in ``state.last`` / ring windows / P² estimators).

    Random access (``unit_at``) and ``__len__`` delegate to the wrapped
    source, so a windowed source shards and resumes exactly like the
    source it wraps.
    """

    def __init__(self, source, low: int, high: int) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid window [{low}, {high})")
        self.source = source
        self.low = int(low)
        self.high = int(high)

    @property
    def kind(self) -> str:
        """The wrapped source's unit kind."""
        return self.source.kind

    def __len__(self) -> int:
        return len(self.source)

    def key_hint(self, index: int):
        """Delegate the unit's logical key to the wrapped source."""
        return self.source.key_hint(index)

    def unit_at(self, index: int) -> StreamUnit:
        """The wrapped source's unit, cut down to the window's rounds."""
        unit = self.source.unit_at(index)
        if unit.columns is not None:
            return StreamUnit(
                key=unit.key,
                kind=unit.kind,
                records=(),
                meta=unit.meta,
                columns=unit.columns.slice(self.low, self.high),
            )
        return StreamUnit(
            key=unit.key,
            kind=unit.kind,
            records=unit.records[self.low:self.high],
            meta=unit.meta,
        )

    def __iter__(self) -> Iterator[StreamUnit]:
        for index in range(len(self.source)):
            yield self.unit_at(index)


# ---------------------------------------------------------------------------
# Sharded fan-out: one worker, one merge loop, two failure policies
# ---------------------------------------------------------------------------

_FAILED = "__unit_failed__"

_POLL_S = SupervisionPolicy().poll_s
"""How often a fail-fast merge checks that the shard it waits on is
alive (the supervision policy's default poll interval)."""


class ShardError(RuntimeError):
    """A shard worker died; carries the shard's traceback and metrics.

    ``metrics_delta`` is the failing worker's registry delta since its
    last completed unit -- the counters/histograms the doomed unit
    managed to record before the exception -- so a post-mortem sees how
    far into the unit the shard got, not just the traceback.
    """

    def __init__(self, shard: int, worker_traceback: str, metrics_delta) -> None:
        counters = (metrics_delta or {}).get("counters", {})
        context = (
            "; metrics delta: "
            + ", ".join(f"{name}={counters[name]:g}" for name in sorted(counters))
            if counters
            else ""
        )
        super().__init__(
            f"stream shard {shard} failed{context}\n{worker_traceback}"
        )
        self.shard = shard
        self.metrics_delta = metrics_delta or {}


def _inject(plane, index: int, attempt: int, registry, queue=None) -> None:
    """Fire the per-unit fault injectors scheduled for this attempt.

    Crash exits a worker process mid-unit (its counter is recomputed by
    the supervising merge -- an ``os._exit`` ships no registry delta);
    in-process (``queue`` is ``None``) it degrades to a retryable
    :class:`~repro.faults.plane.InjectedFault`.  Stall sleeps inside the
    unit's delta window; transient raises for the retry loop.

    A crash first flushes the queue's feeder thread: units the worker
    already handed off must not be lost to the exit, or the merge would
    misattribute the crash to an earlier index and the attempt-gated
    schedule would lose determinism.
    """
    if plane is None:
        return
    if plane.crash(index, attempt):
        if queue is None:
            registry.counter("faults.injected").inc()
            registry.counter("faults.injected{kind=crash}").inc()
            raise InjectedFault("crash", f"unit {index} (in-process)")
        queue.close()
        queue.join_thread()
        os._exit(41)
    stall = plane.stall_s_for(index, attempt)
    if stall > 0:
        registry.counter("faults.injected").inc()
        registry.counter("faults.injected{kind=stall}").inc()
        time.sleep(stall)
    if plane.transient(index, attempt):
        registry.counter("faults.injected").inc()
        registry.counter("faults.injected{kind=transient}").inc()
        raise InjectedFault("transient", f"unit {index} attempt {attempt}")


def _build(source, index: int, attempt: int, budget: int, plane, registry,
           queue=None):
    """Build one unit in at most ``budget`` attempts numbered from ``attempt``.

    Returns ``(unit, None)``, or ``(None, exc)`` with the last attempt's
    exception once the budget is spent.
    """
    first = attempt
    while True:
        try:
            _inject(plane, index, attempt, registry, queue)
            return source.unit_at(index), None
        except Exception as exc:
            attempt += 1
            if attempt - first >= budget:
                return None, exc


def _worker(
    source,
    shard: int,
    shards: int,
    start: int,
    queue,
    stop,
    resume_from: int,
    resume_attempt: int,
    policy: Optional[SupervisionPolicy],
) -> None:
    """Build one shard's units and push them, with telemetry, in order.

    The queue is bounded, so ``put`` blocks when the consumer lags --
    that is the backpressure contract.  ``stop`` is the drain event: a
    consumer that abandons the stream sets it, and the worker exits at
    the next unit boundary (or ``put`` retry) instead of being
    terminated mid-write.  Counters incremented inside the builders
    travel back as per-unit registry snapshot deltas, exactly like
    :func:`repro.datasets.parallel.fork_map` workers.

    A unit whose build raises is reported as *failed* with its
    traceback and delta; under a ``policy`` it is first retried up to
    ``policy.unit_attempts`` times and fault injection is live.
    ``resume_from``/``resume_attempt`` let a restarted incarnation skip
    the stride prefix its predecessor already delivered and continue
    that unit's attempt numbering, which keeps the attempt-gated fault
    schedule deterministic across restarts.
    """
    registry = obs_metrics.get_registry()
    plane = get_plane() if policy is not None else None
    budget = policy.unit_attempts if policy is not None else 1
    baseline = registry.snapshot()

    def _put(item) -> bool:
        """Bounded put that gives up when the consumer has drained away."""
        while not stop.is_set():
            try:
                queue.put(item, timeout=0.1)
                return True
            except _QueueFull:
                continue
        return False

    try:
        for index in range(max(start + shard, resume_from), len(source), shards):
            if stop.is_set():
                return
            baseline = registry.snapshot()
            attempt = resume_attempt if index == resume_from else 0
            unit, error = _build(
                source, index, attempt, budget, plane, registry, queue
            )
            if error is None:
                item = ("unit", index, unit, registry.delta_since(baseline))
            else:
                failure = "".join(traceback.format_exception(
                    type(error), error, error.__traceback__
                ))
                item = (_FAILED, index, failure, registry.delta_since(baseline))
            if not _put(item):
                return
    except BaseException:  # surfaced to the merge, never swallowed
        _put(
            ("error", shard, traceback.format_exc(),
             registry.delta_since(baseline))
        )


class ShardedSource:
    """Fan a platform source's units across forked workers.

    Worker ``w`` of ``shards`` builds units ``start+w, start+w+shards,
    ...`` and pushes them into its own bounded queue (``queue_units``
    deep); one merge loop pops the queues round-robin in global unit
    order, so consumers see exactly the serial order.

    Which loop runs: the fan-out forks when ``shards > 1`` or a
    ``supervision`` policy is set, and the platform has ``fork`` --
    supervised runs fork even at one shard, so an injected crash kills
    a worker and never the caller.  Otherwise units are built in
    process, one at a time.

    Two failure policies, as branch points of the same loops:

    - **Fail-fast** (``supervision=None``): the first worker error,
      failed unit or dead worker raises :class:`ShardError` naming the
      shard (in process, the unit's own exception propagates).
    - **Supervised** (a :class:`~repro.faults.plane.SupervisionPolicy`):
      a dead or stalled worker is restarted with deterministic
      exponential backoff (bounded per shard); a shard that exhausts its
      restart budget is quarantined -- the merge keeps going and yields
      :class:`~repro.faults.completeness.MissingUnit` markers for the
      units that shard owned -- and a unit whose retries run out becomes
      a ``unit_failed`` marker.  Every miss is recorded in a
      :class:`DataCompleteness` accountant (consumers record
      deliveries).  In process, crash and stall degrade to retryable
      faults under a budget of ``max(unit_attempts, max_restarts + 1)``.

    Because units are independent pure functions of their index, any
    schedule of crashes and restarts that still delivers every index
    yields a stream byte-identical to the fault-free one.
    """

    def __init__(
        self,
        source,
        shards: int,
        queue_units: int = 4,
        supervision: Optional[SupervisionPolicy] = None,
        completeness: Optional["DataCompleteness | CompletenessView"] = None,
    ) -> None:
        if queue_units < 1:
            raise ValueError("queue_units must be positive")
        self.source = source
        self.shards = int(shards)
        self.queue_units = int(queue_units)
        self.supervision = supervision
        self.completeness = completeness or DataCompleteness()
        self.last_workers: List[multiprocessing.Process] = []
        """The worker processes of the most recent fan-out (diagnostics:
        after the iterator is exhausted or closed, all must be dead)."""

    @property
    def kind(self) -> str:
        """The wrapped source's unit kind."""
        return self.source.kind

    def __len__(self) -> int:
        return len(self.source)

    def iter_from(self, start: int = 0) -> Iterator[object]:
        """Yield units ``start..`` in order (or their missing markers).

        Live telemetry per unit: labeled per-shard queue-depth gauges and
        receive counters (``stream.queue_depth{shard=N}`` /
        ``stream.shard_units{shard=N}``), a ``stream.merge_lag`` gauge
        (units built by workers but not yet merged into the ordered
        stream), and status-board heartbeats -- the last time each
        shard delivered a unit -- for ``/status`` and the dashboard.
        """
        total = len(self.source)
        shards = max(1, min(self.shards, total - start))
        forks = shards > 1 or self.supervision is not None
        if forks and "fork" in multiprocessing.get_all_start_methods():
            yield from self._iter_forked(start, total, shards)
        else:
            yield from self._iter_in_process(start, total)

    def _missing(self, index: int, shard: int, reason: str) -> MissingUnit:
        """Record and return the marker for an undeliverable unit."""
        try:
            key = self.source.key_hint(index)
        except Exception:  # a source that cannot name an unbuilt unit
            key = None
        marker = MissingUnit(index=index, shard=shard, reason=reason, key=key)
        self.completeness.record_missing(marker)
        obs_metrics.counter("stream.units_missing").inc()
        return marker

    def _iter_in_process(self, start: int, total: int) -> Iterator[object]:
        """Build every unit in this process, under the same policies."""
        policy = self.supervision
        registry = obs_metrics.get_registry()
        status = obs_live.get_status()
        plane = get_plane() if policy is not None else None
        budget = (
            max(policy.unit_attempts, policy.max_restarts + 1)
            if policy is not None else 1
        )
        status.set_shards(1)
        units = registry.counter("stream.shard_units{shard=0}")
        for index in range(start, total):
            unit, error = _build(self.source, index, 0, budget, plane, registry)
            if error is None:
                units.inc()
                status.shard_unit(0)
                yield unit
            elif policy is None:
                raise error
            else:
                yield self._missing(index, 0, "unit_failed")

    def _iter_forked(
        self, start: int, total: int, shards: int
    ) -> Iterator[object]:
        """The merge loop over forked shard workers.

        Waits on each unit's shard with a liveness poll.  A worker
        error, a failed unit, a dead worker and (supervised only) a
        stalled one are the failure branch points: fail-fast raises
        :class:`ShardError`; supervised restarts, backs off, quarantines
        and yields :class:`MissingUnit` markers in unit order, so the
        consumer's unit counter -- and therefore checkpoint offsets --
        never skews against unit indices.
        """
        policy = self.supervision
        poll_s = policy.poll_s if policy is not None else _POLL_S
        plane = get_plane() if policy is not None else None
        seed = plane.config.seed if plane is not None else 0
        registry = obs_metrics.get_registry()
        status = obs_live.get_status()

        status.set_shards(shards)
        depth_gauge = registry.gauge("stream.queue_depth")
        lag_gauge = registry.gauge("stream.merge_lag")
        # Distribution of the instantaneous lag (units built by workers
        # but not yet merged), sampled at every pop -- the p99 of this is
        # the backpressure number the service benchmark reports.
        lag_hist = registry.histogram(
            "stream.merge_lag_units", buckets=(0.0, 1.0, 2.0, 4.0, 8.0,
                                               16.0, 32.0, 64.0, 128.0)
        )
        shard_depths = [
            registry.gauge(f"stream.queue_depth{{shard={worker}}}")
            for worker in range(shards)
        ]
        shard_units = [
            registry.counter(f"stream.shard_units{{shard={worker}}}")
            for worker in range(shards)
        ]

        context = multiprocessing.get_context("fork")
        stop = context.Event()
        all_workers: List[multiprocessing.Process] = []
        all_queues: List[object] = []
        queues: List[object] = [None] * shards
        procs: List[Optional[multiprocessing.Process]] = [None] * shards
        live = list(range(shards))
        restarts = [0] * shards
        attempts: Dict[int, int] = {}

        def _spawn(shard: int, resume_from: int, resume_attempt: int) -> None:
            queue = context.Queue(maxsize=self.queue_units)
            process = context.Process(
                target=_worker,
                args=(self.source, shard, shards, start, queue, stop,
                      resume_from, resume_attempt, policy),
                daemon=True,
            )
            queues[shard] = queue
            procs[shard] = process
            all_queues.append(queue)
            all_workers.append(process)
            process.start()

        def _down(shard: int, index: int, cause: str, detail: str,
                  delta=None) -> None:
            """One worker incarnation is gone: raise, restart or quarantine."""
            if policy is None:
                raise ShardError(shard, detail, delta)
            procs[shard].join()
            attempt = attempts.get(index, 0)
            if plane is not None and (
                (cause == "crash" and plane.crash(index, attempt))
                or (cause == "stall" and plane.stall_s_for(index, attempt) > 0)
            ):
                # The lost worker could not ship this counter itself.
                registry.counter("faults.injected").inc()
                registry.counter(f"faults.injected{{kind={cause}}}").inc()
            attempts[index] = attempt + 1
            restarts[shard] += 1
            registry.counter("shard.restarts").inc()
            registry.counter(f"shard.restarts{{shard={shard}}}").inc()
            if restarts[shard] > policy.max_restarts:
                live.remove(shard)
                registry.counter("shard.quarantined").inc()
                registry.counter(f"shard.quarantined{{shard={shard}}}").inc()
                status.shard_state(
                    shard, "quarantined", restarts=restarts[shard]
                )
                return
            status.shard_state(shard, "restarting", restarts=restarts[shard])
            delay = backoff_delay(
                policy.restart_backoff_s, policy.backoff_ceiling_s,
                restarts[shard], seed, shard,
            )
            if delay > 0:
                time.sleep(delay)
            _spawn(shard, index, attempts[index])
            status.shard_state(shard, "ok", restarts=restarts[shard])

        for shard in range(shards):
            _spawn(shard, start, 0)
        self.last_workers = all_workers

        try:
            for index in range(start, total):
                shard = (index - start) % shards
                result = None
                wait_started = time.monotonic()
                while result is None:
                    if shard not in live:
                        result = self._missing(index, shard, "quarantined")
                        break
                    queue = queues[shard]
                    process = procs[shard]
                    try:
                        depth = queue.qsize()
                        depth_gauge.set(depth)
                        shard_depths[shard].set(depth)
                        lag = sum(queues[s].qsize() for s in live)
                        lag_gauge.set(lag)
                        lag_hist.observe(lag)
                    except NotImplementedError:  # macOS has no qsize
                        pass
                    try:
                        item = queue.get(timeout=poll_s)
                    except _QueueEmpty:
                        item = None
                    if item is None and not process.is_alive():
                        try:  # the dying worker may have delivered
                            item = queue.get_nowait()
                        except _QueueEmpty:
                            _down(shard, index, "crash",
                                  f"worker exited with code {process.exitcode}"
                                  f" before delivering unit {index}")
                            wait_started = time.monotonic()
                            continue
                    if item is None:
                        if policy is not None and (
                            time.monotonic() - wait_started
                            > policy.stall_timeout_s
                        ):
                            process.terminate()
                            _down(shard, index, "stall", "")
                            wait_started = time.monotonic()
                        continue
                    tag, value, payload, delta = item
                    if tag != "error" and value != index:  # pragma: no cover
                        raise RuntimeError(
                            f"stream shard returned unit {value}, "
                            f"expected {index}"
                        )
                    if delta:
                        registry.merge(delta)
                    if tag == "unit":
                        result = payload
                    elif tag == _FAILED and policy is not None:
                        registry.counter("stream.unit_failures").inc()
                        result = self._missing(index, shard, "unit_failed")
                    else:  # worker error, or a failed unit under fail-fast
                        _down(shard, index, "error", payload, delta)
                        wait_started = time.monotonic()
                if isinstance(result, MissingUnit):
                    yield result
                else:
                    # Delivery accounting belongs to the consumer (it
                    # runs identically on every path, keeping
                    # completeness reports byte-identical across modes);
                    # the fan-out only ever records misses.
                    shard_units[shard].inc()
                    status.shard_unit(shard)
                    yield result
        finally:
            self._drain(all_workers, all_queues, stop)

    @staticmethod
    def _drain(workers, queues, stop, join_timeout: float = 5.0) -> None:
        """Deterministic shutdown of a (possibly mid-window) fan-out.

        Order matters: signal the stop event first so every producer
        exits at its next unit boundary or ``put`` retry, then keep the
        queues empty so a producer blocked inside a full bounded queue
        can finish its ``put`` and observe the event.  Workers are only
        terminated as a last resort after the join timeout -- the common
        path (completion, consumer ``close()``, supervisor drain) ends
        every worker cleanly with exit code 0 and no stuck queue feeder
        threads.
        """
        stop.set()
        deadline = time.monotonic() + join_timeout
        pending = list(workers)
        while pending and time.monotonic() < deadline:
            for queue in queues:  # unblock producers stuck in put()
                try:
                    while True:
                        queue.get_nowait()
                except (_QueueEmpty, OSError, ValueError):
                    pass
            pending = [process for process in pending if process.is_alive()]
            if pending:
                pending[0].join(timeout=0.05)
        for process in pending:  # pragma: no cover - hung-worker fallback
            process.terminate()
        for process in workers:
            process.join()
        for queue in queues:
            queue.cancel_join_thread()
            queue.close()

    def __iter__(self) -> Iterator[StreamUnit]:
        return self.iter_from(0)
