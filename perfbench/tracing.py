"""Span recorder and call-site wrappers for the benchmark's traced run.

The traced run installs wrappers around calls into each layer's public
functions -- from the benchmark's own files, the program is unchanged --
and keeps every span (name, start, end, parent) in memory until the
run ends.  :data:`TARGETS` is the one declared table of what is wrapped
and under which span name; :data:`LAYER_METRICS` names every per-layer
metric the traced run reports.

Rows of :data:`TARGETS` are ``(span, module, attribute)``:

- ``"name"`` wraps the module attribute ``name`` *where it is bound*:
  a function that another module imported with ``from x import name``
  has a binding of its own, so each binding that matters has its own row
  (``write_snapshot`` in both checkpoint modules, ``compute_route_table``
  in ``repro.measurement.platform``).
- ``"Class.method"`` wraps the method as a class attribute, which every
  caller sees; ``"Class.*"`` wraps every public method of the class.
- ``"*"`` wraps every public function the module defines, at every
  binding in the loaded ``repro`` modules, plus every public method of
  the public classes it defines.

A target that the commit under test does not have is reported as
``absent`` with the reason, never as an error.

Self time is a span's duration minus the time its child spans cover.
Time spent in child processes comes from ``getrusage`` CHILDREN deltas
around the calls that fork (``fork_map`` and each ``ShardedSource``
iteration).  Byte counts are computed here: pickled sizes of results and
units, on-disk sizes of cache entries and snapshots.  That bookkeeping
is timed and subtracted from every open span, so it does not land in a
layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pickle
import resource
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Tuple

CORE_MODULES = (
    "routechange", "rttstats", "suboptimal", "heatmap", "dualstack", "loss",
    "congestion", "localization", "ownership", "linkclass", "sharedinfra",
    "inflation", "editdist", "overhead",
)

EXPERIMENT_FUNCTIONS = {
    "table1": "experiment_table1",
    "fig1": "experiment_fig1",
    "fig2": "experiment_fig2",
    "fig3": "experiment_fig3",
    "fig4": "experiment_fig4",
    "fig5": "experiment_fig5",
    "fig6": "experiment_fig6",
    "congestion-norm": "experiment_congestion_norm",
    "localization": "experiment_localization",
    "link-classification": "experiment_link_classification",
    "fig9": "experiment_fig9",
    "fig10a": "experiment_fig10a",
    "fig10b": "experiment_fig10b",
    "ext-loss": "experiment_loss",
    "ext-sharedinfra": "experiment_sharedinfra",
}

_PLATFORM = "repro.measurement.platform"

TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # World build (topology, routing, measurement.platform).
    ("platform.build", _PLATFORM, "MeasurementPlatform.__init__"),
    ("topology.build", _PLATFORM, "generate_topology"),
    ("topology.build", _PLATFORM, "allocate_addresses"),
    ("topology.build", _PLATFORM, "build_router_topology"),
    ("topology.build", _PLATFORM, "deploy_cdn"),
    ("routing.route_table", _PLATFORM, "compute_route_table"),
    ("routing.dynamics", _PLATFORM, "sample_edge_outages"),
    ("routing.dynamics", _PLATFORM, "sample_pair_flaps"),
    ("routing.dynamics", _PLATFORM, "build_routing_schedule"),
    ("measurement.congestion", _PLATFORM, "MeasurementPlatform._collect_segments"),
    ("measurement.congestion", _PLATFORM, "assign_congestion"),
    # harness.engine artifact cache.
    ("cache.store", "repro.harness.engine", "ArtifactCache.store"),
    ("cache.load", "repro.harness.engine", "ArtifactCache.load"),
    # Builds: seed planning, dataset builders, the fork pool.
    ("fastseed.plan", "repro.datasets.columnar", "pcg64_states"),
    ("datasets.longterm_build", "repro.harness.engine", "build_longterm_dataset"),
    ("datasets.longterm_build", "repro.harness.scenarios", "build_longterm_dataset"),
    ("datasets.ping_build", "repro.harness.scenarios", "build_shortterm_ping_dataset"),
    ("datasets.shorttrace_build", "repro.harness.scenarios",
     "build_shortterm_trace_dataset"),
    ("datasets.fork_map", "repro.datasets.longterm", "fork_map"),
    ("datasets.fork_map", "repro.datasets.shortterm", "fork_map"),
    ("datasets.fork_map", "repro.datasets.parallel", "fork_map"),
    ("datasets.timeline.usable_rtts", "repro.datasets.timeline",
     "TraceTimeline.usable_rtts_by_path"),
    # Analysis: every public function of each core module, and each
    # experiment driver.
    *((f"core.{name}", f"repro.core.{name}", "*") for name in CORE_MODULES),
    *((f"experiment.{exp_id}", "repro.harness.experiments", function)
      for exp_id, function in EXPERIMENT_FUNCTIONS.items()),
    # Stream: the fan-out, the incremental operators, checkpoints.
    ("fanout", "repro.stream.source", "ShardedSource.iter_from"),
    ("stream.operator", "repro.stream.operators", "PathStatsOperator.*"),
    ("stream.operator", "repro.stream.operators", "CongestionWindowOperator.*"),
    ("stream.operator", "repro.stream.operators", "SegmentWindowOperator.*"),
    ("stream.checkpoint", "repro.stream.checkpoint", "CheckpointStore.save"),
    ("stream.checkpoint.write", "repro.stream.checkpoint", "write_snapshot"),
    # Service: campaign cycles, the mesh operator, campaign checkpoints.
    ("service.cycle", "repro.service.campaign", "Campaign.run_cycle"),
    ("service.operator", "repro.stream.mesh", "MeshStatsOperator.*"),
    ("service.checkpoint", "repro.service.checkpoint", "CampaignCheckpointStore.save"),
    ("service.checkpoint.write", "repro.service.checkpoint", "write_snapshot"),
)

STREAM_PHASES = {"trace": "longterm", "ping": "ping", "segment": "segment"}
"""Unit kind of a stream source -> the phase name its metrics carry."""


def _metric_table() -> Tuple[Tuple[str, str, Tuple[str, ...]], ...]:
    """(metric, unit, span names it is computed from); empty = no spans."""
    rows: List[Tuple[str, str, Tuple[str, ...]]] = [
        ("proc.cpu_s", "s", ()),
        ("proc.child_cpu_s", "s", ()),
        ("proc.child_peak_rss_mb", "MB", ()),
        ("trace.overhead_frac", "ratio", ()),
        ("ops.failed_frac", "ratio", ()),
        ("platform.build_s", "s", ("platform.build",)),
        ("topology.build_s", "s", ("topology.build",)),
        ("routing.route_table_s", "s", ("routing.route_table",)),
        ("routing.dynamics_s", "s", ("routing.dynamics",)),
        ("measurement.congestion_s", "s", ("measurement.congestion",)),
        ("cache.store_s", "s", ("cache.store",)),
        ("cache.load_s", "s", ("cache.load",)),
        ("cache.bytes", "bytes", ("cache.store", "cache.load")),
        ("cache.hits", "count", ("cache.load",)),
        ("cache.misses", "count", ("cache.load",)),
        ("fastseed.plan_s", "s", ("fastseed.plan",)),
        ("fastseed.calls", "count", ("fastseed.plan",)),
        ("datasets.longterm_build_s", "s", ("datasets.longterm_build",)),
        ("datasets.ping_build_s", "s", ("datasets.ping_build",)),
        ("datasets.shorttrace_build_s", "s", ("datasets.shorttrace_build",)),
        ("datasets.fork_map.items", "count", ("datasets.fork_map",)),
        ("datasets.fork_map.wall_s", "s", ("datasets.fork_map",)),
        ("datasets.fork_map.child_cpu_s", "s", ("datasets.fork_map",)),
        ("datasets.fork_map.efficiency", "ratio", ("datasets.fork_map",)),
        ("datasets.fork_map.result_bytes", "bytes", ("datasets.fork_map",)),
    ]
    for name in CORE_MODULES:
        rows.append((f"core.{name}.self_s", "s", (f"core.{name}",)))
        rows.append((f"core.{name}.calls", "count", (f"core.{name}",)))
    for exp_id in EXPERIMENT_FUNCTIONS:
        rows.append((f"experiment.{exp_id}_s", "s", (f"experiment.{exp_id}",)))
    rows.append(("datasets.timeline.usable_rtts_s", "s",
                 ("datasets.timeline.usable_rtts",)))
    for phase in STREAM_PHASES.values():
        rows.append((f"stream.{phase}.units", "count", ("fanout",)))
        rows.append((f"stream.{phase}.wall_s", "s", ("fanout",)))
    rows += [
        ("service.cycle_p50_s", "s", ("service.cycle",)),
        ("service.cycle_max_s", "s", ("service.cycle",)),
        ("service.units", "count", ("fanout",)),
        ("stream.unit_bytes", "bytes", ("fanout",)),
    ]
    for prefix in ("stream", "service"):
        rows += [
            (f"{prefix}.wait_s", "s", ("fanout",)),
            (f"{prefix}.operator_s", "s", (f"{prefix}.operator",)),
            (f"{prefix}.units_missing", "count", ("fanout",)),
            (f"{prefix}.worker_cpu_s", "s", ("fanout",)),
            (f"{prefix}.parallel_efficiency", "ratio", ("fanout",)),
            (f"{prefix}.checkpoint.saves", "count", (f"{prefix}.checkpoint",)),
            (f"{prefix}.checkpoint.save_s", "s", (f"{prefix}.checkpoint",)),
            (f"{prefix}.checkpoint.bytes", "bytes", (f"{prefix}.checkpoint.write",)),
        ]
    rows.append(("faults.shard_restarts", "count", ()))
    return tuple(rows)


LAYER_METRICS = _metric_table()
"""Every per-layer metric: ``(name, unit, span names)``."""


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _pickled_size(value: object) -> int:
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # an unpicklable payload counts as zero bytes
        return 0


def _file_size(path: object) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


class _Frame:
    __slots__ = ("name", "start", "parent", "child_s", "excluded_s", "index")

    def __init__(self, name: str, start: float, parent: int, index: int) -> None:
        self.name = name
        self.start = start
        self.parent = parent
        self.child_s = 0.0
        self.excluded_s = 0.0
        self.index = index


class Recorder:
    """In-memory span store with per-thread span stacks."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        """``(name, start, end, parent index or -1)``, in end order."""
        self.totals: Dict[str, List[float]] = {}
        """name -> [calls, inclusive s, self s]."""
        self.extras: Dict[str, Dict[str, float]] = {}
        self.bookkeeping_s = 0.0
        self.absent: List[Dict[str, str]] = []
        self._local = threading.local()
        self._next_index = 0
        self._lock = threading.Lock()

    # -- span stack ---------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        with self._lock:
            index = self._next_index
            self._next_index += 1
        parent = stack[-1].index if stack else -1
        frame = _Frame(name, time.perf_counter(), parent, index)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start - frame.excluded_s
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            self.spans.append((frame.name, frame.start, end, frame.parent))
            calls_inclusive_self = self.totals.setdefault(frame.name, [0, 0.0, 0.0])
            calls_inclusive_self[0] += 1
            calls_inclusive_self[1] += duration
            calls_inclusive_self[2] += duration - frame.child_s
        return duration

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame.name == name for frame in self._stack())

    def add(self, name: str, key: str, value: float) -> None:
        with self._lock:
            bucket = self.extras.setdefault(name, {})
            bucket[key] = bucket.get(key, 0.0) + value

    @contextlib.contextmanager
    def bookkeeping(self) -> Iterator[None]:
        """Time the block and take it out of every open span."""
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            self.bookkeeping_s += seconds
            for frame in self._stack():
                frame.excluded_s += seconds

    def dump(self, path: str) -> None:
        """Write the spans and the absent targets as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "absent": self.absent,
                },
                handle,
            )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def _span_wrapper(recorder: Recorder, name: str, function: Callable) -> Callable:
    hook = _HOOKS.get(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        state = hook.before(recorder, args, kwargs) if hook else None
        frame = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            duration = recorder.close(frame)
        if hook:
            with recorder.bookkeeping():
                hook.after(recorder, state, args, result, duration)
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _fanout_wrapper(recorder: Recorder, function: Callable) -> Callable:
    """``ShardedSource.iter_from``: every resume of the generator is a
    span of time the consumer waited on the fan-out."""

    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        prefix = "service" if recorder.inside("service.cycle") else "stream"
        kind = getattr(self, "kind", "unit")
        shards = max(1, int(getattr(self, "shards", 1)))
        inner = function(self, *args, **kwargs)
        cpu_before = _children_cpu()
        started = time.perf_counter()
        booked = recorder.bookkeeping_s
        units = missing = 0
        try:
            while True:
                frame = recorder.open("fanout")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.add(f"{prefix}.fanout", "wait_s",
                                 recorder.close(frame))
                if hasattr(item, "record_count"):
                    units += 1
                    if prefix == "stream":
                        with recorder.bookkeeping():
                            recorder.add("stream.fanout", "unit_bytes",
                                         _pickled_size(item))
                else:
                    missing += 1
                yield item
        finally:
            inner.close()  # joins the workers, so their CPU is reaped
            wall = time.perf_counter() - started - (recorder.bookkeeping_s - booked)
            worker_cpu = _children_cpu() - cpu_before
            key = f"{prefix}.fanout"
            if prefix == "stream":
                phase = STREAM_PHASES.get(kind, kind)
                recorder.add(f"stream.{phase}", "units", units)
                recorder.add(f"stream.{phase}", "wall_s", wall)
            recorder.add(key, "units", units)
            recorder.add(key, "missing", missing)
            recorder.add(key, "worker_cpu_s", worker_cpu)
            recorder.add(key, "capacity_s", wall * shards)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


# Hooks add measurements around a wrapped call: ``before`` returns a
# state, ``after`` gets it with the positional args, the result and the
# span's duration.  Time spent in ``after`` is bookkeeping.

class _ForkMapHook:
    def before(self, recorder, args, kwargs):
        items = args[1] if len(args) > 1 else kwargs.get("items", ())
        jobs = args[2] if len(args) > 2 else kwargs.get("jobs", 1)
        jobs = int(jobs or os.cpu_count() or 1)
        if hasattr(items, "__len__"):
            jobs = min(jobs, len(items))
        return _children_cpu(), max(1, jobs)

    def after(self, recorder, state, args, result, duration):
        cpu_before, jobs = state
        recorder.add("datasets.fork_map", "items", len(result))
        recorder.add("datasets.fork_map", "child_cpu_s", _children_cpu() - cpu_before)
        recorder.add("datasets.fork_map", "capacity_s", duration * jobs)
        recorder.add("datasets.fork_map", "result_bytes", _pickled_size(result))


class _CacheHook:
    def __init__(self, name: str) -> None:
        self.name = name

    def before(self, recorder, args, kwargs):
        return None

    def after(self, recorder, state, args, result, duration):
        if self.name == "cache.store":
            recorder.add("cache", "bytes", _file_size(result))
            return
        if result is None:
            recorder.add("cache", "misses", 1)
            return
        recorder.add("cache", "hits", 1)
        cache = args[0]
        try:
            recorder.add("cache", "bytes", _file_size(cache.path(*args[1:3])))
        except (AttributeError, TypeError):
            pass


class _SnapshotHook:
    def __init__(self, name: str) -> None:
        self.name = name

    def before(self, recorder, args, kwargs):
        return args[0] if args else kwargs.get("path")

    def after(self, recorder, path, args, result, duration):
        recorder.add(self.name, "bytes", _file_size(path))


_HOOKS = {
    "datasets.fork_map": _ForkMapHook(),
    "cache.store": _CacheHook("cache.store"),
    "cache.load": _CacheHook("cache.load"),
    "stream.checkpoint.write": _SnapshotHook("stream.checkpoint.write"),
    "service.checkpoint.write": _SnapshotHook("service.checkpoint.write"),
}


def _wrap(recorder: Recorder, name: str, function: Callable) -> Callable:
    if getattr(function, "__perfbench_wrapped__", False):
        return function
    if name == "fanout":
        return _fanout_wrapper(recorder, function)
    return _span_wrapper(recorder, name, function)


def _wrap_class_attr(recorder: Recorder, name: str, cls: type, attr: str) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(recorder, name, raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(recorder, name, raw.__func__)))
    else:
        setattr(cls, attr, _wrap(recorder, name, raw))


def _public_methods(cls: type) -> List[str]:
    return [
        attr for attr, raw in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod)))
    ]


def _rebind_everywhere(original: Callable, wrapped: Callable) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _install_row(recorder: Recorder, name: str, module_name: str, target: str) -> None:
    module = importlib.import_module(module_name)
    if target == "*":
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == module_name:
                _rebind_everywhere(value, _wrap(recorder, name, value))
            elif inspect.isclass(value) and value.__module__ == module_name:
                for method in _public_methods(value):
                    _wrap_class_attr(recorder, name, value, method)
        return
    owner_name, _, attr = target.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name)
        if attr == "*":
            for method in _public_methods(cls):
                _wrap_class_attr(recorder, name, cls, method)
        else:
            if attr not in cls.__dict__:
                raise AttributeError(f"{owner_name} has no attribute {attr!r}")
            _wrap_class_attr(recorder, name, cls, attr)
        return
    setattr(module, attr, _wrap(recorder, name, getattr(module, attr)))


def install(recorder: Recorder) -> None:
    """Wrap every target of :data:`TARGETS`; record the ones missing."""
    for name, module_name, target in TARGETS:
        try:
            _install_row(recorder, name, module_name, target)
        except (ImportError, AttributeError) as exc:
            recorder.absent.append({
                "span": name,
                "target": f"{module_name}:{target}",
                "reason": f"{type(exc).__name__}: {exc}",
            })


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(recorder: Recorder, registry_counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric computed from the spans (0 where unused)."""
    totals, extras = recorder.totals, recorder.extras

    def inclusive(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[2]

    def calls(name: str) -> float:
        return float(totals.get(name, [0, 0.0, 0.0])[0])

    def extra(name: str, key: str) -> float:
        return float(extras.get(name, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out: Dict[str, float] = {
        "proc.cpu_s": usage.ru_utime + usage.ru_stime,
        "proc.child_cpu_s": children.ru_utime + children.ru_stime,
        "proc.child_peak_rss_mb": children.ru_maxrss / 1024.0,
        "platform.build_s": inclusive("platform.build"),
        "topology.build_s": inclusive("topology.build"),
        "routing.route_table_s": inclusive("routing.route_table"),
        "routing.dynamics_s": inclusive("routing.dynamics"),
        "measurement.congestion_s": inclusive("measurement.congestion"),
        "cache.store_s": inclusive("cache.store"),
        "cache.load_s": inclusive("cache.load"),
        "cache.bytes": extra("cache", "bytes"),
        "cache.hits": extra("cache", "hits"),
        "cache.misses": extra("cache", "misses"),
        "fastseed.plan_s": inclusive("fastseed.plan"),
        "fastseed.calls": calls("fastseed.plan"),
        "datasets.longterm_build_s": inclusive("datasets.longterm_build"),
        "datasets.ping_build_s": inclusive("datasets.ping_build"),
        "datasets.shorttrace_build_s": inclusive("datasets.shorttrace_build"),
        "datasets.fork_map.items": extra("datasets.fork_map", "items"),
        "datasets.fork_map.wall_s": inclusive("datasets.fork_map"),
        "datasets.fork_map.child_cpu_s": extra("datasets.fork_map", "child_cpu_s"),
        "datasets.fork_map.efficiency": ratio(
            extra("datasets.fork_map", "child_cpu_s"),
            extra("datasets.fork_map", "capacity_s"),
        ),
        "datasets.fork_map.result_bytes": extra("datasets.fork_map", "result_bytes"),
        "datasets.timeline.usable_rtts_s": inclusive("datasets.timeline.usable_rtts"),
        "faults.shard_restarts": float(registry_counters.get("shard.restarts", 0)),
    }
    for name in CORE_MODULES:
        out[f"core.{name}.self_s"] = self_s(f"core.{name}")
        out[f"core.{name}.calls"] = calls(f"core.{name}")
    for exp_id in EXPERIMENT_FUNCTIONS:
        out[f"experiment.{exp_id}_s"] = inclusive(f"experiment.{exp_id}")
    for phase in STREAM_PHASES.values():
        out[f"stream.{phase}.units"] = extra(f"stream.{phase}", "units")
        out[f"stream.{phase}.wall_s"] = extra(f"stream.{phase}", "wall_s")
    for prefix in ("stream", "service"):
        fanout = f"{prefix}.fanout"
        out[f"{prefix}.wait_s"] = extra(fanout, "wait_s")
        out[f"{prefix}.operator_s"] = inclusive(f"{prefix}.operator")
        out[f"{prefix}.units_missing"] = extra(fanout, "missing")
        out[f"{prefix}.worker_cpu_s"] = extra(fanout, "worker_cpu_s")
        out[f"{prefix}.parallel_efficiency"] = ratio(
            extra(fanout, "worker_cpu_s"), extra(fanout, "capacity_s")
        )
        out[f"{prefix}.checkpoint.saves"] = calls(f"{prefix}.checkpoint")
        out[f"{prefix}.checkpoint.save_s"] = inclusive(f"{prefix}.checkpoint")
        out[f"{prefix}.checkpoint.bytes"] = extra(f"{prefix}.checkpoint.write", "bytes")
    out["stream.unit_bytes"] = extra("stream.fanout", "unit_bytes")
    out["service.units"] = extra("service.fanout", "units")
    cycles = [end - start for name, start, end, _ in recorder.spans
              if name == "service.cycle"]
    out["service.cycle_p50_s"] = statistics.median(cycles) if cycles else 0.0
    out["service.cycle_max_s"] = max(cycles) if cycles else 0.0
    return out


def absent_metrics(recorder: Recorder) -> Dict[str, str]:
    """Per-layer metrics whose every span target is missing -> reason."""
    missing: Dict[str, List[str]] = {}
    for row in recorder.absent:
        missing.setdefault(row["span"], []).append(f"{row['target']} ({row['reason']})")
    declared: Dict[str, int] = {}
    for name, _, _ in TARGETS:
        declared[name] = declared.get(name, 0) + 1
    out: Dict[str, str] = {}
    for metric, _, spans in LAYER_METRICS:
        gone = [
            span for span in spans
            if span in missing and len(missing[span]) == declared.get(span, 0)
        ]
        if spans and len(gone) == len(spans):
            out[metric] = "; ".join(r for span in gone for r in missing[span])
    return out
