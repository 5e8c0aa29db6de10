"""HTTP exposition of the live telemetry plane (stdlib-only).

Serves three endpoints from a daemon thread, enabled by
``reproduce --serve-metrics [PORT]``:

- ``/metrics`` -- the full :class:`~repro.obs.metrics.MetricsRegistry`
  in Prometheus text format (version 0.0.4), with derived age gauges
  refreshed at scrape time.
- ``/status`` -- the :class:`~repro.obs.live.RunStatus` board as JSON
  (run identity, active phase, shard table, checkpoint provenance) plus
  the flight recorder's newest sample when one is attached.
- ``/health`` -- ``200 ok`` while the process serves.

Metric naming: registry names are dotted (``stream.units``); exposition
rewrites them to ``repro_stream_units``.  A registry name may carry
labels in curly-brace form -- ``stream.queue_depth{shard=3}`` -- which
render as proper Prometheus labels with full value escaping.  Counters
gain the conventional ``_total`` suffix; histograms expand into
cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.live import (
    FlightRecorder,
    RunStatus,
    fork_guard,
    get_status,
    refresh_derived_gauges,
)
from repro.obs.log import get_logger

__all__ = [
    "DEFAULT_METRICS_PORT",
    "CONTENT_TYPE_METRICS",
    "LIVE_STATUS_SCHEMA",
    "parse_metric_name",
    "escape_label_value",
    "prometheus_text",
    "MetricsServer",
]

DEFAULT_METRICS_PORT = 9309
"""Default ``--serve-metrics`` port (the 9xxx exporter convention)."""

CONTENT_TYPE_METRICS = "text/plain; version=0.0.4; charset=utf-8"

LIVE_STATUS_SCHEMA = 2
"""Bump when the ``/status`` JSON document changes shape.

Version history: 1 run/phase/stream/checkpoint + sample; 2 adds the
``campaigns`` table (the service's per-campaign board rows).
"""

_SERVE_POLL_S = 0.05
"""How often the serve loop checks for shutdown.  ``close()`` waits for
that check, so the stdlib default (0.5 s) added up to half a second to
the exit of every serving process -- a delay that rounded a service
run's wall time up to the next half-second tick of the serve loop."""

_LOG = get_logger("repro.obs.expo")

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def parse_metric_name(name: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry name into (bare name, labels).

    ``"stream.queue_depth{shard=3}"`` -> ``("stream.queue_depth",
    {"shard": "3"})``.  Names without a ``{`` carry no labels; a
    malformed label block is kept verbatim in the name rather than
    guessed at.
    """
    if "{" not in name:
        return name, {}
    if not name.endswith("}"):
        return name, {}
    bare, _, block = name.partition("{")
    labels: Dict[str, str] = {}
    for part in block[:-1].split(","):
        key, eq, value = part.partition("=")
        if not eq or not key.strip():
            return name, {}
        labels[key.strip()] = value.strip()
    return bare, labels


def escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double-quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _metric_name(name: str) -> str:
    sanitized = _NAME_SANITIZE.sub("_", name)
    if not sanitized.startswith("repro_"):
        sanitized = f"repro_{sanitized}"
    return sanitized


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_LABEL_SANITIZE.sub("_", key)}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_value(value: object) -> str:
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 2**53:
        return str(int(number))
    return repr(number)


def prometheus_text(snapshot: Dict[str, Dict[str, object]]) -> str:
    """A registry snapshot as Prometheus exposition text.

    One ``# TYPE`` line per metric family (emitted once even when many
    labeled series share the family), families in sorted order so the
    output is diff-stable across scrapes.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family(name: str, kind: str) -> Dict[str, object]:
        entry = families.setdefault(name, {"kind": kind, "lines": []})
        if entry["kind"] != kind:
            raise ValueError(
                f"metric family {name!r} exposed as both "
                f"{entry['kind']} and {kind}"
            )
        return entry

    for name, value in snapshot.get("counters", {}).items():
        bare, labels = parse_metric_name(name)
        metric = _metric_name(bare) + "_total"
        family(metric, "counter")["lines"].append(
            f"{metric}{_render_labels(labels)} {_format_value(value)}"
        )
    for name, value in snapshot.get("gauges", {}).items():
        bare, labels = parse_metric_name(name)
        metric = _metric_name(bare)
        family(metric, "gauge")["lines"].append(
            f"{metric}{_render_labels(labels)} {_format_value(value)}"
        )
    for name, stats in snapshot.get("histograms", {}).items():
        bare, labels = parse_metric_name(name)
        metric = _metric_name(bare)
        lines = family(metric, "histogram")["lines"]
        cumulative = 0
        for bound, count in zip(stats["bounds"], stats["counts"]):
            cumulative += count
            le_labels = dict(labels)
            le_labels["le"] = _format_value(bound)
            lines.append(
                f"{metric}_bucket{_render_labels(le_labels)} {cumulative}"
            )
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(
            f"{metric}_bucket{_render_labels(inf_labels)} {stats['count']}"
        )
        lines.append(
            f"{metric}_sum{_render_labels(labels)} {_format_value(stats['sum'])}"
        )
        lines.append(
            f"{metric}_count{_render_labels(labels)} {stats['count']}"
        )

    out: List[str] = []
    for metric in sorted(families):
        entry = families[metric]
        out.append(f"# TYPE {metric} {entry['kind']}")
        out.extend(entry["lines"])
    return "\n".join(out) + "\n" if out else "\n"


class MetricsServer:
    """``/metrics`` + ``/status`` + ``/health`` on a daemon thread.

    Binds at construction (so ``port=0`` resolves to a real ephemeral
    port immediately); ``start()`` begins serving, ``close()`` shuts the
    listener down.  The built-in routes only ever *read* the registry/
    status/recorder, so serving never perturbs the run it is observing;
    the campaign service registers additional control routes (pause/
    resume/drain and ``/campaigns``) through :meth:`add_route`.
    """

    def __init__(
        self,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
        status: Optional[RunStatus] = None,
        recorder: Optional[FlightRecorder] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_METRICS_PORT,
    ) -> None:
        self.registry = registry if registry is not None else obs_metrics.get_registry()
        self.status = status if status is not None else get_status()
        self.recorder = recorder
        self._routes: Dict[Tuple[str, str], Callable[[], Tuple[int, str, str]]] = {}
        self.add_route("GET", "/metrics", self._route_metrics)
        self.add_route("GET", "/status", self._route_status)
        self.add_route("GET", "/health", self._route_health)
        server = self

        class Handler(BaseHTTPRequestHandler):
            def _dispatch(self, method: str) -> None:
                path = self.path.split("?", 1)[0]
                route = server._routes.get((method, path))
                if route is None:
                    self._reply(404, "text/plain; charset=utf-8", "not found\n")
                    return
                try:
                    code, content_type, body = route()
                except Exception:  # a broken route must not kill the server
                    _LOG.warning("expo.route_failed", method=method, path=path)
                    self._reply(
                        500, "text/plain; charset=utf-8", "internal error\n"
                    )
                    return
                self._reply(code, content_type, body)

            def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
                self._dispatch("GET")

            def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
                self._dispatch("POST")

            def _reply(self, code: int, content_type: str, body: str) -> None:
                data = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format: str, *args: object) -> None:
                _LOG.debug("expo.request", line=format % args)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self.host, self.port = self._server.server_address[:2]

    def add_route(
        self,
        method: str,
        path: str,
        handler: Callable[[], Tuple[int, str, str]],
    ) -> None:
        """Mount ``handler`` at ``(method, path)``.

        Handlers return ``(code, content_type, body)`` and run on the
        server's pool threads -- anything touching the registry or the
        status board must hold :func:`~repro.obs.live.fork_guard` for
        the read, exactly like the built-in routes.  Registering a path
        again replaces the previous handler (the service re-mounts its
        campaign routes on restart).
        """
        self._routes[(method.upper(), path)] = handler

    # ------------------------------------------------------------------
    # Built-in routes
    # ------------------------------------------------------------------

    def _route_metrics(self) -> Tuple[int, str, str]:
        # handlers run on pool threads while the pipeline may fork
        # workers: hold the fork guard across registry use
        with fork_guard():
            refresh_derived_gauges(self.registry, self.status)
            body = prometheus_text(self.registry.snapshot())
        return 200, CONTENT_TYPE_METRICS, body

    def _route_status(self) -> Tuple[int, str, str]:
        with fork_guard():
            payload = self.status_payload()
        body = json.dumps(payload, indent=2, default=str) + "\n"
        return 200, "application/json", body

    def _route_health(self) -> Tuple[int, str, str]:
        return 200, "text/plain; charset=utf-8", "ok\n"

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    def status_payload(self) -> Dict[str, object]:
        """The ``/status`` document (board + newest recorder sample)."""
        payload = self.status.as_dict()
        payload["schema"] = LIVE_STATUS_SCHEMA
        if self.recorder is not None:
            payload["sample"] = self.recorder.latest()
        return payload

    def start(self) -> "MetricsServer":
        """Serve until :meth:`close` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("metrics server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _SERVE_POLL_S},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        _LOG.info("expo.serving", url=self.url)
        return self

    def close(self) -> None:
        """Stop serving and release the port; idempotent.

        ``shutdown()`` blocks until the serve loop acknowledges it, so
        it only runs while the serving thread is actually alive -- a
        forked child inherits the thread *object* but not the thread.
        """
        if self._thread is not None:
            if self._thread.is_alive():
                self._server.shutdown()
                self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()
