"""Stdlib HTTP telemetry endpoint: ``/metrics`` and ``/healthz``.

:class:`TelemetryServer` is a tiny :mod:`http.server`-based sidecar a
live :class:`~repro.store.server.ModelServer` (or anything else) can
attach to:

* ``GET /metrics`` — the Prometheus text exposition of the injected
  metrics snapshot (span timings included), scrapeable by a real
  monitoring stack;
* ``GET /healthz`` — the watchdog verdict as JSON, HTTP 200 while the
  injected :class:`~repro.obs.health.HealthReport` is ``ok``/``warn``
  and 503 on ``fail`` — the shape load balancers and k8s probes expect;
* ``GET /`` — a plain-text index of the two.

Data sources are injected as zero-argument callables so the endpoint
stays decoupled (and this module stays a stdlib-only leaf): the caller
decides which registry and which health report a scrape sees, and each
request pulls a fresh snapshot.

The server binds a daemon thread; ``port=0`` picks a free port (the
bound one is on :attr:`TelemetryServer.port`).  Use as a context manager
or call :meth:`close`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.export import to_prometheus

__all__ = ["TelemetryServer"]


class _Handler(BaseHTTPRequestHandler):
    server: "_TelemetryHTTPServer"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._respond_metrics()
            elif path == "/healthz":
                self._respond_health()
            elif path == "/":
                self._respond(200, "text/plain",
                              "repro telemetry\n/metrics\n/healthz\n")
            else:
                self._respond(404, "text/plain", "not found\n")
        except Exception as exc:  # noqa: BLE001 - a probe must not kill
            self._respond(500, "text/plain", f"error: {exc}\n")

    def _respond_metrics(self) -> None:
        owner = self.server.owner
        metrics = owner.metrics_fn() if owner.metrics_fn else None
        text = to_prometheus(metrics)
        self._respond(200, "text/plain; version=0.0.4", text)

    def _respond_health(self) -> None:
        owner = self.server.owner
        if owner.health_fn is None:
            self._respond(200, "application/json",
                          json.dumps({"status": "ok", "checks": []}) + "\n")
            return
        report = owner.health_fn()
        payload = report if isinstance(report, dict) else report.as_dict()
        status = 503 if payload.get("status") == "fail" else 200
        self._respond(status, "application/json",
                      json.dumps(payload, sort_keys=True) + "\n")

    def _respond(self, code: int, content_type: str, body: str) -> None:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt, *args) -> None:  # pragma: no cover
        pass  # probes every few seconds would spam stderr


class _TelemetryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    owner: "TelemetryServer"


class TelemetryServer:
    """Background HTTP server exposing ``/metrics`` and ``/healthz``."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 metrics_fn=None, health_fn=None) -> None:
        self.metrics_fn = metrics_fn
        self.health_fn = health_fn
        self._httpd = _TelemetryHTTPServer((host, port), _Handler)
        self._httpd.owner = self
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the chosen one when constructed with 0)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
