"""Optional ``/metrics`` HTTP endpoint on a daemon thread.

:class:`MetricsServer` wraps a stdlib
:class:`http.server.ThreadingHTTPServer` serving two read-only routes:

* ``/metrics`` — Prometheus text format v0.0.4 (what a Prometheus
  scraper, ``curl``, or ``python -m repro metrics dump --url`` reads);
* ``/metrics.json`` — the JSON snapshot (the same structure
  ``--metrics-json`` writes to disk).

The server thread is a daemon, so a finished CLI process never hangs
on it; ``port=0`` binds an ephemeral port (read it back from
:attr:`MetricsServer.port` / :attr:`MetricsServer.url`).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import ConfigError
from repro.telemetry.exposition import TEXT_CONTENT_TYPE, render_text
from repro.telemetry.registry import MetricsRegistry


class MetricsServer:
    """Serve one registry's metrics over HTTP from a daemon thread."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        if registry is None:
            from repro.telemetry import get_default_registry

            registry = get_default_registry()
        self.registry = registry
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path in ("/metrics", "/"):
                    body = render_text(server.registry).encode("utf-8")
                    content_type = TEXT_CONTENT_TYPE
                elif path == "/metrics.json":
                    body = json.dumps(
                        server.registry.snapshot(), indent=2
                    ).encode("utf-8")
                    content_type = "application/json"
                else:
                    self.send_error(404, "try /metrics or /metrics.json")
                    return
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-scrape noise
                pass

        try:
            self._httpd = ThreadingHTTPServer((host, port), Handler)
        except OSError as exc:
            raise ConfigError(
                f"cannot bind metrics endpoint on {host}:{port}: {exc}"
            ) from exc
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Begin serving on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise ConfigError("metrics server already started")
        # Expose the bound port in the registry itself, so snapshots
        # written by a ``--metrics-port 0`` run record where the
        # endpoint actually lived.
        self.registry.gauge(
            "repro_metrics_port",
            "TCP port the metrics endpoint is bound to.",
        ).set(self.port)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

