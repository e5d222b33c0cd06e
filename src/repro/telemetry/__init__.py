"""Telemetry: metrics registry, Prometheus exposition, instrumentation.

The subsystem has four small parts:

* :mod:`repro.telemetry.registry` — dependency-free ``Counter`` /
  ``Gauge`` / fixed-bucket ``Histogram`` primitives behind a
  thread-safe :class:`MetricsRegistry`;
* :mod:`repro.telemetry.exposition` — Prometheus text-format v0.0.4
  and JSON snapshot writers (plus the minimal scrape-side parser CI
  uses to validate them);
* :mod:`repro.telemetry.httpd` — an optional stdlib ``/metrics``
  endpoint on a daemon thread;
* :mod:`repro.telemetry.instruments` — one table declaring every
  metric family once, and the accessors through which each
  instrumented subsystem (campaigns, stores, the SSD replay path,
  kernels) feeds its families at execution boundaries.

A process-global default registry serves the common case (the CLI's
``--metrics-port`` / ``--metrics-json`` and ``metrics dump`` read it);
tests inject their own via :func:`set_default_registry` or the
:func:`scoped_registry` context manager and every instrument call
site picks the new registry up immediately.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from repro.telemetry.exposition import (
    TEXT_CONTENT_TYPE,
    parse_text_format,
    render_text,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)

_default_lock = threading.Lock()
_default_registry = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-global registry every instrument defaults to."""
    with _default_lock:
        return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


@contextlib.contextmanager
def scoped_registry(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (a fresh one by default) as the
    process default — the test-suite idiom for isolated counters."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


def __getattr__(name: str):
    # MetricsServer pulls in http.server; load it only when asked for.
    if name == "MetricsServer":
        from repro.telemetry.httpd import MetricsServer

        return MetricsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "TEXT_CONTENT_TYPE",
    "get_default_registry",
    "parse_text_format",
    "render_text",
    "scoped_registry",
    "set_default_registry",
]
