"""Dependency-free metrics primitives: registry, counter, gauge, histogram.

One :class:`MetricsRegistry` owns a set of named metric *families*;
each family owns labeled *children* (one per distinct label-value
tuple) holding the actual numbers. The design mirrors the Prometheus
client-library data model — counters only go up, gauges go anywhere,
histograms bucket observations under fixed upper bounds — without
pulling in any dependency: everything here is stdlib + the NumPy the
repo already requires (NumPy only for the vectorized
:meth:`Histogram.observe_many` fast path).

Cost model: instrumented subsystems call these primitives at
*boundaries* — one store ``put``, one finished campaign cell, one
completed trace replay — never inside the event-loop or kernel hot
paths, which keep their plain integer counters and hand telemetry the
aggregates afterwards (see :mod:`repro.telemetry.instruments`). A
single update is a couple of dict lookups plus a lock, and
``observe_many`` ingests a whole latency recorder in one vectorized
pass, so tier-1 timings are untouched; nothing here draws randomness,
so results stay bit-identical with instrumentation enabled.

Thread safety: family creation is serialized by a registry lock,
child creation by a family lock, and every numeric update by a child
lock, so a running campaign and the metrics HTTP endpoint's thread
can hit one registry concurrently.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError

#: Default histogram upper bounds (seconds), Prometheus-client-like.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _check_name(name: str, what: str) -> None:
    if not name or not (name[0].isalpha() or name[0] == "_") or not all(
        c.isalnum() or c in "_:" for c in name
    ):
        raise ConfigError(f"invalid {what} name {name!r}")


class _Child:
    """Base of one labeled time series; subclasses hold the numbers."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class CounterChild(_Child):
    """A monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(
                f"counters only go up; cannot inc by {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeChild(_Child):
    """A value that can go up, down, or be set outright."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramChild(_Child):
    """Fixed-bucket histogram: per-bucket counts, sum, and count."""

    __slots__ = ("_bounds", "_counts", "_sum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        super().__init__()
        self._bounds = bounds
        # One slot per finite bound plus the +Inf overflow slot;
        # counts are stored per-bucket and cumulated at exposition.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def observe_many(self, values: Iterable[float]) -> None:
        """Ingest a batch in one pass (vectorized when NumPy-sized)."""
        values = list(values) if not hasattr(values, "__len__") else values
        if not len(values):  # noqa: PLC1802 - ndarray has no __bool__
            return
        import numpy as np

        array = np.asarray(values, dtype=float)
        indices = np.searchsorted(self._bounds, array, side="left")
        per_bucket = np.bincount(indices, minlength=len(self._counts))
        total = float(array.sum())
        with self._lock:
            for index, count in enumerate(per_bucket):
                if count:
                    self._counts[index] += int(count)
            self._sum += total

    def merge_cumulative(
        self, buckets: Sequence[Sequence[Any]], total: float
    ) -> None:
        """Fold another histogram's snapshot buckets into this child.

        ``buckets`` is the :meth:`MetricFamily.snapshot` shape —
        ``[le_text, cumulative_count]`` pairs ending at ``"+Inf"`` —
        so counts are de-cumulated back into per-slot deltas before
        adding; merging N worker snapshots is therefore exact, not
        approximate.
        """
        if len(buckets) != len(self._counts):
            raise ConfigError(
                f"cannot merge a histogram snapshot with {len(buckets)} "
                f"buckets into one with {len(self._counts)}"
            )
        deltas: List[int] = []
        previous = 0
        for _, cumulative in buckets:
            cumulative = int(cumulative)
            if cumulative < previous:
                raise ConfigError(
                    "histogram snapshot buckets must be cumulative"
                )
            deltas.append(cumulative - previous)
            previous = cumulative
        with self._lock:
            for index, delta in enumerate(deltas):
                self._counts[index] += delta
            self._sum += float(total)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out


class MetricFamily:
    """One named metric with a fixed label schema and typed children."""

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ):
        _check_name(name, "metric")
        for label in label_names:
            _check_name(label, "label")
            if label == "le":
                raise ConfigError(
                    "label name 'le' is reserved for histogram buckets"
                )
        if kind not in _VALID_TYPES:
            raise ConfigError(f"unknown metric type {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self.buckets: Optional[Tuple[float, ...]] = None
        if kind == "histogram":
            bounds = tuple(
                float(b) for b in (buckets or DEFAULT_BUCKETS)
            )
            if not bounds or any(
                not math.isfinite(b) for b in bounds
            ) or any(a >= b for a, b in zip(bounds, bounds[1:])):
                raise ConfigError(
                    f"histogram buckets must be finite and strictly "
                    f"increasing, got {bounds!r}"
                )
            self.buckets = bounds
        elif buckets is not None:
            raise ConfigError(f"{kind} metrics take no buckets")
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not label_names:
            self._children[()] = self._new_child()

    def _new_child(self) -> _Child:
        if self.kind == "counter":
            return CounterChild()
        if self.kind == "gauge":
            return GaugeChild()
        return HistogramChild(self.buckets or DEFAULT_BUCKETS)

    # --- child access -------------------------------------------------------

    def labels(self, *values: Any, **kwargs: Any) -> Any:
        """The child for one label-value tuple, created on first use."""
        if values and kwargs:
            raise ConfigError(
                "pass label values either positionally or by name"
            )
        if kwargs:
            extra = set(kwargs) - set(self.label_names)
            missing = set(self.label_names) - set(kwargs)
            if extra or missing:
                raise ConfigError(
                    f"metric {self.name} takes labels "
                    f"{list(self.label_names)}, got {sorted(kwargs)}"
                )
            key = tuple(str(kwargs[name]) for name in self.label_names)
        else:
            if len(values) != len(self.label_names):
                raise ConfigError(
                    f"metric {self.name} takes {len(self.label_names)} "
                    f"label values, got {len(values)}"
                )
            key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._new_child()
                    self._children[key] = child
        return child

    def _solo(self) -> Any:
        if self.label_names:
            raise ConfigError(
                f"metric {self.name} is labeled "
                f"({list(self.label_names)}); call .labels(...) first"
            )
        return self._children[()]

    # Unlabeled convenience pass-throughs.

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def observe_many(self, values: Iterable[float]) -> None:
        self._solo().observe_many(values)

    # --- snapshot -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible state of every child, label-sorted."""
        with self._lock:
            items = sorted(self._children.items())
        samples: List[Dict[str, Any]] = []
        for key, child in items:
            labels = dict(zip(self.label_names, key))
            if isinstance(child, HistogramChild):
                samples.append(
                    {
                        "labels": labels,
                        "buckets": [
                            [_le_text(bound), count]
                            for bound, count in child.cumulative_buckets()
                        ],
                        "sum": child.sum,
                        "count": child.count,
                    }
                )
            else:
                samples.append({"labels": labels, "value": child.value})
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "samples": samples,
        }


def _le_text(bound: float) -> str:
    """Prometheus ``le`` label text for one bucket bound."""
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound)) + ".0"
    return repr(bound)


def _le_value(text: str) -> float:
    """Inverse of :func:`_le_text`: bucket bound from ``le`` text."""
    if text == "+Inf":
        return math.inf
    return float(text)


class MetricsRegistry:
    """A named collection of metric families with get-or-create access.

    ``declare`` (and its typed forms ``counter``/``gauge``/``histogram``)
    is idempotent: asking twice for the same name returns the same family (so every subsystem can
    declare its metrics at the call site without import-order
    coupling), while re-declaring a name with a different type, label
    schema, or bucket layout is a :class:`~repro.errors.ConfigError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        #: Handle namespaces :mod:`repro.telemetry.instruments` built
        #: for this registry, one per subsystem (and store backend).
        self.bindings: Dict[Tuple[str, ...], Any] = {}

    def declare(
        self,
        name: str,
        help: str,
        kind: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name,
                    help,
                    kind,
                    label_names,
                    tuple(buckets) if buckets is not None else None,
                )
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ConfigError(
                f"metric {name} is a {family.kind}, not a {kind}"
            )
        if family.label_names != label_names:
            raise ConfigError(
                f"metric {name} is labeled {list(family.label_names)}, "
                f"not {list(label_names)}"
            )
        if (
            kind == "histogram"
            and buckets is not None
            and family.buckets != tuple(float(b) for b in buckets)
        ):
            raise ConfigError(
                f"metric {name} was declared with buckets "
                f"{family.buckets}, not {tuple(buckets)}"
            )
        return family

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self.declare(name, help, "counter", labels)

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self.declare(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self.declare(
            name, help, "histogram", labels, buckets=buckets
        )

    def collect(self) -> List[MetricFamily]:
        """Every family, name-sorted (the exposition order)."""
        with self._lock:
            return [
                self._families[name] for name in sorted(self._families)
            ]

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-compatible snapshot of the whole registry.

        The exact structure the Prometheus text writer consumes
        (:func:`repro.telemetry.exposition.render_text`), so the JSON
        and text expositions of one snapshot can never disagree.
        """
        return {
            "snapshot_version": 1,
            "metrics": [family.snapshot() for family in self.collect()],
        }

    def merge_snapshot(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold a child registry's :meth:`snapshot` into this registry.

        The coordinator-side half of cross-process telemetry: a
        process-pool worker runs its jobs under a fresh registry (see
        :func:`repro.telemetry.scoped_registry`), snapshots it, and
        ships the snapshot home alongside the result. Merging *adds*
        counter values and de-cumulated histogram buckets (so N worker
        snapshots sum exactly), *sets* gauges (point-in-time values),
        and creates any family or child this registry has not yet
        seen. ``None`` and empty snapshots are no-ops; a family whose
        declaration conflicts with an existing one (type, labels,
        bucket layout) raises :class:`~repro.errors.ConfigError`, as a
        direct re-declaration would.
        """
        if not snapshot:
            return
        for metric in snapshot.get("metrics", ()):
            name = metric["name"]
            kind = metric["type"]
            help_text = metric.get("help", "")
            label_names = tuple(metric.get("label_names", ()))
            samples = metric.get("samples", ())
            if kind == "histogram":
                live = [
                    sample
                    for sample in samples
                    if int(sample.get("count", 0)) > 0
                ]
                if not live:
                    # Nothing observed: creating the family here would
                    # pin bucket bounds nobody chose.
                    continue
                bounds = tuple(
                    _le_value(text)
                    for text, _ in live[0]["buckets"]
                    if text != "+Inf"
                )
                family = self.histogram(
                    name, help_text, label_names, buckets=bounds
                )
                for sample in live:
                    child = family.labels(**sample["labels"])
                    child.merge_cumulative(
                        sample["buckets"], sample.get("sum", 0.0)
                    )
            elif kind == "counter":
                family = self.counter(name, help_text, label_names)
                for sample in samples:
                    value = float(sample.get("value", 0.0))
                    if value:
                        family.labels(**sample["labels"]).inc(value)
            elif kind == "gauge":
                family = self.gauge(name, help_text, label_names)
                for sample in samples:
                    family.labels(**sample["labels"]).set(
                        float(sample.get("value", 0.0))
                    )
            else:
                raise ConfigError(
                    f"cannot merge unknown metric type {kind!r}"
                )

