"""Fault plans: seeded, declarative, stateless fault predicates.

See :mod:`repro.faults` for the catalogue of fault kinds and where
each one hooks in. Two objects matter here:

* :class:`FaultPlan` — the frozen description (JSON round-trippable,
  picklable into worker processes). Worker-side faults are pure
  functions of ``(cell, attempt)`` so a forked or spawned worker
  evaluates them without shared state.
* :class:`FaultInjector` — the orchestrator-side stateful wrapper: it
  numbers store puts, fires the store/compaction hooks, and counts
  every fired fault in the ``repro_faults_injected_total{kind}``
  telemetry family.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError, InjectedFault
from repro.rng import derive

#: Every fault kind a plan may name.
FAULT_KINDS = (
    "torn_tail",
    "corrupt_checksum",
    "crash_before_put",
    "crash_after_put",
    "kill_worker",
    "slow_cell",
    "compact_interrupt",
)

#: Kinds that target a campaign cell (evaluated inside workers).
CELL_KINDS = ("kill_worker", "slow_cell")

#: Kinds that target the Nth store put (evaluated in the store).
PUT_KINDS = (
    "torn_tail", "corrupt_checksum", "crash_before_put", "crash_after_put",
)

#: Exit code a process worker dies with under ``kill_worker`` — chosen
#: to be recognizable in supervisor logs, nothing depends on the value.
KILL_WORKER_EXIT = 113


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a kind plus the predicate selecting where it fires.

    ``cell`` / ``attempt`` select a campaign cell attempt
    (``attempt`` is 1-based; ``None`` matches every attempt).
    ``put_index`` selects the Nth put (0-based) on the store the
    injector is armed on. ``delay_s`` is the ``slow_cell`` sleep.
    """

    kind: str
    cell: Optional[int] = None
    attempt: Optional[int] = 1
    put_index: Optional[int] = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.kind in CELL_KINDS and self.cell is None:
            raise ConfigError(f"{self.kind} fault needs a cell index")
        if self.kind in PUT_KINDS and self.put_index is None:
            raise ConfigError(f"{self.kind} fault needs a put_index")
        if self.kind == "slow_cell" and self.delay_s <= 0:
            raise ConfigError("slow_cell fault needs delay_s > 0")
        if self.attempt is not None and self.attempt < 1:
            raise ConfigError("fault attempt numbers are 1-based")

    def matches_cell(self, cell: int, attempt: int) -> bool:
        return (
            self.kind in CELL_KINDS
            and self.cell == cell
            and (self.attempt is None or self.attempt == attempt)
        )

    def matches_put(self, put_index: int) -> bool:
        return self.kind in PUT_KINDS and self.put_index == put_index

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        for name in ("cell", "attempt", "put_index"):
            value = getattr(self, name)
            if value is not None and not (name == "attempt" and value == 1):
                data[name] = value
        if self.attempt is None:
            data["attempt"] = None
        if self.delay_s:
            data["delay_s"] = self.delay_s
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"fault spec must be a JSON object, got {type(data).__name__}"
            )
        known = {"kind", "cell", "attempt", "put_index", "delay_s"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown fault spec fields {unknown}; "
                f"known: {', '.join(sorted(known))}"
            )
        if "kind" not in data:
            raise ConfigError("fault spec needs a kind")
        return cls(
            kind=data["kind"],
            cell=data.get("cell"),
            attempt=data.get("attempt", 1),
            put_index=data.get("put_index"),
            delay_s=float(data.get("delay_s", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults; empty plan == no faults anywhere.

    ``seed`` feeds the deterministic details of a fault's *shape*
    (where a torn line is cut), never *whether* it fires — firing is
    decided by the specs' predicates alone, so two runs of the same
    plan fail identically.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    # --- worker-side (pure) -------------------------------------------------

    def cell_fault(self, cell: int, attempt: int) -> Tuple[float, bool]:
        """``(delay_s, kill)`` for one cell attempt; ``(0.0, False)``
        when nothing fires. Pure — safe to evaluate in any process."""
        delay = 0.0
        kill = False
        for spec in self.faults:
            if spec.matches_cell(cell, attempt):
                if spec.kind == "slow_cell":
                    delay += spec.delay_s
                elif spec.kind == "kill_worker":
                    kill = True
        return delay, kill

    def put_fault(self, put_index: int) -> Optional[FaultSpec]:
        """The store fault targeting this put ordinal, if any."""
        for spec in self.faults:
            if spec.matches_put(put_index):
                return spec
        return None

    def has_compact_interrupt(self) -> bool:
        return any(spec.kind == "compact_interrupt" for spec in self.faults)

    def torn_cut(self, put_index: int, length: int) -> int:
        """Deterministic byte count a torn write keeps (1..length-2)."""
        if length <= 2:
            return 1
        return 1 + derive(self.seed, "torn", put_index) % (length - 2)

    # --- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"seed", "faults"})
        if unknown:
            raise ConfigError(
                f"unknown fault plan fields {unknown}; known: faults, seed"
            )
        faults = data.get("faults", [])
        if not isinstance(faults, (list, tuple)):
            raise ConfigError("fault plan 'faults' must be a list")
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(FaultSpec.from_dict(item) for item in faults),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"invalid fault plan JSON: {exc}") from exc
        return cls.from_dict(data)


def load_fault_file(path: Union[str, Path]) -> FaultPlan:
    """Load a fault plan from a JSON file.

    Accepts the bare plan object or ``{"fault_plan": {...}}``.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read fault plan {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(
            f"invalid JSON in fault plan {path}: {exc}"
        ) from exc
    if isinstance(data, Mapping) and "fault_plan" in data:
        data = data["fault_plan"]
    return FaultPlan.from_dict(data)


class FaultInjector:
    """Stateful store/compaction hooks for one armed :class:`FaultPlan`.

    One injector per store handle: it numbers that store's puts (the
    coordinate ``put_index`` predicates fire on) and counts every
    fired fault in telemetry. The no-op default (:data:`NO_FAULTS`)
    short-circuits each hook on an empty plan.

    Subclasses may override :meth:`fire` to turn a matched fault into
    a harder failure (the kill -9 compaction test does exactly this).
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._put_ordinal = 0

    def __bool__(self) -> bool:
        return bool(self.plan)

    def record(self, kind: str) -> None:
        """Count one fired fault in telemetry."""
        from repro.telemetry.instruments import fault_metrics

        fault_metrics().injected.labels(kind=kind).inc()

    def fire(self, spec: FaultSpec, context: str) -> None:
        """Fire one crash-flavoured fault (override point for tests)."""
        self.record(spec.kind)
        raise InjectedFault(
            f"injected {spec.kind} at {context}", kind=spec.kind
        )

    # --- store hooks --------------------------------------------------------

    def before_put(self, key: str) -> int:
        """Claim this put's ordinal; crash here if the plan says so."""
        with self._lock:
            ordinal = self._put_ordinal
            self._put_ordinal += 1
        if not self.plan:
            return ordinal
        spec = self.plan.put_fault(ordinal)
        if spec is not None and spec.kind == "crash_before_put":
            self.fire(spec, f"put #{ordinal} ({key[:12]})")
        return ordinal

    def mutate_record(
        self, ordinal: int, payload: bytes, crc: int
    ) -> Tuple[bytes, int]:
        """Damage the report bytes or CRC about to be stored, per plan.

        ``torn_tail`` keeps a prefix of the bytes under the whole
        bytes' CRC, as a crash mid-write would; ``corrupt_checksum``
        stores the CRC off by one.
        """
        spec = self.plan.put_fault(ordinal) if self.plan else None
        if spec is None or spec.kind not in ("torn_tail", "corrupt_checksum"):
            return payload, crc
        self.record(spec.kind)
        if spec.kind == "torn_tail":
            return payload[: self.plan.torn_cut(ordinal, len(payload))], crc
        return payload, (crc + 1) & 0xFFFFFFFF

    def after_put(self, ordinal: int, key: str) -> None:
        if not self.plan:
            return
        spec = self.plan.put_fault(ordinal)
        if spec is not None and spec.kind == "crash_after_put":
            self.fire(spec, f"put #{ordinal} ({key[:12]})")

    # --- compaction hook ----------------------------------------------------

    def on_compact(self, stage: str) -> None:
        """Called inside a compaction; ``stage`` is ``"before-commit"``
        — the policy DELETE is staged but not yet committed."""
        if not self.plan or not self.plan.has_compact_interrupt():
            return
        for spec in self.plan.faults:
            if spec.kind == "compact_interrupt":
                self.fire(spec, f"compaction stage {stage}")


#: Shared no-op injector — the default on every store.
NO_FAULTS = FaultInjector()
