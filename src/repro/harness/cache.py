"""The job protocol: cache keys, store meta and labels from one payload.

Every unit of work a store files — a grid cell
(:class:`~repro.harness.runner.CellJob`) or a lifetime curve
(:class:`~repro.lifetime.spec.LifetimeJob`) — is a frozen dataclass
on :class:`Job`. A job states its fields, its :meth:`Job.payload` and
its ``execute()``; the base derives, each by one rule, what the store,
the supervisor and the orchestrator read:

* ``fingerprint`` — SHA-256 over the payload's ``name=value`` lines,
  joined by newlines. The payload holds everything that determines the
  result (the resolved :class:`~repro.config.SsdSpec` or chip-profile
  name, scheme, seeds, request count, the remaining knobs) plus
  :data:`CACHE_VERSION`, so any change to any input yields a different
  key and one store can be shared across campaigns and machines;
* ``store_meta()`` — the job's family and its plain fields, the
  provenance a stored record carries (``campaign ls --json``);
* ``describe()`` — the class's ``label`` formatted over its fields,
  for logs, quarantine records and trace spans.

Every lookup of a resumed job computes its fingerprint, so the spec
text is rendered once per ``SsdSpec`` and ``ChipProfile`` instance
(:func:`~repro.nand.chip_types.repr_once`) and reused: a grid point's
jobs share one spec, and profiles are module constants. The memo is
per instance, never per value, because equal specs can render apart:
``controller_overhead_us=3`` and ``3.0`` compare and hash equal, yet
their texts, and so their fingerprints, differ.

Finished jobs persist in a
:class:`~repro.campaign.store.ShardedResultStore` (one SQLite table
keyed by fingerprint): the runner consults it before executing a job
and writes each finished result back immediately, so a campaign killed
halfway resumes from its last completed job on the next run.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import Any, Dict

#: Bump when the cell-execution semantics or record format change; old
#: records then miss instead of returning stale results.
#: v2: erase-resume dispatch fix and truncated-replay makespan fix
#: changed every cell's report.
CACHE_VERSION = 2


class Job:
    """Base of the frozen job dataclasses (picklable work orders)."""

    #: Family discriminator for the campaign layer and result stores.
    family = ""
    #: ``str.format`` template over the fields: the :meth:`describe` text.
    label = ""

    def payload(self) -> Dict[str, Any]:
        """Every input of the result, in fingerprint-line order; each
        value renders its line with ``str``."""
        raise NotImplementedError

    def execute(self) -> Any:
        """Compute the result (a pure function of the job)."""
        raise NotImplementedError

    @property
    def fingerprint(self) -> str:
        """The cache key: SHA-256 of the payload's ``name=value`` lines."""
        lines = [f"{name}={value}" for name, value in self.payload().items()]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def store_meta(self) -> Dict[str, Any]:
        """Provenance stored beside the result: the family and every
        field holding a JSON scalar, with a tuple of pairs as an object;
        ``None``, empty tuples and objects are left out."""
        meta: Dict[str, Any] = {"family": self.family}
        for job_field in fields(self):
            value = getattr(self, job_field.name)
            if isinstance(value, tuple) and value:
                meta[job_field.name] = dict(value)
            elif isinstance(value, (str, int, float)):
                meta[job_field.name] = value
        return meta

    def describe(self) -> str:
        """Short label for logs, quarantine records and trace spans."""
        return self.label.format_map(vars(self))
