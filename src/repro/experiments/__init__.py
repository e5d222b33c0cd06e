"""Declarative experiment API: registries, specs, CLI.

The one way to describe and run an evaluation experiment:

* :data:`SCHEMES` / :data:`WORKLOADS` — plugin registries every string
  key in the library resolves through (``@SCHEMES.register("key")``
  adds a scheme without touching core files; a registered key never
  re-binds);
* :class:`ExperimentSpec` — frozen, JSON-round-trippable description
  of one (scheme, PEC, workload) cell, the canonical cache-fingerprint
  input. Build one with its keyword arguments and vary it with
  ``dataclasses.replace``
  (``ExperimentSpec(scheme="aero", pec=2500, workload="ali.A").run()``);
* :class:`~repro.harness.runner.GridRunner` — the cached, optionally
  parallel execution loop specs run through: ``ExperimentSpec.run``
  for one spec, ``GridRunner(workers=n, cache=...).execute_jobs(
  [spec.resolve() for spec in specs])`` for a batch;
* ``python -m repro`` (:mod:`repro.experiments.cli`) — the same
  surface from the shell (``run``, ``grid``, ``compare``,
  ``campaign ls|compact``).

Only the registries import eagerly here; the spec and CLI layers
load on first attribute access, which keeps this package importable
from the low-level modules (``repro.schemes``,
``repro.workloads.profiles``) that register their built-ins with it.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.experiments.registry import (
    Registry,
    SchemeRegistry,
    SCHEMES,
    WorkloadRegistry,
    WORKLOADS,
)

_LAZY = {
    "ExperimentSpec": "repro.experiments.spec",
    "SPEC_VERSION": "repro.experiments.spec",
    "load_spec_file": "repro.experiments.spec",
    "main": "repro.experiments.cli",
}

__all__ = [
    "ExperimentSpec",
    "Registry",
    "SCHEMES",
    "SPEC_VERSION",
    "SchemeRegistry",
    "WORKLOADS",
    "WorkloadRegistry",
    "load_spec_file",
    "main",
]


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list:
    return sorted(set(__all__) | set(globals()))
