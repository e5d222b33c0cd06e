"""Declarative experiment API: registries, specs, builder, runner, CLI.

The one way to describe and run an evaluation experiment:

* :data:`SCHEMES` / :data:`WORKLOADS` — plugin registries every string
  key in the library resolves through (``@SCHEMES.register("key")``
  adds a scheme without touching core files);
* :class:`ExperimentSpec` — frozen, JSON-round-trippable description
  of one (scheme, PEC, workload) cell, the canonical cache-fingerprint
  input;
* :class:`Experiment` — fluent builder
  (``Experiment.aero().at_pec(2500).workload("ali.A").run()``);
* :func:`run_experiments` — execute specs through the cached,
  optionally parallel :class:`~repro.harness.runner.GridRunner`;
* ``python -m repro`` (:mod:`repro.experiments.cli`) — the same
  surface from the shell (``run``, ``grid``, ``compare``,
  ``campaign ls|compact``).

Only the registries import eagerly here; the spec/runner/CLI layers
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
    scheme_keys,
    workload_keys,
)

_LAZY = {
    "ExperimentSpec": "repro.experiments.spec",
    "Experiment": "repro.experiments.spec",
    "SPEC_VERSION": "repro.experiments.spec",
    "load_spec_file": "repro.experiments.spec",
    "ExperimentRun": "repro.experiments.runner",
    "run_experiment": "repro.experiments.runner",
    "run_experiments": "repro.experiments.runner",
    "main": "repro.experiments.cli",
}

__all__ = [
    "Experiment",
    "ExperimentRun",
    "ExperimentSpec",
    "Registry",
    "SCHEMES",
    "SPEC_VERSION",
    "SchemeRegistry",
    "WORKLOADS",
    "WorkloadRegistry",
    "load_spec_file",
    "main",
    "run_experiment",
    "run_experiments",
    "scheme_keys",
    "workload_keys",
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
