"""Plugin registries: the one place scheme keys and workload refs resolve.

``SCHEMES`` and ``WORKLOADS`` are the process-wide registries behind
every string key in the library: ``make_scheme``/``build_ssd`` look
scheme keys up here, ``profile_by_abbr`` and the harness resolve
workload abbreviations here, and the ``python -m repro`` CLI derives
its ``--scheme``/``--workload`` vocabularies from them. New schemes and
workloads plug in without editing core files::

    from repro.experiments import SCHEMES, WORKLOADS

    @SCHEMES.register("my_scheme")
    def _build(profile, *, mispredict_rate=0.0, rber_requirement=None):
        return MyScheme(profile)

    WORKLOADS.register("mine", WorkloadProfile("custom", "t", "mine", ...))

Built-in entries register when their home modules,
:mod:`repro.schemes` and :mod:`repro.workloads.profiles`, are
imported; the end of this module imports both, so whatever imports it
finds both registries full. Unknown keys raise
:class:`~repro.errors.ConfigError` listing every valid key.

A registered key never re-binds, built in or not: a second
``register`` of a key raises :class:`ConfigError`. Result fingerprints
hash a key, not what it resolves to, so a re-bound key would let a
store serve reports computed for its first entry.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, Iterator, Tuple

from repro.errors import ConfigError

_MISSING = object()


class Registry:
    """Insertion-ordered mapping of string keys to plugin entries.

    ``kind`` names what the registry holds ("scheme", "workload") and
    is used in error messages.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    def register(self, key: str, entry: Any = _MISSING) -> Any:
        """Register ``entry`` under ``key``; usable as a decorator.

        ``@registry.register("key")`` registers the decorated object
        and returns it unchanged; ``registry.register("key", obj)``
        registers directly. A key that is already registered raises
        :class:`ConfigError`.
        """
        if not key or not isinstance(key, str):
            raise ConfigError(f"{self.kind} key must be a non-empty string")

        def _add(obj: Any) -> Any:
            if key in self._entries:
                raise ConfigError(
                    f"{self.kind} {key!r} is already registered and "
                    "cannot be re-bound; register the variant under a "
                    "new key"
                )
            self._entries[key] = obj
            return obj

        if entry is _MISSING:
            return _add
        return _add(entry)

    def get(self, key: str) -> Any:
        """Return the entry for ``key``; rich ConfigError when unknown."""
        try:
            return self._entries[key]
        except KeyError:
            known = ", ".join(self.keys())
            raise ConfigError(
                f"unknown {self.kind} {key!r}; known: {known}"
            ) from None

    def keys(self) -> Tuple[str, ...]:
        """Registered keys in registration order."""
        return tuple(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.kind!r}, keys={list(self._entries)})"


class SchemeRegistry(Registry):
    """Registry of erase-scheme factories.

    Entries are callables ``factory(profile, **params) -> EraseScheme``.
    Every factory must accept (and may ignore) the two cross-cutting
    sensitivity knobs ``mispredict_rate`` and ``rber_requirement``,
    mirroring the historical ``make_scheme`` contract; additional
    keyword params are scheme-specific.
    """

    def create(self, key: str, profile: Any, **params: Any) -> Any:
        """Instantiate the scheme registered under ``key``.

        A params/signature mismatch raises :class:`ConfigError` naming
        the offending params; errors raised *inside* the factory body
        propagate unchanged (they are factory bugs, not bad params).
        """
        factory = self.get(key)
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            signature = None  # unsignaturable callable; skip the pre-check
        if signature is not None:
            try:
                signature.bind(profile, **params)
            except TypeError as exc:
                raise ConfigError(
                    f"scheme {key!r} rejected params "
                    f"{sorted(params)}: {exc}"
                ) from exc
        return factory(profile, **params)


class WorkloadRegistry(Registry):
    """Registry of workload profiles keyed by figure abbreviation.

    Entries are either ``WorkloadProfile`` objects or zero-argument
    callables returning one (the decorator form); :meth:`resolve`
    normalizes both to a profile.
    """

    def add(self, profile: Any) -> Any:
        """Register a profile under its own ``abbr``."""
        return self.register(profile.abbr, profile)

    def resolve(self, key: str) -> Any:
        """Return the profile for ``key``, invoking factory entries."""
        entry = self.get(key)
        if callable(entry):
            entry = entry()
        return entry


#: Process-wide erase-scheme registry (built-ins live in repro.schemes).
SCHEMES = SchemeRegistry("scheme")

#: Process-wide workload registry (built-ins: the 11 Table 3 profiles).
WORKLOADS = WorkloadRegistry("workload")

# The built-in entries' home modules register them on import. Both
# import this module first, and find the two registries above already
# bound when they do.
import repro.schemes  # noqa: E402,F401  (registers the six schemes)
import repro.workloads.profiles  # noqa: E402,F401  (the Table 3 workloads)
