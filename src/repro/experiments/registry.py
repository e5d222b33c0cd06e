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

Built-in entries self-register when their home module is imported;
each registry lazily imports that module on first lookup (``populate``
below), so ``SCHEMES.create("aero", ...)`` works even when
:mod:`repro.schemes` has not been imported yet. Unknown keys raise
:class:`~repro.errors.ConfigError` listing every valid key.

A key that a populate module registered is built in: it can be neither
replaced nor unregistered. Result fingerprints hash a built-in key, not
what it resolves to, so replacing one would let a store serve reports
of the stock entry for the replacement.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from typing import Any, Dict, Iterator, Sequence, Tuple

from repro.errors import ConfigError

_MISSING = object()


def _calling_module() -> Any:
    """Name of the module whose code called into this one (the first
    frame outside it)."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    return frame.f_globals.get("__name__") if frame is not None else None


class Registry:
    """Insertion-ordered mapping of string keys to plugin entries.

    ``kind`` names what the registry holds ("scheme", "workload") and
    is used in error messages; ``populate`` lists modules whose import
    registers the built-in entries, imported lazily on first access.
    """

    def __init__(self, kind: str, populate: Sequence[str] = ()):
        self.kind = kind
        self._populate_modules = tuple(populate)
        self._entries: Dict[str, Any] = {}
        self._builtin: set = set()
        self._populated = not self._populate_modules

    # --- population ---------------------------------------------------------

    def _ensure_populated(self) -> None:
        if self._populated:
            return
        # Flip the flag first: the imported module calls register(),
        # which must not recurse back into population. On failure the
        # flag resets so the next lookup re-raises the real import
        # error instead of silently serving an empty registry.
        self._populated = True
        try:
            for module in self._populate_modules:
                importlib.import_module(module)
        except BaseException:
            self._populated = False
            raise

    # --- registration -------------------------------------------------------

    def register(
        self, key: str, entry: Any = _MISSING, *, replace: bool = False
    ) -> Any:
        """Register ``entry`` under ``key``; usable as a decorator.

        ``@registry.register("key")`` registers the decorated object
        and returns it unchanged; ``registry.register("key", obj)``
        registers directly. Re-registering an existing key raises
        :class:`ConfigError` unless ``replace=True``; a built-in key
        always does.
        """
        if not key or not isinstance(key, str):
            raise ConfigError(f"{self.kind} key must be a non-empty string")

        def _add(obj: Any) -> Any:
            self._refuse_builtin(key)
            if not replace and key in self._entries:
                raise ConfigError(
                    f"{self.kind} {key!r} is already registered; "
                    f"pass replace=True to override"
                )
            self._entries[key] = obj
            if _calling_module() in self._populate_modules:
                self._builtin.add(key)
            return obj

        if entry is _MISSING:
            return _add
        return _add(entry)

    def unregister(self, key: str) -> None:
        """Remove ``key`` (no-op if absent) — mainly for tests/plugins;
        a built-in key raises :class:`ConfigError`."""
        self._refuse_builtin(key)
        self._entries.pop(key, None)

    def _refuse_builtin(self, key: str) -> None:
        if key in self._builtin:
            raise ConfigError(
                f"{self.kind} {key!r} is built in and cannot be replaced "
                "or unregistered; register the variant under a new key"
            )

    # --- lookup -------------------------------------------------------------

    def get(self, key: str) -> Any:
        """Return the entry for ``key``; rich ConfigError when unknown."""
        self._ensure_populated()
        try:
            return self._entries[key]
        except KeyError:
            known = ", ".join(self.keys())
            raise ConfigError(
                f"unknown {self.kind} {key!r}; known: {known}"
            ) from None

    def keys(self) -> Tuple[str, ...]:
        """Registered keys in registration order."""
        self._ensure_populated()
        return tuple(self._entries)

    def __contains__(self, key: str) -> bool:
        self._ensure_populated()
        return key in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        self._ensure_populated()
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

    def add(self, profile: Any, *, replace: bool = False) -> Any:
        """Register a profile under its own ``abbr``."""
        return self.register(profile.abbr, profile, replace=replace)

    def resolve(self, key: str) -> Any:
        """Return the profile for ``key``, invoking factory entries."""
        entry = self.get(key)
        if callable(entry):
            entry = entry()
        return entry


#: Process-wide erase-scheme registry (built-ins live in repro.schemes).
SCHEMES = SchemeRegistry("scheme", populate=("repro.schemes",))

#: Process-wide workload registry (built-ins: the 11 Table 3 profiles).
WORKLOADS = WorkloadRegistry(
    "workload", populate=("repro.workloads.profiles",)
)


def scheme_keys() -> Tuple[str, ...]:
    """All registered scheme keys (built-ins plus plugins)."""
    return SCHEMES.keys()


def workload_keys() -> Tuple[str, ...]:
    """All registered workload abbreviations (built-ins plus plugins)."""
    return WORKLOADS.keys()
