"""Analysis helpers: ASCII tables."""

from repro.analysis.tables import format_table

__all__ = ["format_table"]
