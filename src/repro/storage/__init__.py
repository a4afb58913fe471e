"""``repro.storage`` — in-memory columnar storage substrate.

Tables, typed columns, join schemas (PK-FK graphs) and ANALYZE-style
statistics (equi-depth histograms, MCV lists, distinct counts).
"""

from .catalog import Database
from .column import Column, ColumnType
from .schema import JoinRelation, JoinSchema, connected_components
from .statistics import (
    ColumnStatistics,
    EquiDepthHistogram,
    TableStatistics,
    analyze_column,
    analyze_table,
)
from .table import Table

__all__ = [
    "Column",
    "ColumnType",
    "Table",
    "JoinRelation",
    "JoinSchema",
    "connected_components",
    "Database",
    "EquiDepthHistogram",
    "ColumnStatistics",
    "TableStatistics",
    "analyze_column",
    "analyze_table",
]
