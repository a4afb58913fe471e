"""``repro.eval`` — metrics, experiment harnesses (Tables 1-3), reporting."""

from .experiments import (
    SingleDBStudy,
    StudyConfig,
    Table1Row,
    Table2Row,
    Table3Row,
    collect_node_qerrors,
    join_order_execution_time,
    run_table3,
    worst_legal_order,
)
from .metrics import QErrorStats, improvement_ratio, qerror_stats
from .reporting import (
    format_fleet_report,
    format_serving_report,
    format_table1,
    format_table2,
    format_table3,
)

__all__ = [
    "QErrorStats",
    "qerror_stats",
    "improvement_ratio",
    "SingleDBStudy",
    "StudyConfig",
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "run_table3",
    "collect_node_qerrors",
    "join_order_execution_time",
    "worst_legal_order",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_serving_report",
    "format_fleet_report",
]
