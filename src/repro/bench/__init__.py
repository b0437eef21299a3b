"""``repro.bench`` — workload generators and the results harness."""

from .harness import Table, Timing, ratio, stopwatch
from .workloads import (
    acme_fragment,
    employee_database,
    figure1_database,
    history_churn,
    scattered_tree_database,
    traverse_tree,
    tree_database,
)

__all__ = [
    "Table",
    "Timing",
    "acme_fragment",
    "employee_database",
    "figure1_database",
    "history_churn",
    "ratio",
    "scattered_tree_database",
    "stopwatch",
    "traverse_tree",
    "tree_database",
]
