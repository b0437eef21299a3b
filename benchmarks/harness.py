"""Benchmark harness: tables, series and timing helpers.

Every experiment module in ``benchmarks/`` uses these to print the rows
and series it reproduces (EXPERIMENTS.md records the outcomes); the
pytest-benchmark fixtures handle the statistical timing.  Experiments
import it by name (``from harness import Table``): a script run puts
``benchmarks/`` first on ``sys.path``, and ``conftest.py`` does the
same under pytest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence


class Table:
    """A printable, aligned results table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []
        self.notes: list[str] = []

    def add(self, *values: Any) -> None:
        """Append one row (values are stringified)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append([_format(value) for value in values])

    def note(self, text: str) -> None:
        """Attach a footnote printed under the table."""
        self.notes.append(text)

    def render(self) -> str:
        """The formatted table."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def show(self) -> None:
        """Print the table with surrounding blank lines."""
        print()
        print(self.render())
        print()


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:,.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass
class Timing:
    """Result of a :func:`stopwatch` run."""

    seconds: float
    result: Any

    @property
    def millis(self) -> float:
        return self.seconds * 1e3

    @property
    def micros(self) -> float:
        return self.seconds * 1e6


def stopwatch(fn: Callable[[], Any], repeat: int = 1) -> Timing:
    """Best-of-*repeat* wall time of *fn* (for printed tables).

    pytest-benchmark does the statistically careful timing; this is the
    quick measurement the harness prints alongside reproduced rows.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return Timing(best, result)


def ratio(a: float, b: float) -> str:
    """A human ``N.Nx`` ratio, guarding division by zero."""
    if b == 0:
        return "∞"
    return f"{a / b:.1f}x"

