"""Shared result container and formatting for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class TableResult:
    """One reproduced table or figure."""

    name: str
    description: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: The corresponding values reported in the paper.
    paper_reference: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        }

    def __str__(self) -> str:
        return format_table(self)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(result: TableResult, max_width: int = 40) -> str:
    """Render a TableResult as an aligned text table."""
    columns = result.columns
    header = [column[:max_width] for column in columns]
    body: List[List[str]] = []
    for row in result.rows:
        body.append([_format_cell(row.get(column, ""))[:max_width] for column in columns])
    widths = [
        max(len(header[index]), *(len(row[index]) for row in body)) if body else len(header[index])
        for index in range(len(columns))
    ]
    lines = [f"== {result.name} — {result.description} =="]
    lines.append("  ".join(header[index].ljust(widths[index]) for index in range(len(columns))))
    lines.append("  ".join("-" * widths[index] for index in range(len(columns))))
    for row in body:
        lines.append("  ".join(row[index].ljust(widths[index]) for index in range(len(columns))))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def geometric_mean(values: Sequence[float]) -> Optional[float]:
    cleaned = [value for value in values if value and value > 0]
    if not cleaned:
        return None
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))


__all__ = ["TableResult", "format_table", "geometric_mean"]
