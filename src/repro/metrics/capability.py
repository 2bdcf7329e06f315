"""Table 1 — the explainer capability matrix, generated from metadata.

Rows default to the explainer registry's Table 1 members
(:func:`repro.api.registry.explainer_specs`), so a newly registered
explainer is constructed, swept, *and* capability-tabled identically.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

from repro.explainers.base import Explainer, ExplainerCapabilities


def default_capability_classes() -> Sequence[Type[Explainer]]:
    """Table 1 row classes: the registry's ``in_table1`` specs, in
    registration order."""
    # lazy: repro.api's service imports this module at import time
    from repro.api.registry import explainer_specs

    return [spec.cls for spec in explainer_specs() if spec.in_table1]

COLUMNS = (
    "Method",
    "Learning",
    "Task",
    "Target",
    "MA",
    "LS",
    "SB",
    "Coverage",
    "Config",
    "Queryable",
)


def _mark(flag: bool) -> str:
    return "yes" if flag else "no"


def capability_rows(
    classes: Optional[Sequence[Type[Explainer]]] = None,
) -> List[List[str]]:
    """Table 1 rows in the paper's column order."""
    if classes is None:
        classes = default_capability_classes()
    rows = []
    for cls in classes:
        caps: ExplainerCapabilities = cls.capabilities
        rows.append(
            [
                caps.name,
                _mark(caps.requires_learning),
                caps.tasks,
                caps.target,
                _mark(caps.model_agnostic),
                _mark(caps.label_specific),
                _mark(caps.size_bound),
                _mark(caps.coverage),
                _mark(caps.configurable),
                _mark(caps.queryable),
            ]
        )
    return rows


def capability_table(
    classes: Optional[Sequence[Type[Explainer]]] = None,
) -> str:
    """ASCII rendering of Table 1."""
    rows = [list(COLUMNS)] + capability_rows(classes)
    widths = [max(len(r[i]) for r in rows) for i in range(len(COLUMNS))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


__all__ = [
    "capability_rows",
    "capability_table",
    "default_capability_classes",
    "COLUMNS",
]
