"""Plain-text table renderers matching the paper's layout."""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["render_table", "format_seconds", "bold_min"]


def format_seconds(value: float) -> str:
    """Human-scaled seconds with enough precision for small simulated times."""
    if value == 0:
        return "0"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.2f}s"


def bold_min(values: Sequence[float], formatted: Sequence[str]) -> List[str]:
    """Mark the row's winner with a '*' (the paper bolds it)."""
    if not values:
        return list(formatted)
    best = min(range(len(values)), key=lambda i: values[i])
    out = list(formatted)
    out[best] = f"*{out[best]}*"
    return out


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """Fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), sum(widths) + 2 * len(widths)))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

