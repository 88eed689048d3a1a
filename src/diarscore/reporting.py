"""Deterministic report rendering: aligned text and TSV with identical numbers."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def percent(value: Fraction) -> str:
    """Format a ratio as a percentage with 2 decimals, rounding half-up.

    Computed on the exact Fraction, so e.g. 13.085% prints as 13.09.
    """
    hundredths = value * 10_000
    scaled = (2 * hundredths.numerator + hundredths.denominator) // (2 * hundredths.denominator)
    return f"{scaled // 100}.{scaled % 100:02d}"


def render_aligned(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Space-aligned table; first column left-aligned, the rest right-aligned."""
    table = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(headers))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[c]) for c, cell in enumerate(row) if c > 0
        ]
        lines.append("  ".join(cells).rstrip())
    return "".join(line + "\n" for line in lines)


def render_tsv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["\t".join(headers)] + ["\t".join(r) for r in rows]
    return "".join(line + "\n" for line in lines)
