"""Experiment T1: reproduce Table 1.0.

*"Comparison of hand-coded and auto-generated code for CSPI"* — the 2D FFT
and distributed corner turn on 4- and 8-node CSPI configurations with
256/512/1024 square data sets, each cell the average of the 10x100 protocol,
reported as SAGE-as-percentage-of-hand-coded with per-application and
overall averages (the paper's headline 77.5 % / "within 75 % efficiency").

Run: ``python -m repro table1 [--quick] [-o FILE]``
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..machine import get_platform
from .runner import QUICK_PROTOCOL, Protocol, measure_hand, measure_sage

__all__ = ["Table1Row", "run_table1", "format_table1",
           "NODE_COUNTS", "ARRAY_SIZES", "APPS"]

NODE_COUNTS = (4, 8)
ARRAY_SIZES = (256, 512, 1024)
APPS = (("2D FFT", "fft2d"), ("Corner Turn", "corner_turn"))


@dataclass
class Table1Row:
    """One (application, array size, node count) cell of Table 1.0."""

    app_label: str
    app: str
    nodes: int
    size: int
    hand_ms: float
    sage_ms: float

    @property
    def pct_of_hand(self) -> float:
        """SAGE performance as a percentage of hand-coded (higher is better)."""
        return 100.0 * self.hand_ms / self.sage_ms

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.sage_ms / self.hand_ms - 1.0)


def run_table1(
    protocol: Protocol = QUICK_PROTOCOL,
    node_counts: Sequence[int] = NODE_COUNTS,
    sizes: Sequence[int] = ARRAY_SIZES,
) -> List[Table1Row]:
    """Measure every cell of Table 1.0 on CSPI; returns rows in paper order."""
    platform = get_platform("cspi")
    rows: List[Table1Row] = []
    for app_label, app in APPS:
        for nodes in node_counts:
            for size in sizes:
                hand = measure_hand(app, platform, nodes, size, protocol)
                sage = measure_sage(app, platform, nodes, size, protocol)
                rows.append(
                    Table1Row(app_label, app, nodes, size,
                              hand.latency_ms, sage.latency_ms)
                )
    return rows


def averages(rows: Sequence[Table1Row]) -> Dict[str, float]:
    """Per-application and overall %-of-hand averages."""
    out: Dict[str, float] = {}
    for app_label, _app in APPS:
        cells = [r.pct_of_hand for r in rows if r.app_label == app_label]
        if cells:
            out[app_label] = statistics.fmean(cells)
    out["overall"] = statistics.fmean(r.pct_of_hand for r in rows)
    return out


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render the rows in the paper's layout."""
    lines = [
        "Table 1.0  Comparison of hand-coded and auto-generated code for CSPI",
        "",
        f"{'Application':<14s}{'Nodes':>6s}{'Array Size':>12s}"
        f"{'Hand (ms)':>12s}{'SAGE (ms)':>12s}{'% of Hand':>11s}",
        "-" * 67,
    ]
    last_app = None
    for r in rows:
        app = r.app_label if r.app_label != last_app else ""
        last_app = r.app_label
        lines.append(
            f"{app:<14s}{r.nodes:>6d}{f'{r.size} x {r.size}':>12s}"
            f"{r.hand_ms:>12.3f}{r.sage_ms:>12.3f}{r.pct_of_hand:>10.1f}%"
        )
    lines.append("-" * 67)
    for label, value in averages(rows).items():
        lines.append(f"{'Average ' + label + ':':<44s}{value:>21.1f}%")
    return "\n".join(lines)

