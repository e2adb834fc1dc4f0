"""Experiment F1: cross-vendor parallel performance (the MITRE context).

§3.1 cites MITRE's cross-vendor measurements of the same two benchmarks on
Mercury, CSPI, SKY, and SIGI platforms at several node counts (reference
[2], Games 1999).  This experiment regenerates that comparison on the
simulated platforms: hand-coded latency vs node count per vendor, with each
vendor's own tuned all-to-all algorithm, plus an ASCII chart of the series.

Expected shape: better fabrics win the corner turn (SKY/Mercury over CSPI
over SIGI); the compute-bound 2D FFT is far less fabric-sensitive; all
curves fall with node count, with the communication-bound corner turn
scaling sub-linearly on the shared-medium machines.

Run: ``python -m repro crossvendor [--quick] [-o FILE]``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..machine import get_platform
from .runner import QUICK_PROTOCOL, Protocol, measure_hand

__all__ = ["CrossVendorResult", "run_crossvendor", "format_crossvendor",
           "VENDORS", "NODE_COUNTS"]

VENDORS = ("mercury", "cspi", "sky", "sigi")
NODE_COUNTS = (2, 4, 8, 16)


@dataclass
class CrossVendorResult:
    """latency_ms[app][vendor][nodes]"""

    size: int
    latency_ms: Dict[str, Dict[str, Dict[int, float]]]


def run_crossvendor(
    protocol: Protocol = QUICK_PROTOCOL,
    size: int = 1024,
    vendors: Sequence[str] = VENDORS,
    node_counts: Sequence[int] = NODE_COUNTS,
    apps: Sequence[str] = ("fft2d", "corner_turn"),
) -> CrossVendorResult:
    table: Dict[str, Dict[str, Dict[int, float]]] = {}
    for app in apps:
        table[app] = {}
        for vendor in vendors:
            platform = get_platform(vendor)
            table[app][vendor] = {}
            for nodes in node_counts:
                m = measure_hand(app, platform, nodes, size, protocol)
                table[app][vendor][nodes] = m.latency_ms
    return CrossVendorResult(size=size, latency_ms=table)


def _ascii_series(series: Dict[str, Dict[int, float]], width: int = 50) -> List[str]:
    """Log-scale dot chart: one row per (vendor, nodes) point."""
    values = [v for per in series.values() for v in per.values()]
    if not values:
        return []
    import math

    lo, hi = min(values), max(values)
    span = math.log(hi / lo) if hi > lo else 1.0
    rows = []
    for vendor in series:
        for nodes, v in sorted(series[vendor].items()):
            pos = int(math.log(v / lo) / span * (width - 1)) if hi > lo else 0
            bar = "." * pos + "o"
            rows.append(f"  {vendor:<8s}{nodes:>3d}n |{bar:<{width + 1}s}| {v:9.3f} ms")
    return rows


def format_crossvendor(result: CrossVendorResult) -> str:
    lines = [
        f"Cross-vendor hand-coded latency, {result.size} x {result.size} "
        "complex matrix (after MITRE ref. [2])",
        "",
    ]
    for app, series in result.latency_ms.items():
        lines.append(f"--- {app} ---")
        header = f"{'vendor':<10s}" + "".join(f"{n:>5d}n" for n in sorted(next(iter(series.values()))))
        lines.append(header + "   (latency, ms)")
        for vendor, per_nodes in series.items():
            row = f"{vendor:<10s}" + "".join(
                f"{per_nodes[n]:>6.1f}" for n in sorted(per_nodes)
            )
            lines.append(row)
        lines.append("")
        lines.append("  latency (log scale):")
        lines.extend(_ascii_series(series))
        lines.append("")
    return "\n".join(lines)

