"""Ablation experiments S34a, C2, and the run-time knob study.

* **two-node** (S34a): §3.4 — *"A performance hit was taken on a two-node
  configuration. Here, the SAGE run-time buffer management scheme assigns
  unique logical buffers to the data per function which can cause extra
  data access times."*  Sweeps the corner turn over 2/4/8 nodes and reports
  the absolute unique-buffer overhead per iteration, which grows with the
  per-node buffer size (largest at 2 nodes), plus the %-of-hand trend.
* **optimized-glue** (C2): §4 — *"Work is currently underway to improve the
  performance of the glue code generation component that will reach levels
  of 90 % of hand coded performance."*  Compares default vs optimised glue.
* **knobs**: which run-time mechanism costs what — dispatch, staging
  copies, striping bookkeeping, kernel-call efficiency — by disabling each
  in turn (the design-choice ablation DESIGN.md calls out).

Run: ``python -m repro {two-node,optimized-glue,knobs} [--quick] [-o FILE]``
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Sequence

from ..core.runtime import DEFAULT_CONFIG
from ..machine import get_platform
from .runner import QUICK_PROTOCOL, Protocol, measure_hand, measure_sage
from .table1 import APPS, NODE_COUNTS

__all__ = ["two_node_study", "optimized_glue_study", "knob_study"]


def two_node_study(
    protocol: Protocol = QUICK_PROTOCOL, size: int = 1024
) -> List[dict]:
    """Corner-turn overhead across 2/4/8 nodes (absolute and relative)."""
    platform = get_platform("cspi")
    rows = []
    for nodes in (2, 4, 8):
        hand = measure_hand("corner_turn", platform, nodes, size, protocol)
        sage = measure_sage("corner_turn", platform, nodes, size, protocol)
        rows.append(
            {
                "nodes": nodes,
                "hand_ms": hand.latency_ms,
                "sage_ms": sage.latency_ms,
                "extra_ms": sage.latency_ms - hand.latency_ms,
                "pct_of_hand": 100.0 * hand.latency_ms / sage.latency_ms,
            }
        )
    return rows


def format_two_node(rows: List[dict]) -> str:
    lines = [
        "S34a: corner-turn buffer-management overhead vs node count (CSPI, 1024x1024)",
        f"{'nodes':>6s}{'hand (ms)':>12s}{'SAGE (ms)':>12s}"
        f"{'extra (ms)':>12s}{'% of hand':>11s}",
    ]
    for r in rows:
        lines.append(
            f"{r['nodes']:>6d}{r['hand_ms']:>12.3f}{r['sage_ms']:>12.3f}"
            f"{r['extra_ms']:>12.3f}{r['pct_of_hand']:>10.1f}%"
        )
    lines.append(
        "(the unique-logical-buffer copy scales with the per-node buffer "
        "size n^2/p: the absolute hit is largest on the 2-node configuration)"
    )
    return "\n".join(lines)


def optimized_glue_study(
    protocol: Protocol = QUICK_PROTOCOL,
    node_counts: Sequence[int] = NODE_COUNTS,
    sizes: Sequence[int] = (1024,),
) -> List[dict]:
    """Default vs §4-optimised glue, both against hand-coded."""
    platform = get_platform("cspi")
    rows = []
    for _label, app in APPS:
        for nodes in node_counts:
            for size in sizes:
                hand = measure_hand(app, platform, nodes, size, protocol)
                sage = measure_sage(app, platform, nodes, size, protocol)
                opt = measure_sage(
                    app, platform, nodes, size, protocol, optimize_buffers=True
                )
                rows.append(
                    {
                        "app": app,
                        "nodes": nodes,
                        "size": size,
                        "default_pct": 100.0 * hand.latency / sage.latency,
                        "optimized_pct": 100.0 * hand.latency / opt.latency,
                    }
                )
    return rows


def format_optimized(rows: List[dict]) -> str:
    lines = [
        "C2: default vs optimised glue generation (percent of hand-coded)",
        f"{'app':<14s}{'nodes':>6s}{'size':>6s}{'default':>10s}{'optimised':>11s}",
    ]
    for r in rows:
        lines.append(
            f"{r['app']:<14s}{r['nodes']:>6d}{r['size']:>6d}"
            f"{r['default_pct']:>9.1f}%{r['optimized_pct']:>10.1f}%"
        )
    avg_d = statistics.fmean(r["default_pct"] for r in rows)
    avg_o = statistics.fmean(r["optimized_pct"] for r in rows)
    lines.append(f"{'average':<26s}{avg_d:>9.1f}%{avg_o:>10.1f}%")
    lines.append("(§4: the improved generator targets 'levels of 90% of hand coded')")
    return "\n".join(lines)


#: knob name -> config override that disables it
KNOB_OVERRIDES: Dict[str, dict] = {
    "baseline (all on)": {},
    "no dispatch": {"dispatch_overhead": 0.0},
    "no send staging": {"send_staging": "none"},
    "no recv staging": {"recv_staging": "none"},
    "no striping ovh": {"striping_overhead_per_message": 0.0},
    "full kernel eff.": {"compute_efficiency": 1.0},
}


def knob_study(
    protocol: Protocol = QUICK_PROTOCOL,
    app: str = "fft2d",
    nodes: int = 4,
    size: int = 1024,
) -> List[dict]:
    """Disable each run-time overhead mechanism in turn."""
    platform = get_platform("cspi")
    hand = measure_hand(app, platform, nodes, size, protocol)
    rows = []
    for name, overrides in KNOB_OVERRIDES.items():
        cfg = dataclasses.replace(DEFAULT_CONFIG, **overrides)
        sage = measure_sage(app, platform, nodes, size, protocol, config=cfg)
        rows.append(
            {
                "knob": name,
                "sage_ms": sage.latency_ms,
                "pct_of_hand": 100.0 * hand.latency / sage.latency,
            }
        )
    return rows


def format_knobs(rows: List[dict], app: str, nodes: int, size: int) -> str:
    lines = [
        f"Run-time overhead knob study ({app}, {nodes} nodes, {size}x{size})",
        f"{'configuration':<20s}{'SAGE (ms)':>12s}{'% of hand':>11s}",
    ]
    for r in rows:
        lines.append(
            f"{r['knob']:<20s}{r['sage_ms']:>12.3f}{r['pct_of_hand']:>10.1f}%"
        )
    return "\n".join(lines)

