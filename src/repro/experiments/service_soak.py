"""Experiment R5: SAGE-as-a-service under multi-tenant soak.

The paper's infrastructure compiled and ran one design at a time; the
service front end (:mod:`repro.service`) multiplexes many. This experiment
characterises that scheduler the way Table 1.0 characterised the
generated code — numbers first, then the invariants that make the numbers
trustworthy:

* **Scheduling sweep** — seeded mixed workloads (FFT2D +
  corner turn, four tenants, tight and open budgets) at several scales and
  seeds.  Reported per run: completions, typed rejections (node-quota at
  submit, queue-depth at arrival), conservative backfills, budget kills,
  shared-cluster utilization and mean queue wait (all virtual-time
  figures, so the report is reproducible; host-time throughput is the
  ``service_mix`` benchmark workload's).
* **Invariant scorecard** — each run re-checks the five soak invariants
  (standalone isolation, replay determinism, quota/no-starvation, zero
  leaked slots, telemetry consistency).  A run with any violation fails
  the experiment (:class:`~repro.experiments.generate_report.StudyFailed`).
* **Per-tenant fairness** — the sweep's 300-job run at seed 7 broken down
  by tenant: submitted/completed/rejected and nodes-seconds consumed,
  showing the under-provisioned ``burst`` tenant is clamped by its quota
  while the open tenants share the remainder.

Run: ``python -m repro service-soak [--quick] [-o FILE]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..service.soak import SoakReport, generate_workload, run_soak

__all__ = [
    "TenantRow",
    "run_sweep",
    "tenant_breakdown",
    "format_service_soak",
]


@dataclass
class TenantRow:
    tenant: str
    submitted: int
    completed: int
    rejected: int
    node_seconds: float


def run_sweep(
    scales: Sequence[int] = (100, 300),
    seeds: Sequence[int] = (7, 21),
    nodes: int = 8,
) -> List[SoakReport]:
    """One full soak (all five invariants) per (scale, seed) point."""
    return [
        run_soak(jobs=jobs, seed=seed, nodes=nodes)
        for jobs in scales
        for seed in seeds
    ]


def tenant_breakdown(report: SoakReport) -> List[TenantRow]:
    """One soak run's per-tenant outcomes and node-seconds."""
    svc = report.service
    workload = generate_workload(report.jobs, report.seed)
    by_tenant: Dict[str, TenantRow] = {}
    for spec, _at in workload:
        row = by_tenant.setdefault(
            spec.tenant, TenantRow(spec.tenant, 0, 0, 0, 0.0))
        row.submitted += 1
    for job in svc.jobs.values():
        row = by_tenant[job.spec.tenant]
        if job.state == "completed":
            row.completed += 1
        elif job.state == "rejected":
            row.rejected += 1
    # Submit-time rejections never reach svc.jobs; infer them from totals.
    for row in by_tenant.values():
        seen = sum(1 for j in svc.jobs.values()
                   if j.spec.tenant == row.tenant)
        row.rejected += row.submitted - seen
    for lease in svc.scheduler.history:
        end = lease.t_end if lease.t_end is not None else lease.t_start
        by_tenant[lease.tenant].node_seconds += (
            lease.width * (end - lease.t_start)
        )
    return [by_tenant[t] for t in sorted(by_tenant)]


def format_service_soak(reports: List[SoakReport]) -> str:
    """The sweep table, then the tenant breakdown of its largest run at its
    first seed (``max`` keeps the first of equal job counts)."""
    tenants = tenant_breakdown(max(reports, key=lambda r: r.jobs))
    lines = [
        "R5 — SAGE-as-a-service: multi-tenant soak over one shared "
        "simulated cluster",
        "",
        "Scheduling sweep (mixed FFT2D/corner-turn, 4 tenants, "
        "FIFO + conservative backfill)",
        f"{'jobs':>6s}{'seed':>6s}{'done':>7s}{'rej':>6s}{'bfill':>7s}"
        f"{'kill':>6s}{'util':>7s}{'wait ms':>9s}{'invariants':>12s}",
    ]
    for r in reports:
        inv = f"{sum(r.invariants.values())}/{len(r.invariants)}"
        lines.append(
            f"{r.jobs:>6d}{r.seed:>6d}{r.completed:>7d}"
            f"{r.rejected + r.rejected_at_submit:>6d}{r.backfills:>7d}"
            f"{r.budget_kills:>6d}{r.utilization:>7.2f}"
            f"{r.mean_wait * 1e3:>9.3f}{inv:>12s}"
        )
    lines += [
        "(invariants: isolation, determinism, quota/no-starvation, "
        "zero leaked slots, telemetry)",
        "",
        "Per-tenant fairness (300 jobs; 'burst' is quota-clamped to 2 "
        "nodes / depth 4)",
        f"{'tenant':<10s}{'submitted':>10s}{'completed':>10s}"
        f"{'rejected':>10s}{'node-sec':>12s}",
    ]
    for row in tenants:
        lines.append(
            f"{row.tenant:<10s}{row.submitted:>10d}{row.completed:>10d}"
            f"{row.rejected:>10d}{row.node_seconds:>12.4f}"
        )
    return "\n".join(lines)

