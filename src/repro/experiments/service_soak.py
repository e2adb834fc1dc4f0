"""Experiment R5: SAGE-as-a-service under multi-tenant soak.

The paper's infrastructure compiled and ran one design at a time; the
service front end (:mod:`repro.service`) multiplexes many. This experiment
characterises that scheduler the way Table 1.0 characterised the
generated code — numbers first, then the invariants that make the numbers
trustworthy:

* **Throughput & scheduling sweep** — seeded mixed workloads (FFT2D +
  corner turn, four tenants, tight and open budgets) at several scales and
  seeds.  Reported per run: completions, typed rejections (node-quota at
  submit, queue-depth at arrival), conservative backfills, budget kills,
  shared-cluster utilization, mean queue wait, and the headline
  designs-compiled-and-simulated per host second.
* **Invariant scorecard** — each run re-checks the five soak invariants
  (standalone isolation, replay determinism, quota/no-starvation, zero
  leaked slots, telemetry consistency).  A run with any violation fails
  the experiment.
* **Per-tenant fairness** — one 300-job run broken down by tenant:
  submitted/completed/rejected and nodes-seconds consumed, showing the
  under-provisioned ``burst`` tenant is clamped by its quota while the
  open tenants share the remainder.

Run: ``python -m repro service-soak [--quick] [-o reports/service_soak.txt]``.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..service.soak import SoakReport, generate_workload, run_soak

__all__ = [
    "TenantRow",
    "run_sweep",
    "run_tenant_breakdown",
    "format_service_soak",
    "main",
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


def run_tenant_breakdown(jobs: int = 300, seed: int = 7,
                         nodes: int = 8) -> List[TenantRow]:
    """Play one workload and account per-tenant outcomes and node-seconds."""
    from ..service.soak import _build_service, _drive

    svc = _build_service(nodes, seed)
    workload = generate_workload(jobs, seed)
    _drive(svc, workload)
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


def format_service_soak(reports: List[SoakReport],
                        tenants: List[TenantRow]) -> str:
    lines = [
        "R5 — SAGE-as-a-service: multi-tenant soak over one shared "
        "simulated cluster",
        "",
        "Scheduling sweep (mixed FFT2D/corner-turn, 4 tenants, "
        "FIFO + conservative backfill)",
        f"{'jobs':>6s}{'seed':>6s}{'done':>7s}{'rej':>6s}{'bfill':>7s}"
        f"{'kill':>6s}{'util':>7s}{'wait ms':>9s}{'jobs/s':>9s}"
        f"{'invariants':>12s}",
    ]
    for r in reports:
        inv = f"{sum(r.invariants.values())}/{len(r.invariants)}"
        lines.append(
            f"{r.jobs:>6d}{r.seed:>6d}{r.completed:>7d}"
            f"{r.rejected + r.rejected_at_submit:>6d}{r.backfills:>7d}"
            f"{r.budget_kills:>6d}{r.utilization:>7.2f}"
            f"{r.mean_wait * 1e3:>9.3f}{r.jobs_per_sec:>9.1f}"
            f"{inv:>12s}"
        )
    lines += [
        "(jobs/s is host wall clock, informational. "
        "invariants: isolation, determinism, quota/no-starvation, "
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro service-soak",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--quick", action="store_true",
                        help="one scale, one seed, smaller breakdown")
    parser.add_argument("-o", "--output",
                        help="write the tables here "
                             "(default reports/service_soak.txt)")
    args = parser.parse_args(argv)

    if args.quick:
        reports = run_sweep(scales=(60,), seeds=(7,), nodes=args.nodes)
        tenants = run_tenant_breakdown(jobs=60, nodes=args.nodes)
    else:
        reports = run_sweep(nodes=args.nodes)
        tenants = run_tenant_breakdown(nodes=args.nodes)
    text = format_service_soak(reports, tenants)
    print(text)
    out = args.output
    if out is None:
        os.makedirs("reports", exist_ok=True)
        out = os.path.join("reports", "service_soak.txt")
    with open(out, "w") as fh:
        fh.write(text + "\n")
    return 1 if any(not r.ok for r in reports) else 0


if __name__ == "__main__":
    raise SystemExit(main())
