"""``python -m repro serve`` / ``python -m repro submit``.

``submit`` is the batch front door: it validates one :class:`JobSpec` and
appends it to a batch file (creating it on first use).  ``serve --batch``
then stands up a :class:`SageService`, plays the whole batch through the
scheduler, and prints per-job outcomes.  The soak harness
(:mod:`repro.service.soak`) runs through the ``service-soak`` study.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..__main__ import _positive_int
from .errors import ServiceError
from .jobs import JobSpec

__all__ = ["serve_main", "submit_main"]


def _load_batch(path: str) -> List[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    jobs = doc["jobs"] if isinstance(doc, dict) else doc
    if not isinstance(jobs, list):
        raise ValueError(f"{path}: expected a list of job specs")
    return jobs


def _run_batch(args) -> int:
    from .service import SageService

    entries = _load_batch(args.batch)
    svc = SageService(nodes=args.nodes, seed=args.seed)
    ids = []
    for i, entry in enumerate(entries):
        entry = dict(entry)
        at = entry.pop("at", None)
        try:
            spec = JobSpec.from_dict(entry)
            ids.append((svc.submit(spec, at=at), spec))
        except (ServiceError, ValueError) as exc:
            print(f"  entry {i}: rejected at submit — "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
    stats = svc.run()
    print(f"{'job':<8s}{'tenant':<10s}{'app':<13s}{'state':<11s}"
          f"{'nodes':<14s}{'makespan':>10s}")
    for job_id, spec in ids:
        job = svc.job(job_id)
        makespan = f"{job.result.makespan:.6f}" if job.result else "-"
        print(f"{job_id:<8s}{spec.tenant:<10s}{spec.app:<13s}"
              f"{job.state:<11s}{str(list(job.lease_nodes)):<14s}"
              f"{makespan:>10s}")
    print(f"\n{stats.completed} completed, {stats.failed} failed, "
          f"{stats.rejected} rejected; utilization "
          f"{stats.utilization:.2f}, {stats.jobs_per_sec:.1f} jobs/sec")
    violations = svc.check_clean()
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="run the multi-job SAGE service over one shared "
                    "simulated cluster",
    )
    parser.add_argument("--batch", required=True,
                        help="batch file of job specs to play "
                             "(see `python -m repro submit`)")
    parser.add_argument("--seed", type=int, default=7,
                        help="scheduler tie-break seed (default 7)")
    parser.add_argument("--nodes", type=_positive_int, default=8,
                        help="shared cluster size (default 8)")
    return _run_batch(parser.parse_args(argv))


def submit_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="validate one job spec and append it to a batch file "
                    "for `python -m repro serve --batch`",
    )
    parser.add_argument("--batch", default="batch.json",
                        help="batch file to append to (default batch.json)")
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--app", default="fft2d",
                        help="fft2d | corner_turn")
    parser.add_argument("--size", type=int, default=32)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--policy", default="fail_fast")
    parser.add_argument("--data-seed", type=int, default=1234)
    parser.add_argument("--budget", type=float, default=None,
                        help="virtual-time lease budget (default 5.0)")
    parser.add_argument("--at", type=float, default=None,
                        help="virtual arrival time inside the batch")
    parser.add_argument("--platform", default="cspi",
                        help="platform the admission lint checks against")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the static admission lint (JOB rules)")
    args = parser.parse_args(argv)

    kw = dict(
        tenant=args.tenant, app=args.app, size=args.size, nodes=args.nodes,
        iterations=args.iterations, policy=args.policy,
        data_seed=args.data_seed,
    )
    if args.budget is not None:
        kw["time_budget"] = args.budget
    try:
        spec = JobSpec(**kw)
        spec.validate()
    except ServiceError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2

    if not args.no_lint:
        from ..analysis.admission import lint_job_spec
        from ..machine import get_platform

        report = lint_job_spec(spec, get_platform(args.platform))
        for f in report.sorted():
            print(f"  {f.render()}", file=sys.stderr)
        if not report.ok:
            print(f"rejected by admission lint: {len(report.errors)} "
                  f"error(s); not queued (--no-lint to override)",
                  file=sys.stderr)
            return 2

    entries = []
    if os.path.exists(args.batch):
        entries = _load_batch(args.batch)
    entry = spec.to_dict()
    if args.at is not None:
        entry["at"] = args.at
    entries.append(entry)
    with open(args.batch, "w") as fh:
        json.dump({"jobs": entries}, fh, indent=1)
        fh.write("\n")
    print(f"queued as entry {len(entries) - 1} in {args.batch} "
          f"({spec.fingerprint()})")
    return 0
