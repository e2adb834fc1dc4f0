"""Admission-time job lint (Verifier v2, ``JOB0xx``).

The service (PR 8) admits jobs on surface checks only: the spec parses,
the cluster is big enough, the tenant has quota headroom.  Whether the job
can actually *run* — mapping inside the leased node set, per-node buffers
inside DRAM, design passing strict analysis, budget consistent with the
predicted makespan — was discovered after a lease was granted and nodes
were burned.  This pass front-loads all of it to submit time, before any
scheduler state changes.

The spec argument is duck-typed (``app``/``size``/``nodes``/``iterations``/
``time_budget``/``tenant`` attributes plus ``build_model()``) so this
module never imports the service package — the service imports *us*.

Rules (:func:`lint_job_spec`):

* **JOB001** — infeasible placement: the benchmark mapping uses processors
  outside the requested node set, or the request exceeds the cluster,
* **JOB002** — the per-node physical-buffer footprint exceeds the
  platform's DRAM (the run-time would refuse the load),
* **JOB003** — the request exceeds the tenant's node quota, so no lease
  can ever satisfy it,
* **JOB004** — the design fails strict static analysis (one finding per
  underlying error, rule id embedded),
* **JOB005** — warning: the statically predicted makespan exceeds the
  declared time budget, so the lease would be killed at the boundary
  (warning, not error: deliberately tight budgets are a legitimate way to
  cap a job's cluster time).
"""

from __future__ import annotations

from typing import Optional

from ..core.model.mapping import round_robin_mapping
from ..core.runtime.buffers import buffer_views, endpoint_footprint
from ..machine.platforms import PlatformSpec
from .cost import predict_makespan
from .report import AnalysisReport, Finding
from .verifier import analyze_application

__all__ = ["lint_job_spec", "predicted_footprint"]

_SRC = "admission-lint"


def predicted_footprint(app, mapping) -> dict:
    """Per-processor physical-buffer bytes a mapped model would allocate:
    the run-time's :func:`~repro.core.runtime.buffers.endpoint_footprint`
    over the model's :func:`~repro.core.runtime.buffers.buffer_views`."""
    return endpoint_footprint(buffer_views(app), mapping.processor_of)


def lint_job_spec(
    spec,
    platform: PlatformSpec,
    cluster_nodes: Optional[int] = None,
    quota=None,
) -> AnalysisReport:
    """Statically lint one job spec before any lease is granted.

    ``cluster_nodes`` enables the cluster-capacity half of JOB001; ``quota``
    (anything with a ``max_nodes`` attribute) enables JOB003.  Error
    findings mean the job can never complete as specified and should be
    rejected at submit time.
    """
    where = f"{spec.tenant}:{spec.app}/{spec.size}/{spec.nodes}n"
    report = AnalysisReport(model_name=f"jobspec:{where}")
    report.record_pass(_SRC)

    if cluster_nodes is not None and spec.nodes > cluster_nodes:
        report.add(Finding(
            "error", "JOB001", where,
            f"the job requests {spec.nodes} nodes but the cluster has only "
            f"{cluster_nodes}: no lease can ever satisfy it",
            "request at most the cluster size", _SRC,
        ))
        return report

    quota_cap = getattr(quota, "max_nodes", None) if quota is not None else None
    if quota_cap is not None and spec.nodes > quota_cap:
        report.add(Finding(
            "error", "JOB003", where,
            f"the job requests {spec.nodes} nodes but tenant "
            f"{spec.tenant!r} is capped at {quota_cap}: the request "
            f"is infeasible under quota",
            "request at most the tenant's node quota", _SRC,
        ))
        return report

    try:
        app = spec.build_model()
    except Exception as exc:
        report.add(Finding(
            "error", "JOB004", where,
            f"the design cannot be built: {exc}",
            "fix the spec's app/size/nodes combination", _SRC,
        ))
        return report
    mapping = round_robin_mapping(app, spec.nodes)

    # JOB001 — every mapped thread must land inside the leased node set.
    bad = sorted(p for p in mapping.processors_used()
                 if not (0 <= p < spec.nodes))
    if bad:
        report.add(Finding(
            "error", "JOB001", where,
            f"the mapping places threads on processor(s) {bad}, outside "
            f"the requested node set [0, {spec.nodes})",
            "fix the mapping's processor range", _SRC,
        ))

    # JOB002 — the run-time enforces DRAM at load; reject at submit instead.
    memory_bytes = platform.cpu.memory_bytes
    for proc, nbytes in sorted(predicted_footprint(app, mapping).items()):
        if nbytes > memory_bytes:
            report.add(Finding(
                "error", "JOB002", f"{where}:proc{proc}",
                f"physical buffers need {nbytes} bytes on processor {proc} "
                f"but a {platform.name} node has {memory_bytes} bytes DRAM",
                "use more nodes or a smaller size", _SRC,
            ))

    # JOB004 — the design must pass strict analysis (DRAM rules excluded:
    # JOB002 owns capacity with the platform's numbers).
    try:
        analysis = analyze_application(app, mapping, spec.nodes)
    except Exception as exc:
        report.add(Finding(
            "error", "JOB004", where,
            f"static analysis crashed on the design: {exc}",
            "fix the design so the Verifier can run", _SRC,
        ))
    else:
        for f in analysis.errors:
            report.add(Finding(
                "error", "JOB004", f.where,
                f"the design fails strict analysis ({f.rule}): {f.message}",
                f.hint, _SRC,
            ))

    # JOB005 — budget vs statically predicted makespan (warning only: the
    # soak deliberately submits tight budgets to exercise the kill path).
    if report.ok:
        try:
            predicted = predict_makespan(
                app, mapping, spec.nodes, platform,
                iterations=spec.iterations,
            ).makespan
        except Exception as exc:
            report.add(Finding(
                "warning", "JOB005", where,
                f"makespan prediction failed: {exc}",
                "file the model so the predictor can cost it", _SRC,
            ))
        else:
            if predicted > spec.time_budget:
                report.add(Finding(
                    "warning", "JOB005", where,
                    f"predicted makespan {predicted:.6f}s exceeds the "
                    f"{spec.time_budget:.6f}s budget: the lease would be "
                    f"terminated at the budget boundary",
                    "raise the budget or reduce iterations", _SRC,
                ))
    return report
