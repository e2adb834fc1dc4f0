"""The study table: every paper artifact, its report file and its protocols.

Each :class:`Study` row owns one committed ``reports/*.txt`` file and the
two ways to produce its text: the full protocol (what the committed file
holds) and a quick protocol (seconds, for smoke tests).  The table drives

* ``python -m repro.experiments.generate_report [DIR]``, which writes every
  report at the full protocol into ``DIR`` (default ``reports``);
* ``python -m repro <study> [--quick] [-o FILE]``, one subcommand per row;
* CI, which regenerates every report and diffs it against the committed one.

The elasticity, gray-failure and service-soak studies are imported only
when they run, so ``import repro`` does not load them.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Tuple

from .ablations import (
    format_knobs,
    format_optimized,
    format_two_node,
    knob_study,
    optimized_glue_study,
    two_node_study,
)
from .atot_study import format_atot_study, run_atot_study
from .code_size import format_code_size, run_code_size
from .crossvendor import format_crossvendor, run_crossvendor
from .fault_tolerance import format_fault_tolerance, run_fault_tolerance
from .period_latency import format_period_latency, run_period_latency
from .reconfiguration import (
    format_reconfiguration,
    run_detection_latency,
    run_false_positives,
    run_shrink_recovery,
)
from .runner import FULL_PROTOCOL, QUICK_PROTOCOL, Protocol
from .table1 import format_table1, run_table1

__all__ = ["Study", "StudyFailed", "STUDIES", "main"]


class StudyFailed(Exception):
    """A study that is also a gate found a violation; ``text`` is its report."""

    def __init__(self, text: str):
        super().__init__("study gate failed")
        self.text = text


@dataclass(frozen=True)
class Study:
    """One paper artifact: its report file and how to produce its text."""

    report: str                 # file name under reports/
    full: Callable[[], str]     # the paper's protocol: the committed text
    quick: Callable[[], str]    # a reduced protocol that runs in seconds

    @property
    def name(self) -> str:
        """The ``python -m repro`` subcommand: the report stem, ``_`` as ``-``."""
        return os.path.splitext(self.report)[0].replace("_", "-")

    def run(self, quick: bool = False) -> Tuple[str, bool]:
        """The report text, and whether the study's gate (if it has one) held."""
        try:
            return (self.quick if quick else self.full)(), True
        except StudyFailed as failed:
            return failed.text, False


def _period_latency_text() -> str:
    return format_period_latency(run_period_latency())


def _code_size_text() -> str:
    return format_code_size(run_code_size())


def _reconfiguration_text(quick: bool) -> str:
    if quick:
        return format_reconfiguration(
            run_detection_latency(periods=(1e-4, 2e-4), seeds=(21,)),
            run_false_positives(soak_periods=80),
            run_shrink_recovery(kill_counts=(1,)))
    return format_reconfiguration(run_detection_latency(),
                                  run_false_positives(), run_shrink_recovery())


def _elasticity_text(quick: bool) -> str:
    from .elasticity import format_elasticity, run_elastic_recovery, run_join_latency

    if quick:
        return format_elasticity(
            run_join_latency(periods=(1e-4,), seeds=(51,), lossy=False),
            run_elastic_recovery(replace_counts=(1,), apps=("fft2d",)))
    return format_elasticity(run_join_latency(), run_elastic_recovery())


def _gray_failure_text(quick: bool) -> str:
    from .gray_failure import (format_gray_failure, run_slow_detection_latency,
                               run_straggler_throughput, run_timeout_false_positives)

    if quick:
        return format_gray_failure(
            run_slow_detection_latency(factors=(0.25,), seeds=(71,)),
            run_timeout_false_positives(seeds=(81,)),
            run_straggler_throughput(limp_counts=(1,)))
    return format_gray_failure(run_slow_detection_latency(),
                               run_timeout_false_positives(),
                               run_straggler_throughput())


def _service_soak_text(quick: bool) -> str:
    """The soak's invariants are a gate: any violation raises StudyFailed."""
    from .service_soak import format_service_soak, run_sweep, run_tenant_breakdown

    if quick:
        reports = run_sweep(scales=(60,), seeds=(7,))
        tenants = run_tenant_breakdown(jobs=60)
    else:
        reports, tenants = run_sweep(), run_tenant_breakdown()
    text = format_service_soak(reports, tenants)
    if not all(r.ok for r in reports):
        raise StudyFailed(text)
    return text


def _by_protocol(report: str, text: Callable[[Protocol], str]) -> Study:
    """A §3.3-protocol study: 10 runs x 100 iterations, or 3 x 10 to sample."""
    return Study(report, lambda: text(FULL_PROTOCOL), lambda: text(QUICK_PROTOCOL))


def _by_flag(report: str, text: Callable[[bool], str]) -> Study:
    """A study whose text function takes ``quick``."""
    return Study(report, lambda: text(False), lambda: text(True))


STUDIES: Tuple[Study, ...] = (
    _by_protocol("table1.txt", lambda p: format_table1(run_table1(p))),
    _by_protocol("two_node.txt", lambda p: format_two_node(two_node_study(p))),
    _by_protocol("optimized_glue.txt", lambda p: format_optimized(optimized_glue_study(p))),
    _by_protocol("knobs.txt", lambda p: format_knobs(knob_study(p), "fft2d", 4, 1024)),
    _by_protocol("crossvendor.txt", lambda p: format_crossvendor(run_crossvendor(p))),
    Study("atot.txt",
          lambda: format_atot_study(run_atot_study(generations=40)),
          lambda: format_atot_study(run_atot_study(generations=10))),
    Study("period_latency.txt", _period_latency_text, _period_latency_text),
    Study("code_size.txt", _code_size_text, _code_size_text),
    Study("fault_tolerance.txt",
          lambda: format_fault_tolerance(run_fault_tolerance()),
          lambda: format_fault_tolerance(run_fault_tolerance(seeds=(11, 12),
                                                             loss_rates=(0.05,)))),
    _by_flag("reconfiguration.txt", _reconfiguration_text),
    _by_flag("elasticity.txt", _elasticity_text),
    _by_flag("gray_failure.txt", _gray_failure_text),
    _by_flag("service_soak.txt", _service_soak_text),
)


def main(argv=None) -> int:
    """Write every study's full-protocol report into one directory."""
    outdir = (argv or sys.argv[1:] or ["reports"])[0]
    os.makedirs(outdir, exist_ok=True)
    status = 0
    for study in STUDIES:
        t0 = time.time()
        text, ok = study.run()
        path = os.path.join(outdir, study.report)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path} ({time.time() - t0:.1f}s)", flush=True)
        if not ok:
            print(f"{study.name}: gate failed, see {path}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
