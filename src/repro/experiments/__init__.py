"""Experiment harness: the §3.3 protocol and every table/figure regeneration."""

from .runner import (
    APP_BUILDERS,
    FULL_PROTOCOL,
    Measurement,
    Protocol,
    QUICK_PROTOCOL,
    measure_hand,
    measure_sage,
)
from .table1 import Table1Row, format_table1, run_table1
from .crossvendor import CrossVendorResult, format_crossvendor, run_crossvendor
from .ablations import knob_study, optimized_glue_study, two_node_study
from .atot_study import format_atot_study, radar_chain_model, run_atot_study
from .period_latency import format_period_latency, run_period_latency
from .code_size import count_sloc, format_code_size, run_code_size
from .fault_tolerance import (
    FaultPoint,
    format_fault_tolerance,
    run_fault_tolerance,
)
from .reconfiguration import (
    DetectionPoint,
    FalsePositivePoint,
    ShrinkPoint,
    format_reconfiguration,
    run_detection_latency,
    run_false_positives,
    run_shrink_recovery,
)

__all__ = [
    "APP_BUILDERS",
    "FULL_PROTOCOL",
    "QUICK_PROTOCOL",
    "Measurement",
    "Protocol",
    "measure_hand",
    "measure_sage",
    "Table1Row",
    "format_table1",
    "run_table1",
    "CrossVendorResult",
    "format_crossvendor",
    "run_crossvendor",
    "knob_study",
    "optimized_glue_study",
    "two_node_study",
    "format_atot_study",
    "radar_chain_model",
    "run_atot_study",
    "format_period_latency",
    "run_period_latency",
    "count_sloc",
    "format_code_size",
    "run_code_size",
    "FaultPoint",
    "format_fault_tolerance",
    "run_fault_tolerance",
    "DetectionPoint",
    "FalsePositivePoint",
    "ShrinkPoint",
    "format_reconfiguration",
    "run_detection_latency",
    "run_false_positives",
    "run_shrink_recovery",
]
