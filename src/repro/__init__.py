"""repro: reproduction of "Auto Source Code Generation and Run-Time
Infrastructure and Environment for High Performance, Distributed Computing
Systems" (Patel, Jordan, Clark, Bhatt -- Honeywell SAGE, IPPS 2000).

Subpackages
-----------
``repro.machine``
    Discrete-event simulated hardware: nodes, fabrics, vendor platforms.
``repro.mpi``
    Message-passing library over the simulator for the hand-coded baselines
    (point-to-point, vendor all-to-all algorithms) and the heartbeat failure
    detector.
``repro.kernels``
    ISSPL-style math library (planned FFTs, corner turns, signal primitives).
``repro.core.model``
    The SAGE Designer: application/data-type/hardware editors, shelves,
    mappings, validation.
``repro.core.alter``
    The Alter language (Lisp-like) the glue-code generator is written in.
``repro.core.codegen``
    Glue-code generation: Alter scripts emitting run-time source files.
``repro.core.runtime``
    The SAGE run-time kernel: function sequencing, data striping, logical
    buffer management, instrumentation probes.
``repro.core.atot``
    AToT: GA partitioning/mapping, objectives, CPU/bus list scheduling.
``repro.core.visualizer``
    Trace analysis, timelines, bottleneck/latency-threshold reports.
``repro.apps``
    The Table 1.0 benchmarks: SAGE models + hand-coded baselines.
``repro.experiments``
    The section-3.3 protocol and every table/figure regeneration.
"""

__version__ = "1.0.0"

from . import apps, experiments, kernels, machine, mpi
from .core import alter, atot, codegen, model, runtime, visualizer
from .project import SageProject

__all__ = [
    "SageProject",
    "apps",
    "experiments",
    "kernels",
    "machine",
    "mpi",
    "alter",
    "atot",
    "codegen",
    "model",
    "runtime",
    "visualizer",
    "__version__",
]
