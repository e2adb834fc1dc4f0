"""Run-time kernel configuration: the overhead knobs Table 1.0 measures.

The paper attributes the auto-generated code's 14-25 % overhead to the
run-time's generality.  Each mechanism is an explicit, documented knob so
the ablation benchmarks can turn them on and off:

* **Function-table dispatch** (`dispatch_overhead`) — §2's descriptor lookup
  and port setup per function-thread invocation.
* **Logical-buffer staging copies** (`send_staging`, `recv_staging`) — §3.4:
  *"the SAGE run-time buffer management scheme assigns unique logical
  buffers to the data per function which can cause extra data access times
  when compared to the CSPI implementation."*  With policy ``"all"`` the
  writer always deposits its region into the logical buffer (an extra copy
  on co-located hand-offs, where hand code passes a pointer); with
  ``"remote"`` only data that actually crosses processors is staged (the §4
  improved generator); ``"none"`` disables the charge.
* **Striping bookkeeping** (`striping_overhead_per_message`).
* **Generic kernel invocation** (`compute_efficiency`) — generated glue
  calls library kernels through port descriptors with generic strides,
  sustaining a fraction of the MFLOPS hand-tuned ISSPL call sites reach.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["RuntimeConfig", "DEFAULT_CONFIG", "OPTIMIZED_CONFIG", "STAGING_POLICIES"]

STAGING_POLICIES = ("all", "remote", "none")


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable cost/behaviour parameters of the SAGE run-time kernel.

    Attributes
    ----------
    dispatch_overhead:
        Seconds charged per function-thread invocation.
    send_staging:
        Which outbound bytes pay a memory copy into the logical buffer:
        ``"all"`` (unique-logical-buffer policy, the shipped default),
        ``"remote"`` (§4 improved generator), or ``"none"``.
    recv_staging:
        Which inbound bytes pay a copy out of the logical buffer.  Default
        ``"all"``: a compute function always unpacks its region into its
        physical buffer (DMA endpoints — matrix_source/matrix_sink — are
        exempt; the device reads/writes the logical buffer directly).
    striping_overhead_per_message:
        Seconds of index arithmetic per planned message.
    compute_efficiency:
        Fraction of hand-tuned MFLOPS the generated call sites sustain
        (generic strides/descriptors); 1.0 disables the penalty.
    execute_data:
        True: kernels run real numerics (correctness runs).  False: phantom
        payloads flow and only modeled time accrues (benchmark sweeps).
    max_in_flight:
        Data-set admission control: how many iterations may overlap in the
        pipeline (None = unbounded).  The §3.3 latency protocol uses 1 (the
        time to process a single data set); throughput/period studies use
        None.
    """

    dispatch_overhead: float = 40e-6
    send_staging: str = "all"
    recv_staging: str = "all"
    #: False = the optimised (§4) glue: the data source DMAs directly into
    #: its downstream logical buffer instead of depositing through a unique
    #: source buffer first.
    stage_dma_sources: bool = True
    striping_overhead_per_message: float = 4e-6
    compute_efficiency: float = 0.90
    execute_data: bool = True
    max_in_flight: int = 1
    #: Check that every processor's physical-buffer footprint fits its DRAM
    #: (64 MB on the §3.2 boards); raises MemoryError at load time otherwise.
    enforce_memory: bool = True

    def __post_init__(self):
        if self.dispatch_overhead < 0 or self.striping_overhead_per_message < 0:
            raise ValueError("overheads must be non-negative")
        if self.send_staging not in STAGING_POLICIES:
            raise ValueError(f"send_staging must be one of {STAGING_POLICIES}")
        if self.recv_staging not in STAGING_POLICIES:
            raise ValueError(f"recv_staging must be one of {STAGING_POLICIES}")
        if not (0 < self.compute_efficiency <= 1.0):
            raise ValueError("compute_efficiency must be in (0, 1]")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 or None")

    def optimized(self) -> "RuntimeConfig":
        """The §4 improved-glue configuration: sources DMA straight into
        their downstream logical buffer (no unique source-buffer deposit)."""
        return replace(self, stage_dma_sources=False)

    def timing_only(self) -> "RuntimeConfig":
        return replace(self, execute_data=False)

    def pipelined(self, depth=None) -> "RuntimeConfig":
        """Allow ``depth`` iterations in flight (None = unbounded)."""
        return replace(self, max_in_flight=depth)


DEFAULT_CONFIG = RuntimeConfig()
OPTIMIZED_CONFIG = DEFAULT_CONFIG.optimized()
