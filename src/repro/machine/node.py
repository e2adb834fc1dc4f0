"""Compute-node cost model.

Models a single processor (e.g. the 200 MHz PowerPC 603e on the CSPI boards)
as an analytic cost source: floating-point work is charged at a sustained
MFLOPS rate, memory copies at a copy bandwidth, and every kernel invocation
pays a fixed call overhead.  The node owns a :class:`~repro.machine.simulator.Resource`
so that two threads mapped to the same processor serialise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .simulator import Environment, Resource

__all__ = ["CpuSpec", "SimNode"]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a processor's performance characteristics.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"PowerPC 603e"``.
    clock_mhz:
        Core clock in MHz.
    mflops:
        Sustained double-issue FP rate for FFT-like kernels, in MFLOP/s.
        1999-era PPC 603e at 200 MHz sustained roughly 60-120 MFLOPS on
        vendor FFT libraries; we use the vendor-library figure per platform.
    copy_bw:
        Memory-to-memory copy bandwidth in bytes/s.
    call_overhead:
        Fixed cost of invoking a library kernel, in seconds.
    memory_bytes:
        DRAM capacity (64 MB on the CSPI boards).
    """

    name: str
    clock_mhz: float
    mflops: float
    copy_bw: float
    call_overhead: float = 2e-6
    memory_bytes: int = 64 * 1024 * 1024

    def __post_init__(self):
        if self.clock_mhz <= 0 or self.mflops <= 0 or self.copy_bw <= 0:
            raise ValueError("CPU rates must be positive")
        if self.call_overhead < 0:
            raise ValueError("call_overhead must be non-negative")

    def compute_time(self, flops: float) -> float:
        """Seconds to execute ``flops`` floating point operations."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        if flops == 0:
            return 0.0
        return self.call_overhead + flops / (self.mflops * 1e6)

    def copy_time(self, nbytes: float) -> float:
        """Seconds to copy ``nbytes`` through memory."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.call_overhead + nbytes / self.copy_bw


@dataclass
class SimNode:
    """A processor instance inside a simulated cluster.

    The ``cpu`` resource serialises all work charged to this node; memory
    allocation is tracked so over-subscription raises, mirroring the 64 MB
    limit of the paper's target boards.
    """

    index: int
    spec: CpuSpec
    env: Environment
    board: int = 0
    cpu: Resource = field(init=False)
    _allocated: int = field(init=False, default=0)

    def __post_init__(self):
        self.cpu = Resource(self.env, capacity=1)
        #: Optional FaultInjector consulted before/after every operation.
        self.faults = None

    def check_alive(self) -> None:
        """Raise :class:`~repro.machine.faults.NodeFailure` if this node has
        crashed.  A crash that lands mid-operation surfaces when the work
        "completes", so operations check before and after."""
        if self.faults is not None:
            self.faults.check_node(self.index)

    def _rate_scaled(self, duration: float) -> float:
        """Stretch a modeled duration by the node's current CPU slowdown.

        A limping node (gray failure) runs at ``cpu_factor`` × nominal
        rate, so every operation dispatched while slow takes
        ``duration / cpu_factor`` seconds.  Work already in flight when a
        slowdown begins completes at its original rate — the cost was
        committed to the event queue at dispatch.
        """
        if self.faults is not None:
            factor = self.faults.cpu_factor(self.index)
            if factor != 1.0:
                return duration / factor
        return duration

    def cpu_time_of(self, seconds: float) -> float:
        """CPU time a nominal ``seconds`` workload consumes at the current
        rate — the ``getrusage`` view a self-timing benchmark observes.

        Unlike wall time this excludes queueing behind co-mapped work, so
        it isolates the node's execution *rate*: the failure detector's RTT
        probes use it to keep a limping node visible even when the node is
        otherwise idle, without false-positiving on merely busy ones.
        """
        return self._rate_scaled(seconds)

    def reset(self) -> int:
        """Return the node to power-on state: idle CPU, no allocations.

        Used when replacement hardware is slotted in at this node's index: a
        crash can strand CPU slots held by interrupted work and buffer
        accounting from the dead program, neither of which the new board
        inherits.  Returns the number of stranded CPU slots/queued requests
        that were dropped.
        """
        dropped = self.cpu.reset()
        self._allocated = 0
        return dropped

    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    def allocate(self, nbytes: int) -> None:
        """Account for a buffer allocation; raises MemoryError when full."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._allocated + nbytes > self.spec.memory_bytes:
            raise MemoryError(
                f"node {self.index}: allocation of {nbytes} bytes exceeds "
                f"{self.spec.memory_bytes} byte DRAM "
                f"({self._allocated} already allocated)"
            )
        self._allocated += nbytes

    def free(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self._allocated:
            raise ValueError("free() does not match outstanding allocations")
        self._allocated -= nbytes

    def compute(self, flops: float, label: Optional[str] = None):
        """Generator: occupy the CPU for the modeled duration of ``flops``."""
        self.check_alive()
        duration = self._rate_scaled(self.spec.compute_time(flops))
        yield from self.cpu.use(duration)
        # A crash that lands mid-operation surfaces when the work "completes".
        self.check_alive()

    def copy(self, nbytes: float, label: Optional[str] = None):
        """Generator: occupy the CPU for a memory copy of ``nbytes``."""
        self.check_alive()
        duration = self._rate_scaled(self.spec.copy_time(nbytes))
        yield from self.cpu.use(duration)
        self.check_alive()

    def busy_time(self, seconds: float) -> float:
        """How long the CPU must be held for an explicit ``seconds`` of work
        dispatched now (raises if the node is dead).  The holder calls
        :meth:`check_alive` once the time has elapsed."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        if self.faults is None:  # nothing to check or scale
            return seconds
        self.check_alive()
        return self._rate_scaled(seconds)
