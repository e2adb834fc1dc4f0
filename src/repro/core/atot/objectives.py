"""AToT optimisation objectives.

§1.1: *"AToT can be employed for total design optimization, which includes
load balancing of CPU resources, optimizing over latency constraints,
communication minimization and scheduling of CPUs and busses."*

The objective terms below score a candidate mapping without running the
simulator (the GA evaluates thousands of candidates): per-thread compute
load from the kernel flop models, communication volume from the striping
message plans, and a critical-path latency estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...machine.platforms import PlatformSpec
from ..model.application import ApplicationModel, FunctionInstance
from ..model.mapping import Mapping
from ..runtime.buffers import RuntimeBuffer, buffer_views
from ..runtime.kernels import ThreadContext, default_bindings
from ..runtime.phantom import PhantomArray
from ..runtime.striping import region_shape

__all__ = ["MappingObjective", "CostBreakdown", "estimate_thread_flops"]


def estimate_thread_flops(
    app: ApplicationModel, inst: FunctionInstance, thread: int,
    buffers: Optional[List[RuntimeBuffer]] = None,
) -> float:
    """Analytic flops of one thread of one function instance.

    ``buffers`` is the model's :func:`buffer_views`; callers estimating many
    threads pass it once instead of re-deriving it per call.
    """
    binding = default_bindings().get(inst.kernel)
    if binding is None:
        return 0.0
    inputs = {}
    in_regions = {}
    for buf in buffers if buffers is not None else buffer_views(app):
        if buf.dst_function != inst.function_id:
            continue
        region = buf.dst_region(thread)
        in_regions[buf.dst_port] = region
        inputs[buf.dst_port] = PhantomArray(region_shape(region), buf.dtype)
    ctx = ThreadContext(
        function_id=inst.function_id,
        name=inst.path,
        kernel=inst.kernel,
        thread=thread,
        threads=inst.threads,
        iteration=0,
        params=inst.block.params,
        in_regions=in_regions,
        out_regions={},
        out_dtypes={},
        execute_data=False,
    )
    return float(binding.flops(ctx, inputs))


@dataclass
class CostBreakdown:
    """The objective terms for one candidate mapping."""

    load_imbalance: float      # max processor load / mean load (>= 1)
    comm_bytes: float          # bytes crossing processors per iteration
    inter_board_bytes: float   # subset crossing board boundaries
    est_latency: float         # critical-path seconds per iteration
    penalty: float = 0.0       # constraint violations

    def total(self, w_balance: float, w_comm: float, w_latency: float) -> float:
        return (
            w_balance * (self.load_imbalance - 1.0)
            + w_comm * self.comm_bytes
            + w_latency * self.est_latency
            + self.penalty
        )


class MappingObjective:
    """Scores mappings of ``app`` onto ``nodes`` processors of ``platform``."""

    def __init__(
        self,
        app: ApplicationModel,
        platform: PlatformSpec,
        nodes: int,
        w_balance: float = 1.0,
        w_comm: float = 1e-8,
        w_latency: float = 10.0,
        latency_constraint: Optional[float] = None,
        cpu_specs: Optional[List] = None,
    ):
        """``cpu_specs`` optionally gives one :class:`CpuSpec` per node for
        heterogeneous machines; loads are then measured in seconds so a slow
        node carrying the same flops counts as more loaded."""
        self.app = app
        self.platform = platform
        self.nodes = nodes
        if cpu_specs is not None and len(cpu_specs) != nodes:
            raise ValueError(f"{len(cpu_specs)} cpu_specs for {nodes} nodes")
        self.cpu_specs = list(cpu_specs) if cpu_specs is not None else [platform.cpu] * nodes
        self.w_balance = w_balance
        self.w_comm = w_comm
        self.w_latency = w_latency
        self.latency_constraint = latency_constraint
        self.instances = app.function_instances()
        # Logical buffers and their message plans (independent of the mapping).
        self._buffers = buffer_views(app)
        # flops cache: (function_id, thread) -> flops
        self._flops: Dict[Tuple[int, int], float] = {}
        for inst in self.instances:
            for t in range(inst.threads):
                self._flops[(inst.function_id, t)] = estimate_thread_flops(
                    app, inst, t, self._buffers
                )

    # -- objective terms ----------------------------------------------------
    def breakdown(self, mapping: Mapping) -> CostBreakdown:
        # Loads in seconds, so heterogeneous node speeds weigh in.
        loads = [0.0] * self.nodes
        for (fid, t), flops in self._flops.items():
            proc = mapping.processor_of(fid, t)
            loads[proc] += self.cpu_specs[proc].compute_time(flops)
        mean = sum(loads) / len(loads) if loads else 0.0
        imbalance = (max(loads) / mean) if mean > 0 else 1.0

        comm = 0.0
        inter_board = 0.0
        for buf in self._buffers:
            for msg in buf.plan:
                p_src = mapping.processor_of(buf.src_function, msg.src_thread)
                p_dst = mapping.processor_of(buf.dst_function, msg.dst_thread)
                if p_src != p_dst:
                    comm += msg.nbytes
                    if self.platform.board_of(p_src) != self.platform.board_of(p_dst):
                        inter_board += msg.nbytes

        latency = self._critical_path(mapping)
        penalty = 0.0
        if self.latency_constraint is not None and latency > self.latency_constraint:
            penalty = 1e3 * (latency / self.latency_constraint - 1.0)
        return CostBreakdown(
            load_imbalance=imbalance,
            comm_bytes=comm,
            inter_board_bytes=inter_board,
            est_latency=latency,
            penalty=penalty,
        )

    def _critical_path(self, mapping: Mapping) -> float:
        """Per-iteration latency estimate: stage-by-stage max of compute+comm."""
        total = 0.0
        order = self.app.topological_order()
        for inst in order:
            stage_compute = max(
                (
                    self.cpu_specs[
                        mapping.processor_of(inst.function_id, t)
                    ].compute_time(self._flops[(inst.function_id, t)])
                    for t in range(inst.threads)
                ),
                default=0.0,
            )
            total += stage_compute
        for buf in self._buffers:
            per_dst: Dict[int, float] = {}
            for msg in buf.plan:
                p_src = mapping.processor_of(buf.src_function, msg.src_thread)
                p_dst = mapping.processor_of(buf.dst_function, msg.dst_thread)
                if p_src == p_dst:
                    t = self.cpu_specs[p_src].copy_time(msg.nbytes)
                else:
                    same_board = self.platform.board_of(p_src) == self.platform.board_of(p_dst)
                    t = self.platform.fabric.link_for(same_board).transfer_time(msg.nbytes)
                per_dst[msg.dst_thread] = per_dst.get(msg.dst_thread, 0.0) + t
            if per_dst:
                total += max(per_dst.values())
        return total

    def fitness(self, mapping: Mapping) -> float:
        """Scalar score, lower is better."""
        return self.breakdown(mapping).total(self.w_balance, self.w_comm, self.w_latency)
