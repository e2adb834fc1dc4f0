"""CPU/bus list scheduler.

The last of AToT's §1.1 capabilities: given a mapped application, produce a
static schedule — start/finish instants for every function thread and every
inter-processor message — honouring dataflow dependencies, processor
exclusivity, and per-link bus exclusivity.  The schedule's makespan is the
analytic single-iteration latency AToT trades against; the Visualizer can
render the same structure as a Gantt chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...machine.platforms import PlatformSpec
from ..model.application import ApplicationModel
from ..model.mapping import Mapping
from ..runtime.buffers import buffer_views
from .objectives import estimate_thread_flops

__all__ = ["ScheduledTask", "ScheduledTransfer", "Schedule", "list_schedule"]


@dataclass(frozen=True)
class ScheduledTask:
    function: str
    function_id: int
    thread: int
    processor: int
    start: float
    finish: float


@dataclass(frozen=True)
class ScheduledTransfer:
    buffer: str
    src_processor: int
    dst_processor: int
    nbytes: int
    start: float
    finish: float


@dataclass
class Schedule:
    tasks: List[ScheduledTask] = field(default_factory=list)
    transfers: List[ScheduledTransfer] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        ends = [t.finish for t in self.tasks] + [t.finish for t in self.transfers]
        return max(ends) if ends else 0.0

    def processor_utilization(self, processors: int) -> List[float]:
        """Busy fraction per processor over the makespan."""
        span = self.makespan
        if span == 0:
            return [0.0] * processors
        busy = [0.0] * processors
        for t in self.tasks:
            busy[t.processor] += t.finish - t.start
        return [b / span for b in busy]

    def tasks_on(self, processor: int) -> List[ScheduledTask]:
        return sorted(
            (t for t in self.tasks if t.processor == processor),
            key=lambda t: t.start,
        )


def list_schedule(
    app: ApplicationModel,
    mapping: Mapping,
    platform: PlatformSpec,
    nodes: int,
) -> Schedule:
    """Static list schedule of one iteration.

    Processes functions in topological order; each thread starts when its
    processor is free and all its inbound transfers have completed; each
    transfer starts when its source thread finished and its link is free.
    """
    cpu = platform.cpu
    buffers = buffer_views(app)

    proc_free: Dict[int, float] = {}
    link_free: Dict[Tuple[int, int], float] = {}
    thread_finish: Dict[Tuple[int, int], float] = {}
    # (dst_fid, dst_thread) -> latest inbound-transfer completion
    inbound_ready: Dict[Tuple[int, int], float] = {}

    schedule = Schedule()

    for inst in app.topological_order():
        # 1) schedule inbound transfers for this function's threads
        for buf in buffers:
            if buf.dst_function != inst.function_id:
                continue
            for msg in buf.plan:
                src_key = (buf.src_function, msg.src_thread)
                p_src = mapping.processor_of(*src_key)
                p_dst = mapping.processor_of(buf.dst_function, msg.dst_thread)
                ready = thread_finish.get(src_key, 0.0)
                if p_src == p_dst:
                    duration = cpu.copy_time(msg.nbytes)
                    start = max(ready, proc_free.get(p_src, 0.0))
                    finish = start + duration
                    proc_free[p_src] = finish
                else:
                    same_board = platform.board_of(p_src) == platform.board_of(p_dst)
                    duration = platform.fabric.link_for(same_board).transfer_time(msg.nbytes)
                    lk = (min(p_src, p_dst), max(p_src, p_dst))
                    start = max(ready, link_free.get(lk, 0.0))
                    finish = start + duration
                    link_free[lk] = finish
                schedule.transfers.append(
                    ScheduledTransfer(buf.name, p_src, p_dst, msg.nbytes, start, finish)
                )
                dst_key = (buf.dst_function, msg.dst_thread)
                inbound_ready[dst_key] = max(inbound_ready.get(dst_key, 0.0), finish)

        # 2) schedule the function's threads
        for t in range(inst.threads):
            proc = mapping.processor_of(inst.function_id, t)
            duration = cpu.compute_time(
                estimate_thread_flops(app, inst, t, buffers)
            )
            start = max(inbound_ready.get((inst.function_id, t), 0.0),
                        proc_free.get(proc, 0.0))
            finish = start + duration
            proc_free[proc] = finish
            thread_finish[(inst.function_id, t)] = finish
            schedule.tasks.append(
                ScheduledTask(inst.path, inst.function_id, t, proc, start, finish)
            )
    return schedule
