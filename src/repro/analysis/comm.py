"""Communication-schedule analysis (the SAGE Verifier's second pass).

From the mapped model and its striping tables, this pass derives every
rank's ordered sequence of sends, receives, and collectives — the exact
message traffic the run-time would issue — and then *symbolically executes*
the schedule with MPI semantics (buffered non-blocking sends, blocking
tag-matched receives, barrier-style collectives) without simulating a
single application cycle.

Rules:

* **COMM001** — deadlock: a cycle in the wait-for graph of stalled ranks,
* **COMM002** — a receive that can never be matched (peer finished without
  sending),
* **COMM003** — a collective whose participant sets disagree across ranks,
  or that some declared participant never posts,
* **COMM004** — a send no one receives (warning: leaked message),
* **COMM005** — a receive whose peer sent only messages with other tags.

The derivation posts an arc's receives at the consumer's phase and its
sends at the producer's phase, walking functions in dataflow order; an
axis-changing redistribution whose endpoints share one processor set
becomes a single all-to-all collective (the distributed corner turn),
any other cross-processor hop becomes tagged point-to-point traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.model.application import ApplicationModel, ModelError
from ..core.model.mapping import Mapping
from ..core.runtime.buffers import RuntimeBuffer, buffer_views
from .report import Finding

__all__ = ["CommOp", "CommSchedule", "derive_comm_schedule", "check_comm_schedule"]


@dataclass(frozen=True)
class CommOp:
    """One communication operation in a rank's schedule."""

    kind: str                          # "send" | "recv" | "coll"
    peer: int = -1                     # partner rank (p2p only)
    tag: int = -1                      # buffer id (p2p) or collective id
    participants: Tuple[int, ...] = () # ranks in the collective (coll only)
    where: str = ""                    # the arc this op implements

    def describe(self) -> str:
        if self.kind == "send":
            return f"send(to={self.peer}, tag={self.tag})"
        if self.kind == "recv":
            return f"recv(from={self.peer}, tag={self.tag})"
        return f"collective(tag={self.tag}, ranks={list(self.participants)})"


@dataclass
class CommSchedule:
    """Per-rank ordered communication programs derived from a mapped model."""

    nprocs: int
    ops: Dict[int, List[CommOp]] = field(default_factory=dict)
    model_name: str = ""

    def rank_ops(self, rank: int) -> List[CommOp]:
        return self.ops.get(rank, [])

    def total_ops(self) -> int:
        return sum(len(v) for v in self.ops.values())


def derive_comm_schedule(
    app: ApplicationModel, mapping: Mapping, nprocs: int
) -> CommSchedule:
    """Derive each rank's send/recv/collective sequence for one iteration.

    Walks functions in dataflow order; for each function, posts the receives
    of its inbound arcs, then the sends of its outbound arcs.  When the
    model has a cycle the declaration order is used instead, so the
    schedule checker surfaces the resulting deadlock rather than the
    derivation crashing.
    """
    schedule = CommSchedule(nprocs=nprocs, model_name=app.name)
    ops = schedule.ops
    for rank in range(nprocs):
        ops[rank] = []

    try:
        order = app.topological_order()
    except ModelError:
        order = app.function_instances()

    def proc(fid: int, thread: int) -> int:
        return mapping.processor_of(fid, thread)

    def hops(buf: RuntimeBuffer) -> List[Tuple[int, int]]:
        """Cross-processor (src_rank, dst_rank) hops of one buffer's plan."""
        pairs = (
            (proc(buf.src_function, m.src_thread), proc(buf.dst_function, m.dst_thread))
            for m in buf.plan
        )
        return sorted(hop for hop in pairs if hop[0] != hop[1])

    def collective(buf: RuntimeBuffer) -> Optional[Tuple[int, ...]]:
        """Participant ranks when the buffer runs as one all-to-all collective."""
        src, dst = buf.src_striping, buf.dst_striping
        if not (src.is_striped and dst.is_striped) or src.axis == dst.axis:
            return None
        src_procs = {proc(buf.src_function, t) for t in range(buf.src_threads)}
        dst_procs = {proc(buf.dst_function, t) for t in range(buf.dst_threads)}
        # Only when both sides live on the same ranks is a symmetric
        # collective legal; otherwise fall back to point-to-point.
        if src_procs != dst_procs or len(src_procs) < 2:
            return None
        return tuple(sorted(src_procs))

    # Group buffers by producer / consumer function id.
    inbound: Dict[int, List[RuntimeBuffer]] = {}
    outbound: Dict[int, List[RuntimeBuffer]] = {}
    participants: Dict[int, Optional[Tuple[int, ...]]] = {}
    for buf in buffer_views(app):
        inbound.setdefault(buf.dst_function, []).append(buf)
        outbound.setdefault(buf.src_function, []).append(buf)
        participants[buf.buffer_id] = collective(buf)

    for inst in order:
        fid = inst.function_id
        # Receive phase: inbound buffers deliver before the function fires.
        for buf in inbound.get(fid, []):
            ranks = participants[buf.buffer_id]
            if ranks is not None:
                for rank in ranks:
                    ops[rank].append(
                        CommOp("coll", tag=buf.buffer_id,
                               participants=ranks, where=buf.name)
                    )
                continue
            for sp, dp in hops(buf):
                ops[dp].append(CommOp("recv", peer=sp, tag=buf.buffer_id, where=buf.name))
        # Send phase: outbound buffers ship once the function has produced.
        for buf in outbound.get(fid, []):
            if participants[buf.buffer_id]:
                continue  # handled as a collective at the consumer's phase
            for sp, dp in hops(buf):
                ops[sp].append(CommOp("send", peer=dp, tag=buf.buffer_id, where=buf.name))
    return schedule


# ---------------------------------------------------------------------------
# Schedule checking: symbolic execution + wait-for-graph analysis.
# ---------------------------------------------------------------------------

def check_comm_schedule(schedule: CommSchedule) -> List[Finding]:
    """Symbolically execute a schedule and report deadlocks and mismatches."""
    findings: List[Finding] = []
    findings.extend(_check_collective_agreement(schedule))

    ranks = sorted(set(range(schedule.nprocs)) | set(schedule.ops))
    programs = {r: schedule.rank_ops(r) for r in ranks}
    pc = {r: 0 for r in ranks}
    in_flight: Dict[Tuple[int, int], List[CommOp]] = {}

    def current(r: int) -> Optional[CommOp]:
        prog = programs[r]
        return prog[pc[r]] if pc[r] < len(prog) else None

    progress = True
    while progress:
        progress = False
        for r in ranks:
            while True:
                op = current(r)
                if op is None:
                    break
                if op.kind == "send":
                    in_flight.setdefault((r, op.peer), []).append(op)
                    pc[r] += 1
                    progress = True
                elif op.kind == "recv":
                    chan = in_flight.get((op.peer, r), [])
                    idx = next(
                        (i for i, s in enumerate(chan) if s.tag == op.tag), None
                    )
                    if idx is None:
                        break  # blocked until the matching send appears
                    chan.pop(idx)
                    pc[r] += 1
                    progress = True
                else:  # collective: advance only when every participant arrived
                    arrived = all(
                        (c := current(p)) is not None
                        and c.kind == "coll"
                        and c.tag == op.tag
                        for p in op.participants
                    )
                    if not arrived:
                        break
                    for p in op.participants:
                        pc[p] += 1
                    if r not in op.participants:
                        pc[r] += 1  # malformed op: don't let the sim spin
                    progress = True
                    break  # our own pc moved; re-enter the loop cleanly

    stalled = [r for r in ranks if current(r) is not None]
    if stalled:
        findings.extend(
            _diagnose_stall(schedule, programs, pc, in_flight, stalled)
        )

    # Leaked messages: sends that completed but were never received.
    leaked: Dict[Tuple[int, int, int, str], int] = {}
    for (src, dst), chan in in_flight.items():
        for op in chan:
            key = (src, dst, op.tag, op.where)
            leaked[key] = leaked.get(key, 0) + 1
    for (src, dst, tag, where), count in sorted(leaked.items()):
        many = f" ({count} messages)" if count > 1 else ""
        findings.append(
            Finding(
                "warning", "COMM004", where or f"rank {src}",
                f"send from rank {src} to rank {dst} with tag {tag} is never "
                f"received{many}",
                "remove the send or add the matching receive",
                "comm-schedule",
            )
        )
    return findings


def _check_collective_agreement(schedule: CommSchedule) -> List[Finding]:
    findings: List[Finding] = []
    by_tag: Dict[int, Dict[int, List[CommOp]]] = {}
    for rank, ops in schedule.ops.items():
        for op in ops:
            if op.kind == "coll":
                by_tag.setdefault(op.tag, {}).setdefault(rank, []).append(op)
    for tag, by_rank in sorted(by_tag.items()):
        sets = {op.participants for ops in by_rank.values() for op in ops}
        where = next(op.where for ops in by_rank.values() for op in ops) \
            or f"collective {tag}"
        if len(sets) > 1:
            rendered = ", ".join(str(sorted(s)) for s in sorted(sets))
            findings.append(
                Finding(
                    "error", "COMM003", where,
                    f"collective {tag} has disagreeing participant sets: "
                    f"{rendered}",
                    "every rank must list the identical participant set",
                    "comm-schedule",
                )
            )
            continue
        participants = set(next(iter(sets)))
        posted = set(by_rank)
        missing = sorted(participants - posted)
        if missing:
            findings.append(
                Finding(
                    "error", "COMM003", where,
                    f"collective {tag} declares ranks {sorted(participants)} "
                    f"but ranks {missing} never post it",
                    "post the collective on every participant or shrink the set",
                    "comm-schedule",
                )
            )
        extra = sorted(posted - participants)
        if extra:
            findings.append(
                Finding(
                    "error", "COMM003", where,
                    f"ranks {extra} post collective {tag} without being in its "
                    f"participant set {sorted(participants)}",
                    "add them to the participant set on every rank",
                    "comm-schedule",
                )
            )
    return findings


def _diagnose_stall(schedule, programs, pc, in_flight, stalled) -> List[Finding]:
    """Classify every stalled rank: deadlock cycle, dead receive, or blocked."""
    findings: List[Finding] = []
    stalled_set = set(stalled)
    finished = {
        r for r in programs if r not in stalled_set and pc[r] >= len(programs[r])
    }
    waits: Dict[int, List[int]] = {}
    for r in stalled:
        op = programs[r][pc[r]]
        if op.kind == "recv":
            waits[r] = [op.peer]
        else:  # collective: waiting on participants that have not arrived
            waits[r] = [
                p for p in op.participants
                if p != r and not (
                    pc[p] < len(programs.get(p, []))
                    and programs[p][pc[p]].kind == "coll"
                    and programs[p][pc[p]].tag == op.tag
                )
            ]

    cycles = _find_cycles({r: [p for p in ps if p in stalled_set]
                           for r, ps in waits.items()})
    in_cycle = set()
    for cycle in cycles:
        in_cycle.update(cycle)
        chain = " -> ".join(
            f"rank {r} waits on {programs[r][pc[r]].describe()}" for r in cycle
        )
        first = programs[cycle[0]][pc[cycle[0]]]
        findings.append(
            Finding(
                "error", "COMM001",
                first.where or schedule.model_name or "schedule",
                f"deadlock: ranks {sorted(cycle)} wait on each other "
                f"in a cycle ({chain})",
                "reorder the exchange so one side sends before it receives",
                "comm-schedule",
            )
        )

    for r in stalled:
        if r in in_cycle:
            continue
        op = programs[r][pc[r]]
        if op.kind == "recv" and op.peer in finished:
            chan = in_flight.get((op.peer, r), [])
            if chan:
                tags = sorted({s.tag for s in chan})
                findings.append(
                    Finding(
                        "error", "COMM005", op.where or f"rank {r}",
                        f"rank {r} expects tag {op.tag} from rank {op.peer}, "
                        f"but the in-flight messages carry tags {tags}",
                        "make the send and receive tags agree",
                        "comm-schedule",
                    )
                )
            else:
                findings.append(
                    Finding(
                        "error", "COMM002", op.where or f"rank {r}",
                        f"rank {r} receives from rank {op.peer} (tag {op.tag}) "
                        f"but rank {op.peer} finished without sending it",
                        "add the matching send or drop the receive",
                        "comm-schedule",
                    )
                )
        elif op.kind == "recv":
            findings.append(
                Finding(
                    "warning", "COMM001", op.where or f"rank {r}",
                    f"rank {r} is transitively blocked at {op.describe()} "
                    f"behind the reported stall",
                    "fix the primary deadlock first",
                    "comm-schedule",
                )
            )
        else:
            missing = sorted(waits.get(r, []))
            findings.append(
                Finding(
                    "error" if any(p in finished for p in missing) else "warning",
                    "COMM003" if any(p in finished for p in missing) else "COMM001",
                    op.where or f"rank {r}",
                    f"rank {r} waits at {op.describe()} for ranks {missing} "
                    f"that never arrive",
                    "every participant must reach the collective",
                    "comm-schedule",
                )
            )
    return findings


def _find_cycles(graph: Dict[int, Sequence[int]]) -> List[List[int]]:
    """Elementary cycles via iterative DFS; each cycle reported once."""
    cycles: List[List[int]] = []
    seen_cycles = set()
    visited = set()
    for start in sorted(graph):
        if start in visited:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        path: List[int] = [start]
        on_path = {start}
        while stack:
            node, edge_idx = stack[-1]
            succs = [p for p in graph.get(node, []) if p in graph]
            if edge_idx >= len(succs):
                stack.pop()
                on_path.discard(node)
                path.pop()
                visited.add(node)
                continue
            stack[-1] = (node, edge_idx + 1)
            nxt = succs[edge_idx]
            if nxt in on_path:
                cycle = path[path.index(nxt):]
                canon = tuple(sorted(cycle))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(list(cycle))
            elif nxt not in visited:
                stack.append((nxt, 0))
                path.append(nxt)
                on_path.add(nxt)
    return cycles
