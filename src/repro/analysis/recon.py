"""Reconfiguration-safety model checking (Verifier v2, ``RECON0xx``).

PRs 6–8 made mappings *dynamic* — shrink after a permanent node loss, grow
back onto replacement capacity, migrate off a straggler — but the Verifier
only understood a single static mapping.  This pass symbolically checks a
mapping **transition**: the pair of placements around a reconfiguration
plus the bookkeeping the run-time derives from it (the moved-thread set
driving the O(delta) traffic-table update, and the checkpoint-region
transfer list).  Everything is proved on the striping algebra — element
masks, message plans, delta composition — without executing an iteration.

A transition is either produced by the planners here
(:func:`plan_shrink_transition` / :func:`plan_grow_transition`, which
mirror the run-time's ``_shrink_restripe`` / ``_grow_migrate`` exactly,
ring mirrors included) or hand-built/tampered — the seeded-defect corpus
does the latter to prove each rule fires.

Rules (:func:`check_transition`):

* **RECON001** — stranded thread: the post-transition placement maps a
  thread onto a processor outside the active set (its elements would never
  be computed),
* **RECON002** — orphaned send: the delta-composed staging-traffic tables
  (driven by the transition's moved set) *undercount* the true remote
  traffic of the new placement, so a cross-processor message would never
  be staged,
* **RECON003** — duplicated send: the delta-composed tables *overcount*
  (a message would be staged twice, corrupting arrival accounting),
* **RECON004** — incomplete checkpoint migration: a region whose owner
  moved has no transfer shipping its bytes to the new owner,
* **RECON005** — redundant migration: a planned transfer moves state no
  re-placed thread needs (wasted reconfiguration bandwidth),
* **RECON006** — the post-transition communication schedule is no longer
  deadlock-free (re-runs :mod:`repro.analysis.comm` on the new placement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.model.application import ApplicationModel
from ..core.model.mapping import Mapping, grow_mapping, shrink_mapping
from ..core.runtime.buffers import buffer_views, moved_region_transfers
from ..core.runtime.striping import plan_remote_traffic, plan_remote_traffic_delta
from .comm import check_comm_schedule, derive_comm_schedule
from .report import Finding

__all__ = [
    "MappingTransition",
    "plan_shrink_transition",
    "plan_grow_transition",
    "plan_migration_transition",
    "check_transition",
]

#: (old_proc, new_proc, nbytes, label) — the run-time's transfer tuple shape.
Transfer = Tuple[int, int, int, str]


@dataclass
class MappingTransition:
    """One reconfiguration step: two placements plus the derived bookkeeping.

    ``moved`` is the set of ``(function_id, thread)`` keys the run-time
    feeds to :func:`~repro.core.runtime.striping.plan_remote_traffic_delta`;
    ``transfers`` is the checkpoint-region shipping list it executes.  Both
    are *claims* the checker verifies against ground truth re-derived from
    the striping algebra.
    """

    kind: str  # "shrink" | "grow" | "migrate"
    before: Mapping
    after: Mapping
    #: Processors that are alive after the transition.
    active: Set[int]
    #: (fid, thread) keys whose processor the transition claims changed.
    moved: Set[Tuple[int, int]] = field(default_factory=set)
    #: Claimed checkpoint-region transfers (old, new, nbytes, label).
    transfers: List[Transfer] = field(default_factory=list)
    #: Ring-mirror substitution for sources that are dead post-transition
    #: (shrink reads checkpoints from mirrors; grow reads live owners).
    mirrors: Dict[int, int] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"{self.kind}: {len(self.moved)} thread(s) moved, "
            f"{len(self.transfers)} region transfer(s), "
            f"active={sorted(self.active)}"
        )


def _mapping_items(app: ApplicationModel, mapping: Mapping):
    for inst in app.function_instances():
        for t in range(inst.threads):
            yield inst.function_id, t, mapping.processor_of(inst.function_id, t)


def _moved_keys(app: ApplicationModel, before: Mapping, after: Mapping):
    return {
        (fid, t)
        for fid, t, proc in _mapping_items(app, before)
        if after.processor_of(fid, t) != proc
    }


def _mirror_table(pre_active: Iterable[int], survivors: Set[int]) -> Dict[int, int]:
    """The run-time's checkpoint ring: each dead processor's mirror is the
    next survivor after it in the pre-transition active ring."""
    ring = sorted(pre_active)
    table: Dict[int, int] = {}
    for proc in ring:
        if proc in survivors:
            table[proc] = proc
            continue
        i = ring.index(proc)
        for step in range(1, len(ring)):
            cand = ring[(i + step) % len(ring)]
            if cand in survivors:
                table[proc] = cand
                break
    return table


def _shipments(app, before: Mapping, after: Mapping,
               mirrors: Dict[int, int]) -> List[Transfer]:
    """Ground-truth checkpoint shipments of a re-placement: the run-time's
    ``moved_region_transfers`` of every buffer, each read from its old
    owner's ring mirror when ``mirrors`` names one, minus the moves where
    nothing travels."""
    shipments: List[Transfer] = []
    for buf in buffer_views(app):
        for old, new, nbytes, label in moved_region_transfers(
            buf, before.processor_of, after.processor_of
        ):
            old = mirrors.get(old, old)
            if old != new and nbytes > 0:
                shipments.append((old, new, nbytes, label))
    return shipments


def plan_shrink_transition(
    app: ApplicationModel,
    mapping: Mapping,
    survivors: Iterable[int],
    balanced: bool = False,
    active: Optional[Iterable[int]] = None,
) -> MappingTransition:
    """Plan the transition ``_shrink_restripe`` would execute for a node
    loss: orphans dealt onto the survivors, checkpoints shipped from the
    dead owners' ring mirrors."""
    survivor_set = set(survivors)
    pre_active = set(active) if active is not None else (
        set(mapping.processors_used()) | survivor_set
    )
    after = shrink_mapping(mapping, sorted(survivor_set), balanced=balanced)
    mirrors = _mirror_table(pre_active, survivor_set)
    return MappingTransition(
        kind="shrink",
        before=mapping,
        after=after,
        active=survivor_set,
        moved=_moved_keys(app, mapping, after),
        transfers=_shipments(app, mapping, after, mirrors),
        mirrors=mirrors,
    )


def plan_grow_transition(
    app: ApplicationModel,
    current: Mapping,
    original: Mapping,
    replacements: Dict[int, int],
) -> MappingTransition:
    """Plan the transition ``_grow_migrate`` would execute when replacement
    capacity arrives: threads return to their original placement (lost
    processors substituted) and state ships from the *live* current
    owners — no mirrors involved."""
    after = grow_mapping(current, original, replacements)
    active = set(current.processors_used()) | set(after.processors_used())
    return MappingTransition(
        kind="grow",
        before=current,
        after=after,
        active=active,
        moved=_moved_keys(app, current, after),
        transfers=_shipments(app, current, after, {}),
    )


def plan_migration_transition(
    app: ApplicationModel,
    mapping: Mapping,
    moves: Dict[Tuple[int, int], int],
) -> MappingTransition:
    """Plan a live migration: the named ``(fid, thread) -> processor``
    moves applied to an otherwise unchanged mapping, state shipped from
    the live current owners (the straggler-drain path)."""
    after = mapping.copy()
    for (fid, t), proc in sorted(moves.items()):
        after.assign(fid, t, proc)
    active = set(mapping.processors_used()) | set(after.processors_used())
    return MappingTransition(
        kind="migrate",
        before=mapping,
        after=after,
        active=active,
        moved=_moved_keys(app, mapping, after),
        transfers=_shipments(app, mapping, after, {}),
    )


def check_transition(
    app: ApplicationModel,
    transition: MappingTransition,
    nprocs: int,
) -> List[Finding]:
    """Run every RECON rule over one transition."""
    findings: List[Finding] = []
    src = "recon-safety"
    before, after = transition.before, transition.after

    # RECON001 — every thread must land on an active processor.
    for fid, t, proc in _mapping_items(app, after):
        if proc not in transition.active or not (0 <= proc < nprocs):
            findings.append(Finding(
                "error", "RECON001", f"{transition.kind}:{fid}:{t}",
                f"thread ({fid}, {t}) is mapped onto processor {proc}, "
                f"which is not in the post-transition active set "
                f"{sorted(transition.active)}: its elements would never "
                f"be computed",
                "remap the thread onto a surviving processor",
                src,
            ))

    # RECON002/003 — the delta-composed staging-traffic tables (driven by
    # the transition's claimed moved set) must equal a full recompute at
    # the new placement.  A deficit is an orphaned send (never staged); a
    # surplus is a duplicated one.
    moved = transition.moved
    for view in buffer_views(app):
        sf, df = view.src_function, view.dst_function
        old_src = lambda t, f=sf: before.processor_of(f, t)  # noqa: E731
        old_dst = lambda t, f=df: before.processor_of(f, t)  # noqa: E731
        new_src = lambda t, f=sf: after.processor_of(f, t)  # noqa: E731
        new_dst = lambda t, f=df: after.processor_of(f, t)  # noqa: E731
        send0, recv0 = plan_remote_traffic(view.plan, old_src, old_dst)
        moved_src = {t for f, t in moved if f == sf}
        moved_dst = {t for f, t in moved if f == df}
        d_send, d_recv = plan_remote_traffic_delta(
            view.plan, send0, recv0,
            old_src, old_dst, new_src, new_dst,
            moved_src, moved_dst,
        )
        f_send, f_recv = plan_remote_traffic(view.plan, new_src, new_dst)
        for side, got, want in (("send", d_send, f_send),
                                ("recv", d_recv, f_recv)):
            for t in sorted(set(got) | set(want)):
                have, need = got.get(t, 0), want.get(t, 0)
                if have < need:
                    findings.append(Finding(
                        "error", "RECON002", f"{view.name}.{side}[{t}]",
                        f"orphaned send: the delta-composed traffic table "
                        f"stages {have} bytes for {side} thread {t} but the "
                        f"new placement requires {need} — a cross-processor "
                        f"message would never be staged",
                        "include every re-placed thread in the transition's "
                        "moved set",
                        src,
                    ))
                elif have > need:
                    findings.append(Finding(
                        "error", "RECON003", f"{view.name}.{side}[{t}]",
                        f"duplicated send: the delta-composed traffic table "
                        f"stages {have} bytes for {side} thread {t} but the "
                        f"new placement requires only {need} — a message "
                        f"would be staged twice across the boundary",
                        "recompute the moved set from the placement diff",
                        src,
                    ))

    # RECON004/005 — the claimed checkpoint transfers vs ground truth.
    required: Dict[Tuple[int, int, int, str], int] = {}
    for key in _shipments(app, before, after, transition.mirrors):
        required[key] = required.get(key, 0) + 1
    claimed: Dict[Tuple[int, int, int, str], int] = {}
    for old, new, nbytes, label in transition.transfers:
        key = (old, new, nbytes, label)
        claimed[key] = claimed.get(key, 0) + 1
    for key in sorted(set(required) | set(claimed), key=lambda k: (k[3], k)):
        old, new, nbytes, label = key
        have, need = claimed.get(key, 0), required.get(key, 0)
        if have < need:
            findings.append(Finding(
                "error", "RECON004", label,
                f"incomplete checkpoint migration: region {label} "
                f"({nbytes} bytes) must move {old} -> {new} but the "
                f"transition ships it {have} of {need} time(s) — the new "
                f"owner would compute on stale or missing state",
                "ship every re-placed region from its checkpoint source",
                src,
            ))
        elif have > need:
            findings.append(Finding(
                "warning", "RECON005", label,
                f"redundant migration: transfer {old} -> {new} of {label} "
                f"({nbytes} bytes) moves state no re-placed thread needs "
                f"({have} shipped, {need} required)",
                "drop the extra transfer to shorten the recovery pause",
                src,
            ))

    # RECON006 — the post-transition schedule must stay deadlock-free.
    try:
        schedule = derive_comm_schedule(app, after, nprocs)
    except Exception as exc:
        findings.append(Finding(
            "error", "RECON006", transition.kind,
            f"post-transition communication schedule cannot be derived: {exc}",
            "fix the post-transition mapping", src,
        ))
    else:
        for f in check_comm_schedule(schedule):
            if f.severity != "error":
                continue
            findings.append(Finding(
                "error", "RECON006", f.where,
                f"post-transition schedule violates {f.rule}: {f.message}",
                f.hint, src,
            ))
    return findings
