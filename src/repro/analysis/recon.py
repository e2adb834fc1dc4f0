"""Reconfiguration-safety model checking (Verifier v2, ``RECON0xx``).

The run-time re-places threads while it runs — shrink after a permanent
node loss, grow back onto replacement capacity, drain a straggler and
restore it — but the Verifier only understood a single static mapping.
This pass symbolically checks a mapping **transition**: the pair of
placements around a reconfiguration plus the checkpoint-region transfer
list the run-time derives from it.  Everything is proved on the striping
algebra without executing an iteration.

A transition is either produced by the planners here
(:func:`plan_shrink_transition` / :func:`plan_grow_transition` /
:func:`plan_migration_transition`), recorded from a run-time
re-placement, or hand-built/tampered — the seeded-defect corpus does the
latter to prove each rule fires.  The planners and the run-time share one
rule for what ships and from where
(:func:`~repro.core.runtime.buffers.ring_mirrors` and
:func:`~repro.core.runtime.buffers.moved_region_transfers`).  The staging
tables need no check: the run-time re-derives them from the new placement
the way it derives them at construction.

Rules (:func:`check_transition`):

* **RECON001** — stranded thread: the post-transition placement maps a
  thread onto a processor outside the active set (its elements would never
  be computed),
* **RECON004** — incomplete checkpoint migration: a region whose owner
  moved has no transfer shipping its bytes to the new owner,
* **RECON005** — redundant migration: a planned transfer moves state no
  re-placed thread needs (wasted reconfiguration bandwidth),
* **RECON006** — the post-transition communication schedule is no longer
  deadlock-free (re-runs :mod:`repro.analysis.comm` on the new placement).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.model.application import ApplicationModel
from ..core.model.mapping import Mapping, grow_mapping, shrink_mapping
from ..core.runtime.buffers import buffer_views, moved_region_transfers, ring_mirrors
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

    ``transfers`` is the checkpoint-region shipping list the run-time
    executes: a *claim* the checker verifies against ground truth
    re-derived from the striping algebra.  ``moved`` only describes the
    transition (its size is printed by :meth:`describe`); it drives
    nothing.
    """

    kind: str  # "shrink" | "grow" | "migrate"
    before: Mapping
    after: Mapping
    #: Processors that are alive after the transition.
    active: Set[int]
    #: (fid, thread) keys whose processor the transition changes.
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


def _transition(app: ApplicationModel, kind: str, before: Mapping,
                after: Mapping, active: Set[int],
                mirrors: Optional[Dict[int, int]] = None) -> MappingTransition:
    """The transition from ``before`` to ``after`` as the run-time executes
    it: every moved region shipped from its old owner, or from that owner's
    entry in ``mirrors``, wherever something travels."""
    mirrors = mirrors or {}
    transfers = moved_region_transfers(
        buffer_views(app), before.processor_of, after.processor_of, mirrors)
    return MappingTransition(
        kind=kind,
        before=before,
        after=after,
        active=active,
        moved={(fid, t) for fid, t, proc in _mapping_items(app, before)
               if after.processor_of(fid, t) != proc},
        transfers=[m for m in transfers if m[0] != m[1] and m[2] > 0],
        mirrors=mirrors,
    )


def plan_shrink_transition(
    app: ApplicationModel,
    mapping: Mapping,
    survivors: Iterable[int],
    balanced: bool = False,
    active: Optional[Iterable[int]] = None,
) -> MappingTransition:
    """Plan the transition the run-time's shrink would execute for a node
    loss: orphans dealt onto the survivors, checkpoints shipped from the
    dead owners' ring mirrors."""
    survivor_set = set(survivors)
    pre_active = set(active) if active is not None else (
        set(mapping.processors_used()) | survivor_set
    )
    after = shrink_mapping(mapping, sorted(survivor_set), balanced=balanced)
    return _transition(app, "shrink", mapping, after, survivor_set,
                       ring_mirrors(pre_active, survivor_set))


def plan_grow_transition(
    app: ApplicationModel,
    current: Mapping,
    original: Mapping,
    replacements: Dict[int, int],
) -> MappingTransition:
    """Plan the transition the run-time's grow would execute when replacement
    capacity arrives: threads return to their original placement (lost
    processors substituted) and state ships from the *live* current
    owners — no mirrors involved."""
    after = grow_mapping(current, original, replacements)
    active = set(current.processors_used()) | set(after.processors_used())
    return _transition(app, "grow", current, after, active)


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
    return _transition(app, "migrate", mapping, after, active)


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

    # RECON004/005 — the claimed checkpoint transfers vs ground truth.
    required = Counter(_transition(
        app, transition.kind, before, after, transition.active,
        transition.mirrors).transfers)
    claimed = Counter(tuple(move) for move in transition.transfers)
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
