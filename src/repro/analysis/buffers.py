"""Buffer-hazard detection (the SAGE Verifier's third pass).

Checks every logical buffer's striping tables *exactly* — element masks over
the logical shape, not heuristics — before any storage is allocated:

* **BUF201** — a spec whose striping cannot be realised (bad axis, byte
  counts inconsistent with the shape, zero threads),
* **BUF202** — write-write overlap: two writer threads own the same element,
* **BUF203** — read-before-write: a reader thread needs elements no writer
  produces,
* **BUF204** — the consumer runs before its producer in the execution
  order, so a read would observe the previous iteration's data,
* **BUF205** — a starved reader thread that owns no elements at all,
* **BUF206 / BUF207** — the per-node physical-buffer footprint exceeds (or
  crowds) the platform's DRAM: the
  :func:`~repro.core.runtime.buffers.endpoint_footprint` formula the
  run-time enforces, summed over this pass's own region tables so the
  ``src_regions`` / ``dst_regions`` overrides below count too.

Specs are the glue ``LOGICAL_BUFFERS`` dict shape, as
:func:`~repro.core.runtime.buffers.logical_buffer_specs` (re-exported here)
derives them.  A spec may carry explicit ``src_regions`` / ``dst_regions``
overrides — per-thread lists of ``(start, stop)`` pairs per axis — which
replace the striping-derived regions; irregular AToT partitions use this
hook, and it is how the seeded-defect corpus plants overlap and coverage
hazards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.model.datatypes import Striping
from ..core.model.mapping import Mapping
from ..core.runtime.buffers import logical_buffer_specs
from ..core.runtime.striping import (
    AxisIndices,
    Region,
    region_elems,
    region_indexer,
    thread_region,
)
from .report import Finding

__all__ = ["logical_buffer_specs", "check_buffer_hazards"]

#: Fraction of node DRAM above which BUF207 warns.
NEAR_CAPACITY = 0.8


def check_buffer_hazards(
    specs: Sequence[dict],
    mapping: Optional[Mapping] = None,
    nprocs: Optional[int] = None,
    execution_order: Optional[Sequence[int]] = None,
    memory_bytes: Optional[int] = None,
) -> List[Finding]:
    """Run every hazard rule over a set of logical-buffer specs.

    ``mapping`` + ``memory_bytes`` enable the capacity rules (BUF206/207);
    ``execution_order`` (function ids in firing order) enables BUF204.
    """
    findings: List[Finding] = []
    footprint: Dict[int, int] = {}
    order_pos = (
        {fid: i for i, fid in enumerate(execution_order)}
        if execution_order is not None
        else None
    )
    for spec in specs:
        findings.extend(
            _check_one(spec, mapping, order_pos, footprint)
        )
    if memory_bytes is not None and footprint:
        findings.extend(_check_capacity(footprint, memory_bytes, nprocs))
    return findings


# ---------------------------------------------------------------------------


def _check_one(spec, mapping, order_pos, footprint) -> List[Finding]:
    findings: List[Finding] = []
    where = spec.get("name", f"buffer {spec.get('id', '?')}")
    shape = tuple(spec["shape"])
    elem_bytes = int(spec["elem_bytes"])

    total = elem_bytes
    for d in shape:
        total *= d
    if total != spec["total_bytes"]:
        findings.append(
            Finding(
                "error", "BUF201", where,
                f"total_bytes {spec['total_bytes']} inconsistent with shape "
                f"{shape} x {elem_bytes} bytes/elem (= {total})",
                "recompute the buffer size from the datatype",
                "buffer-hazards",
            )
        )

    try:
        src_regions = _endpoint_regions(spec, "src", shape)
        dst_regions = _endpoint_regions(spec, "dst", shape)
    except Exception as exc:
        findings.append(
            Finding(
                "error", "BUF201", where,
                f"striping cannot be realised over shape {shape}: {exc}",
                "fix the stripe axis/threads against the datatype shape",
                "buffer-hazards",
            )
        )
        return findings

    src_kind = spec["src_striping"].get("kind", "replicated")
    explicit_src = "src_regions" in spec

    # BUF202: overlapping writers.  Replicated sources intentionally have
    # every thread write the full (identical) data, so only divided layouts
    # and explicit region tables are checked.
    write_count = np.zeros(shape, dtype=np.int32)
    for region in src_regions:
        if region is not None and region_elems(region):
            write_count[region_indexer(region)] += 1
    if (src_kind != "replicated" or explicit_src) and len(src_regions) > 1:
        overlap = write_count > 1
        if overlap.any():
            coord = tuple(int(c) for c in np.argwhere(overlap)[0])
            owners = [
                t for t, region in enumerate(src_regions)
                if region is not None and _region_contains(region, coord)
            ]
            findings.append(
                Finding(
                    "error", "BUF202", where,
                    f"write-write overlap: element {coord} is written by "
                    f"source threads {owners}",
                    "make the writer regions disjoint",
                    "buffer-hazards",
                )
            )

    # BUF203: every reader element must be covered by some writer.
    written = write_count > 0
    for t, region in enumerate(dst_regions):
        if region is None or not region_elems(region):
            findings.append(
                Finding(
                    "warning", "BUF205", where,
                    f"destination thread {t} owns no elements (starved reader)",
                    "reduce the thread count or enlarge the data",
                    "buffer-hazards",
                )
            )
            continue
        covered = written[region_indexer(region)]
        if not covered.all():
            missing = int(covered.size - np.count_nonzero(covered))
            local = np.argwhere(~covered)[0]
            coord = _local_to_global(region, local)
            findings.append(
                Finding(
                    "error", "BUF203", where,
                    f"read-before-write: destination thread {t} reads "
                    f"{missing} element(s) no source thread writes "
                    f"(first at {coord})",
                    "extend the writer regions to cover every reader",
                    "buffer-hazards",
                )
            )

    # BUF204: consumer scheduled before producer.
    if order_pos is not None:
        sp = order_pos.get(spec["src_function"])
        dp = order_pos.get(spec["dst_function"])
        if sp is not None and dp is not None and dp < sp:
            findings.append(
                Finding(
                    "error", "BUF204", where,
                    f"function {spec['dst_function']} reads this buffer at "
                    f"position {dp} of the execution order, before its "
                    f"producer {spec['src_function']} writes it at {sp}",
                    "reorder execution so the producer fires first",
                    "buffer-hazards",
                )
            )

    # Footprint accumulation for the capacity rules.
    if mapping is not None:
        try:
            for t, region in enumerate(src_regions):
                proc = mapping.processor_of(spec["src_function"], t)
                nbytes = region_elems(region) * elem_bytes if region else 0
                footprint[proc] = footprint.get(proc, 0) + nbytes
            for t, region in enumerate(dst_regions):
                proc = mapping.processor_of(spec["dst_function"], t)
                nbytes = region_elems(region) * elem_bytes if region else 0
                footprint[proc] = footprint.get(proc, 0) + nbytes
        except Exception as exc:
            findings.append(
                Finding(
                    "error", "BUF201", where,
                    f"buffer endpoints are not fully mapped: {exc}",
                    "map every thread of both endpoint functions",
                    "buffer-hazards",
                )
            )
    return findings


def _check_capacity(footprint, memory_bytes, nprocs) -> List[Finding]:
    findings: List[Finding] = []
    for proc in sorted(footprint):
        nbytes = footprint[proc]
        where = f"processor {proc}"
        if nprocs is not None and proc >= nprocs:
            findings.append(
                Finding(
                    "error", "BUF201", where,
                    f"buffers are mapped to processor {proc} but the machine "
                    f"has only {nprocs}",
                    "fix the mapping's processor range",
                    "buffer-hazards",
                )
            )
            continue
        if nbytes > memory_bytes:
            findings.append(
                Finding(
                    "error", "BUF206", where,
                    f"physical buffers need {nbytes} bytes but the node has "
                    f"{memory_bytes} bytes DRAM",
                    "use more nodes or smaller data sets",
                    "buffer-hazards",
                )
            )
        elif nbytes > NEAR_CAPACITY * memory_bytes:
            pct = 100.0 * nbytes / memory_bytes
            findings.append(
                Finding(
                    "warning", "BUF207", where,
                    f"physical buffers use {pct:.0f}% of node DRAM "
                    f"({nbytes} of {memory_bytes} bytes)",
                    "leave headroom for staging copies and kernel state",
                    "buffer-hazards",
                )
            )
    return findings


# -- region plumbing ---------------------------------------------------------


def _endpoint_regions(spec, side: str, shape) -> List[Optional[Region]]:
    """Per-thread regions of one endpoint: explicit table or striping-derived."""
    threads = int(spec[f"{side}_threads"])
    if threads < 1:
        raise ValueError(f"{side}_threads must be >= 1, got {threads}")
    explicit = spec.get(f"{side}_regions")
    if explicit is not None:
        if len(explicit) != threads:
            raise ValueError(
                f"{side}_regions lists {len(explicit)} threads, spec says {threads}"
            )
        return [_parse_region(r, shape) for r in explicit]
    striping = Striping.from_dict(spec[f"{side}_striping"])
    return [thread_region(shape, striping, threads, t) for t in range(threads)]


def _parse_region(bounds, shape) -> Optional[Region]:
    """``[(start, stop), ...]`` per axis -> Region; None for an empty region."""
    if bounds is None:
        return None
    if len(bounds) != len(shape):
        raise ValueError(
            f"region rank {len(bounds)} does not match shape rank {len(shape)}"
        )
    axes = []
    for (start, stop), extent in zip(bounds, shape):
        if not (0 <= start <= stop <= extent):
            raise ValueError(
                f"region bounds ({start}, {stop}) outside axis extent {extent}"
            )
        axes.append(AxisIndices.of_range(start, stop))
    return tuple(axes)


def _region_contains(region: Region, coord: Tuple[int, ...]) -> bool:
    for ax, c in zip(region, coord):
        arr = ax.as_array()
        if c not in arr:
            return False
    return True


def _local_to_global(region: Region, local) -> Tuple[int, ...]:
    return tuple(int(ax.as_array()[i]) for ax, i in zip(region, local))
