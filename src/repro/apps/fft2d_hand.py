"""Hand-coded parallel 2D FFT (the Table 1.0 baseline).

This is the rank program a CSPI engineer would write directly against the
vendor MPI + ISSPL libraries: row-block layout, local row FFTs, a packed
all-to-all corner turn through the vendor's tuned algorithm, local column
FFTs.  No function-table dispatch, no logical-buffer staging — the overheads
the SAGE run-time pays are exactly what this program avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.runtime.phantom import PhantomArray
from ..kernels.cornerturn import row_block_bounds
from ..kernels.fft import fft_rows
from ..machine.perfmodel import fft_flops
from ..mpi.comm import Communicator
from .workloads import MatrixProvider

__all__ = ["fft2d_rank", "RankTimings"]


@dataclass
class RankTimings:
    """Per-rank start/finish instants per iteration, plus final data."""

    rank: int
    starts: List[float] = field(default_factory=list)
    finishes: List[float] = field(default_factory=list)
    final_block: Optional[object] = None


def fft2d_rank(
    comm: Communicator,
    n: int,
    iterations: int = 1,
    provider: Optional[MatrixProvider] = None,
    alltoall_algorithm: str = "pairwise",
    execute_data: bool = True,
    keep_result: bool = False,
):
    """Rank program: returns a :class:`RankTimings` (use with ``MpiWorld.spawn``)."""
    size, rank = comm.size, comm.rank
    if n % size:
        raise ValueError(f"matrix size {n} not divisible by {size} ranks")
    if execute_data and provider is None:
        raise ValueError("execute_data=True requires a workload provider")
    timings = RankTimings(rank=rank)
    bounds = row_block_bounds(n, size)
    my_rows = bounds[rank][1] - bounds[rank][0]
    elem_bytes = 8  # complex64

    for k in range(iterations):
        # --- data set arrives in local memory (DMA-in) -----------------------
        if execute_data:
            local = provider.block(k, rank, size)
        else:
            local = PhantomArray((my_rows, n), "complex64")
        timings.starts.append(comm.now)

        # --- local row FFTs ----------------------------------------------------
        yield from comm.compute(my_rows * fft_flops(n))
        if execute_data:
            local = fft_rows(np.asarray(local)).astype("complex64")

        # --- corner turn: pack column tiles, vendor all-to-all, unpack --------
        # Pack: one pass over the local block to build contiguous send tiles.
        yield from comm.copy(my_rows * n * elem_bytes)
        if execute_data:
            tiles = [
                np.ascontiguousarray(local[:, a:b]) for a, b in bounds
            ]
        else:
            tiles = [
                PhantomArray((my_rows, b - a), "complex64") for a, b in bounds
            ]
        received = yield from comm.alltoall(tiles, algorithm=alltoall_algorithm)
        # Unpack: stack received row strips into this rank's column block.
        yield from comm.copy(n * my_rows * elem_bytes)
        if execute_data:
            local = np.ascontiguousarray(np.vstack([np.asarray(t) for t in received]))
        else:
            local = PhantomArray((n, my_rows), "complex64")

        # --- local column FFTs -------------------------------------------------
        yield from comm.compute(my_rows * fft_flops(n))
        if execute_data:
            local = (
                fft_rows(np.ascontiguousarray(np.asarray(local).T))
                .T.astype("complex64")
            )
            local = np.ascontiguousarray(local)

        timings.finishes.append(comm.now)
        if keep_result and k == iterations - 1:
            timings.final_block = local
    return timings
