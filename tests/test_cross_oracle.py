"""Cross-oracle: generated glue vs the hand-coded programs vs numpy.

Table 1.0 compares the SAGE run-time against hand-coded CSPI programs; the
comparison is only meaningful if both compute the same thing.  The SAGE
2D FFT and the hand-coded one run the same kernel on the same per-rank
blocks, so their results must agree *bitwise*, and both must agree with
``numpy.fft.fft2`` to single precision.  The corner turn moves data and
computes nothing, so all three agree exactly.
"""

import numpy as np
import pytest

from repro.apps import (
    MatrixProvider,
    benchmark_mapping,
    corner_turn_model,
    corner_turn_rank,
    fft2d_model,
    fft2d_rank,
)
from repro.core.codegen import generate_glue
from repro.core.runtime import SageRuntime
from repro.machine import Environment, SimCluster, get_platform
from repro.mpi import MpiWorld

SEED = 7
GRID = [(n, nodes) for n in (16, 64, 256) for nodes in (1, 2, 4, 8)]


def _sage(build, n, nodes, provider):
    model = build(n, nodes)
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes)
    result = SageRuntime.build(glue, get_platform("cspi")).run(
        iterations=1, input_provider=provider)
    return result.full_result(0)


def _hand_blocks(program, n, nodes, provider):
    cluster = SimCluster.from_platform(Environment(), get_platform("cspi"), nodes)
    world = MpiWorld(cluster)
    world.spawn(program, n, iterations=1, provider=provider,
                execute_data=True, keep_result=True)
    return [t.final_block for t in world.run()]


@pytest.mark.parametrize("n,nodes", GRID)
def test_fft2d_sage_equals_hand_coded_and_numpy(n, nodes):
    provider = MatrixProvider(n, SEED)
    sage = _sage(fft2d_model, n, nodes, provider)
    # Rank r ends holding column block r of the spectrum.
    hand = np.hstack(_hand_blocks(fft2d_rank, n, nodes, provider))
    assert sage.dtype == hand.dtype == np.complex64
    assert np.array_equal(sage, hand)
    reference = np.fft.fft2(provider(0))
    np.testing.assert_allclose(sage, reference, rtol=0, atol=1e-4)
    np.testing.assert_allclose(hand, reference, rtol=0, atol=1e-4)


@pytest.mark.parametrize("n,nodes", GRID)
def test_corner_turn_sage_equals_hand_coded_and_transpose(n, nodes):
    provider = MatrixProvider(n, SEED)
    sage = _sage(corner_turn_model, n, nodes, provider)
    # Rank r ends holding row block r of the transpose.
    hand = np.vstack(_hand_blocks(corner_turn_rank, n, nodes, provider))
    assert np.array_equal(sage, hand)
    assert np.array_equal(sage, provider(0).T)
