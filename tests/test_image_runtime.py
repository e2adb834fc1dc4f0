"""End-to-end distributed image-filtering tests (ifft + spectrum kernels)."""

import numpy as np
import pytest

from repro.apps import benchmark_mapping
from repro.core.codegen import generate_glue
from repro.core.model import ApplicationModel, DataType, FunctionBlock, striped
from repro.core.runtime import KernelError, SageRuntime
from repro.core.runtime.kernels import ThreadContext, _build_filter_kernel, default_bindings
from repro.kernels import conv2d_fft
from repro.machine import cspi

N = 32


def filter_model(nodes, **filter_params):
    t = DataType("img", "complex64", (N, N))
    app = ApplicationModel("imgfilter")

    def block(name, kernel, in_stripe, out_stripe, **params):
        b = app.add_block(FunctionBlock(name, kernel=kernel, threads=nodes, params=params))
        if in_stripe is not None:
            b.add_in("in", t, in_stripe)
        b.add_out("out", t, out_stripe)
        return b

    block("src", "matrix_source", None, striped(0))
    block("rowfft", "fft_rows", striped(0), striped(0))
    block("colfft", "fft_cols", striped(1), striped(1))
    block("filter", "spectrum_multiply", striped(1), striped(1),
          shape=[N, N], **filter_params)
    block("icolfft", "ifft_cols", striped(1), striped(1))
    block("irowfft", "ifft_rows", striped(0), striped(0))
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink", threads=nodes))
    sink.add_in("in", t, striped(0))
    for a, b in (("src", "rowfft"), ("rowfft", "colfft"), ("colfft", "filter"),
                 ("filter", "icolfft"), ("icolfft", "irowfft"), ("irowfft", "sink")):
        app.connect(app.children[a].port("out"), app.children[b].port("in"))
    return app


def run_filter(nodes, image, **filter_params):
    app = filter_model(nodes, **filter_params)
    glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
    runtime = SageRuntime.build(glue, cspi())
    return runtime.run(iterations=1, input_provider=lambda k: image).full_result(0)


@pytest.mark.parametrize("nodes", [1, 2, 4])
@pytest.mark.parametrize("kind,params", [
    ("gaussian", {"filter": "gaussian", "size": 5, "sigma": 1.0}),
    ("box", {"filter": "box", "size": 3}),
])
def test_distributed_filter_matches_single_node(nodes, kind, params):
    rng = np.random.default_rng(3)
    image = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))).astype(
        np.complex64
    )
    got = run_filter(nodes, image, **params)
    kern = _build_filter_kernel(params["filter"], params["size"], params.get("sigma", 1.0))
    expected = conv2d_fft(np.asarray(image, dtype=complex), kern)
    np.testing.assert_allclose(got, expected, atol=1e-3)


def test_roundtrip_without_filter_is_identity():
    """fft -> (unit filter) -> ifft returns the input image."""
    rng = np.random.default_rng(4)
    image = rng.standard_normal((N, N)).astype(np.complex64)
    got = run_filter(2, image, filter="box", size=1)  # 1x1 box = identity
    np.testing.assert_allclose(got, image, atol=1e-3)


def test_unknown_filter_kind_raises():
    with pytest.raises(KernelError, match="unknown filter"):
        _build_filter_kernel("median", 3, 1.0)


def test_spectrum_multiply_requires_shape_param():
    binding = default_bindings()["spectrum_multiply"]
    from repro.core.runtime.striping import thread_region
    from repro.core.model import striped as striped_

    region = thread_region((8, 8), striped_(1), 1, 0)
    ctx = ThreadContext(
        function_id=0, name="f", kernel="spectrum_multiply", thread=0, threads=1,
        iteration=0, params={},  # missing 'shape'
        in_regions={"in": region}, out_regions={"out": region},
        out_dtypes={"out": "complex64"},
    )
    with pytest.raises(KernelError, match="shape"):
        binding.run(ctx, {"in": np.zeros((8, 8), dtype=complex)})


def test_gaussian_kernel_normalised():
    k = _build_filter_kernel("gaussian", 7, 1.5)
    assert k.sum() == pytest.approx(1.0)
    assert k[3, 3] == k.max()
