#!/usr/bin/env python
"""Distributed frequency-domain image filtering on SAGE.

The §1 "image processing" application class: a Gaussian blur implemented as
a distributed FFT convolution — forward 2D FFT (with its embedded corner
turn), spectrum multiply by the filter, inverse 2D FFT (second corner turn)
— modeled as a SAGE dataflow graph, executed on a simulated 4-node machine,
and validated against the library's single-node `conv2d_fft`.

Run: ``python examples/image_filter.py``
"""

import numpy as np

from repro.apps import benchmark_mapping
from repro.core.codegen import generate_glue
from repro.core.model import ApplicationModel, DataType, FunctionBlock, striped
from repro.core.runtime import SageRuntime
from repro.kernels import conv2d_fft
from repro.machine import get_platform

N = 64
NODES = 4
FILTER = {"filter": "gaussian", "size": 5, "sigma": 1.2, "shape": [N, N]}


def make_image(seed: int = 0) -> np.ndarray:
    """A synthetic 'scene': smooth background + bright blobs + noise."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:N, 0:N]
    image = np.sin(x / 9.0) + np.cos(y / 7.0)
    for cx, cy in ((20, 12), (48, 40)):
        image += 3.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 8.0)
    image += 0.1 * rng.standard_normal((N, N))
    return image.astype(np.complex64)


def image_filter_model() -> ApplicationModel:
    t = DataType("img", "complex64", (N, N))
    app = ApplicationModel("freq_domain_filter")

    def block(name, kernel, in_stripe, out_stripe, **params):
        b = app.add_block(FunctionBlock(name, kernel=kernel, threads=NODES, params=params))
        if in_stripe is not None:
            b.add_in("in", t, in_stripe)
        b.add_out("out", t, out_stripe)
        return b

    src = block("camera", "matrix_source", None, striped(0))
    f1 = block("rowfft", "fft_rows", striped(0), striped(0))
    f2 = block("colfft", "fft_cols", striped(1), striped(1))       # corner turn
    flt = block("filter", "spectrum_multiply", striped(1), striped(1), **FILTER)
    i1 = block("icolfft", "ifft_cols", striped(1), striped(1))
    i2 = block("irowfft", "ifft_rows", striped(0), striped(0))     # corner turn back
    sink = app.add_block(FunctionBlock("display", kernel="matrix_sink", threads=NODES))
    sink.add_in("in", t, striped(0))

    app.connect(src.port("out"), f1.port("in"))
    app.connect(f1.port("out"), f2.port("in"))
    app.connect(f2.port("out"), flt.port("in"))
    app.connect(flt.port("out"), i1.port("in"))
    app.connect(i1.port("out"), i2.port("in"))
    app.connect(i2.port("out"), sink.port("in"))
    return app


def main():
    app = image_filter_model()
    glue = generate_glue(app, benchmark_mapping(app, NODES), num_processors=NODES)
    runtime = SageRuntime.build(glue, get_platform("cspi"))
    image = make_image()
    result = runtime.run(iterations=1, input_provider=lambda k: image)
    got = result.full_result(0)

    # Reference: single-node FFT convolution with the same Gaussian kernel.
    from repro.core.runtime.kernels import _build_filter_kernel

    kern = _build_filter_kernel("gaussian", FILTER["size"], FILTER["sigma"])
    expected = conv2d_fft(np.asarray(image, dtype=complex), kern)
    err = np.max(np.abs(got - expected))
    print(f"{N}x{N} Gaussian blur over {NODES} nodes")
    print(f"max |distributed - reference| = {err:.3e}")
    assert err < 1e-3, "distributed filter does not match single-node reference"

    smoothing = 1 - np.var(got.real) / np.var(np.asarray(image).real)
    print(f"variance reduced by {smoothing * 100:.1f}% (blur works)")
    print(f"latency {result.mean_latency * 1e3:.2f} ms "
          f"({len(glue.logical_buffers)} logical buffers, "
          f"2 corner turns in the pipeline)")


if __name__ == "__main__":
    main()
