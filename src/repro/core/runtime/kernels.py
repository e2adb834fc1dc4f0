"""Run-time kernel bindings: shelf names -> executable behaviours + cost models.

The glue code's function table names kernels symbolically; at load time the
run-time binds each name to a :class:`KernelBinding` that knows how to
(a) produce the output regions from the input regions and (b) report the
flops / bytes the performance model should charge.  In timing-only mode the
numeric work is skipped and phantom outputs of the correct shapes flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ...kernels import signal as siglib
from ...kernels.fft import fft_rows as _fft_rows_impl, ifft_rows as _ifft_rows_impl
from .phantom import PhantomArray

__all__ = ["ThreadContext", "KernelBinding", "KernelError", "default_bindings"]


class KernelError(RuntimeError):
    """Raised when a kernel cannot execute as configured."""


@dataclass
class ThreadContext:
    """Everything one function-thread execution can see."""

    function_id: int
    name: str
    kernel: str
    thread: int
    threads: int
    iteration: int
    params: Dict[str, Any]
    #: port -> Region (per-axis index sets) of the logical data this thread handles
    in_regions: Dict[str, tuple]
    out_regions: Dict[str, tuple]
    #: port -> logical dtype string
    out_dtypes: Dict[str, str]
    #: port -> shape of ``out_regions[port]``; the run-time fills it from its
    #: buffers, contexts built only for cost models leave it empty
    out_shapes: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    execute_data: bool = True
    #: hook the runtime sets for matrix_source to pull the iteration's input
    fetch_input: Optional[Callable[[int], Any]] = None
    #: hook the runtime sets for matrix_sink to deposit results
    store_result: Optional[Callable[[int, Any], None]] = None

    def out_shape(self, port: str) -> Tuple[int, ...]:
        return self.out_shapes[port]

    def phantom_out(self, port: str) -> PhantomArray:
        return PhantomArray(self.out_shape(port), self.out_dtypes[port])


@dataclass(frozen=True)
class KernelBinding:
    """A name's executable behaviour + analytic cost.

    ``run(ctx, inputs) -> outputs`` maps port-name-keyed arrays to port-name-
    keyed arrays.  ``flops(ctx, inputs)`` and ``copy_bytes(ctx, inputs)``
    feed the CPU cost model; both see the same per-thread regions the kernel
    does, so cost scales with the slice, not the logical buffer.
    """

    name: str
    run: Callable[[ThreadContext, Dict[str, Any]], Dict[str, Any]]
    flops: Callable[[ThreadContext, Dict[str, Any]], float]
    copy_bytes: Callable[[ThreadContext, Dict[str, Any]], float] = lambda ctx, ins: 0.0
    #: DMA endpoints (sources/sinks) read/write logical buffers directly and
    #: are exempt from the receive-side staging copy.
    dma_endpoint: bool = False


def _shape_of(data: Any) -> Tuple[int, ...]:
    return tuple(getattr(data, "shape", ()))


def _nbytes_of(data: Any) -> int:
    return int(getattr(data, "nbytes", 0))


def _fft_flops(rows: int, n: int) -> float:
    if n <= 1:
        return 0.0
    return rows * 5.0 * n * math.log2(n)


# ---------------------------------------------------------------------------
# structural kernels
# ---------------------------------------------------------------------------

def _run_source(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    if not ctx.execute_data:
        return {port: ctx.phantom_out(port) for port in ctx.out_regions}
    if ctx.fetch_input is None:
        raise KernelError(f"{ctx.name}: matrix_source has no input provider")
    data = ctx.fetch_input(ctx.iteration)
    from .striping import region_indexer

    outs = {}
    for port, region in ctx.out_regions.items():
        arr = np.asarray(data)
        outs[port] = np.ascontiguousarray(arr[region_indexer(region)])
    return outs


def _run_sink(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    if ctx.store_result is None:
        raise KernelError(f"{ctx.name}: matrix_sink has no result store")
    for port, data in inputs.items():
        # Record which box of the logical output this thread delivered, so a
        # distributed sink's pieces can be stitched back together.
        ctx.store_result(ctx.iteration, (ctx.in_regions[port], data))
    return {}


def _single_io(ctx: ThreadContext, inputs: Dict[str, Any], what: str) -> Tuple[str, Any, str]:
    if len(inputs) != 1 or len(ctx.out_regions) != 1:
        raise KernelError(
            f"{ctx.name}: {what} needs exactly one input and one output port"
        )
    (in_data,) = inputs.values()
    (out_port,) = ctx.out_regions.keys()
    return out_port, in_data, what


def _run_identity(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Pass-through; when the ports stripe differently, emit the slice of the
    input that corresponds to this thread's output region (legal whenever the
    input region contains the output region, e.g. replicated -> striped)."""
    out_port, data, _ = _single_io(ctx, inputs, "identity")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    (in_port,) = ctx.in_regions.keys()
    rin, rout = ctx.in_regions[in_port], ctx.out_regions[out_port]
    arr = np.asarray(data)
    if rin == rout:
        return {out_port: arr}
    positions = []
    for ax_in, ax_out in zip(rin, rout):
        if not ax_in.contains(ax_out):
            raise KernelError(
                f"{ctx.name}: identity thread {ctx.thread} must emit data it "
                f"never received (out region not contained in in region); "
                f"make the port stripings compatible"
            )
        positions.append(ax_in.positions_of(ax_out))
    return {out_port: np.ascontiguousarray(arr[np.ix_(*positions)])}


def _run_fft_rows(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    out_port, data, _ = _single_io(ctx, inputs, "fft_rows")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise KernelError(f"{ctx.name}: fft_rows needs a 2-D block, got {arr.shape}")
    return {out_port: _fft_rows_impl(arr).astype(ctx.out_dtypes[out_port])}


def _run_fft_cols(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    out_port, data, _ = _single_io(ctx, inputs, "fft_cols")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise KernelError(f"{ctx.name}: fft_cols needs a 2-D block, got {arr.shape}")
    # The kernel's one conversion copy also makes the transposed view dense.
    out = _fft_rows_impl(arr.T)
    return {out_port: out.T.astype(ctx.out_dtypes[out_port], order="C")}


def _run_ifft_rows(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    out_port, data, _ = _single_io(ctx, inputs, "ifft_rows")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise KernelError(f"{ctx.name}: ifft_rows needs a 2-D block")
    return {out_port: _ifft_rows_impl(arr).astype(ctx.out_dtypes[out_port])}


def _run_ifft_cols(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    out_port, data, _ = _single_io(ctx, inputs, "ifft_cols")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise KernelError(f"{ctx.name}: ifft_cols needs a 2-D block")
    out = _ifft_rows_impl(arr.T)
    return {out_port: out.T.astype(ctx.out_dtypes[out_port], order="C")}


def _build_filter_kernel(kind: str, size: int, sigma: float) -> np.ndarray:
    if kind == "box":
        return np.full((size, size), 1.0 / (size * size))
    if kind == "gaussian":
        half = size // 2
        ax = np.arange(size) - half
        g = np.exp(-(ax**2) / (2 * sigma**2))
        k = np.outer(g, g)
        return k / k.sum()
    raise KernelError(f"unknown filter kind {kind!r}")


def _run_spectrum_multiply(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Multiply this thread's slice of a 2-D spectrum by a filter's spectrum.

    Params: ``filter`` ("box"|"gaussian"), ``size`` (odd kernel size),
    ``sigma`` (gaussian), ``shape`` (full logical [h, w], required to build
    the padded filter spectrum).
    """
    out_port, data, _ = _single_io(ctx, inputs, "spectrum_multiply")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    from ...kernels.fft import fft2d
    from .striping import region_indexer

    arr = np.asarray(data)
    shape = tuple(ctx.params.get("shape") or ())
    if len(shape) != 2:
        raise KernelError(f"{ctx.name}: spectrum_multiply needs params['shape']=[h, w]")
    kern = _build_filter_kernel(
        ctx.params.get("filter", "gaussian"),
        ctx.params.get("size", 5),
        ctx.params.get("sigma", 1.0),
    )
    padded = np.zeros(shape, dtype=complex)
    padded[: kern.shape[0], : kern.shape[1]] = kern
    spectrum = fft2d(padded)
    (in_port,) = ctx.in_regions.keys()
    my_slice = spectrum[region_indexer(ctx.in_regions[in_port])]
    return {out_port: (arr * my_slice).astype(ctx.out_dtypes[out_port])}


def _run_block_transpose(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    out_port, data, _ = _single_io(ctx, inputs, "block_transpose")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise KernelError(f"{ctx.name}: block_transpose needs a 2-D block")
    out = np.ascontiguousarray(arr.T)
    want = ctx.out_shape(out_port)
    if out.shape != want:
        raise KernelError(
            f"{ctx.name}: transposed block {out.shape} does not match "
            f"output region {want}; stripe axes of the ports disagree"
        )
    return {out_port: out}


def _run_window_rows(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    out_port, data, _ = _single_io(ctx, inputs, "window_rows")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    arr = np.asarray(data)
    kind = ctx.params.get("window", "hanning")
    maker = {
        "hanning": siglib.hanning_window,
        "hamming": siglib.hamming_window,
        "blackman": siglib.blackman_window,
    }.get(kind)
    if maker is None:
        raise KernelError(f"{ctx.name}: unknown window {kind!r}")
    return {out_port: siglib.apply_window(arr, maker(arr.shape[-1])).astype(arr.dtype)}


def _run_vmag2(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    out_port, data, _ = _single_io(ctx, inputs, "vmag2")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    return {out_port: siglib.vmag2(np.asarray(data)).astype(ctx.out_dtypes[out_port])}


def _run_pulse_compress(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Matched-filter pulse compression of this thread's pulse rows.

    Params: ``bandwidth_frac`` for the reference chirp (default 0.5).
    """
    out_port, data, _ = _single_io(ctx, inputs, "pulse_compress")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    from ...kernels.radar import chirp_waveform, pulse_compress_rows

    arr = np.asarray(data)
    if arr.ndim != 2:
        raise KernelError(f"{ctx.name}: pulse_compress needs a pulses x range block")
    wf = chirp_waveform(arr.shape[1], ctx.params.get("bandwidth_frac", 0.5))
    return {out_port: pulse_compress_rows(arr, wf).astype(ctx.out_dtypes[out_port])}


def _run_doppler(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Doppler filter bank along the pulse (first) axis of this block.

    Params: ``window`` (hanning/hamming/blackman/none, default hanning).
    """
    out_port, data, _ = _single_io(ctx, inputs, "doppler")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    from ...kernels.radar import doppler_process

    arr = np.asarray(data)
    if arr.ndim != 2:
        raise KernelError(f"{ctx.name}: doppler needs a pulses x range block")
    kind = ctx.params.get("window", "hanning")
    window = None
    if kind != "none":
        maker = {
            "hanning": siglib.hanning_window,
            "hamming": siglib.hamming_window,
            "blackman": siglib.blackman_window,
        }.get(kind)
        if maker is None:
            raise KernelError(f"{ctx.name}: unknown window {kind!r}")
        window = maker(arr.shape[0])
    return {out_port: doppler_process(arr, window).astype(ctx.out_dtypes[out_port])}


def _run_cfar(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """CA-CFAR detection along the range (last) axis of this block.

    Params: ``guard``, ``train``, ``scale``.  Output dtype is the port's
    (detections as 0/1 in that dtype).
    """
    out_port, data, _ = _single_io(ctx, inputs, "cfar")
    if not ctx.execute_data:
        return {out_port: ctx.phantom_out(out_port)}
    from ...kernels.radar import cfar_detect

    det = cfar_detect(
        np.asarray(data),
        guard=ctx.params.get("guard", 2),
        train=ctx.params.get("train", 8),
        scale=ctx.params.get("scale", 10.0),
    )
    return {out_port: det.astype(ctx.out_dtypes[out_port])}


def _run_binary(op: Callable) -> Callable:
    def run(ctx: ThreadContext, inputs: Dict[str, Any]) -> Dict[str, Any]:
        if len(inputs) != 2 or len(ctx.out_regions) != 1:
            raise KernelError(f"{ctx.name}: binary kernel needs 2 inputs, 1 output")
        (out_port,) = ctx.out_regions.keys()
        if not ctx.execute_data:
            return {out_port: ctx.phantom_out(out_port)}
        a, b = (np.asarray(v) for _, v in sorted(inputs.items()))
        return {out_port: op(a, b).astype(ctx.out_dtypes[out_port])}

    return run


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------

def _flops_zero(ctx, inputs) -> float:
    return 0.0


def _flops_fft_last_axis(ctx, inputs) -> float:
    (data,) = inputs.values()
    shape = _shape_of(data)
    if len(shape) != 2:
        return 0.0
    return _fft_flops(shape[0], shape[1])


def _flops_fft_first_axis(ctx, inputs) -> float:
    (data,) = inputs.values()
    shape = _shape_of(data)
    if len(shape) != 2:
        return 0.0
    return _fft_flops(shape[1], shape[0])


def _flops_per_elem(k: float) -> Callable:
    def flops(ctx, inputs) -> float:
        return k * sum(getattr(v, "size", 0) for v in inputs.values())

    return flops


def _copy_all_inputs(ctx, inputs) -> float:
    return float(sum(_nbytes_of(v) for v in inputs.values()))


def default_bindings() -> Dict[str, KernelBinding]:
    """The standard binding table the run-time loads."""
    return {
        # Source/sink model DMA endpoints: no CPU charge of their own beyond
        # the source's deposit into its unique logical buffer (send staging).
        "matrix_source": KernelBinding("matrix_source", _run_source, _flops_zero,
                                       dma_endpoint=True),
        "matrix_sink": KernelBinding("matrix_sink", _run_sink, _flops_zero,
                                     dma_endpoint=True),
        "identity": KernelBinding("identity", _run_identity, _flops_zero,
                                  copy_bytes=_copy_all_inputs),
        "fft_rows": KernelBinding("fft_rows", _run_fft_rows, _flops_fft_last_axis),
        "fft_cols": KernelBinding("fft_cols", _run_fft_cols, _flops_fft_first_axis),
        "ifft_rows": KernelBinding("ifft_rows", _run_ifft_rows, _flops_fft_last_axis),
        "ifft_cols": KernelBinding("ifft_cols", _run_ifft_cols, _flops_fft_first_axis),
        # elementwise spectrum filtering (filter spectrum precomputed at
        # design time; the run charges only the multiply)
        "spectrum_multiply": KernelBinding(
            "spectrum_multiply", _run_spectrum_multiply, _flops_per_elem(6.0)
        ),
        # The transpose is pure data movement already charged by the staging
        # copies either side of the kernel (hand code folds it into pack).
        "block_transpose": KernelBinding(
            "block_transpose", _run_block_transpose, _flops_zero,
        ),
        "window_rows": KernelBinding("window_rows", _run_window_rows, _flops_per_elem(6.0)),
        # radar chain kernels (the §1 application class)
        "pulse_compress": KernelBinding(
            "pulse_compress", _run_pulse_compress,
            # forward FFT + spectrum multiply + inverse FFT per row
            lambda ctx, ins: 2.0 * _flops_fft_last_axis(ctx, ins)
            + _flops_per_elem(6.0)(ctx, ins),
        ),
        "doppler": KernelBinding(
            "doppler", _run_doppler,
            lambda ctx, ins: _flops_fft_first_axis(ctx, ins)
            + _flops_per_elem(6.0)(ctx, ins),
        ),
        "cfar": KernelBinding("cfar", _run_cfar, _flops_per_elem(8.0)),
        "vmag2": KernelBinding("vmag2", _run_vmag2, _flops_per_elem(3.0)),
        "vadd": KernelBinding("vadd", _run_binary(siglib.vadd), _flops_per_elem(2.0)),
        "vmul": KernelBinding("vmul", _run_binary(siglib.vmul), _flops_per_elem(6.0)),
    }
