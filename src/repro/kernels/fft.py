"""Fast Fourier transform kernels (ISSPL-style).

The CSPI benchmarks linked against the vendor's ISSPL math library, which
*planned* each transform once; so does our own FFT.  The plan for an
``(n, direction)`` lives in the ``kernels.fft_plan`` named cache (shown by
``cache_stats()``, dropped by ``clear_all_caches()``) and holds read-only
arrays.  It is the four-step index factorisation

    F_n = (F_n1 (x) I_n2) . T . (I_n1 (x) F_n2) . L,   n = n1 * n2,
    n1 = 2 ** floor(log2(n) / 2),

applied recursively down to dense DFT matrices of at most 16 points, with
T the n2 x n1 twiddle table.  A call is a fused cast-and-copy that brings
the stride-n1 axis first, an F_n2 matrix product over it, one twiddle
multiply, an F_n1 matrix product over the contiguous axis and one
transposing copy into natural order, ping-ponging between the result and
one scratch array: no bit-reversal, no per-call ``exp``.  Arithmetic is
complex128; on unit-normal input the result is within 4e-14 of
``numpy.fft`` at 256 points and 3e-13 at 4096.  ``numpy.fft`` is the test
suite's oracle and a backend of its own, never called by this one.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from ..perf.cache import named_cache

__all__ = ["fft", "ifft", "fft_rows", "ifft_rows", "fft2d", "ifft2d"]

#: Largest transform computed as a dense DFT matrix product.
LEAF = 16

_PLANS = named_cache("kernels.fft_plan")


class _Plan(NamedTuple):
    """Either a dense ``dft`` leaf, or the factors of n = n1 * n2."""

    dft: Optional[np.ndarray]  # n x n, the inverse scaled by 1/n
    twiddle: Optional[np.ndarray]  # n2 x n1: w_n ** (c * b)
    sub1: Optional["_Plan"]  # F_n1
    sub2: Optional["_Plan"]  # F_n2


def _roots(a: np.ndarray, b: np.ndarray, n: int, inverse: bool,
           scale: float = 1.0) -> np.ndarray:
    """Read-only table of scale * w ** (a_i * b_j), w = exp(-+2 pi i / n)."""
    # Reducing the exponent mod n keeps every angle small, so exp() is exact
    # to about an ulp.
    sign = 1.0 if inverse else -1.0
    table = scale * np.exp(sign * 2j * math.pi * (np.outer(a, b) % n) / n)
    table.setflags(write=False)
    return table


def _plan(n: int, inverse: bool) -> _Plan:
    return _PLANS.get((n, inverse), lambda: _build_plan(n, inverse))


def _build_plan(n: int, inverse: bool) -> _Plan:
    if n <= LEAF:
        k = np.arange(n)
        # 1/size on every leaf of an inverse plan normalises the whole of it.
        return _Plan(_roots(k, k, n, inverse, 1 / n if inverse else 1.0),
                     None, None, None)
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    twiddle = _roots(np.arange(n2), np.arange(n1), n, inverse)
    return _Plan(None, twiddle, _plan(n1, inverse), _plan(n2, inverse))


def _rows(plan: _Plan, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the plan's DFT of each row of 2-D ``x`` (any dtype or strides)
    into the C-contiguous complex128 ``out``, which also serves as scratch."""
    if plan.dft is not None:  # F is symmetric: x @ F transforms each row
        return np.matmul(np.ascontiguousarray(x, dtype=np.complex128),
                         plan.dft, out=out)
    m = x.shape[0]
    n2, n1 = plan.twiddle.shape
    s = np.empty((n2, m, n1), dtype=np.complex128)
    s[...] = x.reshape(m, n2, n1).transpose(1, 0, 2)  # L, fused with the cast
    t = out.reshape(n2, m, n1)
    _cols(plan.sub2, s.reshape(n2, m * n1), t.reshape(n2, m * n1))
    t *= plan.twiddle[:, np.newaxis, :]
    _rows(plan.sub1, t.reshape(n2 * m, n1), s.reshape(n2 * m, n1))
    out.reshape(m, n1, n2)[...] = s.transpose(1, 2, 0)  # index c + n2*d
    return out


def _cols(plan: _Plan, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the plan's DFT along the first axis of 2-D ``a`` into ``out``."""
    if plan.dft is not None:
        return np.matmul(plan.dft, a, out=out)
    out[...] = _rows(plan, a.T, np.empty(a.shape[::-1], dtype=np.complex128)).T
    return out


def _transform(x: np.ndarray, inverse: bool, backend: str = "own") -> np.ndarray:
    """FFT along the last axis of a 2-D array (power-of-two length)."""
    if backend == "numpy":
        return (np.fft.ifft if inverse else np.fft.fft)(x, axis=1)
    if backend != "own":
        raise ValueError(f"unknown backend {backend!r}")
    n = x.shape[1]
    if n <= 0 or n & (n - 1):
        raise ValueError(f"FFT length must be a positive power of two, got {n}")
    return _rows(_plan(n, inverse), x, np.empty(x.shape, dtype=np.complex128))


def _checked(x, ndim: int, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != ndim:
        raise ValueError(f"{name} expects a {ndim}-D array, got shape {x.shape}")
    return x


def fft(x: np.ndarray) -> np.ndarray:
    """Complex FFT of a 1-D array (power-of-two length)."""
    return _transform(_checked(x, 1, "fft")[np.newaxis, :], inverse=False)[0]


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse complex FFT of a 1-D array."""
    return _transform(_checked(x, 1, "ifft")[np.newaxis, :], inverse=True)[0]


def fft_rows(x: np.ndarray, backend: str = "own") -> np.ndarray:
    """FFT every row of a 2-D array.

    ``backend='own'`` (the default, and what the correctness tests exercise)
    runs the planned four-step kernel above and returns C-contiguous
    complex128: the first call for a row length builds its plan, later calls
    reuse it, and any input dtype or strides cost one fused conversion copy.
    It agrees with ``numpy.fft`` to about 4e-14 at 256 points.
    ``backend='numpy'`` delegates to ``numpy.fft.fft`` — the modeled cost
    charged by the simulator is identical either way.
    """
    return _transform(_checked(x, 2, "fft_rows"), inverse=False, backend=backend)


def ifft_rows(x: np.ndarray, backend: str = "own") -> np.ndarray:
    """Inverse FFT of every row of a 2-D array."""
    return _transform(_checked(x, 2, "ifft_rows"), inverse=True, backend=backend)


def _row_col(x: np.ndarray, inverse: bool, backend: str) -> np.ndarray:
    # The turned view is free: the column pass's conversion copies it.
    turned = _transform(x, inverse, backend).T
    return np.ascontiguousarray(_transform(turned, inverse, backend).T)


def fft2d(x: np.ndarray, backend: str = "own") -> np.ndarray:
    """Full 2-D FFT: row pass, transpose (corner turn), column-as-row pass.

    Mirrors the distributed algorithm's structure exactly so the single-node
    reference and the parallel version are the same arithmetic.
    """
    return _row_col(_checked(x, 2, "fft2d"), inverse=False, backend=backend)


def ifft2d(x: np.ndarray, backend: str = "own") -> np.ndarray:
    """Inverse 2-D FFT (row pass, corner turn, column pass)."""
    return _row_col(_checked(x, 2, "ifft2d"), inverse=True, backend=backend)
