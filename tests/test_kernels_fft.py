"""FFT kernel tests: our planned four-step implementation vs numpy, plus
property tests."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    fft,
    fft2d,
    fft_rows,
    ifft,
    ifft2d,
    ifft_rows,
)
from repro.kernels.fft import _plan
from repro.perf import cache_stats, clear_all_caches


class TestFft1d:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256, 1024])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    def test_real_input(self):
        x = np.arange(16, dtype=float)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-10)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(32)
        x[0] = 1.0
        np.testing.assert_allclose(fft(x), np.ones(32), atol=1e-12)

    def test_constant_gives_dc_only(self):
        x = np.ones(16)
        expected = np.zeros(16, dtype=complex)
        expected[0] = 16
        np.testing.assert_allclose(fft(x), expected, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft(np.zeros(12))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            fft(np.zeros((4, 4)))

    @given(
        st.integers(min_value=1, max_value=7).map(lambda k: 2**k),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-9)

    @given(
        st.integers(min_value=1, max_value=6).map(lambda k: 2**k),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(fft(x + y), fft(x) + fft(y), atol=1e-9)

    @given(
        st.integers(min_value=2, max_value=7).map(lambda k: 2**k),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_parseval_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        energy_time = np.sum(np.abs(x) ** 2)
        energy_freq = np.sum(np.abs(fft(x)) ** 2) / n
        assert energy_time == pytest.approx(energy_freq)


class TestFftRows:
    @pytest.mark.parametrize("shape", [(1, 8), (4, 16), (16, 4), (7, 32)])
    def test_matches_numpy(self, shape):
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        np.testing.assert_allclose(fft_rows(x), np.fft.fft(x, axis=1), atol=1e-9)

    def test_numpy_backend_agrees_with_own(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 64)) + 1j * rng.normal(size=(8, 64))
        np.testing.assert_allclose(
            fft_rows(x, backend="own"), fft_rows(x, backend="numpy"), atol=1e-9
        )

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            fft_rows(np.zeros((2, 4)), backend="fftw")

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            fft_rows(np.zeros(8))

    def test_ifft_rows_inverts(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
        np.testing.assert_allclose(ifft_rows(fft_rows(x)), x, atol=1e-9)


class TestFft2d:
    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_matches_numpy_fft2(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        np.testing.assert_allclose(fft2d(x), np.fft.fft2(x), atol=1e-8)

    def test_rectangular(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 64))
        np.testing.assert_allclose(fft2d(x), np.fft.fft2(x), atol=1e-9)

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        np.testing.assert_allclose(ifft2d(fft2d(x)), x, atol=1e-9)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            fft2d(np.zeros(8))

    def test_separability_matches_composition(self):
        # fft2d must equal "rows then columns" done explicitly.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        manual = fft_rows(fft_rows(x).T).T
        np.testing.assert_allclose(fft2d(x), manual, atol=1e-9)


#: direction -> (our row transform, numpy's)
ROW_TRANSFORMS = {False: (fft_rows, np.fft.fft), True: (ifft_rows, np.fft.ifft)}

batches = st.tuples(
    st.integers(min_value=1, max_value=64),                   # rows
    st.integers(min_value=0, max_value=12).map(lambda k: 2**k),  # n
    st.sampled_from([np.float64, np.complex64, np.complex128]),
    st.booleans(),                                            # inverse
    st.integers(min_value=0, max_value=2**31 - 1),            # seed
)


def _unit_normal(rows, n, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n))
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal((rows, n))
    return x.astype(dtype)


def _plan_arrays(plan):
    if plan is None:
        return []
    return ([a for a in (plan.dft, plan.twiddle) if a is not None]
            + _plan_arrays(plan.sub1) + _plan_arrays(plan.sub2))


class TestPlannedKernel:
    """The planned four-step kernel over batches of 1-64 rows of 1-4096
    points, every input dtype the run-time feeds it, both directions."""

    @given(batches)
    @settings(max_examples=40)
    def test_matches_numpy(self, batch):
        rows, n, dtype, inverse, seed = batch
        ours, oracle = ROW_TRANSFORMS[inverse]
        x = _unit_normal(rows, n, dtype, seed)
        # numpy.fft keeps complex64 in single precision; compare in double.
        expected = oracle(x.astype(np.complex128), axis=1)
        np.testing.assert_allclose(ours(x), expected, rtol=0, atol=1e-9)

    @given(batches)
    @settings(max_examples=25)
    def test_roundtrip(self, batch):
        rows, n, dtype, _, seed = batch
        x = _unit_normal(rows, n, dtype, seed)
        np.testing.assert_allclose(ifft_rows(fft_rows(x)), x, rtol=0, atol=1e-9)

    @given(batches, st.data())
    @settings(max_examples=25)
    def test_any_row_split_agrees_with_the_batch(self, batch, data):
        rows, n, dtype, inverse, seed = batch
        ours, _ = ROW_TRANSFORMS[inverse]
        x = _unit_normal(rows, n, dtype, seed)
        a = data.draw(st.integers(min_value=0, max_value=rows - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=rows))
        np.testing.assert_allclose(ours(x[a:b]), ours(x)[a:b], rtol=0, atol=1e-12)

    @given(batches)
    @settings(max_examples=15)
    def test_repeated_call_is_bit_identical(self, batch):
        rows, n, dtype, inverse, seed = batch
        ours, _ = ROW_TRANSFORMS[inverse]
        x = _unit_normal(rows, n, dtype, seed)
        assert ours(x).tobytes() == ours(x).tobytes()

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", [1, 16, 256, 4096])
    def test_plan_is_cached_read_only_and_rebuilt_identically(self, n, inverse):
        ours, _ = ROW_TRANSFORMS[inverse]
        x = _unit_normal(3, n, np.complex128, n)
        first = ours(x)
        before = cache_stats()["kernels.fft_plan"]
        assert ours(x).tobytes() == first.tobytes()
        after = cache_stats()["kernels.fft_plan"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        arrays = _plan_arrays(_plan(n, inverse))
        assert arrays and not any(a.flags.writeable for a in arrays)
        clear_all_caches()
        assert cache_stats()["kernels.fft_plan"]["size"] == 0
        assert ours(x).tobytes() == first.tobytes()

    @pytest.mark.parametrize("n", [0, 3, 12])
    def test_rejects_non_power_of_two(self, n):
        for transform in (fft_rows, ifft_rows):
            with pytest.raises(ValueError):
                transform(np.zeros((2, n)))

    def test_result_does_not_depend_on_blas_threads(self):
        """BLAS may split a matrix product across threads; the bits must not
        depend on how many it uses."""
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from repro.kernels import fft_rows, ifft_rows\n"
            "h = hashlib.sha256()\n"
            "for k in (4, 8, 10, 12):\n"
            "    x = np.random.default_rng(k).standard_normal((64, 2**k))\n"
            "    h.update(fft_rows(x).tobytes())\n"
            "    h.update(ifft_rows(x.astype('complex64')).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        digests = [
            subprocess.run([sys.executable, "-c", script], env=run_env,
                           check=True, capture_output=True, text=True).stdout
            for run_env in (env, dict(env, OPENBLAS_NUM_THREADS="1"))
        ]
        assert digests[0] == digests[1]
        assert len(digests[0].strip()) == 64
