"""Tensor-core kernels against brute-force oracles and finite differences."""

import contextlib
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr3d import reference, tensor_core
from vsr3d.tensor_core import (
    ConvWeights,
    PadPolicy,
    TemporalPad,
    conv_backward,
    conv_forward,
    pad_into,
    padded_shape,
    pixel_shuffle,
    pixel_unshuffle,
    relu,
    relu_backward,
    run_parts,
)

NO_PAD = PadPolicy(spatial=0, temporal=TemporalPad.NONE)


def random_case(seed, n=1, cin=2, cout=2, d=5, h=6, w=6, kd=3, kh=3, kw=3, dtype=np.float32):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cin, d, h, w)).astype(dtype)
    weights = ConvWeights(
        rng.standard_normal((cout, cin, kd, kh, kw)).astype(dtype),
        rng.standard_normal(cout).astype(dtype),
    )
    return x, weights


def central_diff(f, arr, eps):
    """Per-element central finite difference of a scalar function."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        grad.reshape(-1)[i] = (hi - lo) / (2 * eps)
    return grad


def count_bands(monkeypatch, budget, floor):
    """Shrink the column bands and record how many bands each gather yields."""
    monkeypatch.setattr(tensor_core, "_WINDOW_BUDGET_BYTES", budget)
    monkeypatch.setattr(tensor_core, "_MIN_BAND_POSITIONS", floor)
    real, gathers = tensor_core._column_bands, []

    def counting(*args):
        gathers.append(0)
        for band in real(*args):
            gathers[-1] += 1
            yield band
    monkeypatch.setattr(tensor_core, "_column_bands", counting)
    return gathers


def assert_close_to_largest(fast, slow, rel):
    """Every entry within rel times the oracle's largest magnitude."""
    np.testing.assert_allclose(fast, slow, rtol=0, atol=rel * max(np.abs(slow).max(), 1e-30))


def max_rel_err(a, b):
    """Elementwise relative error, floored at 10% of the tensor's largest
    gradient magnitude so near-zero elements are judged against the tensor
    scale rather than amplifying finite-difference roundoff."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 0.1 * scale)
    return float(np.max(np.abs(a - b) / denom))


class TestConvForward:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.random((1, 1, 5, 6, 7)).astype(np.float32)
        kernel = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        kernel[0, 0, 1, 1, 1] = 1.0
        w = ConvWeights(kernel, np.zeros(1, dtype=np.float32))
        out = conv_forward(x, w, PadPolicy(spatial=1, temporal=TemporalPad.ZERO))
        np.testing.assert_array_equal(out, x)

    def test_depth_preserved_with_zero_extrapolation(self):
        x, w = random_case(1, d=5)
        out = conv_forward(x, w, PadPolicy(spatial=1, temporal=TemporalPad.ZERO))
        assert out.shape == (1, 2, 5, 6, 6)

    def test_depth_shrinks_without_extrapolation(self):
        x, w = random_case(2, d=5)
        out = conv_forward(x, w, PadPolicy(spatial=1, temporal=TemporalPad.NONE))
        assert out.shape == (1, 2, 3, 6, 6)

    def test_matches_loop_oracle_reference_case(self):
        x, w = random_case(42, n=1, cin=2, cout=2, d=5, h=6, w=6)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        fast = conv_forward(x, w, pad)
        slow = reference.conv_forward_loop(x, w, pad)
        np.testing.assert_allclose(fast, slow, atol=1e-5)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("temporal", list(TemporalPad))
    def test_matches_loop_oracle_random_configs(self, seed, temporal):
        rng = np.random.default_rng(seed + 100)
        kd = int(rng.choice([1, 3])) if temporal is TemporalPad.NONE else 3
        d = int(rng.integers(kd, 6))
        x, w = random_case(seed, n=int(rng.integers(1, 3)), cin=int(rng.integers(1, 4)),
                           cout=int(rng.integers(1, 4)), d=d,
                           h=int(rng.integers(4, 8)), w=int(rng.integers(4, 8)), kd=kd)
        pad = PadPolicy(spatial=int(rng.integers(0, 2)), temporal=temporal)
        np.testing.assert_allclose(conv_forward(x, w, pad),
                                   reference.conv_forward_loop(x, w, pad), atol=1e-5)

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    @pytest.mark.parametrize("temporal", list(TemporalPad))
    def test_row_chunked_path_matches_loop_oracle(self, monkeypatch, temporal, stride):
        # a 4 KB budget and no position floor split the output rows of each
        # sample into 2 to 5 bands of 3 to 7 rows, most with a shorter last
        # band (stride (2, 2) without DUPLICATE fits its 8 rows in one)
        monkeypatch.setattr(tensor_core, "_WINDOW_BUDGET_BYTES", 4096)
        monkeypatch.setattr(tensor_core, "_MIN_BAND_POSITIONS", 1)
        x, w = random_case(31, n=2, cin=1, cout=2, d=3, h=15, w=6)
        pad = PadPolicy(spatial=1, temporal=temporal)
        np.testing.assert_allclose(conv_forward(x, w, pad, stride=stride),
                                   reference.conv_forward_loop(x, w, pad, stride=stride),
                                   atol=1e-5)

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    @pytest.mark.parametrize("temporal", list(TemporalPad))
    def test_banded_path_matches_loop_oracle(self, monkeypatch, temporal, stride):
        # one output row of one sample per band: the byte budget and the
        # position floor both shrunk
        gathers = count_bands(monkeypatch, 1, 1)
        x, w = random_case(31, n=2, cin=1, cout=2, d=3, h=15, w=6)
        pad = PadPolicy(spatial=1, temporal=temporal)
        out = conv_forward(x, w, pad, stride=stride)
        assert sum(gathers) == 2 * out.shape[3] and out.shape[3] >= 2
        np.testing.assert_allclose(out, reference.conv_forward_loop(x, w, pad, stride=stride),
                                   atol=1e-5)

    @pytest.mark.parametrize("stride", [(2, 2), (2, 1), (1, 3)])
    def test_spatial_stride_matches_oracle(self, stride):
        x, w = random_case(7, d=1, h=9, w=11, kd=1)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.NONE)
        np.testing.assert_allclose(conv_forward(x, w, pad, stride=stride),
                                   reference.conv_forward_loop(x, w, pad, stride=stride),
                                   atol=1e-5)

    def test_depth1_reduces_to_2d_convolution(self):
        ok, detail = reference.check_conv(seeds=())  # its one single-channel 2D layer
        assert ok, detail

    def test_linear_in_input(self):
        rng = np.random.default_rng(4)
        x, w = random_case(4)
        w = ConvWeights(w.kernel, np.zeros(2, dtype=np.float32))
        y = rng.standard_normal(x.shape).astype(np.float32)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        lhs = conv_forward((2.5 * x + 0.5 * y).astype(np.float32), w, pad)
        rhs = 2.5 * conv_forward(x, w, pad) + 0.5 * conv_forward(y, w, pad)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_channel_mismatch_raises(self):
        x, w = random_case(5, cin=3)
        bad = ConvWeights(w.kernel[:, :2], w.bias)
        with pytest.raises(ValueError, match="groups"):
            conv_forward(x, bad, NO_PAD)

    def test_kernel_larger_than_input_raises(self):
        x, w = random_case(6, d=1, h=2, w=2, kd=1)
        with pytest.raises(ValueError, match="larger"):
            conv_forward(x, w, NO_PAD)


class TestConvBackward:
    def test_zero_grad_out_gives_zero_gradients(self):
        x, w = random_case(10)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        out = conv_forward(x, w, pad)
        gx, gw = conv_backward(x, w, pad, np.zeros_like(out))
        assert not gx.any() and not gw.kernel.any() and not gw.bias.any()

    def test_scalar_chain_rule(self):
        x = np.full((1, 1, 1, 1, 1), 3.0, dtype=np.float32)
        w = ConvWeights(np.full((1, 1, 1, 1, 1), 5.0, dtype=np.float32),
                        np.zeros(1, dtype=np.float32))
        gx, gw = conv_backward(x, w, NO_PAD, np.ones((1, 1, 1, 1, 1), dtype=np.float32))
        assert gx.item() == 5.0
        assert gw.kernel.item() == 3.0
        assert gw.bias.item() == 1.0

    @pytest.mark.parametrize("temporal", list(TemporalPad))
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
    def test_gradients_match_finite_differences_float64(self, temporal, stride):
        x, w = random_case(11, cin=2, cout=2, d=3, h=5, w=5, dtype=np.float64)
        pad = PadPolicy(spatial=1, temporal=temporal)
        rng = np.random.default_rng(12)
        g = rng.standard_normal(conv_forward(x, w, pad, stride=stride).shape)

        def loss():
            return float((conv_forward(x, w, pad, stride=stride) * g).sum())

        gx, gw = conv_backward(x, w, pad, g, stride=stride)
        eps = 1e-5
        assert max_rel_err(gx, central_diff(loss, x, eps)) < 1e-6
        assert max_rel_err(gw.kernel, central_diff(loss, w.kernel, eps)) < 1e-6
        assert max_rel_err(gw.bias, central_diff(loss, w.bias, eps)) < 1e-6

    def test_gradients_match_finite_differences_float32(self):
        x, w = random_case(13, cin=1, cout=2, d=3, h=4, w=4, dtype=np.float32)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        rng = np.random.default_rng(14)
        g = rng.standard_normal(conv_forward(x, w, pad).shape).astype(np.float32)

        def loss():
            return float((conv_forward(x, w, pad).astype(np.float64) * g).sum())

        gx, gw = conv_backward(x, w, pad, g)
        eps = 1e-3
        assert max_rel_err(gx, central_diff(loss, x, eps)) < 1e-3
        assert max_rel_err(gw.kernel, central_diff(loss, w.kernel, eps)) < 1e-3

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    @pytest.mark.parametrize("temporal", list(TemporalPad))
    def test_banded_gradients_match_loop_oracle(self, monkeypatch, temporal, stride):
        gathers = count_bands(monkeypatch, 1, 1)
        x, w = random_case(16, n=2, cin=2, cout=3, d=3, h=7, w=5)
        pad = PadPolicy(spatial=1, temporal=temporal)
        g = np.random.default_rng(17).standard_normal(
            conv_forward(x, w, pad, stride=stride).shape).astype(np.float32)
        gathers.clear()
        gx, gw = conv_backward(x, w, pad, g, stride=stride)
        # one gather of the dilated output gradient feeds both gradients'
        # GEMMs, and it spans several bands of each sample
        assert len(gathers) == 1 and gathers[0] >= 2 * 2
        want_x, want_k, want_b = reference.conv_backward_loop(x, w, pad, g, stride=stride)
        assert_close_to_largest(gx, want_x, 1e-5)
        assert_close_to_largest(gw.kernel, want_k, 1e-5)
        assert_close_to_largest(gw.bias, want_b, 1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    @pytest.mark.parametrize("temporal", list(TemporalPad))
    def test_input_gradient_skipped_on_request(self, temporal, stride, dtype):
        # without the input gradient the kernel gradient comes from another
        # gather, summed in another order: both modes meet the loop oracle
        x, w = random_case(18, n=2, cin=2, cout=3, d=5, h=7, w=6, dtype=dtype)
        pad = PadPolicy(spatial=1, temporal=temporal)
        g = np.random.default_rng(19).standard_normal(
            conv_forward(x, w, pad, stride=stride).shape).astype(dtype)
        _, want_k, want_b = reference.conv_backward_loop(x, w, pad, g, stride=stride)
        for input_grad in (True, False):
            gx, gw = conv_backward(x, w, pad, g, stride=stride, input_grad=input_grad)
            assert (gx is None) is not input_grad
            if dtype is np.float64:
                np.testing.assert_allclose(gw.kernel, want_k, rtol=0, atol=1e-12)
                np.testing.assert_allclose(gw.bias, want_b, rtol=0, atol=1e-12)
            else:
                assert_close_to_largest(gw.kernel, want_k, 1e-5)
                assert_close_to_largest(gw.bias, want_b, 1e-5)

    def test_grad_out_shape_mismatch_raises(self):
        x, w = random_case(15)
        with pytest.raises(ValueError, match="grad_out"):
            conv_backward(x, w, NO_PAD, np.zeros((1, 2, 1, 1, 1), dtype=np.float32))


def force_pool(monkeypatch, workers):
    """Run parts on the caller and up to `workers` - 1 helpers, split into as many."""
    monkeypatch.setattr(tensor_core, "_workers", lambda: workers)
    return contextlib.nullcontext()


def no_pool(*args):
    raise AssertionError("a part helper thread was started")


needs_blas = pytest.mark.skipif(tensor_core._blas_threads() is None,
                                reason="no OpenBLAS thread control found")


class TestParts:
    """run_parts, and conv_padded's split of its bands into parts."""

    @staticmethod
    def split_case(monkeypatch):
        # bands of one output row, so each of the two samples spans 15
        x, w = random_case(31, n=2, cin=3, cout=4, d=3, h=15, w=6)
        monkeypatch.setattr(tensor_core, "_WINDOW_BUDGET_BYTES", 1)
        monkeypatch.setattr(tensor_core, "_MIN_BAND_POSITIONS", 1)
        return x, w, PadPolicy(spatial=1, temporal=TemporalPad.ZERO)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_split_matches_loop_oracle_and_one_part(self, monkeypatch, workers):
        # parts write disjoint rows of one output: a lost or misplaced row,
        # more likely with threads switched often, would break equality
        x, w, pad = self.split_case(monkeypatch)
        with force_pool(monkeypatch, 1):
            one = conv_forward(x, w, pad)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with force_pool(monkeypatch, workers):
                out = conv_forward(x, w, pad)
        finally:
            sys.setswitchinterval(switch)
        assert np.array_equal(out, one)
        np.testing.assert_allclose(out, reference.conv_forward_loop(x, w, pad), atol=1e-5)

    @pytest.mark.parametrize("openblas, omp, want", [
        (None, "1", 1), ("0", "1", 1), ("two", "1", 1), ("1", "9999", 1), ("-2", "x", None)])
    def test_thread_variables_cap_the_workers(self, monkeypatch, openblas, omp, want):
        # a positive integer in OPENBLAS_NUM_THREADS, or else OMP_NUM_THREADS
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is not None:
                monkeypatch.setenv(var, value)
        assert tensor_core._workers() == (want or len(os.sched_getaffinity(0)))

    def test_band_geometry_does_not_depend_on_workers(self, monkeypatch):
        # at the default budget and floor, 130 rows of 8 positions of 32
        # groups take bands of 64 rows when split (the floor wins); a width
        # chosen by the worker count would be 128 rows for one worker and
        # 32 for four
        x, w = random_case(33, cin=32, cout=3, d=5, h=130, w=8)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        real, seen = tensor_core._column_bands, []

        def recording(xp, kh, kw, stride, ho, wo, bands, buf):
            seen.extend((int(n), int(y0), int(y1)) for n, y0, y1 in bands)
            yield from real(xp, kh, kw, stride, ho, wo, bands, buf)
        monkeypatch.setattr(tensor_core, "_column_bands", recording)
        geometry = []
        for workers in (1, 2, 4):
            seen.clear()
            with force_pool(monkeypatch, workers):
                conv_forward(x, w, pad)
            geometry.append(sorted(seen))
        assert geometry[0] == [(0, 0, 64), (0, 64, 128), (0, 128, 130)]
        assert geometry[1] == geometry[0] and geometry[2] == geometry[0]

    def test_forward_inside_a_part_of_a_one_worker_pool_runs_inline(self, monkeypatch):
        # a nested split, or a nested run_parts, would wait on the pool's
        # only worker, which runs the part that waits (or on the lock its
        # caller holds): a deadlock, caught by the timeout
        x, w, pad = self.split_case(monkeypatch)

        def part(_):
            return conv_forward(x, w, pad), run_parts(abs, [-1, -2])
        with force_pool(monkeypatch, 1), ThreadPoolExecutor(1) as caller:
            monkeypatch.setattr(tensor_core, "_workers", lambda: 2)
            outs = caller.submit(run_parts, part, range(2)).result(timeout=60)
        want = reference.conv_forward_loop(x, w, pad)
        for out, nested in outs:
            np.testing.assert_allclose(out, want, atol=1e-5)
            assert nested == [1, 2]

    def test_callers_errstate_holds_in_every_part(self, monkeypatch):
        x, w, pad = self.split_case(monkeypatch)
        real, seen = tensor_core._column_bands, []

        def recording(*args):
            seen.append((np.geterr()["over"], threading.current_thread().name))
            yield from real(*args)
        monkeypatch.setattr(tensor_core, "_column_bands", recording)
        with force_pool(monkeypatch, 2), np.errstate(over="raise"):
            conv_forward(x, w, pad)
        assert [over for over, _ in seen] == ["raise"] * 2
        if tensor_core._blas_threads() is not None:
            caller = threading.current_thread().name
            assert all(name in (caller, "vsr3d-step") for _, name in seen)

    @needs_blas
    def test_blas_thread_count_is_restored_after_a_part_raises(self):
        get, put = tensor_core._blas_threads()
        before, seen = get(), []

        def part(i):
            seen.append(get())
            if i == 1:
                raise ValueError("part 1 fails")
            return i
        try:
            put(2)
            with pytest.raises(ValueError, match="part 1 fails"):
                run_parts(part, range(3))
            assert get() == 2
        finally:
            put(before)
        assert seen == [1] * 3  # every part ran, each with one BLAS thread

    @needs_blas
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_helper_that_dies_is_a_memory_error(self, monkeypatch):
        # a helper runs part 1, then dies storing its outcome: the call must
        # end with a MemoryError that names the loss, not wait for it
        real, helper_ran, died = tensor_core._drain, threading.Event(), []

        class Unstorable(list):
            def __setitem__(self, i, value):
                raise MemoryError

        def dying(parts, claims, results, errors):
            if threading.current_thread().name == "vsr3d-step":
                results = errors = Unstorable()
            try:
                real(parts, claims, results, errors)
            except MemoryError:
                died.append(threading.current_thread().name)
                raise

        def part(i):
            if threading.current_thread().name == "vsr3d-step":
                helper_ran.set()
            else:  # the caller leaves part 1 to the helper
                helper_ran.wait(timeout=10)
            return i
        monkeypatch.setattr(tensor_core, "_drain", dying)
        with force_pool(monkeypatch, 2), ThreadPoolExecutor(1) as caller:
            future = caller.submit(run_parts, part, range(3))
            with pytest.raises(MemoryError, match="helper thread ended"):
                future.result(timeout=60)
        assert helper_ran.is_set() and died == ["vsr3d-step"]
        assert not any(t.name == "vsr3d-step" for t in threading.enumerate())


    def test_one_band_call_submits_nothing(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", no_pool)
        x, w = random_case(32, n=2, h=8, w=8)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.DUPLICATE)
        np.testing.assert_allclose(conv_forward(x, w, pad), reference.conv_forward_loop(x, w, pad),
                                   atol=1e-5)


def record_stored_depths(monkeypatch):
    """Record the stored depth of every input the column gather reads."""
    real, depths = tensor_core._column_bands, []

    def recording(xp, *args):
        depths.append(xp.shape[2])
        yield from real(xp, *args)
    monkeypatch.setattr(tensor_core, "_column_bands", recording)
    return depths


class TestTapBounds:
    """ZERO's depth slices and the input gradient's depth padding are tap
    bounds: the gather reads only stored slices."""

    def test_zero_forward_and_kernel_gradient_gather_stored_depth(self, monkeypatch):
        depths = record_stored_depths(monkeypatch)
        x, w = random_case(50, d=5)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        out = conv_forward(x, w, pad)
        conv_backward(x, w, pad, np.ones_like(out), input_grad=False)
        assert depths == [5, 5]

    def test_none_input_gradient_gathers_output_depth(self, monkeypatch):
        # L5-shaped: five frames in, three out; the backward's one gather
        # reads the three slices of grad_out, not them plus kD-1 zero slices
        # per end
        depths = record_stored_depths(monkeypatch)
        x, w = random_case(51, d=5)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.NONE)
        conv_backward(x, w, pad, np.ones_like(conv_forward(x, w, pad)))
        assert depths == [5, 3]

    @pytest.mark.parametrize("kd", [3, 5])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("temporal", list(TemporalPad))
    def test_shallow_depths_match_loop_oracles_float64(self, temporal, d, kd):
        # every output slice has taps cut by both depth ends; NONE takes the
        # kd-1 extra input slices that give it the same output depth d
        depth = d + kd - 1 if temporal is TemporalPad.NONE else d
        x, w = random_case(52 + d + kd, n=2, cin=2, cout=3, d=depth, h=5, w=4, kd=kd,
                           dtype=np.float64)
        pad = PadPolicy(spatial=1, temporal=temporal)
        out = conv_forward(x, w, pad)
        assert out.shape[2] == d
        g = np.random.default_rng(53).standard_normal(out.shape)
        gx, gw = conv_backward(x, w, pad, g)
        np.testing.assert_allclose(out, reference.conv_forward_loop(x, w, pad),
                                   rtol=0, atol=1e-12)
        want_x, want_k, want_b = reference.conv_backward_loop(x, w, pad, g)
        np.testing.assert_allclose(gx, want_x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gw.kernel, want_k, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gw.bias, want_b, rtol=0, atol=1e-12)

    def test_none_shallower_than_kernel_raises(self):
        x, w = random_case(54, d=2)
        with pytest.raises(ValueError, match="larger than padded input"):
            conv_forward(x, w, PadPolicy(spatial=1, temporal=TemporalPad.NONE))

    def test_zero_single_slice_accepted(self):
        x, w = random_case(55, d=1)
        out = conv_forward(x, w, PadPolicy(spatial=1, temporal=TemporalPad.ZERO))
        assert out.shape == (1, 2, 1, 6, 6)


@st.composite
def conv_cases(draw):
    temporal = draw(st.sampled_from(list(TemporalPad)))
    kd = draw(st.sampled_from([1, 3] if temporal is not TemporalPad.NONE else [1, 2, 3]))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s = draw(st.integers(0, 2))
    t = (kd - 1) // 2 if temporal is not TemporalPad.NONE else 0
    d = draw(st.integers(max(1, kd - 2 * t), 4))
    h = draw(st.integers(max(1, kh - 2 * s), 6))
    w = draw(st.integers(max(1, kw - 2 * s), 6))
    x, weights = random_case(draw(st.integers(0, 2 ** 16)), n=draw(st.integers(1, 2)),
                             cin=draw(st.integers(1, 3)), cout=draw(st.integers(1, 3)),
                             d=d, h=h, w=w, kd=kd, kh=kh, kw=kw, dtype=np.float64)
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    bands = (draw(st.sampled_from([1, 256, 4 * 1024 * 1024])), draw(st.sampled_from([1, 8, 1024])))
    return x, weights, PadPolicy(spatial=s, temporal=temporal), stride, bands, draw(st.booleans())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(conv_cases())
def test_forward_and_backward_match_loop_oracles(case):
    # random shapes, kernels, strides, spatial pads, temporal policies, band
    # sizes, and backwards with and without the input gradient
    x, w, pad, stride, (budget, floor), input_grad = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor_core, "_WINDOW_BUDGET_BYTES", budget)
        mp.setattr(tensor_core, "_MIN_BAND_POSITIONS", floor)
        out = conv_forward(x, w, pad, stride=stride)
        g = np.random.default_rng(x.size).standard_normal(out.shape)
        gx, gw = conv_backward(x, w, pad, g, stride=stride, input_grad=input_grad)
    np.testing.assert_allclose(out, reference.conv_forward_loop(x, w, pad, stride=stride),
                               rtol=0, atol=1e-12)
    want_x, want_k, want_b = reference.conv_backward_loop(x, w, pad, g, stride=stride)
    if input_grad:
        np.testing.assert_allclose(gx, want_x, rtol=0, atol=1e-12)
    else:
        assert gx is None
    np.testing.assert_allclose(gw.kernel, want_k, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw.bias, want_b, rtol=0, atol=1e-12)


class TestRelu:
    def test_fixture_values(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(relu(x), [0.0, 0.0, 2.0])

    def test_all_negative_forward_and_backward_zero(self):
        x = -np.ones((2, 3), dtype=np.float32)
        assert not relu(x).any()
        assert not relu_backward(x, np.ones_like(x)).any()

    def test_gradient_zero_at_exact_zero(self):
        x = np.zeros(3, dtype=np.float32)
        assert not relu_backward(x, np.ones_like(x)).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_keeps_dtype_and_masks_nan(self, dtype):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 4, 5, 6)).astype(dtype)
        x[0, 0, 0, 0, :3] = [np.nan, 0.0, -0.0]
        g = rng.standard_normal(x.shape).astype(dtype)
        g[1, 0, 0, 0, 0] = -0.0
        out = relu_backward(x, g)
        assert out.dtype == dtype
        assert out[0, 0, 0, 0, 0] == 0
        expected = np.where(x > 0, g, 0).astype(g.dtype)
        np.testing.assert_array_equal(out.view(f"u{out.itemsize}"),
                                      expected.view(f"u{out.itemsize}"))

    def test_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(40)
        x = x[np.abs(x) > 0.1][:20]
        g = rng.standard_normal(x.size)

        def loss():
            return float((relu(x) * g).sum())

        ana = relu_backward(x, g)
        assert max_rel_err(ana, central_diff(loss, x, 1e-6)) < 1e-6


def _pad_into(x, kernel_depth, pad):
    return pad_into(np.empty(padded_shape(x.shape, kernel_depth, pad), dtype=x.dtype),
                    x, kernel_depth, pad)


class TestTemporalExtrapolate:
    def test_zero_policy_stores_no_depth_slices(self):
        # ZERO's zero slices are tap bounds of the GEMMs, not stored data
        rng = np.random.default_rng(30)
        x = rng.random((1, 2, 5, 3, 3)).astype(np.float32)
        out = _pad_into(x, 3, PadPolicy(spatial=1, temporal=TemporalPad.ZERO))
        assert out.shape == (1, 2, 5, 5, 5)
        np.testing.assert_array_equal(out[..., 1:-1, 1:-1], x)
        assert not out[..., [0, -1], :].any() and not out[..., [0, -1]].any()

    def test_duplicate_policy_copies_outermost(self):
        rng = np.random.default_rng(31)
        x = rng.random((1, 1, 5, 3, 3)).astype(np.float32)
        out = _pad_into(x, 3, PadPolicy(temporal=TemporalPad.DUPLICATE))
        np.testing.assert_array_equal(out[:, :, 0], x[:, :, 0])
        np.testing.assert_array_equal(out[:, :, 6], x[:, :, 4])

    def test_constant_tensor_stays_constant_under_duplicate(self):
        x = np.full((1, 1, 5, 2, 2), 0.7, dtype=np.float32)
        out = _pad_into(x, 3, PadPolicy(temporal=TemporalPad.DUPLICATE))
        np.testing.assert_array_equal(out, np.full((1, 1, 7, 2, 2), 0.7, dtype=np.float32))

    @pytest.mark.parametrize("policy", [TemporalPad.ZERO, TemporalPad.DUPLICATE])
    def test_even_kernel_depth_rejected(self, policy):
        with pytest.raises(ValueError, match="odd kernel depth"):
            _pad_into(np.zeros((1, 1, 2, 2, 2), dtype=np.float32), 2, PadPolicy(temporal=policy))


class TestPixelShuffle:
    def test_block_ordering_convention(self):
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 4, 1, 1, 1)
        out = pixel_shuffle(x, 2)
        np.testing.assert_array_equal(out[0, 0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_scale_one_is_identity(self):
        rng = np.random.default_rng(40)
        x = rng.random((1, 3, 1, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(pixel_shuffle(x, 1), x)

    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(41)
        x = rng.random((2, 4, 1, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(pixel_unshuffle(pixel_shuffle(x, 2), 2), x)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            pixel_shuffle(np.zeros((1, 3, 1, 2, 2), dtype=np.float32), 2)

    def test_depth_axis_must_be_one(self):
        with pytest.raises(ValueError, match="depth"):
            pixel_shuffle(np.zeros((1, 4, 2, 2, 2), dtype=np.float32), 2)
