"""Tensor-core kernels against brute-force oracles and finite differences."""

import contextlib
import contextvars
import ctypes
import os
import platform
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

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
    map_parts,
    padded,
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

    @pytest.mark.parametrize("cin, cout, d, kd, temporal", [
        (32, 32, 5, 3, TemporalPad.ZERO), (32, 32, 5, 3, TemporalPad.NONE),
        (96, 4, 1, 1, TemporalPad.NONE)])
    def test_gradients_across_band_cuts(self, monkeypatch, cin, cout, d, kd, temporal):
        # a training batch's layers: each band writes its own columns of the
        # input gradient, so it equals one band per sample bit for bit, while
        # the kernel gradient sums its bands in cut order and moves by rounding.
        # Cuts: one band per sample, the default, 256 KiB, and the floor's
        # (13-row bands, the only one that cuts the 96->4 layer's 4 groups)
        x, w = random_case(41, n=2, cin=cin, cout=cout, d=d, h=40, w=40, kd=kd)
        pad = PadPolicy(spatial=1, temporal=temporal)
        g = np.random.default_rng(42).standard_normal(
            conv_forward(x, w, pad).shape).astype(np.float32)
        grads = []
        for budget in (1 << 40, tensor_core._WINDOW_BUDGET_BYTES, 256 * 1024, 1):
            with monkeypatch.context() as cut:
                cut.setattr(tensor_core, "_WINDOW_BUDGET_BYTES", budget)
                gx, gw = conv_backward(x, w, pad, g)
            grads.append((gx, gw.kernel))
        (want_x, want_k), *others = grads
        for gx, gk in others:
            assert np.array_equal(gx.view(np.uint32), want_x.view(np.uint32))
            assert_close_to_largest(gk, want_k, 1e-5)

    def test_input_checked_as_the_forward_checks_it(self):
        # a 4-group input against a 2-group kernel, a rank-4 input and a zero
        # stride end in the forward's messages, not inside numpy
        x, w = random_case(16)
        g = conv_forward(x, w, NO_PAD)
        cases = [(np.concatenate([x, x], axis=1), (1, 1), "input has 4 groups, kernel expects 2"),
                 (x[0], (1, 1), "input must be rank 5"), (x, (0, 1), "stride must be >= 1")]
        for bad, stride, message in cases:
            with pytest.raises(ValueError, match=message):
                conv_forward(bad, w, NO_PAD, stride)
            for input_grad in (True, False):
                with pytest.raises(ValueError, match=message):
                    conv_backward(bad, w, NO_PAD, g, stride, input_grad)


def force_pool(monkeypatch, workers):
    """Run parts on the caller and up to `workers` - 1 helpers, split into as many."""
    monkeypatch.setattr(tensor_core, "_workers", lambda: workers)
    return contextlib.nullcontext()


def no_pool(*args):
    raise AssertionError("a part helper thread was started")


needs_blas = pytest.mark.skipif(tensor_core._blas_threads() is None,
                                reason="no OpenBLAS thread control found")


def openblas_exports(symbol: str) -> bool:
    """Whether an OpenBLAS mapped into this process exports `symbol`."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return False
    return any(hasattr(ctypes.CDLL(p), symbol) for p in paths
               if "openblas" in os.path.basename(p))


# the process's OS threads after numpy loads OpenBLAS, then after each of two
# top-level part calls: a joined helper can stay listed for a moment, so each
# count is the one it settles on, polled until one thread is left or 2 s pass
_THREADS_AFTER_PART_CALLS = """
import os
import time
import numpy
from vsr3d.tensor_core import run_parts

def settled():
    deadline = time.monotonic() + 2.0
    while (n := len(os.listdir("/proc/self/task"))) > 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    return n

threads = [len(os.listdir("/proc/self/task"))]
for _ in range(2):
    run_parts(abs, [-1, -2])
    threads.append(settled())
print(*threads)
"""

# the minor page faults of a full x2 step on 8 40x40 patches after one warm-up step
_FAULTS_OF_A_WARMED_STEP = """
import resource
import numpy as np
from vsr3d.model import build_architecture
from vsr3d.training import sr_batch_step, xavier_init
spec = build_architecture("full", 2)
params = xavier_init(spec, 1)
rng = np.random.default_rng(1)
x = rng.uniform(0.1, 0.9, (8, 1, 5, 40, 40)).astype(np.float32)
bases, target = rng.uniform(0.0, 1.0, (2, 8, 1, 1, 80, 80)).astype(np.float32)
sr_batch_step(params, spec, x, bases, target)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sr_batch_step(params, spec, x, bases, target)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

glibc_mallopt = platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")


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
        (None, "1", 1), ("0", "1", 1), ("two", "1", 1), ("1", "9999", 1), ("-2", "x", None),
        ("²", "1", 1), (None, "²", None)])
    def test_thread_variables_cap_the_workers(self, monkeypatch, openblas, omp, want):
        # a positive integer in OPENBLAS_NUM_THREADS, or else OMP_NUM_THREADS
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is not None:
                monkeypatch.setenv(var, value)
        assert tensor_core._workers() == (want or len(os.sched_getaffinity(0)))

    def test_band_geometry_does_not_depend_on_workers(self, monkeypatch):
        # at the default budget and floor, 130 rows of 8 positions of 32
        # groups take two bands of 65 rows (the floor of 64 rows caps the
        # budget's three); a width chosen by the worker count would be 128
        # rows for one worker and 32 for four
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
        assert geometry[0] == [(0, 0, 65), (0, 65, 130)]
        assert geometry[1] == geometry[0] and geometry[2] == geometry[0]

    def test_a_qcif_first_layer_plans_the_same_bands_at_any_worker_count(self, monkeypatch):
        # the budget's 66 rows give three bands, cut near-equally; the parts
        # share them out, so every worker count gathers them with the same bytes
        x, w = random_case(34, cin=1, cout=32, d=5, h=144, w=176)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        real, seen = tensor_core._column_bands, []

        def recording(xp, kh, kw, stride, ho, wo, bands, buf):
            seen.extend((int(n), int(y0), int(y1)) for n, y0, y1 in bands)
            yield from real(xp, kh, kw, stride, ho, wo, bands, buf)
        monkeypatch.setattr(tensor_core, "_column_bands", recording)
        outs = []
        for workers in (1, 2, 3, 4):
            seen.clear()
            with force_pool(monkeypatch, workers):
                outs.append(conv_forward(x, w, pad))
            assert sorted(seen) == [(0, 0, 48), (0, 48, 96), (0, 96, 144)]
        for out in outs[1:]:
            assert np.array_equal(out.view(np.uint32), outs[0].view(np.uint32))

    def test_a_training_patch_folds_its_tail_into_near_equal_bands(self):
        # a 40-row patch's 32-group layer: the floor's 13 rows allow three
        # bands, so 13, 13 and 14 rows rather than a 1-row tail after three 13s
        xp = np.empty((2, 32, 5, 42, 42), dtype=np.float32)
        bands, buf = tensor_core._bands(xp, 3, 3, 40, 40)
        assert bands == [(n, y0, y1) for n in range(2) for y0, y1 in
                         [(0, 13), (13, 26), (26, 40)]]
        assert buf.shape[4] == 14

    def test_a_forward_inside_a_part_gathers_the_top_level_bands(self, monkeypatch):
        # test_band_geometry_does_not_depend_on_workers' input, at the default
        # budget and floor: a part runs its bands inline, but over the same
        # rows as a split call
        x, w = random_case(33, cin=32, cout=3, d=5, h=130, w=8)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.ZERO)
        real, seen = tensor_core._column_bands, []

        def recording(*args):
            for n, y0, y1, cols in real(*args):
                seen.append((int(n), int(y0), int(y1)))
                yield n, y0, y1, cols
        monkeypatch.setattr(tensor_core, "_column_bands", recording)
        with force_pool(monkeypatch, 2):
            top = conv_forward(x, w, pad)
            top_bands = sorted(seen)
            seen.clear()
            [inner] = run_parts(lambda _: conv_forward(x, w, pad), [0])
        assert top_bands == [(0, 0, 65), (0, 65, 130)]
        assert seen == top_bands
        assert np.array_equal(inner, top)

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
    def test_blas_is_held_at_one_thread_for_good_even_after_a_part_raises(self):
        # the count is never put back, and one the caller raises between two
        # calls is one again before the next call's parts run
        get, put = tensor_core._blas_threads()
        seen = []

        def part(i):
            seen.append(get())
            if i == 1:
                raise ValueError("part 1 fails")
            return i
        for _ in range(2):
            put(2)
            with pytest.raises(ValueError, match="part 1 fails"):
                run_parts(part, range(3))
            assert get() == 1
        put(2)
        assert run_parts(part, [0, 2]) == [0, 2]
        assert get() == 1
        assert seen == [1] * 8  # every part ran, each with one BLAS thread

    @needs_blas
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
    @pytest.mark.skipif(not openblas_exports("blas_thread_shutdown_"),
                        reason="OpenBLAS exports no blas_thread_shutdown_")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="no BLAS worker on one core")
    def test_the_first_part_call_ends_the_blas_worker_pool_for_good(self):
        # OpenBLAS starts a worker at load that spins for ~120 ms of CPU; a
        # restored count, or a second set, would start another one
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER_PART_CALLS],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "1", "1"]

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

    @needs_blas
    def test_an_interrupted_call_runs_no_later_part(self, monkeypatch):
        # the caller's part is interrupted while the helper is inside the
        # other part; the helper ends that part only once the caller joins
        # it, and must then take no later part
        helper_in, release, ran = threading.Event(), threading.Event(), []
        real_join = threading.Thread.join

        def joining(thread, timeout=None):
            release.set()
            real_join(thread, timeout)

        def part(i):
            ran.append(i)
            if threading.current_thread().name == "vsr3d-step":
                helper_in.set()
                release.wait(timeout=10)
                return i
            helper_in.wait(timeout=10)
            raise KeyboardInterrupt
        monkeypatch.setattr(threading.Thread, "join", joining)
        with force_pool(monkeypatch, 2), pytest.raises(KeyboardInterrupt):
            run_parts(part, range(6))
        assert sorted(ran) == [0, 1]
        assert not any(t.name == "vsr3d-step" for t in threading.enumerate())

    @pytest.mark.parametrize("found", [True, False])
    def test_malloc_thresholds_are_fixed_once_and_never_in_a_part(self, monkeypatch, found):
        # a lookup that finds mallopt, or finds none: either way every call
        # returns its results, and only the first top-level one looks it up
        lookups, calls = [], []
        lib = SimpleNamespace(mallopt=lambda *args: calls.append(args)) if found else object()
        tensor_core._blas_threads()  # its own library lookup, made before the fake
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lookups.append(name) or lib)
        tensor_core._malloc_thresholds.cache_clear()
        try:
            nested = contextvars.copy_context()
            nested.run(tensor_core._IN_PART.set, True)
            assert nested.run(run_parts, abs, [-1, -2]) == [1, 2]
            assert lookups == []
            with force_pool(monkeypatch, 2):
                assert run_parts(lambda i: run_parts(abs, [-i, i]), range(3)) == [[0, 0], [1, 1],
                                                                                 [2, 2]]
                assert run_parts(abs, [-3]) == [3]
        finally:
            tensor_core._malloc_thresholds.cache_clear()  # the next call fixes them for real
        assert lookups == [None]
        assert calls == ([(-3, 32 << 20), (-1, 64 << 20)] if found else [])

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
    @pytest.mark.skipif(not glibc_mallopt, reason="no glibc mallopt")
    def test_a_warmed_training_step_faults_no_pages_again(self):
        # left dynamic, glibc's trim threshold hands the heap top back after
        # each micro-batch and layer: about 32k faults a step (135 MB of pages)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _FAULTS_OF_A_WARMED_STEP],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    def test_one_band_call_submits_nothing(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", no_pool)
        x, w = random_case(32, n=2, h=8, w=8)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.DUPLICATE)
        np.testing.assert_allclose(conv_forward(x, w, pad), reference.conv_forward_loop(x, w, pad),
                                   atol=1e-5)


class TestMapParts:
    """map_parts: in order, bounded, and every helper joined however it ends."""

    @staticmethod
    def recorder(delay=0.0):
        """(fn, started): fn returns i * i after `delay`, recording each start."""
        started = []

        def fn(i):
            started.append(i)
            time.sleep(delay)
            return i * i
        return fn, started

    @staticmethod
    def settle(started, want):
        """Wait up to 2 s for `want` parts to have started; return the count."""
        deadline = time.monotonic() + 2.0
        while len(started) < want and time.monotonic() < deadline:
            time.sleep(0.001)
        return len(started)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_come_back_in_input_order(self, monkeypatch, workers):
        # parts that end out of order still yield in order
        rng = np.random.default_rng(workers)
        delays = rng.uniform(0, 0.004, 30)

        def fn(i):
            time.sleep(delays[i])
            return i * i
        with force_pool(monkeypatch, workers):
            assert list(map_parts(fn, range(30))) == [i * i for i in range(30)]

    def test_more_workers_than_cores_with_threads_switched_often(self, monkeypatch):
        # a lost claim or a part run twice would break the count or the order;
        # the caller dawdles at random between results, as scene's does
        rng, lock, calls = np.random.default_rng(38), threading.Lock(), [0]

        def fn(i):
            with lock:
                calls[0] += 1
            return i

        def consume():
            out = []
            for result in map_parts(fn, range(300)):
                out.append(result)
                if rng.random() < 0.3:
                    time.sleep(0.0005)
            return out
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with force_pool(monkeypatch, 4), ThreadPoolExecutor(1) as caller:
                out = caller.submit(consume).result(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert out == list(range(300)) and calls[0] == 300

    @needs_blas
    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_more_parts_in_flight_than_the_bound(self, monkeypatch, workers):
        # a caller that dawdles over each result: the helpers run ahead to
        # the bound of started parts not yet yielded, two per worker, and no
        # further, and no more parts run at once than there are workers
        bound, lock, running, most = 2 * workers, threading.Lock(), [0], [0]

        def fn(i):
            started.append(i)
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.001)
            with lock:
                running[0] -= 1
            return i
        started = []
        with force_pool(monkeypatch, workers):
            for i, result in enumerate(map_parts(fn, range(20))):
                assert result == i
                want = min(20, i + 1 + bound)
                assert self.settle(started, want) == want
                time.sleep(0.005)
                assert len(started) == want
        assert most[0] <= workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_is_raised_at_its_turn_and_no_later_part_starts(self, monkeypatch,
                                                                    workers):
        fn, started = self.recorder(0.001)

        def failing(i):
            if i == 3:
                started.append(i)
                raise ValueError("part 3 fails")
            return fn(i)
        got = []
        threads = threading.active_count()
        with force_pool(monkeypatch, workers), pytest.raises(ValueError, match="part 3 fails"):
            for result in map_parts(failing, range(20)):
                got.append(result)
        assert got == [0, 1, 4]
        at_raise = sorted(started)
        time.sleep(0.02)
        assert sorted(started) == at_raise
        assert at_raise == list(range(len(at_raise))) and len(at_raise) <= 3 + 2 * workers
        assert threading.active_count() == threads

    @needs_blas
    @pytest.mark.parametrize("how", ["break", "consumer error", "interrupt"])
    def test_a_map_closed_early_joins_every_helper(self, monkeypatch, how):
        fn, started = self.recorder(0.001)
        threads = threading.active_count()
        with force_pool(monkeypatch, 2):
            try:
                for result in map_parts(fn, range(50)):
                    if result == 4:
                        if how == "break":
                            break
                        raise KeyboardInterrupt if how == "interrupt" else ValueError(how)
            except (KeyboardInterrupt, ValueError):
                pass
        assert threading.active_count() == threads
        at_close = len(started)
        time.sleep(0.02)
        assert len(started) == at_close <= 3 + 2 * 2

    def test_refused_thread_starts_leave_every_part_to_the_caller(self, monkeypatch):
        caller, names = threading.current_thread().name, set()

        def fn(i):
            names.add(threading.current_thread().name)
            return -i

        def refuse(thread):
            raise RuntimeError("can't start new thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        with force_pool(monkeypatch, 2):
            assert list(map_parts(fn, range(9))) == [-i for i in range(9)]
        assert names == {caller}

    def test_part_calls_from_the_caller_of_an_open_map_run_inline(self, monkeypatch):
        # the caller holds the map's lock while it is open: a top-level
        # run_parts or split conv_padded of its own would wait on it forever
        x, w, pad = TestParts.split_case(monkeypatch)
        want = reference.conv_forward_loop(x, w, pad)
        real, gathered = tensor_core._column_bands, []

        def recording(*args):
            gathered.append(threading.current_thread().name)
            yield from real(*args)
        monkeypatch.setattr(tensor_core, "_column_bands", recording)

        def consume():
            out = []
            for result in map_parts(abs, [-1, -2, -3]):
                out.append((result, run_parts(abs, [-result, result]), conv_forward(x, w, pad)))
            return out, threading.current_thread().name
        with force_pool(monkeypatch, 2), ThreadPoolExecutor(1) as caller:
            out, name = caller.submit(consume).result(timeout=60)
        assert [(r, nested) for r, nested, _ in out] == [(i, [i, i]) for i in (1, 2, 3)]
        for _, _, conv in out:
            np.testing.assert_allclose(conv, want, atol=1e-5)
        assert set(gathered) == {name}
        assert run_parts(abs, [-4, 4]) == [4, 4]  # the closed map holds no lock


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

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("temporal", [TemporalPad.ZERO, TemporalPad.DUPLICATE])
    def test_fewer_stored_slices_than_taps_float32(self, temporal, d, stride):
        # a 3-tap layer on 1 or 2 stored slices, strided too, in the
        # production dtype: the forward and both backward modes
        x, w = random_case(56 + d, n=2, cin=3, cout=4, d=d, h=7, w=6)
        pad = PadPolicy(spatial=1, temporal=temporal)
        out = conv_forward(x, w, pad, stride=stride)
        np.testing.assert_allclose(out, reference.conv_forward_loop(x, w, pad, stride=stride),
                                   rtol=0, atol=1e-5)
        g = np.random.default_rng(57).standard_normal(out.shape).astype(np.float32)
        want_x, want_k, want_b = reference.conv_backward_loop(x, w, pad, g, stride=stride)
        for input_grad in (True, False):
            gx, gw = conv_backward(x, w, pad, g, stride=stride, input_grad=input_grad)
            if input_grad:
                assert_close_to_largest(gx, want_x, 1e-5)
            assert_close_to_largest(gw.kernel, want_k, 1e-5)
            assert_close_to_largest(gw.bias, want_b, 1e-5)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_where_bit_for_bit(self, dtype):
        # every pairing of NaN, +-0, +-inf and ordinary values in both arguments
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-30, -2.5, 3.0,
                            np.finfo(dtype).tiny, -np.finfo(dtype).max], dtype=dtype)
        x, g = (a.ravel() for a in np.meshgrid(special, special))
        bits = f"u{np.dtype(dtype).itemsize}"
        out = relu_backward(x, g)
        assert out.dtype == dtype and out.shape == x.shape
        np.testing.assert_array_equal(out.view(bits), np.where(x > 0, g, 0).view(bits))
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 3, 4, 5, 6)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)[..., ::-1]  # not contiguous
        np.testing.assert_array_equal(relu_backward(x, g).view(bits),
                                      np.where(x > 0, g, 0).view(bits))

    def test_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(40)
        x = x[np.abs(x) > 0.1][:20]
        g = rng.standard_normal(x.size)

        def loss():
            return float((relu(x) * g).sum())

        ana = relu_backward(x, g)
        assert max_rel_err(ana, central_diff(loss, x, 1e-6)) < 1e-6


class TestTemporalExtrapolate:
    def test_zero_policy_stores_no_depth_slices(self):
        # ZERO's zero slices are tap bounds of the GEMMs, not stored data
        rng = np.random.default_rng(30)
        x = rng.random((1, 2, 5, 3, 3)).astype(np.float32)
        out = padded(x, 3, PadPolicy(spatial=1, temporal=TemporalPad.ZERO))
        assert out.shape == (1, 2, 5, 5, 5)
        np.testing.assert_array_equal(out[..., 1:-1, 1:-1], x)
        assert not out[..., [0, -1], :].any() and not out[..., [0, -1]].any()

    def test_duplicate_policy_copies_outermost(self):
        rng = np.random.default_rng(31)
        x = rng.random((1, 1, 5, 3, 3)).astype(np.float32)
        out = padded(x, 3, PadPolicy(temporal=TemporalPad.DUPLICATE))
        np.testing.assert_array_equal(out[:, :, 0], x[:, :, 0])
        np.testing.assert_array_equal(out[:, :, 6], x[:, :, 4])

    def test_constant_tensor_stays_constant_under_duplicate(self):
        x = np.full((1, 1, 5, 2, 2), 0.7, dtype=np.float32)
        out = padded(x, 3, PadPolicy(temporal=TemporalPad.DUPLICATE))
        np.testing.assert_array_equal(out, np.full((1, 1, 7, 2, 2), 0.7, dtype=np.float32))

    @pytest.mark.parametrize("policy", [TemporalPad.ZERO, TemporalPad.DUPLICATE])
    def test_even_kernel_depth_rejected(self, policy):
        with pytest.raises(ValueError, match="odd kernel depth"):
            padded(np.zeros((1, 1, 2, 2, 2), dtype=np.float32), 2, PadPolicy(temporal=policy))


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
