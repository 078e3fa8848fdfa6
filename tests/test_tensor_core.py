"""Tensor-core kernels against brute-force oracles and finite differences."""

import numpy as np
import pytest

from vsr3d import reference, tensor_core
from vsr3d.tensor_core import (
    ConvWeights,
    PadPolicy,
    TemporalPad,
    conv_backward,
    conv_forward,
    pixel_shuffle,
    pixel_unshuffle,
    relu,
    relu_backward,
    temporal_extrapolate,
    tensor5d,
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
        # a 4 KB budget splits the output rows into chunks of 1 to 6 rows
        monkeypatch.setattr(tensor_core, "_WINDOW_BUDGET_BYTES", 4096)
        x, w = random_case(31, n=2, cin=1, cout=2, d=3, h=15, w=6)
        pad = PadPolicy(spatial=1, temporal=temporal)
        np.testing.assert_allclose(conv_forward(x, w, pad, stride=stride),
                                   reference.conv_forward_loop(x, w, pad, stride=stride),
                                   atol=1e-5)

    @pytest.mark.parametrize("stride", [(2, 2), (2, 1), (1, 3)])
    def test_spatial_stride_matches_oracle(self, stride):
        x, w = random_case(7, d=1, h=9, w=11, kd=1)
        pad = PadPolicy(spatial=1, temporal=TemporalPad.NONE)
        np.testing.assert_allclose(conv_forward(x, w, pad, stride=stride),
                                   reference.conv_forward_loop(x, w, pad, stride=stride),
                                   atol=1e-5)

    def test_depth1_reduces_to_2d_convolution(self):
        rng = np.random.default_rng(3)
        img = rng.random((8, 9)).astype(np.float32)
        kernel = rng.standard_normal((1, 1, 1, 3, 3)).astype(np.float32)
        w = ConvWeights(kernel, np.array([0.25], dtype=np.float32))
        out = conv_forward(tensor5d(img), w, NO_PAD)
        slow = reference.conv2d_forward_loop(img, kernel[0, 0, 0], 0.25)
        np.testing.assert_allclose(out[0, 0, 0], slow, atol=1e-5)

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

    def test_grad_out_shape_mismatch_raises(self):
        x, w = random_case(15)
        with pytest.raises(ValueError, match="grad_out"):
            conv_backward(x, w, NO_PAD, np.zeros((1, 2, 1, 1, 1), dtype=np.float32))


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
    def test_zero_policy_inserts_zero_slices(self):
        rng = np.random.default_rng(30)
        x = rng.random((1, 2, 5, 3, 3)).astype(np.float32)
        out = temporal_extrapolate(x, TemporalPad.ZERO, 1)
        assert out.shape[2] == 7
        assert not out[:, :, 0].any() and not out[:, :, 6].any()
        np.testing.assert_array_equal(out[:, :, 1:6], x)

    def test_duplicate_policy_copies_outermost(self):
        rng = np.random.default_rng(31)
        x = rng.random((1, 1, 5, 3, 3)).astype(np.float32)
        out = temporal_extrapolate(x, TemporalPad.DUPLICATE, 1)
        np.testing.assert_array_equal(out[:, :, 0], x[:, :, 0])
        np.testing.assert_array_equal(out[:, :, 6], x[:, :, 4])

    def test_constant_tensor_stays_constant_under_duplicate(self):
        x = np.full((1, 1, 5, 2, 2), 0.7, dtype=np.float32)
        out = temporal_extrapolate(x, TemporalPad.DUPLICATE, 1)
        np.testing.assert_array_equal(out, np.full((1, 1, 7, 2, 2), 0.7, dtype=np.float32))

    def test_none_policy_rejected(self):
        with pytest.raises(ValueError):
            temporal_extrapolate(np.zeros((1, 1, 2, 2, 2), dtype=np.float32),
                                 TemporalPad.NONE, 1)


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


def test_tensor5d_promotes_rank_and_checks_extents():
    t = tensor5d(np.ones((4, 5)))
    assert t.shape == (1, 1, 1, 4, 5)
    assert t.dtype == np.float32
    with pytest.raises(ValueError):
        tensor5d(np.ones((1, 1, 1, 1, 1, 1, 6)))
