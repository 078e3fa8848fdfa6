"""Slow, obviously-correct reference kernels.

These are deliberately naive nested-loop implementations that share nothing
with the vectorized production kernels in :mod:`vsr3d.tensor_core`. They exist
only to cross-check the fast paths (unit tests and the ``verify`` command) and
are far too slow for real workloads.
"""

import numpy as np

from .tensor_core import ConvWeights, PadPolicy, TemporalPad


def conv_forward_loop(x: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                      stride: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Direct summation over the receptive field, one output element at a time.

    Accumulates in float64 regardless of input dtype.
    """
    kernel = np.asarray(weights.kernel, dtype=np.float64)
    bias = np.asarray(weights.bias, dtype=np.float64)
    out_g, in_g, kd, kh, kw = kernel.shape
    sh, sw = stride

    xp = _pad_loop(np.asarray(x, dtype=np.float64), kd, pad)
    n_b, _, dp, hp, wp = xp.shape
    do = dp - kd + 1
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1

    out = np.zeros((n_b, out_g, do, ho, wo), dtype=np.float64)
    for n in range(n_b):
        for o in range(out_g):
            for z in range(do):
                for y in range(ho):
                    for xo in range(wo):
                        acc = 0.0
                        for c in range(in_g):
                            for a in range(kd):
                                for b in range(kh):
                                    for g in range(kw):
                                        acc += (kernel[o, c, a, b, g]
                                                * xp[n, c, z + a, y * sh + b, xo * sw + g])
                        out[n, o, z, y, xo] = acc + bias[o]
    return out


def conv_backward_loop(x: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                       grad_out: np.ndarray, stride: tuple[int, int] = (1, 1)):
    """Input, kernel and bias gradients of sum(conv_forward_loop * grad_out),
    one scalar term at a time: every (output element, tap) pair adds its
    share to the padded input's gradient and to the kernel's; the padded
    input's gradient is then cropped, and under DUPLICATE the added depth
    slices fold onto the edge slices they copy.

    Accumulates in float64; returns (grad_x, grad_kernel, grad_bias).
    """
    kernel = np.asarray(weights.kernel, dtype=np.float64)
    go = np.asarray(grad_out, dtype=np.float64)
    out_g, in_g, kd, kh, kw = kernel.shape
    sh, sw = stride
    xp = _pad_loop(np.asarray(x, dtype=np.float64), kd, pad)
    n_b, _, do, ho, wo = go.shape

    grad_xp = np.zeros_like(xp)
    grad_kernel = np.zeros_like(kernel)
    grad_bias = np.zeros(out_g, dtype=np.float64)
    for n in range(n_b):
        for o in range(out_g):
            for z in range(do):
                for y in range(ho):
                    for xo in range(wo):
                        g = go[n, o, z, y, xo]
                        grad_bias[o] += g
                        for c in range(in_g):
                            for a in range(kd):
                                for b in range(kh):
                                    for e in range(kw):
                                        at = (n, c, z + a, y * sh + b, xo * sw + e)
                                        grad_kernel[o, c, a, b, e] += g * xp[at]
                                        grad_xp[at] += g * kernel[o, c, a, b, e]

    d, h, w = x.shape[2:]
    t = (xp.shape[2] - d) // 2
    s = pad.spatial
    grad_x = np.zeros(x.shape, dtype=np.float64)
    for n in range(n_b):
        for c in range(in_g):
            for z in range(d):
                for y in range(h):
                    for xo in range(w):
                        acc = grad_xp[n, c, t + z, s + y, s + xo]
                        if pad.temporal is TemporalPad.DUPLICATE:
                            for k in range(t):
                                if z == 0:
                                    acc += grad_xp[n, c, k, s + y, s + xo]
                                if z == d - 1:
                                    acc += grad_xp[n, c, t + d + k, s + y, s + xo]
                        grad_x[n, c, z, y, xo] = acc
    return grad_x, grad_kernel, grad_bias


def forward_stack_loop(params, spec, x: np.ndarray) -> np.ndarray:
    """The layer stack of a ModelSpec chained from conv_forward_loop, with
    ReLU as np.maximum and the depth flatten as a C-order reshape."""
    def flatten(h):  # (N, C, D, H, W) -> (N, C*D, 1, H, W)
        return h.reshape(h.shape[0], -1, 1, *h.shape[3:])

    h = flatten(x) if spec.concat_after == 0 else x
    for i, (layer, w) in enumerate(zip(spec.layers, params)):
        pad = PadPolicy(spatial=layer.spatial_pad, temporal=layer.temporal_pad)
        h = conv_forward_loop(h, w, pad, stride=layer.stride)
        if layer.activation == "relu":
            h = np.maximum(h, 0.0)
        if spec.concat_after == i + 1:
            h = flatten(h)
    return h


def conv2d_forward_loop(image: np.ndarray, kernel: np.ndarray, bias: float) -> np.ndarray:
    """Plain 2D valid correlation of a single-channel image, four nested loops."""
    img = np.asarray(image, dtype=np.float64)
    ker = np.asarray(kernel, dtype=np.float64)
    kh, kw = ker.shape
    ho = img.shape[0] - kh + 1
    wo = img.shape[1] - kw + 1
    out = np.zeros((ho, wo), dtype=np.float64)
    for y in range(ho):
        for x in range(wo):
            acc = 0.0
            for b in range(kh):
                for g in range(kw):
                    acc += ker[b, g] * img[y + b, x + g]
            out[y, x] = acc + bias
    return out


def ssim_window_loop(a: np.ndarray, b: np.ndarray, window: np.ndarray,
                     k1: float = 0.01, k2: float = 0.03, dyn_range: float = 1.0) -> float:
    """Mean local SSIM computed one window position at a time."""
    win = np.asarray(window, dtype=np.float64)
    wh, ww = win.shape
    c1 = (k1 * dyn_range) ** 2
    c2 = (k2 * dyn_range) ** 2
    vals = []
    for y in range(a.shape[0] - wh + 1):
        for x in range(a.shape[1] - ww + 1):
            pa = np.asarray(a[y:y + wh, x:x + ww], dtype=np.float64)
            pb = np.asarray(b[y:y + wh, x:x + ww], dtype=np.float64)
            mu_a = (win * pa).sum()
            mu_b = (win * pb).sum()
            var_a = (win * pa * pa).sum() - mu_a ** 2
            var_b = (win * pb * pb).sum() - mu_b ** 2
            cov = (win * pa * pb).sum() - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def resize_matrix(n_in: int, n_out: int, weight_fn) -> np.ndarray:
    """Dense (n_out, n_in) resampling matrix assembled row by row.

    ``weight_fn(i)`` must yield the (indices, weights) pair for output sample
    ``i``; contributions to clamped indices are accumulated explicitly so the
    result can multiply an image directly.
    """
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    for i in range(n_out):
        idx, wts = weight_fn(i)
        for j, w in zip(idx, wts):
            mat[i, min(max(j, 0), n_in - 1)] += w
    return mat


def _pad_loop(x: np.ndarray, kd: int, pad: PadPolicy) -> np.ndarray:
    n_b, c, d, h, w = x.shape
    per_side = (kd - 1) // 2 if pad.temporal is not TemporalPad.NONE else 0
    s = pad.spatial
    out = np.zeros((n_b, c, d + 2 * per_side, h + 2 * s, w + 2 * s), dtype=x.dtype)
    out[:, :, per_side:per_side + d, s:s + h, s:s + w] = x
    if pad.temporal is TemporalPad.DUPLICATE:
        for k in range(per_side):
            out[:, :, k, s:s + h, s:s + w] = x[:, :, 0]
            out[:, :, per_side + d + k, s:s + h, s:s + w] = x[:, :, -1]
    return out
