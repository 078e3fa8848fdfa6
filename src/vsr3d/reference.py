"""Slow, obviously-correct reference kernels, and the checks against them.

The kernels are deliberately naive nested-loop implementations that share
nothing with the vectorized fast paths and are far too slow for real work.
`verify_checks` lists what `vsr3d verify` runs: each check returns (passed,
detail), its keyword defaults are verify's inputs, and tests widen them.
"""

import itertools
from functools import partial

import numpy as np

from .bicubic import bicubic_taps, resize_plane
from .frames import Frame
from .metrics import gaussian_window, ssim
from .model import (ARCH_NAMES, LayerSpec, ModelSpec, build_architecture, count_parameters,
                    forward_stack)
from .scene import SceneLabel, replace_frames
from .tensor_core import (ConvWeights, PadPolicy, TemporalPad, conv_backward, conv_forward,
                          pixel_shuffle, pixel_unshuffle)
from .training import grad_check, miniature_spec, xavier_init

# bias-free weight totals of the five reference architectures at scale 2
REFERENCE_WEIGHT_COUNTS = {"cnn2d": 115_020, "v1": 108_000, "v2": 118_368, "v3": 100_512,
                           "full": 114_912}
# largest relative error a finite-difference gradient check allows, by dtype
GRAD_TOLERANCES = {np.float32: 1e-3, np.float64: 1e-6}


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


def resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Dense (n_out, n_in) resampling matrix of bicubic_taps, assembled row
    by row; contributions to clamped indices are accumulated explicitly so
    the result can multiply an image directly."""
    idx, wts = bicubic_taps(n_in, n_out)
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    for i in range(n_out):
        for j, w in zip(idx[i], wts[i]):
            mat[i, min(max(j, 0), n_in - 1)] += w
    return mat


def resize_dense(plane, out_h: int, out_w: int) -> np.ndarray:
    """resize_plane as the product of two resize_matrix, clipped to [0, 1]."""
    rows = resize_matrix(plane.shape[0], out_h)
    cols = resize_matrix(plane.shape[1], out_w)
    return np.clip(rows @ np.asarray(plane, dtype=np.float64) @ cols.T, 0.0, 1.0)


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


# whole-net path with a mid-stack concat; sensitive to flatten order
MID_STACK_SPEC = ModelSpec(concat_after=2, layers=[
    LayerSpec("conv3d", 1, 3, (3, 3, 3), TemporalPad.ZERO),
    LayerSpec("conv3d", 3, 2, (3, 3, 3), TemporalPad.DUPLICATE),
    LayerSpec("conv2d", 10, 4, (1, 3, 3), activation="none")])


def check_param_counts(counts=REFERENCE_WEIGHT_COUNTS):
    got = {name: count_parameters(build_architecture(name)) for name in counts}
    wrong = [f"{name}: {got[name]} != {want}" for name, want in counts.items() if got[name] != want]
    return not wrong, wrong[0] if wrong else f"{len(counts)} architectures match"


def check_pixel_shuffle():
    x = np.random.default_rng(0).random((2, 8, 1, 6, 5)).astype(np.float32)
    ok = np.array_equal(pixel_unshuffle(pixel_shuffle(x, 2), 2), x)
    return ok, "roundtrip exact" if ok else "roundtrip mismatch"


def check_conv(seeds=range(1000, 1008), tolerance=1e-5):
    """conv_forward against conv_forward_loop on one random layer per seed,
    and on a single-channel 2D layer against conv2d_forward_loop."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        kd = int(rng.choice([1, 3]))  # temporal padding needs odd depth
        kh, kw = (int(v) for v in rng.integers(1, 4, 2))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        pad = PadPolicy(temporal=list(TemporalPad)[int(rng.integers(0, 3))] if kd > 1
                        else TemporalPad.NONE, spatial=int(rng.integers(0, 2)))
        cin, cout = (int(v) for v in rng.integers(1, 5, 2))
        depth = kd + int(rng.integers(0, 4))
        x = (0.25 * rng.standard_normal((2, cin, depth, 7, 9))).astype(np.float32)
        w = ConvWeights((0.25 * rng.standard_normal((cout, cin, kd, kh, kw))).astype(np.float32),
                        (0.25 * rng.standard_normal(cout)).astype(np.float32))
        diff = conv_forward(x, w, pad, stride=stride) - conv_forward_loop(x, w, pad, stride=stride)
        worst = max(worst, float(np.max(np.abs(diff))))
    rng = np.random.default_rng(3)
    img = rng.random((8, 9)).astype(np.float32)
    kernel = rng.standard_normal((1, 1, 1, 3, 3)).astype(np.float32)
    out = conv_forward(img[None, None, None], ConvWeights(kernel, np.float32([0.25])), PadPolicy())
    diff = out[0, 0, 0] - conv2d_forward_loop(img, kernel[0, 0, 0], 0.25)
    worst = max(worst, float(np.max(np.abs(diff))))
    return worst < tolerance, f"{len(seeds)} configs and a 2D one, worst |diff| {worst:.2e}"


def check_stack(specs=(MID_STACK_SPEC,), tolerance=1e-5):
    """forward_stack against forward_stack_loop, and bit for bit with caches."""
    worst, same = 0.0, True
    for case, spec in enumerate(specs):
        rng = np.random.default_rng(2000 + case)
        params = [ConvWeights(w.kernel, (0.1 * rng.standard_normal(len(w.bias))).astype(np.float32))
                  for w in xavier_init(spec, case)]
        x = rng.random((1, 1, 5, 6, 7)).astype(np.float32)
        fast, _ = forward_stack(params, spec, x)
        worst = max(worst, float(np.max(np.abs(fast - forward_stack_loop(params, spec, x)))))
        # one loop serves both; asking it for caches must not change the output
        same &= np.array_equal(fast, forward_stack(params, spec, x, want_caches=True)[0])
    return worst < tolerance and same, (
        f"max |diff| {worst:.2e}, {'equal to' if same else 'differs from'} the caching stack")


def check_replacement():
    """The frames each label keeps, by identity; reapplying changes nothing."""
    window = [Frame(np.full((4, 4), 0.1 * (i + 1), dtype=np.float32)) for i in range(5)]
    table = {SceneLabel.CHANGE_AFTER_1: [1, 1, 2, 3, 4], SceneLabel.CHANGE_AFTER_2: [2, 2, 2, 3, 4],
             SceneLabel.CHANGE_AFTER_3: [0, 1, 2, 2, 2], SceneLabel.CHANGE_AFTER_4: [0, 1, 2, 3, 3],
             SceneLabel.NO_CHANGE: [0, 1, 2, 3, 4]}
    for label, want in table.items():
        got = replace_frames(window, label)
        again = replace_frames(got, label)
        if not all(g is window[j] and a is g for g, a, j in zip(got, again, want)):
            return False, f"{label.name}: not frames {want} of the window, or not idempotent"
    return True, "all five labels"


def check_gradients(arch, seed=0, dtype=np.float32):
    report = grad_check(miniature_spec(arch), seed=seed,
                        tolerance=GRAD_TOLERANCES[np.dtype(dtype).type],
                        dtype=dtype, name=arch)
    return report.passed, report.summary()


def check_conv_backward(seed=18, tolerance=1e-5):
    """conv_backward against conv_backward_loop per temporal pad and stride,
    with the input gradient and without, as a share of the oracle's largest."""
    worst = 0.0
    for temporal, stride in itertools.product(TemporalPad, ((1, 1), (2, 2), (2, 1))):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 2, 5, 7, 6)).astype(np.float32)
        w = ConvWeights(rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32),
                        rng.standard_normal(3).astype(np.float32))
        pad = PadPolicy(spatial=1, temporal=temporal)
        g = rng.standard_normal(conv_forward(x, w, pad, stride=stride).shape).astype(np.float32)
        want_x, want_k, want_b = conv_backward_loop(x, w, pad, g, stride=stride)
        for input_grad in (True, False):
            gx, gw = conv_backward(x, w, pad, g, stride=stride, input_grad=input_grad)
            if (gx is None) is input_grad:  # an input gradient exactly when asked for
                return False, f"{temporal.name} {stride}: input_grad={input_grad} not honoured"
            pairs = [(gw.kernel, want_k), (gw.bias, want_b)] + [(gx, want_x)] * input_grad
            for fast, slow in pairs:
                worst = max(worst, float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow))))
    return worst < tolerance, f"9 layers in 2 modes, worst |diff| {worst:.2e} of the largest"


def check_ssim(border=2, tolerance=1e-9):
    """metrics.ssim against ssim_window_loop under an 11x11, sigma 1.5 window,
    whose valid positions span two strips of rows and two blocks of columns."""
    rng = np.random.default_rng(0)
    plane = rng.random((84, 54))
    a, b = Frame(plane), Frame(np.clip(plane + 0.2 * rng.standard_normal(plane.shape), 0.0, 1.0))
    crop = slice(border, -border) if border else slice(None)
    want = ssim_window_loop(a.luma[crop, crop], b.luma[crop, crop], gaussian_window(11, 1.5))
    diff = abs(ssim(a, b, border=border) - want)
    return diff < tolerance, f"|diff| {diff:.2e}"


def check_resize(sizes=((200, 150), (70, 40)), tolerance=1e-10):
    """resize_plane of a 100x90 plane against resize_dense, per (out_h, out_w)."""
    plane = np.random.default_rng(0).random((100, 90))
    worst = max(float(np.max(np.abs(resize_plane(plane, *size) - resize_dense(plane, *size))))
                for size in sizes)
    return worst < tolerance, f"{len(sizes)} sizes, worst |diff| {worst:.2e}"


def verify_checks(seed: int = 0, dtype=np.float32) -> list:
    """`vsr3d verify`'s (line template, check) pairs; seed and dtype reach grad_check."""
    return [("parameter counts ({})", check_param_counts),
            ("pixel shuffle roundtrip ({})", check_pixel_shuffle),
            ("convolution vs loop oracle ({})", check_conv),
            ("layer stack vs chained oracle ({})", check_stack),
            ("frame replacement truth table ({})", check_replacement),
            ("convolution gradients vs loop oracle ({})", check_conv_backward),
            ("SSIM vs window oracle ({})", check_ssim),
            ("bicubic resize vs dense oracle ({})", check_resize)] + [
        ("gradient check {}", partial(check_gradients, arch, seed=seed, dtype=dtype))
        for arch in ARCH_NAMES]
