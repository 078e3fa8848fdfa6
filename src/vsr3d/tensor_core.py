"""Dense rank-5 tensor kernels: convolution, activation, padding, pixel shuffle.

Tensors are plain C-contiguous numpy arrays with a fixed (batch, group, depth,
height, width) axis order. Degenerate axes carry extent 1, so a single 2D image
is shaped (1, 1, 1, H, W). float32 is the production dtype; every kernel
preserves the dtype it is given, which is what the float64 verification mode
relies on.

Convolution is correlation-style, stride 1 on the depth axis, with an optional
spatial stride used by strided 2D layers. Gradients are hand-derived per
operation; there is no autograd graph.

The forward is im2col + GEMM (Chellapilla, Puri and Simard 2006) with a
slice-major gather: the (C, kH, kW) windows of every padded depth slice are
copied once into a (N, D'*C*kH*kW, positions) column buffer. The kD slices
under output slice z are then one contiguous row block, so each output slice
is a single GEMM whose result is already in (N, O, H, W) order, and every
output element is one contraction over kD*C*kH*kW terms. Splitting that
contraction into kD partial GEMMs summed afterwards adds a float32 rounding
step that the finite-difference gradient check does not tolerate.

The backward keeps a loop over the kD*kH*kW taps with two small matmuls each:
a column-based backward over the same buffer (two GEMMs plus a col2im
scatter) measured within 6% of it on the padded 32->32 layers and slower on
the unpadded 32->32 and the 96->4 layers.
"""

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float32

# Upper bound on conv_forward's column buffer, which holds every padded depth
# slice's windows for a band of output rows; larger inputs are processed in
# bands of rows sized to fit (identical results: a band only limits which
# output positions one GEMM covers, never how an element is summed).
_WINDOW_BUDGET_BYTES = 256 * 1024 * 1024


class TemporalPad(enum.Enum):
    """How the depth axis is extended before a depth-3 filter is applied."""

    ZERO = "zero"
    DUPLICATE = "duplicate"
    NONE = "none"


@dataclass(frozen=True)
class PadPolicy:
    """Spatial zero padding per side plus the temporal extension policy."""

    spatial: int = 0
    temporal: TemporalPad = TemporalPad.NONE

    def __post_init__(self):
        if self.spatial < 0:
            raise ValueError(f"spatial pad must be >= 0, got {self.spatial}")


@dataclass
class ConvWeights:
    """One convolution layer's kernel (out, in, kD, kH, kW) and bias (out,)."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.kernel = np.ascontiguousarray(self.kernel)
        self.bias = np.ascontiguousarray(self.bias)
        if self.kernel.ndim != 5:
            raise ValueError(f"kernel must be rank 5, got shape {self.kernel.shape}")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ValueError(
                f"bias length {self.bias.shape} does not match {self.kernel.shape[0]} out groups")


def tensor5d(data) -> np.ndarray:
    """Coerce array-like data to a contiguous rank-5 DEFAULT_DTYPE tensor.

    Missing leading axes are added as extent-1 axes, so a (H, W) image becomes
    (1, 1, 1, H, W).
    """
    arr = np.asarray(data, dtype=DEFAULT_DTYPE)
    if arr.ndim > 5:
        raise ValueError(f"rank {arr.ndim} exceeds 5")
    arr = arr.reshape((1,) * (5 - arr.ndim) + arr.shape)
    if min(arr.shape) < 1:
        raise ValueError(f"all extents must be >= 1, got {arr.shape}")
    return np.ascontiguousarray(arr)


def _temporal_per_side(kernel_depth: int, pad: PadPolicy) -> int:
    """Depth slices added at each end: (kernel_depth - 1) // 2 under ZERO or
    DUPLICATE, so a depth-3 filter preserves the depth extent."""
    if pad.temporal is TemporalPad.NONE:
        return 0
    if kernel_depth % 2 == 0:
        raise ValueError("temporal padding requires an odd kernel depth")
    return (kernel_depth - 1) // 2


def pad_input(x: np.ndarray, kernel_depth: int, pad: PadPolicy) -> np.ndarray:
    """Apply a PadPolicy for a kernel of the given depth in one zero-padded
    copy; DUPLICATE then fills the added depth slices with the edge slices."""
    t, s = _temporal_per_side(kernel_depth, pad), pad.spatial
    out = np.pad(x, ((0, 0), (0, 0), (t, t), (s, s), (s, s)))
    if pad.temporal is TemporalPad.DUPLICATE and t:
        out[:, :, :t] = out[:, :, t:t + 1]
        out[:, :, -t:] = out[:, :, -t - 1:-t]
    return out


def conv_forward(x: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                 stride: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Correlate a (N, C, D, H, W) tensor with a bank of 3D filters.

    Depth stride is fixed at 1; `stride` applies to the spatial axes only.
    Output shape is (N, out, D'-kD+1, (H'-kH)//sh+1, (W'-kW)//sw+1) on the
    padded extents.
    """
    kernel, bias = weights.kernel, weights.bias
    out_g, in_g, kd, kh, kw = kernel.shape
    if x.ndim != 5:
        raise ValueError(f"input must be rank 5, got shape {x.shape}")
    if x.shape[1] != in_g:
        raise ValueError(f"input has {x.shape[1]} groups, kernel expects {in_g}")
    sh, sw = stride
    if sh < 1 or sw < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    xp = pad_input(x, kd, pad)
    n_b, _, dp, hp, wp = xp.shape
    if dp < kd or hp < kh or wp < kw:
        raise ValueError(
            f"kernel {kernel.shape[2:]} larger than padded input {(dp, hp, wp)}")
    do = dp - kd + 1
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1

    # (O, kD*C*kH*kW): the row order of kd consecutive slices of `cols`
    kmat = kernel.transpose(0, 2, 1, 3, 4).reshape(out_g, -1)
    out = np.empty((n_b, out_g, do, ho, wo), dtype=x.dtype)

    per_slice = in_g * kh * kw
    row_bytes = n_b * dp * per_slice * wo * xp.dtype.itemsize
    rows_per_chunk = max(1, _WINDOW_BUDGET_BYTES // max(1, row_bytes))
    for y0 in range(0, ho, rows_per_chunk):
        y1 = min(y0 + rows_per_chunk, ho)
        rows = y1 - y0
        band = xp[:, :, :, y0 * sh:(y1 - 1) * sh + kh]
        win = sliding_window_view(band, (kh, kw), axis=(3, 4))[:, :, :, ::sh, ::sw]
        # (N, dp*C*kH*kW, rows*wo); each copied run reads along one row of W
        cols = win.transpose(0, 2, 1, 5, 6, 3, 4).reshape(n_b, dp * per_slice, rows * wo)
        for z in range(do):
            block = cols[:, z * per_slice:(z + kd) * per_slice]
            out[:, :, z, y0:y1] = (kmat @ block).reshape(n_b, out_g, rows, wo)
    out += bias.astype(x.dtype).reshape(1, out_g, 1, 1, 1)
    return out


def conv_backward(x: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                  grad_out: np.ndarray,
                  stride: tuple[int, int] = (1, 1)) -> tuple[np.ndarray, ConvWeights]:
    """Exact gradients of a summed scalar loss through conv_forward.

    Returns (grad wrt input, ConvWeights holding kernel/bias gradients).
    Zero-padded positions contribute nothing to the input gradient; duplicated
    temporal slices fold their gradient back onto the edge slices.
    """
    kernel = weights.kernel
    out_g, in_g, kd, kh, kw = kernel.shape
    sh, sw = stride
    xp = pad_input(x, kd, pad)
    n_b, _, dp, hp, wp = xp.shape
    do = dp - kd + 1
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    if grad_out.shape != (n_b, out_g, do, ho, wo):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match output {(n_b, out_g, do, ho, wo)}")

    grad_bias = grad_out.sum(axis=(0, 2, 3, 4), dtype=grad_out.dtype)
    grad_kernel = np.zeros_like(kernel)
    grad_xp = np.zeros_like(xp)

    go = grad_out.reshape(n_b, out_g, -1)
    for a in range(kd):
        for b in range(kh):
            for g in range(kw):
                sl = (slice(None), slice(None), slice(a, a + do),
                      slice(b, b + (ho - 1) * sh + 1, sh),
                      slice(g, g + (wo - 1) * sw + 1, sw))
                xs = np.ascontiguousarray(xp[sl]).reshape(n_b, in_g, -1)
                # (O, C) contraction over batch and every output position
                grad_kernel[:, :, a, b, g] = np.matmul(go, xs.transpose(0, 2, 1)).sum(axis=0)
                tap = np.matmul(kernel[:, :, a, b, g].T, go)
                grad_xp[sl] += tap.reshape(n_b, in_g, do, ho, wo)

    grad_x = _unpad_gradient(grad_xp, x.shape, kd, pad)
    return grad_x, ConvWeights(grad_kernel, grad_bias)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0."""
    return np.where(x > 0, grad_out, 0).astype(grad_out.dtype)


def pixel_shuffle(x: np.ndarray, scale: int) -> np.ndarray:
    """Reorder scale^2 channel blocks into scale x scale spatial blocks.

    Channel c within a block lands at spatial offset (c // scale, c % scale).
    """
    n_b, c, d, h, w = x.shape
    if d != 1:
        raise ValueError(f"pixel_shuffle needs depth 1, got {d}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if c % (scale * scale) != 0:
        raise ValueError(f"{c} channels not divisible by scale^2 = {scale * scale}")
    g = c // (scale * scale)
    out = x.reshape(n_b, g, scale, scale, h, w)
    out = out.transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(out.reshape(n_b, g, 1, h * scale, w * scale))


def pixel_unshuffle(x: np.ndarray, scale: int) -> np.ndarray:
    """Inverse of pixel_shuffle; composes with it to the exact identity."""
    n_b, g, d, h, w = x.shape
    if d != 1:
        raise ValueError(f"pixel_unshuffle needs depth 1, got {d}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if h % scale != 0 or w % scale != 0:
        raise ValueError(f"extents {(h, w)} not divisible by scale {scale}")
    out = x.reshape(n_b, g, h // scale, scale, w // scale, scale)
    out = out.transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(out.reshape(n_b, g * scale * scale, 1, h // scale, w // scale))


def _unpad_gradient(grad_xp: np.ndarray, x_shape, kernel_depth: int, pad: PadPolicy) -> np.ndarray:
    d, h, w = x_shape[2:]
    t, s = _temporal_per_side(kernel_depth, pad), pad.spatial
    core = grad_xp[:, :, t:t + d, s:s + h, s:s + w]
    if pad.temporal is TemporalPad.DUPLICATE and t:
        core = core.copy()
        core[:, :, 0] += grad_xp[:, :, :t, s:s + h, s:s + w].sum(axis=2)
        core[:, :, -1] += grad_xp[:, :, t + d:, s:s + h, s:s + w].sum(axis=2)
        return core
    return np.ascontiguousarray(core)
