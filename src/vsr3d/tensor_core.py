"""Dense rank-5 tensor kernels: convolution, activation, padding, pixel shuffle.

Tensors are plain C-contiguous numpy arrays with a fixed (batch, group, depth,
height, width) axis order. Degenerate axes carry extent 1, so a single 2D image
is shaped (1, 1, 1, H, W). float32 is the production dtype; every kernel
preserves the dtype it is given, which is what the float64 verification mode
relies on.

Convolution is correlation-style, stride 1 on the depth axis, with an optional
spatial stride used by strided 2D layers. Gradients are hand-derived per
operation; there is no autograd graph.

Every GEMM of a layer runs on a slice-major column gather (im2col,
Chellapilla, Puri and Simard 2006): for a band of one sample's output rows,
the (C, kH, kW) windows of every stored depth slice are copied once into a
(D*C*kH*kW, positions) buffer, so the stored slices under output slice z are
one contiguous row block. The forward gathers its input once, and the
backward gathers once in either of its modes.

ZERO temporal padding is not stored: its zero depth slices become tap bounds.
Of the kD taps of output slice z, only those landing on stored slices enter
its GEMM, a contiguous range of kernel columns against the matching row
block, so no GEMM multiplies a padded zero slice and the gather copies each
stored slice once. DUPLICATE's added slices hold data and stay stored.

That stored layout is padded_shape's; pad_into writes an input into a
buffer of it (spatial border zeroed, DUPLICATE's slices copied), and
conv_padded runs a layer on such a buffer. The model's layer loop keeps
every layer's input in this layout and has each layer's ReLU write through
pad_into into the next layer's buffer; conv_forward makes its own padded
copy for single calls, and conv_backward one only where it needs it.

- The forward is one GEMM per output slice and band, written in place in
  (O, H, W) order.
- The backward is one loop over one gather too, in either of two modes.
  With the input gradient it gathers the zero-dilated output gradient: the
  input gradient is its forward with the kernel flipped on all three axes
  and its in/out axes swapped (the transposed-convolution identity, Dumoulin
  and Visin 2016), the zero depth slices the identity adds at each end
  being tap bounds too. Under DUPLICATE it covers the added depth slices,
  which then fold onto the edge slices they copy. A column of that gather
  holds, for one input position, the output gradient each flipped tap pairs
  with it, so the same loop accumulates the block times the stored input
  block (C, P), spatially unpadded, transposed: the kernel gradient,
  transposed and in the flipped layout, turned and unflipped at the end.
  Without the input gradient (a stack's first layer, whose one input group
  makes its gather far smaller), it gathers the padded input, and the block
  times the output gradient (O, P) transposed gives the kernel gradient
  transposed. Either way the kernel-gradient GEMM is the tall
  (taps, P) @ (P, C or O) product, which OpenBLAS runs faster than its
  transpose (Goto and van de Geijn 2008); its rows for one output slice are
  one contiguous range.

Every output element of a forward is one contraction over its taps'
C*kH*kW terms. Splitting it into kD partial GEMMs summed afterwards adds a
float32 rounding step that the finite-difference gradient check does not
tolerate.

A band is sized by bytes, so that the gather's writes are still in cache
when the GEMMs read them back, and by a floor on the positions each GEMM
covers, below which the GEMMs run short of their full rate (a forty-pixel-wide
training patch would otherwise get bands of 480 positions). Bands never span
samples: each GEMM covers one sample anyway, and one buffer reused for every
band stays mapped and cached, where a batch-wide band would not. For the
32-channel layers band size does not change a result; the GEMM of a layer
with few output groups can round differently at some band widths.

A conv_padded call outside run_parts' parts whose samples span two or more
bands at half the budget and floor runs its (sample, band) list as contiguous
parts, taken by the calling thread and helpers that live for the call, one
per further core, their GEMMs on one BLAS thread, so no core or thread count
changes a bit. Each part gathers into a buffer the caller allocates (a
helper's malloc arena would keep it); two take one full band's bytes. Other
calls run full bands in the calling thread.
"""

import contextvars
import enum
import functools
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float32

# Column-buffer band sizing: the bytes one band of output rows may take, and
# the fewest output positions a band's GEMMs cover (the floor wins).
_WINDOW_BUDGET_BYTES = 4 * 1024 * 1024
_MIN_BAND_POSITIONS = 1024
_SPLIT = 2  # a split call's bands take 1/_SPLIT of both, whatever the core count
_PARTS_LOCK = threading.Lock()  # one run_parts at a time holds BLAS's process-wide count
_IN_PART = contextvars.ContextVar("vsr3d_in_part", default=False)


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


@functools.cache
def _blas_threads():
    """(get, set) of the process-wide thread count of the OpenBLAS mapped
    into this process, through ctypes; None where none with those symbols
    is found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}  # last field: the path
    except OSError:
        return None
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _workers() -> int:
    """Usable cores (a part call's threads, a split's parts), capped by a positive
    integer OPENBLAS_NUM_THREADS, or else OMP_NUM_THREADS."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return min(cores, int(value))
    return cores


def _drain(parts, claims, results, errors):
    """Run each part whose index this thread takes from `claims`; store its outcome."""
    for i in claims:
        try:
            results[i], errors[i] = parts[i](), None
        except Exception as error:  # raised in part order once every thread is done
            errors[i] = error


def run_parts(fn, items) -> list:
    """[fn(item) for item in items], each call a part run in a copy of the
    caller's contextvars context (so its np.errstate holds). The calling
    thread runs each next part not yet taken until none is left. Outside a
    part, with OpenBLAS thread control found, up to _workers() - 1 helpers
    started for the call take parts too, one caller at a time, BLAS held at
    one thread and restored, even on an error, once they are joined."""
    ctx = contextvars.copy_context()
    ctx.run(_IN_PART.set, True)
    parts = [functools.partial(ctx.copy().run, fn, item) for item in items]
    # a slot for every outcome before any helper starts: storing one allocates nothing
    lost = MemoryError("a part's helper thread ended before storing its outcome")
    results, errors = [None] * len(parts), [lost] * len(parts)
    loop = (parts, iter(range(len(parts))), results, errors)
    blas = None if _IN_PART.get() else _blas_threads()
    if blas is None:  # a nested call, or no BLAS control: no helper
        _drain(*loop)
    else:
        get, put = blas
        with _PARTS_LOCK:
            before = get()
            put(1)
            helpers = []
            try:
                for _ in range(min(_workers(), len(parts)) - 1):
                    helper = threading.Thread(target=_drain, args=loop, name="vsr3d-step")
                    try:
                        helper.start()
                    except RuntimeError:  # no thread to be had: the others take its parts
                        break
                    helpers.append(helper)
                _drain(*loop)
            finally:
                for helper in helpers:  # every GEMM ends before the count is restored
                    helper.join()
                put(before)
    for error in filter(None, errors):
        raise error
    return results


def _stored_pads(kernel_depth: int, pad: PadPolicy) -> tuple[int, int, int]:
    """(d, s, t) of the layout the gather reads: d depth slices stored at each
    end (DUPLICATE's copies), s spatial zeros per side, and t zero depth
    slices per end left implicit as tap bounds (ZERO's). Either is
    (kernel_depth - 1) // 2, so a depth-3 filter preserves the depth extent."""
    if pad.temporal is TemporalPad.NONE:
        return 0, pad.spatial, 0
    if kernel_depth % 2 == 0:
        raise ValueError("temporal padding requires an odd kernel depth")
    per_side = (kernel_depth - 1) // 2
    if pad.temporal is TemporalPad.DUPLICATE:
        return per_side, pad.spatial, 0
    return 0, pad.spatial, per_side


def padded_shape(shape, kernel_depth: int, pad: PadPolicy) -> tuple[int, ...]:
    """Shape of the layout conv_padded reads for an input of `shape`."""
    d, s, _ = _stored_pads(kernel_depth, pad)
    n, c, depth, h, w = shape
    return n, c, depth + 2 * d, h + 2 * s, w + 2 * s


def pad_into(buf: np.ndarray, x: np.ndarray, kernel_depth: int, pad: PadPolicy,
             rectify: bool = False) -> np.ndarray:
    """Write x, or max(0, x) with `rectify`, into buf (shaped by padded_shape)
    in the layout conv_padded reads: x inside, zeros on the spatial border,
    and DUPLICATE's copies of the edge slices. Every element is written, so
    buf may be fresh or may hold an earlier layer's input. Returns buf."""
    d, s, _ = _stored_pads(kernel_depth, pad)
    _, _, dp, hp, wp = buf.shape
    inner = buf[:, :, d:dp - d, s:hp - s, s:wp - s]
    if rectify:
        np.maximum(x, 0, out=inner)
    else:
        np.copyto(inner, x)
    buf[..., :s, :] = buf[..., hp - s:, :] = 0
    buf[..., :s] = buf[..., wp - s:] = 0
    if d:  # DUPLICATE: each added depth slice copies the edge slice beside it
        buf[:, :, :d] = buf[:, :, d:d + 1]
        buf[:, :, -d:] = buf[:, :, -d - 1:-d]
    return buf


def _pad_stored(x: np.ndarray, kernel_depth: int, pad: PadPolicy) -> tuple[np.ndarray, int]:
    """(padded input, t): the copy the gather reads, and the t zero depth
    slices per end that ZERO leaves implicit as tap bounds."""
    xp = np.empty(padded_shape(x.shape, kernel_depth, pad), dtype=x.dtype)
    return pad_into(xp, x, kernel_depth, pad), _stored_pads(kernel_depth, pad)[2]


def _out_extents(xp_shape, kernel_shape, stride, t: int) -> tuple[int, int, int]:
    """(D, H, W) of a valid correlation over already padded extents, with t
    implicit zero slices at each depth end."""
    (dp, hp, wp), (kd, kh, kw), (sh, sw) = xp_shape[2:], kernel_shape[2:], stride
    return dp + 2 * t - kd + 1, (hp - kh) // sh + 1, (wp - kw) // sw + 1


def _bands(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int, share: int = 1):
    """(rows, bands): each sample n's bands (n, y0, y1) of output rows of a padded
    input, of `rows` rows (the last may be short) by 1/share of budget and floor."""
    _, in_g, dp = xp.shape[:3]
    row_bytes = dp * in_g * kh * kw * wo * xp.dtype.itemsize
    rows = min(ho, max(_WINDOW_BUDGET_BYTES // share // row_bytes,
                       -(-(_MIN_BAND_POSITIONS // share) // wo), 1))
    return rows, [(n, y0, min(y0 + rows, ho)) for n in range(len(xp)) for y0 in range(0, ho, rows)]


def _column_bands(xp: np.ndarray, kh: int, kw: int, stride: tuple[int, int], ho: int, wo: int,
                  bands=None, buf=None):
    """Yield (n, y0, y1, cols) for `bands` of a padded input (default: _bands'):
    cols is (D*C*kH*kW, (y1-y0)*wo), one row block of C*kH*kW per stored depth
    slice, each copied run reading along one row of W. Every band is a view of
    one buffer (`buf`, with `bands`), valid until the next is yielded."""
    sh, sw = stride
    if bands is None:
        rows, bands = _bands(xp, kh, kw, ho, wo)
        buf = np.empty((xp.shape[2], xp.shape[1], kh, kw, rows, wo), dtype=xp.dtype)
    cols = buf.reshape(-1, buf.shape[4] * wo)
    for n, y0, y1 in bands:
        band = xp[n, :, :, y0 * sh:(y1 - 1) * sh + kh]
        win = sliding_window_view(band, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
        np.copyto(buf[..., :y1 - y0, :], win.transpose(1, 0, 4, 5, 2, 3))
        yield n, y0, y1, cols[:, :(y1 - y0) * wo]


def _slice_blocks(xp: np.ndarray, kernel_shape, stride: tuple[int, int], t: int,
                  bands=None, buf=None):
    """Yield (n, z, span, taps, block) per band of a padded input (as
    _column_bands) and per output slice z of its valid correlation, t
    implicit zero slices per depth end: block is the band's column rows of
    z's taps [max(0, t-z), min(kD, stored+t-z)), those on stored slices, taps
    their kernel columns, span the band's output positions. Blocks are views
    of one buffer, valid until the next band."""
    _, in_g, kd, kh, kw = kernel_shape
    do, ho, wo = _out_extents(xp.shape, kernel_shape, stride, t)
    per = in_g * kh * kw
    bounds = [(z, max(0, t - z), min(kd, xp.shape[2] + t - z)) for z in range(do)]
    blocks = [(z, slice(k0 * per, k1 * per), slice((z + k0 - t) * per, (z + k1 - t) * per))
              for z, k0, k1 in bounds]
    for n, y0, y1, cols in _column_bands(xp, kh, kw, stride, ho, wo, bands, buf):
        for z, taps, rows in blocks:
            yield n, z, slice(y0 * wo, y1 * wo), taps, cols[rows]


def _kmat(kernel: np.ndarray) -> np.ndarray:
    """(O, kD*C*kH*kW): a kernel's columns in the row order of kD consecutive
    stored slices of the gather."""
    return kernel.transpose(0, 2, 1, 3, 4).reshape(kernel.shape[0], -1)


def conv_forward(x: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                 stride: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Correlate a (N, C, D, H, W) tensor with a bank of 3D filters.

    Depth stride is fixed at 1; `stride` applies to the spatial axes only.
    Output shape is (N, out, D'-kD+1, (H'-kH)//sh+1, (W'-kW)//sw+1) on the
    padded extents.
    """
    kernel = weights.kernel
    in_g = kernel.shape[1]
    if x.ndim != 5:
        raise ValueError(f"input must be rank 5, got shape {x.shape}")
    if x.shape[1] != in_g:
        raise ValueError(f"input has {x.shape[1]} groups, kernel expects {in_g}")
    if min(stride) < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    xp, t = _pad_stored(x, kernel.shape[2], pad)
    padded = (xp.shape[2] + 2 * t,) + xp.shape[3:]
    if any(p < k for p, k in zip(padded, kernel.shape[2:])):
        raise ValueError(f"kernel {kernel.shape[2:]} larger than padded input {padded}")
    return conv_padded(xp, weights, pad, stride)


def conv_padded(xp: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                stride: tuple[int, int] = (1, 1)) -> np.ndarray:
    """conv_forward of an input already in padded_shape's layout for `pad`
    (ZERO's depth slices implicit), unchecked: per band, one GEMM per output
    slice over its stored taps, in place, then the bias; split as the module says."""
    kernel = weights.kernel
    kd, kh, kw = kernel.shape[2:]
    t = _stored_pads(kd, pad)[2]
    kmat, bias = _kmat(kernel), weights.bias.astype(xp.dtype)[:, None]
    out = np.empty((xp.shape[0], kernel.shape[0]) + _out_extents(xp.shape, kernel.shape, stride, t),
                   dtype=xp.dtype)
    planes = out.reshape(out.shape[:3] + (-1,))
    ho, wo = out.shape[3:]

    def run(bands=None, buf=None):
        for n, z, span, taps, block in _slice_blocks(xp, kernel.shape, stride, t, bands, buf):
            np.matmul(kmat[:, taps], block, out=planes[n, :, z, span])
            planes[n, :, z, span] += bias

    rows, bands = _bands(xp, kh, kw, ho, wo, _SPLIT)
    if rows == ho or _IN_PART.get():
        run()
    else:
        parts = np.array_split(bands, min(_workers(), len(bands)))
        bufs = np.empty((len(parts), xp.shape[2], xp.shape[1], kh, kw, rows, wo), dtype=xp.dtype)
        run_parts(lambda i: run(parts[i], bufs[i]), range(len(parts)))
    return out


def conv_backward(x: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                  grad_out: np.ndarray, stride: tuple[int, int] = (1, 1),
                  input_grad: bool = True) -> tuple[np.ndarray | None, ConvWeights]:
    """Exact gradients of a summed scalar loss through conv_forward.

    Returns (grad wrt input, or None without `input_grad`; ConvWeights
    holding kernel/bias gradients). Zero-padded positions contribute nothing
    to the input gradient; duplicated temporal slices fold their gradient
    back onto the edge slices.

    Either way one loop runs over one column gather, each block of which
    meets its paired tensor in a GEMM accumulated into the kernel gradient.
    With `input_grad` the gather is the dilated output gradient's, paired
    with the stored input, and each block also meets the flipped kernel for
    the input gradient; without, it is the padded input's, paired with
    grad_out. The two modes sum the kernel gradient in different orders, so
    in float32 they agree to rounding, not bit for bit.
    """
    kernel = weights.kernel
    out_g, in_g, kd, kh, kw = kernel.shape
    d, s, t = _stored_pads(kd, pad)
    do, ho, wo = _out_extents(padded_shape(x.shape, kd, pad), kernel.shape, stride, t)
    n_b = x.shape[0]
    if grad_out.shape != (n_b, out_g, do, ho, wo):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match output {(n_b, out_g, do, ho, wo)}")
    grad_bias = grad_out.sum(axis=(0, 2, 3, 4), dtype=grad_out.dtype)

    if input_grad:
        # the transposed-convolution identity: the dilated output gradient
        # against the flipped kernel, in/out swapped, with the kd-1-t zero
        # slices it needs at each end of grad_out implicit; the kernel
        # gradient pairs its columns with the stored input, spatially unpadded
        h, w = x.shape[3:]
        src = _dilate_into(grad_out, (h + kh - 1, w + kw - 1), (kh - 1 - s, kw - 1 - s), stride)
        gathered = kernel[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        src_stride, src_t = (1, 1), kd - 1 - t
        paired = x if not d else _pad_stored(x, kd, PadPolicy(0, pad.temporal))[0]
        grad_x = np.empty(paired.shape, dtype=grad_out.dtype)
        grad_planes = grad_x.reshape(paired.shape[:3] + (-1,))
    else:
        # gather the padded input, paired with the output gradient: at layer 0
        # it has far fewer rows than the output gradient
        src, gathered = _pad_stored(x, kd, pad)[0], kernel
        src_stride, src_t, paired, grad_x = stride, t, grad_out, None
    rows, cols = gathered.shape[:2]
    kmat, planes = _kmat(gathered), paired.reshape(paired.shape[:3] + (-1,))
    # accumulated transposed: the tall (taps, P) @ (P, rows) product runs
    # faster than (rows, P) @ (P, taps), and updates a contiguous row range
    grad_kmat_t = np.zeros((kd * cols * kh * kw, rows), dtype=kernel.dtype)
    for n, z, span, taps, block in _slice_blocks(src, gathered.shape, src_stride, src_t):
        if input_grad:
            np.matmul(kmat[:, taps], block, out=grad_planes[n, :, z, span])
        grad_kmat_t[taps] += block @ planes[n, :, z, span].T
    # the gradient of `gathered` in its own layout, unflipped if it is flipped
    grad_kernel = grad_kmat_t.T.reshape(rows, kd, cols, kh, kw).transpose(0, 2, 1, 3, 4)
    if input_grad:
        grad_kernel = grad_kernel[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        grad_x = _unpad_gradient(grad_x, d)
    return grad_x, ConvWeights(grad_kernel, grad_bias)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0. The
    Python scalar 0 takes grad_out's dtype, so no cast is needed."""
    return np.where(x > 0, grad_out, 0)


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


def _dilate_into(g: np.ndarray, extents, offsets, strides) -> np.ndarray:
    """Zeros of (N, C, D) + extents holding g[:, :, :, j, k] at offset +
    index * stride on each of the two spatial axes; entries that land
    outside are dropped, as they reach only padded input positions."""
    out = np.zeros(g.shape[:3] + tuple(extents), dtype=g.dtype)
    src, dst = [slice(None)] * 3, [slice(None)] * 3
    for n, size, off, st in zip(g.shape[3:], extents, offsets, strides):
        i0 = max(0, -(off // st))
        count = max(0, min(n, (size - 1 - off) // st + 1) - i0)
        src.append(slice(i0, i0 + count))
        dst.append(slice(off + i0 * st, off + (i0 + count) * st, st))
    out[tuple(dst)] = g[tuple(src)]
    return out


def _unpad_gradient(grad: np.ndarray, d: int) -> np.ndarray:
    """Fold the gradient of DUPLICATE's d added depth slices at each end onto
    the edge slices they copy and drop them; with d = 0 it passes through."""
    if not d:
        return grad
    core = grad[:, :, d:-d].copy()
    core[:, :, 0] += grad[:, :, :d].sum(axis=2)
    core[:, :, -1] += grad[:, :, -d:].sum(axis=2)
    return core
