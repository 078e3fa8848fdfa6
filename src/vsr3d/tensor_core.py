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

That stored layout is padded_shape's; padded returns an input's copy in
it (spatial border zeroed, DUPLICATE's slices copied), and conv_padded runs
a layer on such a copy. conv_padded can also write its output's ReLU into
the next layer's buffer of that layout (relu_into), from each band while
the band is in cache, with no padded copy; DUPLICATE's edge slices of that
buffer are copied once, after the bands. The model's layer loop runs on two
such buffers in turn, and pads only the stack's input; conv_forward pads
its input for single calls, and conv_backward only where it needs it.

- The forward makes one GEMM per band and output slice, its stored taps'
  kernel columns against their row block of the gather, written in place
  in (O, H, W) order. Then the band gets its bias in one add and, with
  relu_into, its ReLU. Without a kept output the GEMMs write into a
  one-band scratch, so an inference layer makes no preactivation array.
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

Every conv call cuts each sample's output rows into near-equal bands by one
rule, from the layer's shape alone. The band count is the fewest whose
bands fit a byte budget, so that the gather's writes are still in cache when
the GEMMs read them back, but never so many that a band covers fewer
positions than a floor, below which the GEMMs run short of their full rate
and can round differently (a forty-row training patch's 32-group layers get
13, 13 and 14 rows, not the budget's 9). Bands never span samples: each GEMM
covers one sample anyway, and one buffer reused for every band stays mapped
and cached, where a batch-wide band would not.

Every conv call owns the buffer it gathers into. A conv_padded call outside
run_parts' parts whose samples span two or more bands runs its (sample,
band) list as contiguous parts, taken by the calling thread and helpers that
live for the call, one per further core, their GEMMs on one BLAS thread
(from the first such call on, the process's OpenBLAS runs one thread, with
no worker pool). The parts share out the same bands whatever their count,
so no core or thread count changes a bit. Each part gathers into a band
buffer, and writes into a scratch band, that the caller allocates (a
helper's malloc arena would keep them); the parts' bands cover disjoint rows
of the output and of relu_into. Other calls, and all without OpenBLAS
control, run in the calling thread.

The first top-level run_parts call also fixes glibc's malloc thresholds for
the process (mmap 32 MiB, trim 64 MiB, through mallopt), so the heap top
that a layer or micro-batch frees stays mapped for the next one instead of
being handed back and faulted again; where no mallopt is found, malloc keeps
its own rule.
"""

import collections
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
# the fewest output positions a band's GEMMs cover (the floor wins). OpenBLAS
# runs an (M x K) @ (K x N) GEMM with M*N*K up to 10**6 on small-matrix
# kernels whose float32 results depend on N (scipy-openblas 0.3.31); above
# it a column rounds as in one wide call. At 512 positions every band GEMM
# of the model's layers is above it (the 96->4 layer's 4 x 512 x 864 is
# 1.8e6), and the first layer's bands, of one input group, are budget-wide,
# so a forward's bytes do not depend on how its rows are cut.
_WINDOW_BUDGET_BYTES = 2 * 1024 * 1024
_MIN_BAND_POSITIONS = 512
# glibc's malloc thresholds, fixed once per process (mallopt's parameter
# numbers, then values): mmap at glibc's 64-bit ceiling, trim at twice that,
# the ratio of glibc's own dynamic rule, which setting either one switches off
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES
_PARTS_LOCK = threading.Lock()  # one top-level run_parts at a time: sets malloc, BLAS, helpers
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
    """(get, set) of the thread count of the OpenBLAS mapped into this process,
    through ctypes, None where none is found; set(1) also ends its worker pool,
    which at one thread does nothing but spin for ~120 ms after it starts."""
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
                end = getattr(lib, "blas_thread_shutdown_", None)
                def set_count(count):  # the count first: a set restarts an ended pool
                    put(count)
                    if count == 1 and end:
                        end()
                return get, set_count
    return None


@functools.cache
def _malloc_thresholds():
    """Fix glibc's mmap and trim thresholds for the process, through mallopt
    via ctypes; nothing where mallopt is not found. Left dynamic, both stay
    small: the heap top goes back to the kernel after each micro-batch and
    layer, and the next one faults the same pages again."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _workers() -> int:
    """Usable cores (a part call's threads, a split's parts), capped by a positive
    integer OPENBLAS_NUM_THREADS, or else OMP_NUM_THREADS."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdecimal() and int(value) > 0:
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
    part, one caller at a time: the first such call fixes glibc's malloc
    thresholds for the process, and with OpenBLAS thread control found, up
    to _workers() - 1 helpers started for the call take parts too, joined
    even on an error or interrupt, after each finishes only the part it is
    in; OpenBLAS is set to one thread first, and left there for good."""
    ctx = contextvars.copy_context()
    ctx.run(_IN_PART.set, True)
    parts = [functools.partial(ctx.copy().run, fn, item) for item in items]
    # a slot for every outcome before any helper starts: storing one allocates nothing
    lost = MemoryError("a part's helper thread ended before storing its outcome")
    results, errors = [None] * len(parts), [lost] * len(parts)
    claims = iter(range(len(parts)))
    loop = (parts, claims, results, errors)
    if _IN_PART.get():  # a nested call: no helper
        _drain(*loop)
    else:
        with _PARTS_LOCK:
            _malloc_thresholds()
            blas = _blas_threads()
            helpers = []
            try:
                if blas is not None:  # without BLAS control: no helper
                    get, put = blas
                    if get() > 1:  # only if raised: each set starts a pool that spins
                        put(1)
                    for _ in range(min(_workers(), len(parts)) - 1):
                        helper = threading.Thread(target=_drain, args=loop, name="vsr3d-step")
                        try:
                            helper.start()
                        except RuntimeError:  # no thread to be had: the others take its parts
                            break
                        helpers.append(helper)
                _drain(*loop)
            finally:
                collections.deque(claims, maxlen=0)  # after an interrupt: no helper takes another
                for helper in helpers:
                    helper.join()
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


def padded(x: np.ndarray, kernel_depth: int, pad: PadPolicy) -> np.ndarray:
    """x's copy in the layout conv_padded reads (padded_shape's): x inside,
    zeros on the spatial border, and DUPLICATE's copies of the edge slices."""
    d, s, _ = _stored_pads(kernel_depth, pad)
    buf = np.empty(padded_shape(x.shape, kernel_depth, pad), dtype=x.dtype)
    _, _, dp, hp, wp = buf.shape
    np.copyto(buf[:, :, d:dp - d, s:hp - s, s:wp - s], x)
    zero_border(buf, s)
    if d:
        _copy_edge_slices(buf, d)
    return buf


def zero_border(buf: np.ndarray, s: int) -> np.ndarray:
    """Zero the s rows and columns on each spatial side of buf; returns buf."""
    if s:
        hp, wp = buf.shape[3:]
        buf[..., :s, :] = buf[..., hp - s:, :] = 0
        buf[..., :s] = buf[..., wp - s:] = 0
    return buf


def _copy_edge_slices(buf: np.ndarray, d: int):
    """DUPLICATE's d > 0 added depth slices at each end copy the edge slice beside them."""
    buf[:, :, :d] = buf[:, :, d:d + 1]
    buf[:, :, -d:] = buf[:, :, -d - 1:-d]


def _bands(xp: np.ndarray, kh: int, kw: int, ho: int, wo: int):
    """(bands, buf): each sample n's bands (n, y0, y1) of ho output rows of a
    padded input, and a buffer that holds the widest band's gather. The
    count is the fewest bands of at most the budget's rows, capped so that
    none covers fewer than the floor's positions (an output under the floor
    is one band), and the rows are cut near-equally among them."""
    _, in_g, dp = xp.shape[:3]
    row_bytes = dp * in_g * kh * kw * wo * xp.dtype.itemsize
    floor = -(-_MIN_BAND_POSITIONS // wo)
    rows = max(_WINDOW_BUDGET_BYTES // row_bytes, floor)
    count = max(min(-(-ho // rows), ho // floor), 1)
    edges = [ho * i // count for i in range(count + 1)]
    bands = [(n, y0, y1) for n in range(len(xp)) for y0, y1 in itertools.pairwise(edges)]
    return bands, np.empty((dp, in_g, kh, kw, -(-ho // count), wo), dtype=xp.dtype)


def _column_bands(xp: np.ndarray, kh: int, kw: int, stride: tuple[int, int], ho: int, wo: int,
                  bands, buf):
    """Yield (n, y0, y1, cols) for `bands` of a padded input, gathered into
    `buf` (both as _bands makes them): cols is (D*C*kH*kW, (y1-y0)*wo), one
    row block of C*kH*kW per stored depth slice, each copied run reading
    along one row of W. Every band is a view of buf, valid until the next."""
    sh, sw = stride
    cols = buf.reshape(-1, buf.shape[4] * wo)
    # (N, D, C, kH, kW, ho, wo): every window of the input, one view for all bands
    win = sliding_window_view(xp, (kh, kw), axis=(3, 4))[:, :, :, ::sh, ::sw]
    win = win.transpose(0, 2, 1, 5, 6, 3, 4)
    for n, y0, y1 in bands:
        np.copyto(buf[..., :y1 - y0, :], win[n, ..., y0:y1, :])
        yield n, y0, y1, cols[:, :(y1 - y0) * wo]


@functools.cache
def _tap_blocks(stored: int, kernel_shape, t: int) -> tuple:
    """(z, taps, rows) per output slice z of a valid correlation over `stored`
    depth slices and t implicit zero slices per end: its taps [max(0, t-z),
    min(kD, stored+t-z)), those on stored slices, as kernel columns, and
    their rows of a band's gather (as _column_bands yields it)."""
    _, in_g, kd, kh, kw = kernel_shape
    per = in_g * kh * kw
    bounds = [(z, max(0, t - z), min(kd, stored + t - z)) for z in range(stored + 2 * t - kd + 1)]
    return tuple((z, slice(k0 * per, k1 * per), slice((z + k0 - t) * per, (z + k1 - t) * per))
                 for z, k0, k1 in bounds)


def _kmat(kernel: np.ndarray) -> np.ndarray:
    """(O, kD*C*kH*kW): a kernel's columns in the row order of kD consecutive
    stored slices of the gather."""
    return kernel.transpose(0, 2, 1, 3, 4).reshape(kernel.shape[0], -1)


def _check_input(x: np.ndarray, kernel: np.ndarray, stride: tuple[int, int]):
    """Refuse what no conv pass can run: a rank other than 5, a group count
    the kernel does not take, or a stride below 1."""
    if x.ndim != 5:
        raise ValueError(f"input must be rank 5, got shape {x.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise ValueError(f"input has {x.shape[1]} groups, kernel expects {kernel.shape[1]}")
    if min(stride) < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def conv_forward(x: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                 stride: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Correlate a (N, C, D, H, W) tensor with a bank of 3D filters.

    Depth stride is fixed at 1; `stride` applies to the spatial axes only.
    Output shape is (N, out, D'-kD+1, (H'-kH)//sh+1, (W'-kW)//sw+1) on the
    padded extents.
    """
    kernel = weights.kernel
    kd = kernel.shape[2]
    _check_input(x, kernel, stride)
    stored = padded_shape(x.shape, kd, pad)
    if min(conv_out_shape(stored, kernel.shape, pad, stride)[2:]) < 1:
        extents = (stored[2] + 2 * _stored_pads(kd, pad)[2],) + stored[3:]
        raise ValueError(f"kernel {kernel.shape[2:]} larger than padded input {extents}")
    return conv_padded(padded(x, kd, pad), weights, pad, stride)


def conv_out_shape(xp_shape, kernel_shape, pad: PadPolicy,
                   stride: tuple[int, int] = (1, 1)) -> tuple[int, ...]:
    """Shape of conv_padded's output for an input of padded shape xp_shape:
    a valid correlation over its extents, ZERO's implicit depth slices
    included."""
    t = _stored_pads(kernel_shape[2], pad)[2]
    (dp, hp, wp), (kd, kh, kw), (sh, sw) = xp_shape[2:], kernel_shape[2:], stride
    return (xp_shape[0], kernel_shape[0], dp + 2 * t - kd + 1, (hp - kh) // sh + 1,
            (wp - kw) // sw + 1)


def conv_padded(xp: np.ndarray, weights: ConvWeights, pad: PadPolicy,
                stride: tuple[int, int] = (1, 1), relu_into: np.ndarray | None = None,
                keep: bool = True) -> np.ndarray | None:
    """conv_forward of an input already in padded_shape's layout for `pad`
    (ZERO's depth slices implicit), unchecked: per band, one GEMM per output
    slice over its stored taps, in place, then one bias add; its bands
    split into parts as the module says.

    relu_into, a C-contiguous buffer in padded_shape's layout for the
    output (or for its depth flatten) with a zero spatial border, gets each
    band's max(0, out) in its interior rows while the band is in cache;
    DUPLICATE's edge slices are copied once all bands are done. Without
    `keep` the output is not made (None is returned): each part's GEMMs
    write into a one-band scratch."""
    kernel = weights.kernel
    n_b, o, do, ho, wo = conv_out_shape(xp.shape, kernel.shape, pad, stride)
    kh, kw = kernel.shape[3:]
    kmat, bias = _kmat(kernel), weights.bias.astype(xp.dtype)[:, None, None]
    blocks = _tap_blocks(xp.shape[2], kernel.shape, _stored_pads(kernel.shape[2], pad)[2])
    out = np.empty((n_b, o, do, ho, wo), dtype=xp.dtype) if keep else None
    planes = out.reshape(n_b, o, do, -1) if keep else None
    if relu_into is not None:  # its border widths follow from the shapes
        s = (relu_into.shape[3] - ho) // 2
        nxt = relu_into.reshape((n_b, o, -1) + relu_into.shape[3:])
        d = (nxt.shape[2] - do) // 2
        inner = nxt[:, :, d:d + do, s:s + ho, s:s + wo]

    def run(bands, buf, scratch):
        for n, y0, y1, band in _column_bands(xp, kh, kw, stride, ho, wo, bands, buf):
            pre = planes[n, :, :, y0 * wo:y1 * wo] if keep else scratch[..., :band.shape[1]]
            for z, taps, rows in blocks:
                np.matmul(kmat[:, taps], band[rows], out=pre[:, z])
            pre += bias
            if relu_into is not None:
                np.maximum(pre.reshape(o, do, y1 - y0, wo), 0, out=inner[n, :, :, y0:y1])

    workers = 1 if _IN_PART.get() or _blas_threads() is None else _workers()
    bands, buf = _bands(xp, kh, kw, ho, wo)
    scratch = None if keep else np.empty((o, do, buf.shape[4] * wo), dtype=xp.dtype)
    if len(bands) == len(xp) or workers == 1:
        run(bands, buf, scratch)
    else:
        parts = np.array_split(bands, min(workers, len(bands)))
        work = [(buf, scratch)] + [(np.empty_like(buf), None if keep else np.empty_like(scratch))
                                   for _ in parts[1:]]
        run_parts(lambda i: run(parts[i], *work[i]), range(len(parts)))
    if relu_into is not None and d:
        _copy_edge_slices(nxt, d)
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
    kd, kh, kw = kernel.shape[2:]
    _check_input(x, kernel, stride)
    d, s, t = _stored_pads(kd, pad)
    out_shape = conv_out_shape(padded_shape(x.shape, kd, pad), kernel.shape, pad, stride)
    if grad_out.shape != out_shape:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match output {out_shape}")
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
        paired = x if not d else padded(x, kd, PadPolicy(0, pad.temporal))
        grad_x = np.empty(paired.shape, dtype=grad_out.dtype)
        grad_planes = grad_x.reshape(paired.shape[:3] + (-1,))
    else:
        # gather the padded input, paired with the output gradient: at layer 0
        # it has far fewer rows than the output gradient
        src, gathered = padded(x, kd, pad), kernel
        src_stride, src_t, paired, grad_x = stride, t, grad_out, None
    rows, cols = gathered.shape[:2]
    kmat, planes = _kmat(gathered), paired.reshape(paired.shape[:3] + (-1,))
    # accumulated transposed: the tall (taps, P) @ (P, rows) product runs
    # faster than (rows, P) @ (P, taps), and updates a contiguous row range
    grad_kmat_t = np.zeros((kd * cols * kh * kw, rows), dtype=kernel.dtype)
    # the gather's output positions are paired's: the input's, or grad_out's
    extents = paired.shape[3:]
    blocks = _tap_blocks(src.shape[2], gathered.shape, src_t)
    for n, y0, y1, band in _column_bands(src, kh, kw, src_stride, *extents,
                                         *_bands(src, kh, kw, *extents)):
        span = slice(y0 * extents[1], y1 * extents[1])
        for z, taps, at in blocks:
            block = band[at]
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
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0 (+0.0).
    The mask is applied to grad_out's bits: x > 0 as an unsigned int of
    grad_out's width, negated to all ones or all zeros, and-ed with them,
    which equals np.where(x > 0, grad_out, 0) bit for bit and runs faster."""
    bits = f"u{grad_out.itemsize}"
    mask = np.greater(x, 0).astype(bits)
    np.negative(mask, out=mask)
    return np.bitwise_and(mask, grad_out.view(bits), out=mask).view(grad_out.dtype)


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
