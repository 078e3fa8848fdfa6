"""Separable cubic resampling with the a = -0.5 kernel.

One kernel, with the conventions most SR evaluations assume: pixel-centre
coordinate mapping u = (i + 0.5) * (nIn / nOut) - 0.5, kernel support widened
by the inverse scale when shrinking (antialias), per-output-sample weights
renormalised to sum to 1, out-of-range taps clamped to the edge sample, and
the final plane clipped to [0, 1]. All arithmetic is float64 internally.
bicubic_upscale is the base every SR output is a residual on; upscale_chroma
sizes a frame's chroma to the 4:2:0 extent of the luma it joins.

Each axis is one banded GEMM: per block of _BLOCK outputs, the taps are
folded (clamped edge taps summed) into a small dense matrix over the span of
input rows or columns they touch, and the block is one matmul over that span
(cache blocking, Goto and van de Geijn 2008). Only these per-block bands are
kept, cached per (n_in, n_out, taps), where taps is a module-level tap
function such as bicubic_taps, so equal calls find the same key. A run of
equal blocks, each span one block on, keeps one matrix and runs along axis 1
as one matmul call over a strided stack of its spans (the same GEMMs and
bytes): SSIM's full blocks (metrics._window_taps), but of resizes only a
same-size one's inner blocks, as a block's span moves _BLOCK / scale inputs.
"""

from functools import lru_cache
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frames import Frame, VideoClip, chroma_extent
from .tensor_core import run_parts

_SUPPORT = 2.0  # half-width of the cubic kernel
CUBIC_A = -0.5
_BLOCK = 32      # outputs per GEMM block


def cubic(t: np.ndarray) -> np.ndarray:
    """Piecewise cubic, a = CUBIC_A: (a+2)|t|^3-(a+3)|t|^2+1 to |t|=1, the a-branch to 2."""
    a = CUBIC_A
    t = np.abs(np.asarray(t, dtype=np.float64))
    t2 = t * t
    t3 = t2 * t
    near = (a + 2.0) * t3 - (a + 3.0) * t2 + 1.0
    far = a * t3 - 5.0 * a * t2 + 8.0 * a * t - 4.0 * a
    return np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))


def bicubic_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Tap indices and normalized weights of the cubic kernel for one axis.

    Returns (idx, wts), each (n_out, taps). Indices are raw grid
    positions and may fall outside [0, n_in); callers clamp them, which
    realises the replicated-edge boundary.
    """
    if n_out < 1:
        raise ValueError("output extent must be >= 1")
    scale = n_out / n_in
    if scale < 1.0:
        kscale = scale
        width = 2.0 * _SUPPORT / scale
    else:
        kscale = 1.0
        width = 2.0 * _SUPPORT
    u = (np.arange(n_out, dtype=np.float64) + 0.5) / scale - 0.5
    taps = int(np.ceil(width)) + 2
    left = np.floor(u - width / 2.0).astype(np.int64)
    idx = left[:, None] + np.arange(taps, dtype=np.int64)[None, :]
    wts = cubic(kscale * (u[:, None] - idx))
    wts /= wts.sum(axis=1, keepdims=True)
    return idx, wts


@lru_cache(maxsize=64)
def _bands(n_in: int, n_out: int, taps) -> tuple:
    """(first output, first input, dense weights) per block of _BLOCK outputs;
    a block equal to the one before, its span one block on, shares its array."""
    idx, wts = taps(n_in, n_out)
    idx = np.clip(idx, 0, n_in - 1)
    bands = []
    for lo in range(0, n_out, _BLOCK):
        i, w = idx[lo:lo + _BLOCK], wts[lo:lo + _BLOCK]
        first = int(i.min())
        dense = np.zeros((len(i), int(i.max()) + 1 - first))
        np.add.at(dense, (np.arange(len(i))[:, None], i - first), w)
        if bands and bands[-1][1] + _BLOCK == first and np.array_equal(bands[-1][2], dense):
            dense = bands[-1][2]
        dense.flags.writeable = False
        bands.append((lo, first, dense))
    return tuple(bands)


def _tap_filter(plane: np.ndarray, n_out: int, taps, axis: int) -> np.ndarray:
    """Apply the taps of a tap function with bicubic_taps' contract along
    `axis` of a float64 plane: one matmul call per block, or along axis 1
    per run of two or more blocks sharing an array."""
    shape = list(plane.shape)
    n_in, shape[axis] = shape[axis], n_out
    out = np.empty(shape)
    for _, run in groupby(_bands(n_in, n_out, taps), key=lambda band: id(band[2])):
        run = list(run)
        if axis == 1 and len(run) > 1:
            lo, first, dense = run[0]
            block, span = dense.shape
            spans = sliding_window_view(plane[:, first:], span, axis=1)[:, ::block][:, :len(run)]
            np.matmul(spans.transpose(1, 0, 2), dense.T, out=out[:, lo:lo + block * len(run)]
                      .reshape(len(out), -1, block).transpose(1, 0, 2))
            continue
        for lo, first, dense in run:
            hi, span = lo + dense.shape[0], slice(first, first + dense.shape[1])
            if axis == 0:
                np.matmul(dense, plane[span], out=out[lo:hi])
            else:
                np.matmul(plane[:, span], dense.T, out=out[:, lo:hi])
    return out


def resize_plane(plane, out_h: int, out_w: int) -> np.ndarray:
    """Resize one 2D plane; float64 result clipped to [0, 1]."""
    p = np.asarray(plane, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"expected a 2D plane, got shape {p.shape}")
    p = _tap_filter(_tap_filter(p, out_h, bicubic_taps, axis=0), out_w, bicubic_taps, axis=1)
    return np.clip(p, 0.0, 1.0, out=p)


def bicubic_resize(frame: Frame, out_w: int, out_h: int) -> Frame:
    """Resize a frame's luma to out_w x out_h. Chroma is not carried over;
    it travels through upscale_chroma so the two paths stay independent."""
    return Frame(resize_plane(frame.luma, out_h, out_w))


def bicubic_upscale(frame: Frame, scale: int) -> Frame:
    """The luma upscaled by an integer scale: the base an SR output is a residual on."""
    return bicubic_resize(frame, frame.width * scale, frame.height * scale)


def upscale_chroma(frame: Frame, hr_luma) -> Frame:
    """`hr_luma` with the frame's chroma planes resized to its 4:2:0 extent."""
    if frame.chroma is None:
        raise ValueError("frame has no chroma planes")
    ch, cw = chroma_extent(*np.shape(hr_luma))
    u, v = frame.chroma
    return Frame(hr_luma, (resize_plane(u, ch, cw), resize_plane(v, ch, cw)))


def degrade_clip(clip, scale: int):
    """LR version of a clip: crop luma to a multiple of scale, then shrink.

    Standard degradation for training data and for training-free baselines;
    chroma is dropped (the evaluation pipeline is luma-only).
    """
    if min(clip.height, clip.width) < scale:
        raise ValueError(f"clip {clip.width}x{clip.height} is smaller than scale {scale}")
    h = clip.height - clip.height % scale
    w = clip.width - clip.width % scale
    frames = run_parts(lambda f: Frame(resize_plane(f.luma[:h, :w], h // scale, w // scale)),
                       clip.frames)
    return VideoClip(frames, clip.frame_rate)
