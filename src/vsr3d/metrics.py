"""Luma PSNR/SSIM with border cropping.

PSNR is 10*log10(1/MSE) on [0,1] data, +inf when the planes agree exactly.
SSIM is the mean of local scores under an 11x11 Gaussian window (sigma 1.5,
K1=0.01, K2=0.03, dynamic range 1), windows slid over every valid position.
The window is separable: in strips of _STRIP output rows, converted to
float64 one strip at a time, four maps are filtered one axis at a time by
the resampler's banded filter (bicubic._tap_filter) with the tap function
_window_taps (valid taps i..i+10 for output i): the two planes, their
product, and the sum of their squares, since only var_a + var_b enters the
score and the filter is linear. The window's full blocks share one matrix,
so a map's row pass is one matmul call over them: under 200 calls per 720p
frame, not about 2,000. The per-pixel score is then formed in place.
Full-frame maps were slower: each fresh 7 MB 720p map costs page faults.
"""

import csv
import io
import math

import numpy as np

from .bicubic import _tap_filter
from .frames import Frame

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_STRIP = 64   # SSIM output rows per pass, so the moment maps stay cache-sized


def _cropped_luma(a: Frame, b: Frame, border: int) -> tuple[np.ndarray, np.ndarray]:
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"geometry mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")
    if border < 0:
        raise ValueError("border must be >= 0")
    if a.height <= 2 * border or a.width <= 2 * border:
        raise ValueError(f"border {border} leaves no pixels on a {a.width}x{a.height} frame")
    sl = slice(border, -border) if border else slice(None)
    return a.luma[sl, sl], b.luma[sl, sl]


def psnr(a: Frame, b: Frame, border: int = 0) -> float:
    pa, pb = _cropped_luma(a, b, border)
    diff = np.subtract(pa, pb, dtype=np.float64)
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def mean_psnr(values) -> float:
    """Mean of the finite PSNRs; +inf when there are none (every frame exact)."""
    finite = [v for v in values if math.isfinite(v)]
    return float(np.mean(finite)) if finite else math.inf


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    win = np.outer(g, g)
    return win / win.sum()


def _window_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The separable SSIM Gaussian as resampling taps (bicubic_taps'
    contract): output i reads inputs i..i+SSIM_WINDOW-1."""
    r = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    g /= g.sum()  # separable factors of gaussian_window()
    idx = np.arange(n_out)[:, None] + np.arange(SSIM_WINDOW)
    return idx, np.broadcast_to(g, idx.shape)


def ssim(a: Frame, b: Frame, border: int = 0) -> float:
    pa, pb = _cropped_luma(a, b, border)
    if min(pa.shape) < SSIM_WINDOW:
        raise ValueError(
            f"cropped frame {pa.shape[1]}x{pa.shape[0]} is smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    h, w = (n - SSIM_WINDOW + 1 for n in pa.shape)
    total = 0.0
    for lo in range(0, h, _STRIP):
        rows = slice(lo, min(lo + _STRIP, h) + SSIM_WINDOW - 1)
        total += _ssim_sum(np.asarray(pa[rows], dtype=np.float64),
                           np.asarray(pb[rows], dtype=np.float64))
    return float(total / (h * w))


def _ssim_sum(pa: np.ndarray, pb: np.ndarray) -> float:
    """Sum of the local SSIM scores over every valid window of two strips."""
    h, w = (n - SSIM_WINDOW + 1 for n in pa.shape)

    def blur(img):
        return _tap_filter(_tap_filter(img, h, _window_taps, 0), w, _window_taps, 1)

    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2   # (K * L)^2 at dynamic range L = 1
    mu_a, mu_b = blur(pa), blur(pb)
    num = mu_a * mu_b
    mu_a *= mu_a
    mu_b *= mu_b
    mu_a += mu_b       # mu_a^2 + mu_b^2 from here on
    sq = pa * pa
    sq += pb * pb
    var = blur(sq)     # var_a + var_b + c2
    var -= mu_a
    var += c2
    cov = blur(np.multiply(pa, pb, out=sq))   # 2 cov + c2
    cov -= num
    cov *= 2.0
    cov += c2
    num *= 2.0         # (2 mu_a mu_b + c1)(2 cov + c2)
    num += c1
    num *= cov
    mu_a += c1         # over (mu_a^2 + mu_b^2 + c1)(var_a + var_b + c2)
    mu_a *= var
    num /= mu_a
    return float(num.sum())


def format_metric(value: float) -> str:
    """CSV cell for a metric value, four decimals; +inf prints as the literal 'inf'."""
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


def metrics_csv(rows) -> str:
    """UTF-8 CSV body for per-frame results.

    Rows are (sequence, frame_index, psnr_db, ssim) tuples; aggregation stays
    with the caller so the frame order in the file is the clip order. A cell
    holding a comma, quote or newline (a sequence name can) is quoted as
    RFC 4180 asks; every other cell is written as it is.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("sequence", "frame", "psnr_db", "ssim"))
    writer.writerows((seq, idx, format_metric(p), format_metric(s)) for seq, idx, p, s in rows)
    return out.getvalue()
