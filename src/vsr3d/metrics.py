"""Luma PSNR/SSIM with border cropping.

PSNR is 10*log10(1/MSE) on [0,1] data, +inf when the planes agree exactly.
SSIM is the mean of local scores under an 11x11 Gaussian window (sigma 1.5,
K1=0.01, K2=0.03, dynamic range 1), windows slid over every valid position.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frames import Frame

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _cropped_luma(a: Frame, b: Frame, border: int) -> tuple[np.ndarray, np.ndarray]:
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"geometry mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")
    if border < 0:
        raise ValueError("border must be >= 0")
    if a.height <= 2 * border or a.width <= 2 * border:
        raise ValueError(f"border {border} leaves no pixels on a {a.width}x{a.height} frame")
    sl = slice(border, -border) if border else slice(None)
    return (np.asarray(a.luma[sl, sl], dtype=np.float64),
            np.asarray(b.luma[sl, sl], dtype=np.float64))


def psnr(a: Frame, b: Frame, border: int = 0) -> float:
    pa, pb = _cropped_luma(a, b, border)
    mse = float(np.mean((pa - pb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    win = np.outer(g, g)
    return win / win.sum()


def _filter_valid(img: np.ndarray, g1d: np.ndarray) -> np.ndarray:
    # separable valid-mode correlation, one axis at a time
    out = sliding_window_view(img, g1d.size, axis=0) @ g1d
    return sliding_window_view(out, g1d.size, axis=1) @ g1d


def ssim(a: Frame, b: Frame, border: int = 0) -> float:
    pa, pb = _cropped_luma(a, b, border)
    if min(pa.shape) < SSIM_WINDOW:
        raise ValueError(
            f"cropped frame {pa.shape[1]}x{pa.shape[0]} is smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    r = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    g /= g.sum()  # separable factors of gaussian_window()
    c1 = (SSIM_K1 * 1.0) ** 2
    c2 = (SSIM_K2 * 1.0) ** 2
    mu_a = _filter_valid(pa, g)
    mu_b = _filter_valid(pb, g)
    var_a = _filter_valid(pa * pa, g) - mu_a * mu_a
    var_b = _filter_valid(pb * pb, g) - mu_b * mu_b
    cov = _filter_valid(pa * pb, g) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def format_metric(value: float) -> str:
    """CSV cell for a metric value, four decimals; +inf prints as the literal 'inf'."""
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


def metrics_csv(rows) -> str:
    """UTF-8 CSV body for per-frame results.

    Rows are (sequence, frame_index, psnr_db, ssim) tuples; aggregation stays
    with the caller so the frame order in the file is the clip order.
    """
    lines = ["sequence,frame,psnr_db,ssim"]
    for seq, idx, p, s in rows:
        lines.append(f"{seq},{idx},{format_metric(p)},{format_metric(s)}")
    return "\n".join(lines) + "\n"
