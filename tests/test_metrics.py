import csv
import io
import math

import numpy as np
import pytest

from vsr3d import bicubic, metrics
from vsr3d.bicubic import bicubic_resize
from vsr3d.frames import Frame
from vsr3d.metrics import format_metric, gaussian_window, metrics_csv, psnr, ssim
from vsr3d.reference import ssim_window_loop


def textured(h, w, seed=0):
    """Smooth blobs plus mild noise, a stand-in for natural luma."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    img = 0.5 + 0.3 * np.sin(xx / 7.0) * np.cos(yy / 5.0)
    img += 0.05 * rng.standard_normal((h, w))
    return Frame(np.clip(img, 0.0, 1.0))


class TestPsnr:
    def test_identical_is_infinite(self):
        f = textured(16, 16)
        assert psnr(f, f) == math.inf

    def test_uniform_one_lsb_difference(self):
        a = Frame(np.zeros((12, 12)))
        b = Frame(np.full((12, 12), 1.0 / 255.0))
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-3)

    def test_symmetric(self):
        a, b = textured(20, 14, 1), textured(20, 14, 2)
        assert psnr(a, b) == psnr(b, a)

    def test_border_crop_excludes_edges(self):
        base = np.full((10, 10), 0.5)
        dirty = base.copy()
        dirty[0, :] = 1.0
        dirty[:, -1] = 0.0
        assert psnr(Frame(base), Frame(dirty), border=1) == math.inf
        assert psnr(Frame(base), Frame(dirty), border=0) < 30.0

    def test_more_noise_means_lower_psnr(self):
        rng = np.random.default_rng(7)
        a = textured(32, 32, 3)
        small = Frame(np.clip(a.luma + 0.01 * rng.standard_normal(a.luma.shape), 0, 1))
        large = Frame(np.clip(a.luma + 0.10 * rng.standard_normal(a.luma.shape), 0, 1))
        assert psnr(a, small) > psnr(a, large)

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(Frame(np.zeros((8, 8))), Frame(np.zeros((8, 10))))

    def test_border_eating_everything_rejected(self):
        f = Frame(np.zeros((6, 6)))
        with pytest.raises(ValueError):
            psnr(f, f, border=3)


class TestSsim:
    def test_identical_is_exactly_one(self):
        f = textured(24, 24, 5)
        assert ssim(f, f) == 1.0

    def test_symmetric(self):
        a, b = textured(24, 24, 1), textured(24, 24, 2)
        assert ssim(a, b) == ssim(b, a)

    def test_second_ssim_of_the_same_geometry_reuses_the_bands(self):
        a, b = textured(43, 31, 3), textured(43, 31, 4)
        ssim(a, b)
        misses = bicubic._bands.cache_info().misses
        ssim(b, a)
        assert bicubic._bands.cache_info().misses == misses

    def test_window_normalized(self):
        win = gaussian_window()
        assert win.shape == (11, 11)
        assert win.sum() == pytest.approx(1.0, abs=1e-12)
        assert win[5, 5] == win.max()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sliding_window_oracle(self, seed):
        a, b = textured(20, 15, seed), textured(20, 15, seed + 10)
        want = ssim_window_loop(a.luma, b.luma, gaussian_window())
        assert ssim(a, b) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("border", [0, 3])
    def test_matches_window_oracle_across_blocks_and_strips(self, small_blocks, monkeypatch,
                                                            border):
        monkeypatch.setattr(metrics, "_STRIP", 7)
        a, b = textured(30, 26, 4), textured(30, 26, 14)
        sl = slice(border, -border) if border else slice(None)
        want = ssim_window_loop(a.luma[sl, sl], b.luma[sl, sl], gaussian_window())
        assert ssim(a, b, border=border) == pytest.approx(want, abs=1e-12)
        h, w = 20 - 2 * border, 16 - 2 * border   # valid windows
        assert h in (20, 14)   # strips of 7, 7, 6 rows and of 7, 7
        window = metrics._window_taps
        assert len(bicubic._bands(7 + 10, 7, window)) == 2
        assert len(bicubic._bands(w + 10, w, window)) == -(-w // small_blocks) > 1

    @pytest.mark.parametrize("strip", [1, 4])
    @pytest.mark.parametrize("width", [13, 20, 22])
    def test_stacked_row_pass_matches_per_block_filter(self, small_blocks, monkeypatch, strip,
                                                       width):
        # valid widths 3 (no full block), 10 (two full blocks) and 12 (a short
        # last block); 9 valid rows in strips of 1 row, or of 4, 4 and 1
        monkeypatch.setattr(metrics, "_STRIP", strip)
        a, b = textured(19, width, 6), textured(19, width, 16)
        got = ssim(a, b)
        assert got == pytest.approx(ssim_window_loop(a.luma, b.luma, gaussian_window()),
                                    abs=1e-9)
        real = bicubic._bands

        def copies(*key):   # no two blocks share an array: one call per block
            return tuple((lo, first, dense.copy()) for lo, first, dense in real(*key))
        copies.cache_clear = real.cache_clear
        monkeypatch.setattr(bicubic, "_bands", copies)
        assert got.hex() == ssim(a, b).hex()

    def test_row_pass_is_one_matmul_call_per_map_and_strip(self, monkeypatch):
        # 720 rows are 12 strips of 4 maps, each one or two calls per axis;
        # one call per block of 32 outputs would be about 2,000
        real, calls = np.matmul, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        a, b = textured(720, 1280, 1), textured(720, 1280, 2)
        monkeypatch.setattr(np, "matmul", counting)
        assert ssim(a, b) < 1.0
        assert 0 < len(calls) <= 200

    def test_negated_pattern_scores_negative(self):
        yy, xx = np.mgrid[0:16, 0:16]
        pattern = 0.5 + 0.4 * np.sin(xx * 1.3) * np.sin(yy * 0.9)
        a = Frame(pattern)
        b = Frame(1.0 - pattern)
        got = ssim(a, b)
        assert got < 0.0
        assert got == pytest.approx(ssim_window_loop(a.luma, b.luma, gaussian_window()), abs=1e-9)

    def test_too_small_frame_rejected(self):
        f = Frame(np.zeros((10, 40)))
        with pytest.raises(ValueError):
            ssim(f, f)
        g = Frame(np.zeros((40, 40)))
        with pytest.raises(ValueError):
            ssim(g, g, border=15)


class TestDegradationOrdering:
    def test_psnr_drops_with_scale(self):
        # Table-4-style monotonicity on synthetic texture
        hr = textured(48, 48, 9)
        vals = []
        for s in (2, 3, 4):
            lr = bicubic_resize(hr, 48 // s, 48 // s)
            up = bicubic_resize(lr, 48, 48)
            vals.append(psnr(hr, up, border=s))
        assert vals[0] > vals[1] > vals[2]


class TestCsv:
    def test_rows_and_inf_rendering(self):
        body = metrics_csv([("seq", 0, math.inf, 1.0), ("seq", 1, 31.25, 0.93125)])
        lines = body.strip().split("\n")
        assert lines[0] == "sequence,frame,psnr_db,ssim"
        assert lines[1] == "seq,0,inf,1.0000"
        assert lines[2] == "seq,1,31.2500,0.9313"

    def test_sequence_with_comma_or_quote_reads_back(self):
        rows = [("cand,v2", 0, math.inf, 1.0), ('say "hi"', 1, 31.25, 0.93125)]
        got = list(csv.DictReader(io.StringIO(metrics_csv(rows))))
        assert [(r["sequence"], r["frame"], r["psnr_db"], r["ssim"]) for r in got] == [
            ("cand,v2", "0", "inf", "1.0000"), ('say "hi"', "1", "31.2500", "0.9313")]
        assert all(None not in r for r in got)  # no row has more cells than the header

    def test_format_metric(self):
        assert format_metric(math.inf) == "inf"
        assert format_metric(1.23456) == "1.2346"
