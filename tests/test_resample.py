import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsr3d import bicubic
from vsr3d.bicubic import (bicubic_resize, bicubic_taps, bicubic_upscale, degrade_clip, resize_plane,
                           upscale_chroma)
from vsr3d.frames import Frame, VideoClip, chroma_extent
from vsr3d.metrics import SSIM_WINDOW, _window_taps
from vsr3d.reference import resize_dense

# the resizes of the benchmark's workloads (luma and chroma, up and down)
BENCH_SIZES = [(720, 360), (360, 720), (1280, 640), (640, 1280), (144, 72), (72, 144),
               (176, 88), (88, 176), (36, 72), (44, 88), (720, 27), (1280, 48)]


def check_shared_arrays(n_in, n_out):
    """The window's full blocks share one array. No resize block shares its
    first block's, whose span folds clamped edge taps, and only a same-size
    resize has blocks whose spans advance by one block."""
    window = bicubic._bands(n_in, n_in - SSIM_WINDOW + 1, _window_taps)
    full = {id(dense) for _, _, dense in window if len(dense) == bicubic._BLOCK}
    assert len(full) <= 1
    resize = bicubic._bands(n_in, n_out, bicubic_taps)
    assert all(dense is not resize[0][2] for _, _, dense in resize[1:])
    assert len({id(dense) for _, _, dense in resize}) == len(resize) or n_in == n_out


class TestKernel:
    def test_cubic_interpolates_grid_points(self):
        from vsr3d.bicubic import cubic
        assert cubic(np.array([0.0]))[0] == 1.0
        assert np.all(cubic(np.array([1.0, 2.0, 2.5])) == 0.0)

    @pytest.mark.parametrize("n_in,n_out", [(8, 8), (8, 16), (16, 8), (7, 3), (5, 13), (100, 48)])
    def test_weight_rows_sum_to_one(self, n_in, n_out):
        _, wts = bicubic_taps(n_in, n_out)
        assert np.max(np.abs(wts.sum(axis=1) - 1.0)) < 1e-9

    def test_downscale_widens_support(self):
        idxu, _ = bicubic_taps(16, 32)
        idxd, _ = bicubic_taps(32, 8)
        assert idxd.shape[1] > idxu.shape[1]


class TestResizePlane:
    def test_identity_dims_are_exact(self):
        rng = np.random.default_rng(0)
        p = rng.random((9, 7))
        assert np.array_equal(resize_plane(p, 9, 7), p)

    @pytest.mark.parametrize("out_h,out_w", [(4, 4), (16, 16), (5, 11)])
    def test_constant_is_fixed_point(self, out_h, out_w):
        p = np.full((8, 8), 0.5)
        out = resize_plane(p, out_h, out_w)
        assert np.max(np.abs(out - 0.5)) < 1e-9

    def test_ramp_down_up_matches_dense_oracle(self):
        ramp = np.tile(np.linspace(0.1, 0.9, 8), (8, 1))
        via_planes = resize_plane(resize_plane(ramp, 4, 4), 8, 8)
        via_oracle = resize_dense(resize_dense(ramp, 4, 4), 8, 8)
        assert np.max(np.abs(via_planes - via_oracle)) < 1e-10

    def test_frame_level_chain_matches_dense_oracle(self):
        # run through Frame (float32 storage) as the pipeline does
        ramp = np.tile(np.linspace(0.1, 0.9, 8), (8, 1))
        small = bicubic_resize(Frame(ramp), 4, 4)
        back = bicubic_resize(small, 8, 8)
        oracle = resize_dense(resize_dense(ramp, 4, 4), 8, 8)
        assert np.max(np.abs(back.luma - oracle)) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims", [(12, 20), (21, 9)])
    def test_random_planes_match_dense_oracle(self, seed, dims):
        rng = np.random.default_rng(seed)
        p = rng.random(dims)
        for out in [(6, 10), (24, 40), (7, 7)]:
            assert np.max(np.abs(resize_plane(p, *out) - resize_dense(p, *out))) < 1e-10

    def test_antialias_tames_stripes(self):
        # period-2 stripes shrunk 3x: the widened kernel averages the alias
        # energy away
        stripes = np.tile(np.arange(18) % 2 * 1.0, (18, 1))
        assert resize_plane(stripes, 6, 6).var() < 0.01

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            resize_plane(np.zeros((3, 3, 3)), 2, 2)


class TestBands:
    """The banded GEMM against the dense oracle, with blocks of 5 outputs."""

    @pytest.mark.parametrize("n_in,n_out", [(23, 1), (23, 9), (9, 23), (40, 17), (17, 40),
                                            (21, 21)])
    def test_matches_dense_oracle_across_blocks(self, small_blocks, n_in, n_out):
        p = np.random.default_rng(n_in * 64 + n_out).random((n_in, n_in + 3))
        got = resize_plane(p, n_out, n_out + 2)
        want = resize_dense(p, n_out, n_out + 2)
        assert np.max(np.abs(got - want)) < 1e-12
        for extent_in, extent_out in ((n_in, n_out), (n_in + 3, n_out + 2)):
            bands = bicubic._bands(extent_in, extent_out, bicubic_taps)
            assert len(bands) == -(-extent_out // small_blocks)

    def test_second_resize_at_the_same_sizes_reuses_the_bands(self):
        # the tap function is one object, so equal sizes find one cache key
        p = np.random.default_rng(7).random((37, 29))
        resize_plane(p, 53, 19)
        misses = bicubic._bands.cache_info().misses
        resize_plane(p, 53, 19)
        assert bicubic._bands.cache_info().misses == misses

    @pytest.mark.parametrize("n_in,n_out", BENCH_SIZES)
    def test_only_the_window_shares_arrays_at_bench_sizes(self, n_in, n_out):
        check_shared_arrays(n_in, n_out)

    @given(st.integers(SSIM_WINDOW, 1500), st.integers(1, 1500))
    def test_only_the_window_shares_arrays(self, n_in, n_out):
        check_shared_arrays(n_in, n_out)

    def test_bands_cover_only_touched_inputs(self, small_blocks):
        # an 8x enlargement: each block of 5 outputs reads a few inputs, not all 12
        bands = bicubic._bands(12, 96, bicubic_taps)
        assert len(bands) == 20
        assert max(dense.shape[1] for _, _, dense in bands) <= 7


class TestChroma:
    def make_frame(self, h=8, w=8, seed=3):
        rng = np.random.default_rng(seed)
        return Frame(rng.random((h, w)),
                     (rng.random((h // 2, w // 2)), rng.random((h // 2, w // 2))))

    def test_scale_one_is_identity(self):
        f = self.make_frame()
        out = upscale_chroma(f, f.luma)
        assert np.array_equal(out.chroma[0], f.chroma[0])
        assert np.array_equal(out.chroma[1], f.chroma[1])
        assert np.array_equal(out.luma, f.luma)

    def test_constant_chroma_stays_constant(self):
        f = Frame(np.zeros((8, 8)), (np.full((4, 4), 0.25), np.full((4, 4), 0.75)))
        out = upscale_chroma(f, np.zeros((16, 16)))
        assert np.max(np.abs(out.chroma[0] - 0.25)) < 1e-9
        assert np.max(np.abs(out.chroma[1] - 0.75)) < 1e-9

    def test_matches_planewise_resize(self):
        f = self.make_frame(10, 6, seed=11)
        out = upscale_chroma(f, np.zeros((20, 12)))
        for got, plane in zip(out.chroma, f.chroma):
            want = bicubic_resize(Frame(plane), 6, 10).luma
            assert np.array_equal(got, want)

    def test_missing_chroma_rejected(self):
        with pytest.raises(ValueError):
            upscale_chroma(Frame(np.zeros((8, 8))), np.zeros((16, 16)))

    def test_odd_luma_gets_rounded_up_chroma(self):
        # the chroma follows the luma it joins, whatever scale produced it
        f = self.make_frame(10, 6, seed=12)
        hr_luma = np.zeros((15, 9))
        out = upscale_chroma(f, hr_luma)
        assert [p.shape for p in out.chroma] == [chroma_extent(15, 9)] * 2 == [(8, 5)] * 2
        assert np.array_equal(out.luma, hr_luma)

    def test_given_luma_replaces_the_frames(self):
        f = self.make_frame(8, 8, seed=13)
        hr_luma = np.random.default_rng(14).random((24, 24)).astype(np.float32)
        out = upscale_chroma(f, hr_luma)
        assert np.array_equal(out.luma, hr_luma)
        assert [p.shape for p in out.chroma] == [(12, 12)] * 2


class TestBicubicUpscale:
    """The one base every SR output is a residual on."""

    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_matches_resize_to_the_scaled_extent(self, scale):
        f = Frame(np.random.default_rng(scale).random((7, 10)))
        out = bicubic_upscale(f, scale)
        assert out.luma.shape == (7 * scale, 10 * scale)
        assert np.array_equal(out.luma, bicubic_resize(f, 10 * scale, 7 * scale).luma)

    def test_scale_one_keeps_the_luma(self):
        f = Frame(np.random.default_rng(21).random((9, 6)))
        assert np.array_equal(bicubic_upscale(f, 1).luma, f.luma)

    def test_upscales_luma_only(self):
        rng = np.random.default_rng(22)
        f = Frame(rng.random((8, 6)), (rng.random((4, 3)), rng.random((4, 3))))
        out = bicubic_upscale(f, 2)
        assert out.chroma is None
        assert np.array_equal(out.luma, bicubic_upscale(Frame(f.luma), 2).luma)


class TestFrameTypes:
    def test_luma_is_clamped_on_creation(self):
        f = Frame(np.array([[-1.0, 0.5], [2.0, 1.0]]))
        assert f.luma.min() >= 0.0 and f.luma.max() <= 1.0

    def test_planes_are_read_only(self):
        f = Frame(np.zeros((4, 4)), (np.zeros((2, 2)), np.zeros((2, 2))))
        for plane in (f.luma,) + f.chroma:
            with pytest.raises(ValueError):
                plane[0, 0] = 1.0

    def test_float32_input_is_not_mutated(self):
        data = np.array([[-1.0, 0.5], [2.0, 1.0]], dtype=np.float32)
        f = Frame(data)
        assert data.tolist() == [[-1.0, 0.5], [2.0, 1.0]]
        assert f.luma is not data and data.flags.writeable

    def test_float64_input_makes_one_float32_copy(self):
        import tracemalloc
        data = np.random.default_rng(0).uniform(-0.5, 1.5, (256, 512))
        tracemalloc.start()
        try:
            f = Frame(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.luma.dtype == np.float32
        assert peak < 1.5 * f.luma.nbytes

    def test_frames_compare_and_hash_by_identity(self):
        plane = np.random.default_rng(3).random((4, 6))
        f, g = Frame(plane), Frame(plane.copy())
        assert f != g and not f == g
        assert f == f
        assert hash(f) == hash(f) and len({f, g, f}) == 2

    def test_chroma_extents_checked(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((8, 8)), (np.zeros((3, 4)), np.zeros((4, 4))))

    def test_clip_requires_uniform_geometry(self):
        with pytest.raises(ValueError):
            VideoClip([Frame(np.zeros((4, 4))), Frame(np.zeros((4, 6)))])
        with pytest.raises(ValueError):
            VideoClip([])

    def test_window_replicates_edges(self):
        clip = VideoClip([Frame(np.full((4, 4), v)) for v in (0.1, 0.2, 0.3)])
        first = clip.window(0)
        assert [f.luma[0, 0] for f in first] == pytest.approx([0.1, 0.1, 0.1, 0.2, 0.3])
        last = clip.window(2)
        assert [f.luma[0, 0] for f in last] == pytest.approx([0.1, 0.2, 0.3, 0.3, 0.3])

    def test_degrade_clip_crops_to_multiple(self):
        clip = VideoClip([Frame(np.zeros((11, 13)))] * 2)
        lr = degrade_clip(clip, 3)
        assert (lr.height, lr.width) == (3, 4)
        assert len(lr) == 2
