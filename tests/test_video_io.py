import os

import numpy as np
import pytest

from vsr3d.frames import Frame, VideoClip
from vsr3d.video_io import ClipFormatError, detect_format, read_clip, to_bytes, write_clip


def random_clip(n=3, h=8, w=16, seed=0, chroma=True):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        pair = ((rng.random((h // 2, w // 2)), rng.random((h // 2, w // 2)))
                if chroma else None)
        frames.append(Frame(rng.random((h, w)), pair))
    return VideoClip(frames, frame_rate=(25, 1))


def refused(path, match=None, **kwargs):
    """Assert read_clip refuses `path` with a ClipFormatError, with the same
    message when it skips chroma."""
    messages = []
    for chroma in (True, False):
        with pytest.raises(ClipFormatError, match=match) as info:
            read_clip(path, chroma=chroma, **kwargs)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def assert_luma_only_read_matches(path, **kwargs):
    """read_clip without chroma gives the full read's luma bit for bit, and no chroma."""
    full, luma = read_clip(path, **kwargs), read_clip(path, chroma=False, **kwargs)
    assert len(luma) == len(full) and luma.frame_rate == full.frame_rate
    for f, g in zip(full, luma):
        assert f.chroma is not None and g.chroma is None
        assert g.luma.dtype == f.luma.dtype and not g.luma.flags.writeable
        assert np.array_equal(g.luma.view(np.uint32), f.luma.view(np.uint32))
    return full


class TestFrameFromBytes:
    def test_every_byte_maps_to_x_over_255(self):
        samples = np.arange(256, dtype=np.uint8).reshape(16, 16)
        frame = Frame(samples, (samples[:8, :8], samples[8:, 8:]))
        want = samples.astype(np.float32) / 255
        assert frame.luma.dtype == np.float32
        assert np.array_equal(frame.luma.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(frame.chroma[1].view(np.uint32), want[8:, 8:].view(np.uint32))
        for plane in (frame.luma, *frame.chroma):
            assert not plane.flags.writeable
            assert not np.shares_memory(plane, samples)


class TestLumaOnlyReads:
    def test_y4m_frames_with_parameters(self, tmp_path):
        rng = np.random.default_rng(12)
        w, h = 10, 6
        frames = [rng.integers(0, 256, w * h * 3 // 2, dtype=np.uint8).tobytes()
                  for _ in range(4)]
        delimiters = [b"FRAME\n", b"FRAME Ip XA=1\n", b"FRAME\n", b"FRAME Ib\n"]
        p = tmp_path / "params.y4m"
        p.write_bytes(b"YUV4MPEG2 W10 H6 F25:1 C420jpeg\n"
                      + b"".join(d + f for d, f in zip(delimiters, frames)))
        full = assert_luma_only_read_matches(str(p))
        assert len(full) == 4 and full.frame_rate == (25, 1)
        last = np.frombuffer(frames[3], dtype=np.uint8)
        assert np.array_equal(full[3].luma * 255, last[:w * h].reshape(h, w))
        assert np.array_equal(full[3].chroma[1] * 255, last[-w * h // 4:].reshape(h // 2, w // 2))

    def test_written_y4m(self, tmp_path):
        p = str(tmp_path / "clip.y4m")
        write_clip(random_clip(n=5, seed=13), p)
        assert_luma_only_read_matches(p)

    def test_raw_yuv(self, tmp_path):
        p = str(tmp_path / "clip.yuv")
        write_clip(random_clip(n=3, seed=14), p)
        assert_luma_only_read_matches(p, size=(16, 8))
        assert_luma_only_read_matches(p, fmt="rawyuv420", size=(16, 8))

    def test_truncated_last_frame_refused_with_or_without_chroma(self, tmp_path):
        # the missing bytes are chroma only: skipping chroma still checks them
        p = tmp_path / "short.yuv"
        p.write_bytes(bytes(16 * 8 * 3 // 2) + bytes(16 * 8 + 1))
        refused(str(p), match="truncated frame payload", size=(16, 8))

    def test_pgm_directory_is_luma_either_way(self, tmp_path):
        d = str(tmp_path / "frames")
        write_clip(random_clip(n=2, seed=15, chroma=False), d)
        a, b = read_clip(d), read_clip(d, chroma=False)
        assert all(np.array_equal(f.luma, g.luma) and f.chroma is g.chroma is None
                   for f, g in zip(a, b))


class TestQuantization:
    def test_half_rounds_up(self):
        assert to_bytes(np.array([[0.5]])) == bytes([128])
        assert to_bytes(np.array([[127.49 / 255]])) == bytes([127])

    def test_out_of_range_clamped(self):
        assert to_bytes(np.array([[-0.2, 1.7]])) == bytes([0, 255])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            to_bytes(np.array([[0.5, bad]]))


class TestRawYuv:
    def test_roundtrip_within_quantization(self, tmp_path):
        clip = random_clip(seed=4)
        p = str(tmp_path / "clip.yuv")
        write_clip(clip, p)
        back = read_clip(p, size=(16, 8))
        assert len(back) == len(clip)
        for f0, f1 in zip(clip.frames, back.frames):
            assert np.max(np.abs(f0.luma - f1.luma)) <= 1.0 / 510.0 + 1e-9
            assert np.max(np.abs(f0.chroma[0] - f1.chroma[0])) <= 1.0 / 510.0 + 1e-9

    def test_second_roundtrip_is_exact(self, tmp_path):
        # once quantized, further write/read cycles are lossless
        p1, p2 = str(tmp_path / "a.yuv"), str(tmp_path / "b.yuv")
        write_clip(random_clip(seed=5), p1)
        once = read_clip(p1, size=(16, 8))
        write_clip(once, p2)
        twice = read_clip(p2, size=(16, 8))
        for f0, f1 in zip(once.frames, twice.frames):
            assert np.array_equal(f0.luma, f1.luma)

    def test_requires_size(self, tmp_path):
        p = str(tmp_path / "clip.yuv")
        write_clip(random_clip(), p)
        refused(p)

    def test_odd_geometry_rejected(self, tmp_path):
        clip = VideoClip([Frame(np.zeros((7, 10)))])
        with pytest.raises(ClipFormatError):
            write_clip(clip, str(tmp_path / "odd.yuv"))


class TestY4m:
    def test_roundtrip_preserves_header_fields(self, tmp_path):
        clip = random_clip(n=2, seed=8)
        p = str(tmp_path / "clip.y4m")
        write_clip(clip, p)
        back = read_clip(p)
        assert (back.width, back.height) == (16, 8)
        assert back.frame_rate == (25, 1)
        assert len(back) == 2
        assert back[0].chroma is not None

    def test_parses_minimal_header(self, tmp_path):
        w, h = 16, 8
        payload = bytes(range(w * h)) + bytes([128]) * (w * h // 2)
        p = tmp_path / "hand.y4m"
        p.write_bytes(b"YUV4MPEG2 W16 H8 F30:1 C420\n" + b"FRAME\n" + payload)
        clip = read_clip(str(p))
        assert (clip.width, clip.height) == (16, 8)
        assert clip.frame_rate == (30, 1)
        assert clip[0].luma[0, 1] == pytest.approx(1.0 / 255.0)

    def test_luma_only_clip_gets_neutral_chroma(self, tmp_path):
        clip = random_clip(n=1, chroma=False, seed=2)
        p = str(tmp_path / "grey.y4m")
        write_clip(clip, p)
        back = read_clip(p)
        assert np.all(back[0].chroma[0] == pytest.approx(128.0 / 255.0))

    def test_bad_signature_rejected(self, tmp_path):
        p = tmp_path / "bad.y4m"
        p.write_bytes(b"JUNKHEADER W4 H4\nFRAME\n" + bytes(24))
        refused(str(p))

    def test_unsupported_chroma_mode_rejected(self, tmp_path):
        p = tmp_path / "c444.y4m"
        p.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C444\n")
        refused(str(p))

    def test_high_bit_depth_420_rejected_at_the_header(self, tmp_path):
        p = tmp_path / "c420p10.y4m"
        p.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C420p10\nFRAME\n" + bytes(48))
        refused(str(p), match="unsupported chroma mode 'C420p10'")

    def test_420_siting_tags_read(self, tmp_path):
        p = tmp_path / "jpeg.y4m"
        p.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C420jpeg\nFRAME\n" + bytes(24))
        clip = read_clip(str(p))
        assert (clip.width, clip.height, len(clip)) == (4, 4, 1)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "trunc.y4m"
        p.write_bytes(b"YUV4MPEG2 W16 H8 F30:1 C420\nFRAME\n" + bytes(10))
        refused(str(p))


class TestPgmDir:
    def test_order_and_length(self, tmp_path):
        vals = (10, 20, 30)
        clip = VideoClip([Frame(np.full((4, 6), v / 255.0)) for v in vals])
        d = str(tmp_path / "frames")
        write_clip(clip, d)
        back = read_clip(d)
        assert len(back) == 3
        for frame, v in zip(back.frames, vals):
            assert np.all(frame.luma == pytest.approx(v / 255.0))

    def test_comment_in_header(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "000.pgm").write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        clip = read_clip(str(d))
        assert clip[0].luma[1, 1] == 1.0

    def test_wrong_maxval_rejected(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "000.pgm").write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        refused(str(d))

    def test_empty_dir_rejected(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        refused(str(d))


class TestDetect:
    def test_extensions_and_dirs(self, tmp_path):
        assert detect_format("a.y4m") == "y4m"
        assert detect_format("a.yuv") == "rawyuv420"
        assert detect_format(str(tmp_path)) == "pgmdir"
        with pytest.raises(ClipFormatError):
            detect_format("clip.mp4")


class TestHeaderErrors:
    """A malformed header fails as ClipFormatError, never as a bare
    ValueError or as a clip without pixels."""

    @pytest.mark.parametrize("header", [b"P5 -2 2 255\n", b"P5 2 0 255\n", b"P5 two 2 255\n",
                                        b"P5 2 2 x\n"])
    def test_bad_pgm_header(self, tmp_path, header):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "000.pgm").write_bytes(header + bytes(16))
        refused(str(d))

    def test_pgm_frames_of_two_geometries(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "000.pgm").write_bytes(b"P5 2 2 255\n" + bytes(4))
        (d / "001.pgm").write_bytes(b"P5 4 2 255\n" + bytes(8))
        refused(str(d))

    @pytest.mark.parametrize("token", [b"Wabc", b"W", b"H8.5", b"F30:0", b"F0:1"])
    def test_bad_y4m_token(self, tmp_path, token):
        fields = {b"W": b"W16", b"H": b"H8", b"F": b"F30:1"}
        fields[token[:1]] = token
        p = tmp_path / "bad.y4m"
        p.write_bytes(b"YUV4MPEG2 " + b" ".join(fields.values()) + b" C420\nFRAME\n"
                      + bytes(16 * 8 * 3 // 2))
        refused(str(p))


class TestPgmDirOutput:
    def failing_clip(self):
        # frame 2 cannot be quantized, so the write fails after two frames
        planes = [np.full((4, 6), 0.25), np.full((4, 6), 0.5), np.full((4, 6), np.nan)]
        return VideoClip([Frame(p) for p in planes])

    def test_failed_write_leaves_no_directory(self, tmp_path):
        d = tmp_path / "frames"
        with pytest.raises(ValueError, match="non-finite"):
            write_clip(self.failing_clip(), str(d))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_existing_directory_as_it_was(self, tmp_path):
        d = tmp_path / "frames"
        write_clip(VideoClip([Frame(np.full((4, 6), 0.75))] * 4), str(d))
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        with pytest.raises(ValueError, match="non-finite"):
            write_clip(self.failing_clip(), str(d))
        assert {p.name: p.read_bytes() for p in d.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["frames"]

    def test_complete_write_replaces_frames_and_keeps_other_files(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        (d / "000000.pgm").write_bytes(b"stale")
        (d / "notes.txt").write_bytes(b"mine")
        write_clip(VideoClip([Frame(np.full((4, 6), 0.5))] * 2), str(d) + os.sep)
        assert sorted(p.name for p in d.iterdir()) == ["000000.pgm", "000001.pgm", "notes.txt"]
        assert len(read_clip(str(d))) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["frames"]

    def test_shorter_clip_removes_the_longer_ones_frames(self, tmp_path):
        d = tmp_path / "frames"
        write_clip(VideoClip([Frame(np.full((4, 6), 0.8))] * 5), str(d))
        (d / "notes.txt").write_bytes(b"mine")
        (d / "0000002.pgm").write_bytes(b"not a frame name")
        write_clip(VideoClip([Frame(np.full((4, 6), 0.2))] * 2), str(d))
        assert {p.name for p in d.iterdir()} == {"000000.pgm", "000001.pgm", "0000002.pgm",
                                                 "notes.txt"}
        (d / "0000002.pgm").unlink()
        assert [round(float(f.luma.mean()), 1) for f in read_clip(str(d))] == [0.2, 0.2]
