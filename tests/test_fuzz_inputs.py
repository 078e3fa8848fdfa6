"""Fuzz every input a user can hand the program: Y4M, raw YUV and PGM clip
headers, checkpoint headers and config files.

The library may accept an input or refuse it, and refusal is only ever
ClipFormatError, CheckpointError or ConfigError. Each refused input, passed
to the command line, exits 1 or 2 with one line on stderr. A clip read
without its chroma is refused exactly when, and as, the full read is.
"""

import contextlib
import io
import os
import tempfile
from dataclasses import fields

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from vsr3d.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from vsr3d.cli import main
from vsr3d.config import ConfigError, RunConfig, load_config
from vsr3d.frames import Frame, VideoClip
from vsr3d.scene import build_sf_net
from vsr3d.training import xavier_init
from vsr3d.video_io import ClipFormatError, read_clip, write_clip

NUMBERS = st.one_of(st.integers(-3, 40).map(str),
                    st.text("0123456789-+.:x abW", min_size=0, max_size=6))
PAYLOAD = st.binary(max_size=400)


def _refusal(call, allowed):
    """None if call() succeeds, else the allowed error it raised."""
    try:
        call()
    except allowed as exc:
        return exc
    return None


def _cli_refuses(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (1, 2), (argv, code)
    assert err.getvalue().count("\n") == 1, err.getvalue()


def _check_clip(tmp, path, fmt_args=()):
    size = dict(zip(("fmt", "size"), fmt_args))
    error = _refusal(lambda: read_clip(path, **size), ClipFormatError)
    # a read that skips chroma refuses exactly the same inputs, in the same words
    luma_error = _refusal(lambda: read_clip(path, chroma=False, **size), ClipFormatError)
    assert str(luma_error) == str(error) and type(luma_error) is type(error)
    if error:
        argv = ["upscale", path, os.path.join(tmp, "o.y4m"), "--method", "bicubic"]
        if size:
            argv += ["--format", size["fmt"], "--size=" + "x".join(map(str, size["size"]))]
        _cli_refuses(argv)
        assert not os.path.exists(os.path.join(tmp, "o.y4m"))


Y4M_TOKENS = st.lists(st.one_of(
    st.sampled_from(["W16", "H8", "F30:1", "C420", "Ip", "A1:1", "C444", ""]),
    st.tuples(st.sampled_from("WHFCIAX"), NUMBERS).map("".join)), max_size=6)


@given(Y4M_TOKENS, st.sampled_from([b"FRAME\n", b"FRAME", b"FRAMEX\n", b""]), PAYLOAD)
def test_y4m_header(tokens, delimiter, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.y4m")
        with open(path, "wb") as fh:
            fh.write(" ".join(["YUV4MPEG2"] + tokens).encode() + b"\n" + delimiter + payload)
        _check_clip(tmp, path)


@given(st.integers(-4, 20), st.integers(-4, 20), PAYLOAD)
def test_raw_yuv_geometry(w, h, payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.yuv")
        with open(path, "wb") as fh:
            fh.write(payload)
        _check_clip(tmp, path, ("rawyuv420", (w, h)))


PGM_TOKENS = st.tuples(st.sampled_from(["P5", "P2", "", "#c\nP5"]), NUMBERS, NUMBERS,
                      st.one_of(st.just("255"), NUMBERS)).map(list)


@given(PGM_TOKENS, st.sampled_from([" ", "\n", "\t", " #x\n"]), PAYLOAD)
def test_pgm_header(tokens, separator, payload):
    with tempfile.TemporaryDirectory() as tmp:
        frames = os.path.join(tmp, "frames")
        os.mkdir(frames)
        with open(os.path.join(frames, "000.pgm"), "wb") as fh:
            fh.write(separator.join(tokens).encode() + b"\n" + payload)
        _check_clip(tmp, frames)


def _small_checkpoint() -> bytes:
    spec = build_sf_net(2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sf.ckpt")
        save_checkpoint(xavier_init(spec, 0), spec, {"arch": "sf2"}, path)
        with open(path, "rb") as fh:
            return fh.read()


CHECKPOINT = _small_checkpoint()
HEADER_END = CHECKPOINT.index(b"\nend\n")


@given(st.data())
def test_checkpoint_header(data):
    lines = CHECKPOINT[:HEADER_END].split(b"\n")
    i = data.draw(st.integers(1, len(lines) - 1), "line")
    key, _, value = lines[i].partition(b" = ")
    edit = data.draw(st.sampled_from(["value", "word", "drop", "bytes"]), "edit")
    if edit == "value":
        lines[i] = key + b" = " + data.draw(NUMBERS, "value").encode()
    elif edit == "word":
        words = value.split(b" ")
        j = data.draw(st.integers(0, len(words) - 1), "word")
        name, eq, _ = words[j].partition(b"=")
        words[j] = name + eq + data.draw(NUMBERS, "number").encode()
        lines[i] = key + b" = " + b" ".join(words)
    elif edit == "drop":
        del lines[i]
    else:
        lines[i] = data.draw(st.binary(max_size=20), "line bytes")
    blob = b"\n".join(lines) + CHECKPOINT[HEADER_END:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sf.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        if _refusal(lambda: load_checkpoint(path), CheckpointError):
            clip = os.path.join(tmp, "c.y4m")
            write_clip(VideoClip([Frame(np.full((28, 48), 0.5))]), clip)
            _cli_refuses(["scene", clip, "--sf-checkpoint", path])


CONFIG_KEYS = st.sampled_from([f.name for f in fields(RunConfig)] + ["bogus", "", "#"])
CONFIG_LINE = st.one_of(
    st.tuples(CONFIG_KEYS, st.sampled_from([" = ", "=", " ", " == "]),
              st.one_of(NUMBERS, st.sampled_from(["nan", "inf", "-inf", "1e9", "bicubic",
                                                  "y4m", "full", "4x4", ""]))
              ).map("".join),
    st.text(max_size=12))


@given(st.lists(CONFIG_LINE, max_size=5), st.binary(max_size=3))
def test_config_file(lines, trailer):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "wb") as fh:
            fh.write("\n".join(lines).encode() + b"\n" + trailer)
        if _refusal(lambda: load_config(path), ConfigError):
            _cli_refuses(["param-count", "--config", path])
