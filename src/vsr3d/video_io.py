"""Clip readers and writers: Y4M, raw planar YUV 4:2:0, and PGM directories.

Readers hand each plane's 8-bit samples to Frame, which maps them to [0,1]
as x/255 in one pass; writing rounds half-up and clamps. The YUV readers
decode a frame at a time into one reused byte buffer, and without `chroma`
they seek past both chroma planes, so a luma-only clip holds one plane per
frame. Raw YUV needs an explicit geometry; Y4M carries its own header; a PGM
directory is one binary (P5, maxval 255) luma image per frame in
lexicographic filename order.
"""

import os
import re
import shutil
from contextlib import contextmanager

import numpy as np

from .frames import DEFAULT_FRAME_RATE, Frame, VideoClip, chroma_extent

FORMATS = ("y4m", "rawyuv420", "pgmdir")
# 8-bit 4:2:0 under each chroma siting the Y4M spec names
_Y4M_420_TAGS = ("C420", "C420jpeg", "C420paldv", "C420mpeg2")


class ClipFormatError(ValueError):
    """Malformed header, truncated payload, or unusable geometry."""


@contextmanager
def atomic_write(path: str):
    """Binary file handle whose contents replace `path` only if the block
    completes; on any failure `path` is left as it was and nothing else
    remains."""
    # written beside the destination so os.replace stays on one file system
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as exc:  # name the file the caller asked for
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def detect_format(path: str) -> str:
    if os.path.isdir(path) or (not os.path.exists(path) and not os.path.splitext(path)[1]):
        return "pgmdir"
    ext = os.path.splitext(path)[1].lower()
    if ext == ".y4m":
        return "y4m"
    if ext in (".yuv", ".raw"):
        return "rawyuv420"
    if ext == ".pgm":
        raise ClipFormatError("single PGM files are not clips; pass their directory")
    raise ClipFormatError(f"cannot infer clip format from {path!r}; pass --format")


def to_bytes(plane: np.ndarray) -> bytes:
    """[0,1] floats to 8-bit, rounding halves up; NaN or inf is refused."""
    p = np.asarray(plane, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("cannot write a plane with non-finite samples")
    q = np.floor(p * 255.0 + 0.5)
    return np.clip(q, 0, 255).astype(np.uint8).tobytes()


def _header_int(text, what: str) -> int:
    """A positive header integer; anything else is a ClipFormatError."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ClipFormatError(f"{what} must be a positive integer, got {text!r}")
    return value


def _check_even(w: int, h: int):
    if w % 2 or h % 2:
        raise ClipFormatError(f"4:2:0 needs even geometry, got {w}x{h}")


def _read_yuv_frames(fh, w: int, h: int, frame_rate, delimited: bool,
                     chroma: bool) -> VideoClip:
    frames = []
    ch, cw = chroma_extent(h, w)
    frame_bytes = w * h + 2 * cw * ch
    file_bytes = os.fstat(fh.fileno()).st_size
    buf = None
    while True:
        if delimited:
            line = fh.readline()
            if not line:
                break
            if not line.startswith(b"FRAME"):
                raise ClipFormatError("expected FRAME delimiter")
        elif fh.tell() == file_bytes:
            break
        # checked before reading, so a huge declared geometry cannot
        # allocate more than the file holds
        if file_bytes - fh.tell() < frame_bytes:
            raise ClipFormatError(f"truncated frame payload ({w}x{h} frames take "
                                  f"{frame_bytes} bytes, {file_bytes - fh.tell()} left)")
        if buf is None:  # one buffer, reused by every frame: Frame copies out of it
            buf = np.empty(frame_bytes if chroma else w * h, dtype=np.uint8)
            y = buf[:w * h].reshape(h, w)
            uv = (buf[w * h:w * h + cw * ch].reshape(ch, cw),
                  buf[w * h + cw * ch:].reshape(ch, cw)) if chroma else None
        fh.readinto(buf)
        if not chroma:
            fh.seek(frame_bytes - buf.size, os.SEEK_CUR)
        frames.append(Frame(y, uv))
    if not frames:
        raise ClipFormatError("no frames in stream")
    return VideoClip(frames, frame_rate)


def _read_y4m(path: str, chroma: bool) -> VideoClip:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").strip()
        tokens = header.split(" ")
        if tokens[0] != "YUV4MPEG2":
            raise ClipFormatError("missing YUV4MPEG2 signature")
        w = h = 0
        rate = DEFAULT_FRAME_RATE
        for tok in tokens[1:]:
            if tok.startswith("W"):
                w = _header_int(tok[1:], "Y4M width")
            elif tok.startswith("H"):
                h = _header_int(tok[1:], "Y4M height")
            elif tok.startswith("F"):
                m = re.fullmatch(r"F(\d+):(\d+)", tok)
                rate = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
                if 0 in rate:
                    raise ClipFormatError(f"bad frame rate token {tok!r}")
            elif tok.startswith("C") and tok not in _Y4M_420_TAGS:
                raise ClipFormatError(f"unsupported chroma mode {tok!r} (only 4:2:0)")
        if w <= 0 or h <= 0:
            raise ClipFormatError("header lacks W/H geometry")
        _check_even(w, h)
        return _read_yuv_frames(fh, w, h, rate, delimited=True, chroma=chroma)


def _read_rawyuv(path: str, size: tuple[int, int] | None, chroma: bool) -> VideoClip:
    if size is None:
        raise ClipFormatError("raw YUV420 needs an explicit geometry (--size WxH)")
    w, h = size
    if w < 1 or h < 1:
        raise ClipFormatError(f"raw YUV420 geometry must be positive, got {w}x{h}")
    _check_even(w, h)
    with open(path, "rb") as fh:
        return _read_yuv_frames(fh, w, h, DEFAULT_FRAME_RATE, delimited=False, chroma=chroma)


def _read_pgm(path: str) -> np.ndarray:
    """A binary PGM's 8-bit samples, (height, width)."""
    with open(path, "rb") as fh:
        data = fh.read()
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments running to end of line
    pos, fields = 0, []
    while len(fields) < 4:
        if pos >= len(data):
            raise ClipFormatError(f"{path}: truncated PGM header")
        c = data[pos: pos + 1]
        if c == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise ClipFormatError(f"{path}: truncated PGM header")
            continue
        if c.isspace():
            pos += 1
            continue
        end = pos
        while end < len(data) and not data[end: end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise ClipFormatError(f"{path}: not a binary PGM (P5)")
    w, h, maxval = (_header_int(f, f"{path}: PGM {what}")
                    for f, what in zip(fields[1:], ("width", "height", "maxval")))
    if maxval != 255:
        raise ClipFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if len(data) - pos < w * h:
        raise ClipFormatError(f"{path}: truncated PGM payload")
    return np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w)


def _read_pgmdir(path: str) -> VideoClip:
    names = sorted(n for n in os.listdir(path) if n.lower().endswith(".pgm"))
    if not names:
        raise ClipFormatError(f"no .pgm files in {path}")
    frames = [Frame(_read_pgm(os.path.join(path, n))) for n in names]
    try:
        return VideoClip(frames)
    except ValueError as exc:  # frames of different geometries
        raise ClipFormatError(f"{path}: {exc}") from None


def read_clip(path: str, fmt: str | None = None, size: tuple[int, int] | None = None,
              chroma: bool = True) -> VideoClip:
    """A whole clip. Without `chroma`, a Y4M or raw YUV clip's frames carry
    luma only (chroma None): each frame's chroma bytes are checked as present
    and skipped, so a clip is refused exactly when it would be with them."""
    fmt = fmt or detect_format(path)
    if fmt == "y4m":
        return _read_y4m(path, chroma)
    if fmt == "rawyuv420":
        return _read_rawyuv(path, size, chroma)
    if fmt == "pgmdir":
        return _read_pgmdir(path)
    raise ClipFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def write_pgm(plane: np.ndarray, path: str):
    """One [0,1] plane as a binary PGM."""
    h, w = plane.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(to_bytes(plane))


def _chroma_bytes(frame: Frame) -> bytes:
    if frame.chroma is not None:
        u, v = frame.chroma
        return to_bytes(u) + to_bytes(v)
    ch, cw = chroma_extent(frame.height, frame.width)
    return bytes([128]) * (2 * ch * cw)  # neutral chroma for luma-only sources


def _write_pgmdir(clip: VideoClip, path: str):
    # frames go to a temp directory beside the destination and are moved in
    # only once the last is written; other files in the destination stay
    tmp = f"{os.path.normpath(path)}.{os.getpid()}.tmp"
    os.makedirs(tmp)
    try:
        names = [f"{i:06d}.pgm" for i in range(len(clip))]
        for name, f in zip(names, clip.frames):
            write_pgm(f.luma, os.path.join(tmp, name))
        os.makedirs(path, exist_ok=True)
        for name in names:
            os.replace(os.path.join(tmp, name), os.path.join(path, name))
        for name in os.listdir(path):  # a longer clip's frames past this one's
            index = name.removesuffix(".pgm")
            if index.isdecimal() and int(index) >= len(names) and name == f"{int(index):06d}.pgm":
                os.remove(os.path.join(path, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def write_clip(clip: VideoClip, path: str, fmt: str | None = None):
    """Write a clip. It appears only once every frame is written: a Y4M or
    raw YUV file replaces the destination in one step, and a PGM directory's
    frame files are moved into it after the last one is written."""
    fmt = fmt or detect_format(path)
    if fmt == "pgmdir":
        _write_pgmdir(clip, path)
        return
    if fmt not in FORMATS:
        raise ClipFormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    _check_even(clip.width, clip.height)
    header, delimiter = b"", b""
    if fmt == "y4m":
        num, den = clip.frame_rate
        header = (f"YUV4MPEG2 W{clip.width} H{clip.height} F{num}:{den} "
                  f"Ip A1:1 C420\n").encode("ascii")
        delimiter = b"FRAME\n"
    with atomic_write(path) as fh:
        fh.write(header)
        for f in clip.frames:
            fh.write(delimiter + to_bytes(f.luma) + _chroma_bytes(f))
