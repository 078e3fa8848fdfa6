"""Frame and clip containers.

A Frame is a luma plane in [0, 1] plus optional 4:2:0 chroma; a VideoClip is an
ordered list of same-geometry frames. A frame holds read-only copies of its
planes, so nothing writes into them once the frame is built, and it compares
and hashes by identity, so a cache can key on the frame itself. A plane given as
8-bit samples maps to [0, 1] as x/255, the one place that rule is written:
the clip readers hand their decoded bytes straight to Frame.
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor_core import DEFAULT_DTYPE

INPUT_FRAMES = 5   # the sliding window every network reads
MIDDLE_FRAME = INPUT_FRAMES // 2   # the window's centre, the frame it upscales
DEFAULT_FRAME_RATE = (30, 1)   # of a clip whose source declares none


def chroma_extent(height: int, width: int) -> tuple[int, int]:
    """(height, width) of a 4:2:0 chroma plane: half the luma's, rounded up."""
    return -(-height // 2), -(-width // 2)


def _clamped_plane(data) -> np.ndarray:
    """A read-only [0, 1] copy of `data`, made in one pass (uint8 samples as
    x/255, anything else clamped), so a plane never changes after its frame
    is built (scene.py caches shrinks by frame)."""
    data = np.asarray(data)
    if data.dtype == np.uint8:
        plane = np.divide(data, 255, dtype=DEFAULT_DTYPE)
    else:
        plane = np.clip(data, 0.0, 1.0, dtype=DEFAULT_DTYPE)
    if plane.ndim != 2:
        raise ValueError(f"plane must be 2D, got shape {plane.shape}")
    plane.flags.writeable = False
    return plane


@dataclass(eq=False)
class Frame:
    """Luma plane (H, W) in [0, 1], optionally with two quarter-res chroma planes."""

    luma: np.ndarray
    chroma: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.luma = _clamped_plane(self.luma)
        if self.chroma is not None:
            u, v = self.chroma
            expect = chroma_extent(self.height, self.width)
            u, v = _clamped_plane(u), _clamped_plane(v)
            if u.shape != expect or v.shape != expect:
                raise ValueError(
                    f"chroma planes must be {expect} for a {self.height}x{self.width} frame, "
                    f"got {u.shape} and {v.shape}")
            self.chroma = (u, v)

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def width(self) -> int:
        return self.luma.shape[1]


@dataclass
class VideoClip:
    """Ordered frames sharing one geometry. frame_rate is informational only."""

    frames: list[Frame] = field(default_factory=list)
    frame_rate: tuple[int, int] = DEFAULT_FRAME_RATE

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a clip needs at least one frame")
        w, h = self.frames[0].width, self.frames[0].height
        for i, f in enumerate(self.frames):
            if (f.width, f.height) != (w, h):
                raise ValueError(f"frame {i} is {f.width}x{f.height}, expected {w}x{h}")

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i) -> Frame:
        return self.frames[i]

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def window(self, center: int) -> list[Frame]:
        """The INPUT_FRAMES frames centred on `center`; indices past either end
        replicate the edge frame."""
        first, last = center - MIDDLE_FRAME, len(self.frames) - 1
        return [self.frames[min(max(i, 0), last)] for i in range(first, first + INPUT_FRAMES)]
